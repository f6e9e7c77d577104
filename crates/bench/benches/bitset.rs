//! Micro-benchmarks of the `DataSet` bitset kernels — `is_disjoint` is
//! the innermost operation of every conflict test (`is_unsafe_with`
//! evaluates two of them per transaction pair), so its per-call cost
//! bounds the scheduler's O(pairs) work at every conflict epoch.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rtx_preanalysis::sets::{DataSet, ItemId};

/// Deterministic splitmix-style stream for reproducible populations.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, below: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as u32) % below
    }
}

/// A pseudo-random set of `n` items drawn from a `universe`-item space.
fn random_set(seed: u64, universe: u32, n: usize) -> DataSet {
    let mut rng = Lcg(seed);
    let mut s = DataSet::new();
    while s.len() < n {
        s.insert(ItemId(rng.next(universe)));
    }
    s
}

fn bench_disjoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset");
    // (universe, population) pairs: the paper's 30-item hot store, a
    // disk-resident 1 000-item store, and a wide synthetic store whose
    // word vectors exercise the 4-wide blocked path.
    for &(universe, pop) in &[(30u32, 10usize), (1_000, 20), (16_384, 64)] {
        let a = random_set(1, universe, pop);
        let b = random_set(2, universe, pop);
        let id = format!("u{universe}_n{pop}");
        group.bench_with_input(BenchmarkId::new("is_disjoint", &id), &id, |bch, _| {
            bch.iter(|| black_box(black_box(&a).is_disjoint(black_box(&b))));
        });
    }
    // Worst case for early exit: provably disjoint wide sets (odd vs even
    // word parity) force a full-length scan.
    let evens: DataSet = (0..256u32).map(|i| ItemId(i * 128)).collect();
    let odds: DataSet = (0..256u32).map(|i| ItemId(i * 128 + 64)).collect();
    group.bench_function("is_disjoint/full_scan_512w", |bch| {
        bch.iter(|| black_box(black_box(&evens).is_disjoint(black_box(&odds))));
    });
    group.finish();
}

fn bench_pairwise_conflict(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset_pairwise");
    // A pair-at-a-time unsafe scan, the `Verify` oracle's shape: one
    // partial's written set probed against many candidates' might_access
    // sets. The engine's clear-repair walk takes the same set from its
    // per-item slot rows instead, one OR per item.
    for &mpl in &[64usize, 1024] {
        let written = random_set(3, 30, 8);
        let candidates: Vec<DataSet> = (0..mpl)
            .map(|i| random_set(100 + i as u64, 30, 12))
            .collect();
        group.bench_with_input(BenchmarkId::new("probe_all", mpl), &mpl, |bch, _| {
            bch.iter(|| {
                let mut unsafe_count = 0usize;
                for cand in &candidates {
                    if !written.is_disjoint(cand) {
                        unsafe_count += 1;
                    }
                }
                black_box(unsafe_count)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_disjoint, bench_pairwise_conflict
}
criterion_main!(benches);
