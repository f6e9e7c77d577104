//! Random variates used by the paper's workload model.
//!
//! The workload needs exponential inter-arrival times (Poisson process),
//! normal update counts, uniform slack percentages, uniform item draws and
//! Bernoulli IO draws (§4, §5). `rand` ships only the uniform/Bernoulli
//! primitives in its core crate, so the exponential and normal samplers are
//! implemented here (inversion and Marsaglia polar method respectively) on
//! top of [`rand::RngCore`]. Keeping the samplers in-repo also pins the
//! exact variate sequences, which the determinism tests rely on.

use rand::RngCore;

/// Draw a `f64` uniformly from `[0, 1)` using 53 random mantissa bits.
#[inline]
pub fn uniform_unit<R: RngCore>(rng: &mut R) -> f64 {
    // 53 high bits → uniform double in [0,1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draw uniformly from `[lo, hi)`. `lo == hi` returns `lo`.
#[inline]
pub fn uniform_range<R: RngCore>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "uniform_range requires lo <= hi");
    lo + (hi - lo) * uniform_unit(rng)
}

/// Draw a `u64` uniformly from `[0, n)` without modulo bias
/// (Lemire's rejection method). Panics if `n == 0`.
#[inline]
pub fn uniform_below<R: RngCore>(rng: &mut R, n: u64) -> u64 {
    assert!(n > 0, "uniform_below requires n > 0");
    // Widening-multiply rejection sampling.
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (n as u128);
    let mut lo = m as u64;
    if lo < n {
        let threshold = n.wrapping_neg() % n;
        while lo < threshold {
            x = rng.next_u64();
            m = (x as u128) * (n as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
#[inline]
pub fn bernoulli<R: RngCore>(rng: &mut R, p: f64) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        uniform_unit(rng) < p
    }
}

/// Exponentially distributed variate with the given `mean` (= 1/λ), via
/// inversion. Panics if `mean` is not positive and finite.
#[inline]
pub fn exponential<R: RngCore>(rng: &mut R, mean: f64) -> f64 {
    assert!(
        mean > 0.0 && mean.is_finite(),
        "exponential mean must be positive and finite"
    );
    let mut u = uniform_unit(rng);
    // ln(0) would be -inf; nudge to the smallest representable positive.
    if u == 0.0 {
        u = f64::MIN_POSITIVE;
    }
    -mean * u.ln()
}

/// Normal sampler (Marsaglia polar method) that caches the spare variate.
///
/// Stateful so that both variates of each polar round are consumed, halving
/// the RNG draws; the state also keeps variate sequences deterministic.
#[derive(Debug, Clone, Default)]
pub struct NormalSampler {
    spare: Option<f64>,
}

impl NormalSampler {
    /// Fresh sampler with no cached spare.
    pub fn new() -> Self {
        NormalSampler { spare: None }
    }

    /// Draw one N(mean, std²) variate.
    pub fn sample<R: RngCore>(&mut self, rng: &mut R, mean: f64, std: f64) -> f64 {
        debug_assert!(std >= 0.0, "standard deviation cannot be negative");
        if let Some(z) = self.spare.take() {
            return mean + std * z;
        }
        loop {
            let u = 2.0 * uniform_unit(rng) - 1.0;
            let v = 2.0 * uniform_unit(rng) - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * factor);
                return mean + std * u * factor;
            }
        }
    }
}

/// Sample `k` **distinct** values from `0..n` uniformly (partial
/// Fisher–Yates). Panics if `k > n`.
///
/// The paper draws each transaction type's item set this way: "the actual
/// database items are chosen uniformly from the range of database size".
///
/// Step `i` of the shuffle swaps position `i` of the pool `0..n` with a
/// uniform position `j ≥ i` and keeps what lands at `i`. Building the
/// pool costs O(n); tracking only the positions a swap moved costs
/// O(k²). The paper's tables of a few dozen items take the pool; the
/// trading-day trace, which draws up to 25 of about 10,000 keys per
/// request, takes the sparse form. Both make the same draws in the same
/// order and return the same values.
pub fn sample_distinct<R: RngCore>(rng: &mut R, n: u64, k: usize) -> Vec<u64> {
    assert!(
        (k as u64) <= n,
        "cannot sample {k} distinct values from 0..{n}"
    );
    if n / 4 > (k as u64).saturating_mul(k as u64) {
        sample_sparse(rng, n, k)
    } else {
        sample_dense(rng, n, k)
    }
}

/// The shuffle over a materialized pool `0..n`.
fn sample_dense<R: RngCore>(rng: &mut R, n: u64, k: usize) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..n).collect();
    for i in 0..k {
        let j = i as u64 + uniform_below(rng, n - i as u64);
        pool.swap(i, j as usize);
    }
    pool.truncate(k);
    pool
}

/// The shuffle without the pool: what lands at position `i` is final, as
/// no later step reads it, and every other position holds its own index
/// unless a swap moved a value there. Only those `(position, value)`
/// pairs are stored, at most `k`, and searched linearly.
fn sample_sparse<R: RngCore>(rng: &mut R, n: u64, k: usize) -> Vec<u64> {
    let value_at = |moved: &[(u64, u64)], pos: u64| {
        moved
            .iter()
            .find(|&&(p, _)| p == pos)
            .map_or(pos, |&(_, v)| v)
    };
    let mut out = Vec::with_capacity(k);
    let mut moved: Vec<(u64, u64)> = Vec::with_capacity(k);
    for i in 0..k as u64 {
        let j = i + uniform_below(rng, n - i);
        out.push(value_at(&moved, j));
        let displaced = value_at(&moved, i);
        match moved.iter_mut().find(|(p, _)| *p == j) {
            Some(slot) => slot.1 = displaced,
            None => moved.push((j, displaced)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(2024)
    }

    #[test]
    fn uniform_unit_in_range() {
        let mut r = rng();
        for _ in 0..10_000 {
            let u = uniform_unit(&mut r);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_range_mean() {
        let mut r = rng();
        let mean: f64 = (0..50_000)
            .map(|_| uniform_range(&mut r, 2.0, 8.0))
            .sum::<f64>()
            / 50_000.0;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn uniform_below_unbiased_small_range() {
        let mut r = rng();
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[uniform_below(&mut r, 7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "uniform_below requires n > 0")]
    fn uniform_below_zero_panics() {
        let mut r = rng();
        uniform_below(&mut r, 0);
    }

    #[test]
    fn bernoulli_edges_and_rate() {
        let mut r = rng();
        assert!(!bernoulli(&mut r, 0.0));
        assert!(bernoulli(&mut r, 1.0));
        let hits = (0..100_000).filter(|_| bernoulli(&mut r, 0.1)).count();
        assert!((hits as i64 - 10_000).abs() < 600, "hits {hits}");
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut r = rng();
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = exponential(&mut r, 125.0);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 125.0).abs() < 2.5, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let mut s = NormalSampler::new();
        let n = 200_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = s.sample(&mut r, 20.0, 10.0);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 20.0).abs() < 0.15, "mean {mean}");
        assert!((var - 100.0).abs() < 2.5, "var {var}");
    }

    #[test]
    fn normal_spare_is_consumed() {
        // Two consecutive samples should use one polar round in the common
        // case: the RNG position after two samples equals the position
        // after generating only the first (plus possibly rejected rounds).
        let mut r1 = rng();
        let mut s1 = NormalSampler::new();
        let a = s1.sample(&mut r1, 0.0, 1.0);
        let b = s1.sample(&mut r1, 0.0, 1.0);
        assert_ne!(a, b);
        assert!(s1.spare.is_none());
    }

    #[test]
    fn sample_distinct_properties() {
        let mut r = rng();
        for _ in 0..200 {
            let k = 1 + (uniform_below(&mut r, 20) as usize);
            let items = sample_distinct(&mut r, 30, k);
            assert_eq!(items.len(), k);
            let mut sorted = items.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "items must be distinct: {items:?}");
            assert!(items.iter().all(|&i| i < 30));
        }
    }

    #[test]
    fn sample_distinct_full_range() {
        let mut r = rng();
        let mut items = sample_distinct(&mut r, 10, 10);
        items.sort_unstable();
        assert_eq!(items, (0..10).collect::<Vec<_>>());
    }

    /// The sparse shuffle draws exactly what the dense one draws, from
    /// the same random stream, on both sides of the size cut-over.
    #[test]
    fn sparse_sample_matches_dense_shuffle() {
        let mut pick = rng();
        for case in 0..600 {
            // Small pools with any k up to the whole pool (k = n every
            // fourth case), and pools far larger than k.
            let (n, k) = if case % 2 == 0 {
                let n = 1 + uniform_below(&mut pick, 64);
                let k = if case % 4 == 0 {
                    n
                } else {
                    uniform_below(&mut pick, n + 1)
                };
                (n, k as usize)
            } else {
                let n = 1_000 + uniform_below(&mut pick, 20_000);
                (n, uniform_below(&mut pick, 31) as usize)
            };
            let seed = pick.next_u64();
            let mut sparse = Xoshiro256::seed_from_u64(seed);
            let mut dense = Xoshiro256::seed_from_u64(seed);
            let mut public = Xoshiro256::seed_from_u64(seed);
            let want = sample_dense(&mut dense, n, k);
            assert_eq!(sample_sparse(&mut sparse, n, k), want, "n = {n}, k = {k}");
            assert_eq!(sample_distinct(&mut public, n, k), want, "n = {n}, k = {k}");
            let next = dense.next_u64();
            assert_eq!(sparse.next_u64(), next, "draw count, n = {n}, k = {k}");
            assert_eq!(public.next_u64(), next, "draw count, n = {n}, k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_overflow_panics() {
        let mut r = rng();
        sample_distinct(&mut r, 5, 6);
    }
}
