//! The §6 shared-lock extension, end to end: read-mode updates take
//! shared locks, lowering contention; all engine invariants and the CCA
//! theorems continue to hold.

use rtx::policies::{Cca, EdfHp};
use rtx::rtdb::locks::LockMode;
use rtx::rtdb::workload::TypeTable;
use rtx::rtdb::{run_replications, run_simulation, run_simulation_validated, SimConfig};
use rtx::sim::rng::StreamSeeder;

fn read_heavy(rate: f64, read_prob: f64, n: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::mm_base();
    cfg.workload.read_probability = read_prob;
    cfg.run.arrival_rate_tps = rate;
    cfg.run.num_transactions = n;
    cfg.run.seed = seed;
    cfg
}

#[test]
fn type_table_draws_modes() {
    let cfg = read_heavy(8.0, 0.5, 100, 1);
    let table = TypeTable::generate(&cfg, &StreamSeeder::new(1));
    let mut reads = 0usize;
    let mut total = 0usize;
    for ty in table.types() {
        assert_eq!(ty.modes.len(), ty.items.len());
        reads += ty.modes.iter().filter(|&&m| m == LockMode::Shared).count();
        total += ty.modes.len();
    }
    let frac = reads as f64 / total as f64;
    assert!((frac - 0.5).abs() < 0.1, "read fraction {frac}");
    // Write-only config keeps modes empty (fast path).
    let plain = SimConfig::mm_base();
    let table = TypeTable::generate(&plain, &StreamSeeder::new(1));
    assert!(table.types().iter().all(|t| t.modes.is_empty()));
}

#[test]
fn read_probability_zero_is_bit_identical_to_paper_model() {
    let a = run_simulation(&read_heavy(8.0, 0.0, 250, 3), &Cca::base());
    let mut plain = SimConfig::mm_base();
    plain.run.arrival_rate_tps = 8.0;
    plain.run.num_transactions = 250;
    plain.run.seed = 3;
    let b = run_simulation(&plain, &Cca::base());
    assert_eq!(a, b);
}

#[test]
fn invariants_hold_with_shared_locks() {
    for seed in 0..3 {
        let cfg = read_heavy(9.0, 0.5, 150, seed);
        let cca = run_simulation_validated(&cfg, &Cca::base());
        assert_eq!(cca.committed, 150);
        assert_eq!(cca.lock_waits, 0, "Theorem 1 with shared locks");
        assert_eq!(cca.deadlock_resolutions, 0);
        let edf = run_simulation_validated(&cfg, &EdfHp);
        assert_eq!(edf.committed, 150);
    }
}

#[test]
fn more_reads_means_fewer_restarts() {
    let mut restarts = Vec::new();
    for read_prob in [0.0, 0.5, 0.9] {
        let cfg = read_heavy(8.0, read_prob, 400, 0);
        let agg = run_replications(&cfg, &EdfHp, 6);
        restarts.push(agg.restarts_per_txn.mean);
    }
    assert!(
        restarts[2] < restarts[0],
        "read-read compatibility must cut restarts: {restarts:?}"
    );
    assert!(
        restarts[1] <= restarts[0] + 0.02,
        "monotone-ish in read fraction: {restarts:?}"
    );
}

#[test]
fn reads_do_not_hurt_and_cut_wasted_work() {
    // At 9 tps the CPU load (72%) dominates the miss rate, so shared
    // locks mostly cut *wasted* work (restarts) rather than misses: the
    // miss rate must not regress materially, and the abort rate must
    // drop clearly.
    let write_only = run_replications(&read_heavy(9.0, 0.0, 400, 0), &EdfHp, 6);
    let read_heavy_run = run_replications(&read_heavy(9.0, 0.8, 400, 0), &EdfHp, 6);
    assert!(
        read_heavy_run.miss_percent.mean <= write_only.miss_percent.mean + 2.0,
        "read-heavy {} vs write-only {}",
        read_heavy_run.miss_percent.mean,
        write_only.miss_percent.mean
    );
    assert!(
        read_heavy_run.restarts_per_txn.mean < 0.9 * write_only.restarts_per_txn.mean,
        "restarts: read-heavy {} vs write-only {}",
        read_heavy_run.restarts_per_txn.mean,
        write_only.restarts_per_txn.mean
    );
}

#[test]
fn cca_still_at_or_below_edf_with_shared_locks() {
    let cfg = read_heavy(9.0, 0.4, 400, 0);
    let edf = run_replications(&cfg, &EdfHp, 8);
    let cca = run_replications(&cfg, &Cca::base(), 8);
    assert!(
        cca.miss_percent.mean <= edf.miss_percent.mean + 1.0,
        "CCA {} vs EDF {}",
        cca.miss_percent.mean,
        edf.miss_percent.mean
    );
}

#[test]
fn written_is_subset_of_accessed_oracle() {
    // Mode-aware oracle sanity via the public transaction API.
    use rtx::preanalysis::{DataSet, ItemId};
    use rtx::rtdb::{Transaction, TxnId};
    use rtx::sim::{SimDuration, SimTime};
    let t = Transaction {
        deadline: SimTime::from_ms(10.0),
        resource_time: SimDuration::from_ms(8.0),
        items: vec![ItemId(0), ItemId(1)],
        modes: vec![LockMode::Shared, LockMode::Exclusive],
        update_time: SimDuration::from_ms(4.0),
        might_access: [0u32, 1].into_iter().collect(),
        ..Default::default()
    };
    assert_eq!(t.current_mode(), LockMode::Shared);
    // Might it write into {0}? Update 0 is a read; update 1 (item 1) is
    // the only write.
    let set0: DataSet = [0u32].into_iter().collect();
    let set1: DataSet = [1u32].into_iter().collect();
    assert!(!t.might_write_into(&set0));
    assert!(t.might_write_into(&set1));
    // conflicts_with is symmetric and write-aware.
    let mut reader = t.clone();
    reader.id = TxnId(1);
    reader.items = vec![ItemId(0)];
    reader.modes = vec![LockMode::Shared];
    reader.might_access = set0.clone();
    assert!(
        !t.conflicts_with(&reader),
        "two readers of item 0 do not conflict"
    );
    let mut writer = reader.clone();
    writer.id = TxnId(2);
    writer.modes = vec![LockMode::Exclusive];
    assert!(t.conflicts_with(&writer), "reader vs writer of item 0");
    assert!(writer.conflicts_with(&t));
}
