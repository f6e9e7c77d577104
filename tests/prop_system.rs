//! System-level property tests: arbitrary hand-built workloads driven
//! through the engine under each policy must satisfy the paper's global
//! invariants — everything commits, traces reconcile with metrics, CCA
//! never waits for a lock, and runs are deterministic.

mod common;

use common::{build, txn_spec, TxnSpec, DB};
use proptest::prelude::*;
use rtx::policies::{Cca, EdfHp, EdfWait, Lsf};
use rtx::rtdb::engine::run_simulation_from;
use rtx::rtdb::{Policy, ReplaySource, SimConfig};

fn run_specs(
    specs: &[TxnSpec],
    policy: &dyn Policy,
    disk: bool,
    with_modes: bool,
) -> rtx::rtdb::RunSummary {
    let mut cfg = if disk {
        SimConfig::disk_base()
    } else {
        SimConfig::mm_base()
    };
    cfg.workload.db_size = DB;
    cfg.run.num_transactions = specs.len();
    let txns = build(specs, &cfg, with_modes);
    let n = txns.len();
    let mut source = ReplaySource::new(txns);
    run_simulation_from(&cfg, policy, &mut source, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every workload commits completely under every policy, on both
    /// resource models, and the summary is internally consistent.
    #[test]
    fn everything_commits_under_all_policies(
        specs in proptest::collection::vec(txn_spec(), 1..25),
        disk in any::<bool>(),
        with_modes in any::<bool>(),
        which in 0usize..4,
    ) {
        let policies: Vec<Box<dyn Policy>> = vec![
            match which {
                0 => Box::new(Cca::base()) as Box<dyn Policy>,
                1 => Box::new(EdfHp),
                2 => Box::new(EdfWait),
                _ => Box::new(Lsf),
            },
        ];
        for p in &policies {
            let s = run_specs(&specs, p.as_ref(), disk, with_modes);
            prop_assert_eq!(s.committed, specs.len() as u64, "{}", p.name());
            prop_assert!((0.0..=100.0).contains(&s.miss_percent));
            prop_assert!(s.cpu_utilization <= 1.0 + 1e-9);
            prop_assert!(s.disk_utilization <= 1.0 + 1e-9);
            prop_assert!(s.mean_lateness_ms >= 0.0);
            prop_assert!(s.p99_lateness_ms + 1e-9 >= 0.0);
            prop_assert!(s.max_lateness_ms + 1e-9 >= s.p99_lateness_ms * 0.98,
                "max {} vs p99 {}", s.max_lateness_ms, s.p99_lateness_ms);
            if !disk {
                prop_assert_eq!(s.disk_utilization, 0.0);
            }
        }
    }

    /// Theorem 1 on arbitrary workloads: CCA never lock-waits, never
    /// needs the deadlock resolver, never triggers starvation shields.
    #[test]
    fn cca_theorems_on_arbitrary_workloads(
        specs in proptest::collection::vec(txn_spec(), 1..25),
        disk in any::<bool>(),
    ) {
        let s = run_specs(&specs, &Cca::base(), disk, false);
        prop_assert_eq!(s.lock_waits, 0);
        prop_assert_eq!(s.deadlock_resolutions, 0);
        prop_assert_eq!(s.starvation_shields, 0);
    }

    /// Determinism: identical inputs give identical summaries.
    #[test]
    fn runs_deterministic(
        specs in proptest::collection::vec(txn_spec(), 1..15),
        disk in any::<bool>(),
    ) {
        let a = run_specs(&specs, &Cca::base(), disk, false);
        let b = run_specs(&specs, &Cca::base(), disk, false);
        prop_assert_eq!(a, b);
    }

    /// Workloads with entirely disjoint item sets never abort or wait
    /// under any policy: all contention metrics are zero.
    #[test]
    fn disjoint_workloads_are_conflict_free(
        gaps in proptest::collection::vec(0.1f64..30.0, 2..12),
        disk in any::<bool>(),
    ) {
        // One item per transaction, all distinct (DB is large enough).
        let specs: Vec<TxnSpec> = gaps
            .iter()
            .enumerate()
            .map(|(i, &gap_ms)| TxnSpec {
                gap_ms,
                items: vec![i as u16],
                slack: 2.0,
                io: vec![false; 8],
                reads: vec![false; 8],
                branch_at: None,
            })
            .collect();
        for p in [&Cca::base() as &dyn Policy, &EdfHp, &Lsf] {
            let mut cfg = if disk { SimConfig::disk_base() } else { SimConfig::mm_base() };
            cfg.workload.db_size = 16;
            cfg.run.num_transactions = specs.len();
            let txns = build(&specs, &cfg, false);
            let n = txns.len();
            let mut source = ReplaySource::new(txns);
            let s = run_simulation_from(&cfg, p, &mut source, n);
            prop_assert_eq!(s.restarts_total, 0, "{}", p.name());
            prop_assert_eq!(s.lock_waits, 0);
        }
    }
}
