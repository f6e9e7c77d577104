//! System-level property tests: arbitrary hand-built workloads driven
//! through the engine under each policy must satisfy the paper's global
//! invariants — everything commits, traces reconcile with metrics, CCA
//! never waits for a lock, and runs are deterministic.

use proptest::prelude::*;
use rtx::policies::{Cca, EdfHp, EdfWait, Lsf};
use rtx::preanalysis::{DataSet, ItemId, TypeId};
use rtx::rtdb::engine::run_simulation_from;
use rtx::rtdb::locks::LockMode;
use rtx::rtdb::{
    DecisionSpec, Policy, ReplaySource, SimConfig, Stage, Transaction, TxnId, TxnState,
};
use rtx::sim::{SimDuration, SimTime};

/// Specification of one random transaction.
#[derive(Debug, Clone)]
struct TxnSpec {
    gap_ms: f64,
    items: Vec<u16>,
    slack: f64,
    io: Vec<bool>,
    reads: Vec<bool>,
    branch_at: Option<usize>,
}

const DB: u64 = 12;

fn txn_spec() -> impl Strategy<Value = TxnSpec> {
    (
        0.1f64..50.0,
        proptest::collection::vec(0u16..DB as u16, 1..8),
        0.1f64..4.0,
        proptest::collection::vec(any::<bool>(), 8),
        proptest::collection::vec(any::<bool>(), 8),
        proptest::option::of(0usize..4),
    )
        .prop_map(|(gap_ms, mut items, slack, io, reads, branch_at)| {
            items.dedup();
            TxnSpec {
                gap_ms,
                items,
                slack,
                io,
                reads,
                branch_at,
            }
        })
}

/// Materialize specs into engine transactions.
fn build(specs: &[TxnSpec], cfg: &SimConfig, with_modes: bool) -> Vec<Transaction> {
    let mut clock = SimTime::ZERO;
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            clock += SimDuration::from_ms(spec.gap_ms);
            let items: Vec<ItemId> = spec.items.iter().map(|&x| ItemId(x as u32)).collect();
            let update_time = SimDuration::from_ms(2.0);
            let io_pattern: Vec<bool> = if cfg.system.disk.is_some() {
                items.iter().zip(&spec.io).map(|(_, &b)| b).collect()
            } else {
                Vec::new()
            };
            let io_time =
                SimDuration::from_ms(25.0) * io_pattern.iter().filter(|&&b| b).count() as u64;
            let resource_time = update_time * items.len() as u64 + io_time;
            let might: DataSet = items.iter().copied().collect();
            let modes: Vec<LockMode> = if with_modes {
                items
                    .iter()
                    .zip(&spec.reads)
                    .map(|(_, &r)| {
                        if r {
                            LockMode::Shared
                        } else {
                            LockMode::Exclusive
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let decision = spec.branch_at.and_then(|at| {
                (at + 1 < items.len()).then(|| DecisionSpec {
                    after_update: at + 1,
                    full: might.clone(),
                    narrowed: might.clone(), // trivial narrowing is legal
                })
            });
            Transaction {
                id: TxnId(i as u32),
                ty: TypeId(0),
                arrival: clock,
                deadline: clock + resource_time.scale(1.0 + spec.slack),
                resource_time,
                items,
                io_pattern,
                modes,
                update_time,
                might_access: might,
                state: TxnState::Ready,
                progress: 0,
                stage: Stage::Lock,
                cpu_left: SimDuration::ZERO,
                burst_start: SimTime::ZERO,
                accessed: DataSet::new(),
                written: DataSet::new(),
                service: SimDuration::ZERO,
                restarts: 0,
                waiting_for: None,
                decision,
                criticality: 0,
                doomed: false,
                doomed_at: SimTime::ZERO,
                io_retries: 0,
                retry_token: 0,
            }
        })
        .collect()
}

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
