//! Oracle equivalence of the incremental scheduling core.
//!
//! [`CacheMode::AlwaysRecompute`] preserves the pre-incremental engine
//! verbatim — full rescans of `active` for the P-list, ready counts, and
//! feasibility, with no priority or conflict memoization. `Incremental`
//! is the production path. `Verify` runs the incremental path while
//! asserting at every use that each cached priority is **bit-identical**
//! to a freshly computed one and that the maintained P-list and ready
//! counters equal full scans — i.e. the per-decision winner is checked
//! against the recompute oracle inside the engine itself.
//!
//! These tests pin that all three modes produce identical trajectories
//! and metrics (modulo the scheduler's own instrumentation counters) on
//! arbitrary workloads: random item sets, shared locks, decision
//! narrowing, disk IO, injected disk and CPU faults, and admission
//! control.

use proptest::prelude::*;
use rtx::policies::{Cca, EdfHp, EdfWait, Lsf};
use rtx::preanalysis::{DataSet, ItemId, TypeId};
use rtx::rtdb::engine::{
    run_simulation_from_mode, run_simulation_profiled_with_mode, run_simulation_with_mode,
};
use rtx::rtdb::locks::LockMode;
use rtx::rtdb::{
    AdmissionConfig, CacheMode, DecisionSpec, Policy, ReplaySource, RunSummary, SimConfig, Stage,
    Transaction, TxnId, TxnState,
};
use rtx::sim::fault::{Brownout, CpuFaultPlan, FaultPlan};
use rtx::sim::{SimDuration, SimTime};

/// Specification of one random transaction (mirrors `prop_system.rs`).
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
                    narrowed: might.clone(),
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
                finish: None,
            }
        })
        .collect()
}

fn run_specs_mode(
    specs: &[TxnSpec],
    policy: &dyn Policy,
    disk: bool,
    with_modes: bool,
    faults: bool,
    mode: CacheMode,
) -> RunSummary {
    run_specs_mode_eager(specs, policy, disk, with_modes, faults, mode, false)
}

#[allow(clippy::too_many_arguments)]
fn run_specs_mode_eager(
    specs: &[TxnSpec],
    policy: &dyn Policy,
    disk: bool,
    with_modes: bool,
    faults: bool,
    mode: CacheMode,
    eager_migrations: bool,
) -> RunSummary {
    let mut cfg = if disk {
        SimConfig::disk_base()
    } else {
        SimConfig::mm_base()
    };
    cfg.system.eager_migrations = eager_migrations;
    cfg.workload.db_size = DB;
    cfg.run.num_transactions = specs.len();
    if faults && disk {
        cfg.system.faults = FaultPlan {
            error_prob: 0.2,
            spike_prob: 0.15,
            spike_factor: 2.5,
            retry_budget: 2,
            backoff_base_ms: 2.0,
            backoff_cap_ms: 16.0,
            brownout: Some(Brownout {
                period_ms: 1_500.0,
                duration_ms: 250.0,
                error_prob: 0.5,
                latency_factor: 2.0,
            }),
            cpu: None,
        };
    }
    if faults {
        // CPU stalls and slowdowns on both residencies, so stall retries
        // and budget-exhaustion restarts run through every cache mode.
        cfg.system.faults.cpu = Some(CpuFaultPlan {
            stall_prob: 0.1,
            slow_prob: 0.1,
            slow_factor: 2.0,
            retry_budget: 2,
            backoff_base_ms: 2.0,
            backoff_cap_ms: 16.0,
            brownout: None,
        });
    }
    let txns = build(specs, &cfg, with_modes);
    let n = txns.len();
    let mut source = ReplaySource::new(txns);
    run_simulation_from_mode(&cfg, policy, &mut source, n, mode)
}

fn policy_by_index(which: usize) -> Box<dyn Policy> {
    match which {
        0 => Box::new(Cca::base()) as Box<dyn Policy>,
        1 => Box::new(EdfHp),
        2 => Box::new(EdfWait),
        _ => Box::new(Lsf),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The incremental engine's trajectory and final metrics equal the
    /// always-recompute oracle on arbitrary workloads, and the Verify
    /// mode's internal per-use bit-assertions hold throughout.
    #[test]
    fn incremental_matches_recompute_oracle(
        specs in proptest::collection::vec(txn_spec(), 1..25),
        disk in any::<bool>(),
        with_modes in any::<bool>(),
        faults in any::<bool>(),
        which in 0usize..4,
    ) {
        let p = policy_by_index(which);
        let oracle =
            run_specs_mode(&specs, p.as_ref(), disk, with_modes, faults, CacheMode::AlwaysRecompute);
        let inc =
            run_specs_mode(&specs, p.as_ref(), disk, with_modes, faults, CacheMode::Incremental);
        let verified =
            run_specs_mode(&specs, p.as_ref(), disk, with_modes, faults, CacheMode::Verify);
        prop_assert_eq!(
            inc.sans_sched_stats(),
            oracle.sans_sched_stats(),
            "incremental diverged from the recompute oracle under {}",
            p.name()
        );
        prop_assert_eq!(
            verified.sans_sched_stats(),
            oracle.sans_sched_stats(),
            "verify mode diverged from the recompute oracle under {}",
            p.name()
        );
        // The oracle never consults the caches.
        prop_assert_eq!(oracle.sched.priority_cache_hits, 0);
        prop_assert_eq!(oracle.sched.pair_cache_hits, 0);
    }

    /// Stale-key stress: a tiny database and tight slack make every
    /// transaction conflict, so priorities of P-list neighbours are
    /// repaired and demoted constantly and the current index maximum is
    /// repeatedly aborted or restarted out from under its key. The
    /// heap-indexed pick (lazy: stale-high keys are demoted in place
    /// when validation surfaces them) must still equal the oracle's
    /// full scan — under faults, shared locks, decision narrowing and
    /// mid-run aborts alike.
    #[test]
    fn heap_picks_survive_stale_entry_stress(
        specs in proptest::collection::vec(
            (
                0.05f64..5.0,                                   // arrivals pile up
                proptest::collection::vec(0u16..4, 1..5),        // 4-item db: all conflict
                0.05f64..1.0,                                    // tight slack: aborts + misses
                proptest::collection::vec(any::<bool>(), 8),
                proptest::collection::vec(any::<bool>(), 8),
                proptest::option::of(0usize..3),
            )
                .prop_map(|(gap_ms, mut items, slack, io, reads, branch_at)| {
                    items.dedup();
                    TxnSpec { gap_ms, items, slack, io, reads, branch_at }
                }),
            5..30,
        ),
        disk in any::<bool>(),
        with_modes in any::<bool>(),
        faults in any::<bool>(),
        conflict_policy in 0usize..2,
    ) {
        // Only the ConflictState policies pick through the heap.
        let p: Box<dyn Policy> = if conflict_policy == 0 {
            Box::new(Cca::base())
        } else {
            Box::new(EdfWait)
        };
        let oracle =
            run_specs_mode(&specs, p.as_ref(), disk, with_modes, faults, CacheMode::AlwaysRecompute);
        let inc =
            run_specs_mode(&specs, p.as_ref(), disk, with_modes, faults, CacheMode::Incremental);
        let verified =
            run_specs_mode(&specs, p.as_ref(), disk, with_modes, faults, CacheMode::Verify);
        prop_assert_eq!(
            inc.sans_sched_stats(),
            oracle.sans_sched_stats(),
            "heap pick diverged from the oracle scan under {}",
            p.name()
        );
        prop_assert_eq!(
            verified.sans_sched_stats(),
            oracle.sans_sched_stats(),
            "verify mode diverged under {}",
            p.name()
        );
        // The heap path actually ran incrementally and never in the
        // oracle; Verify's per-pick oracle comparisons all executed.
        prop_assert!(inc.sched.heap_validated_picks > 0);
        prop_assert_eq!(oracle.sched.heap_pushes, 0);
        prop_assert_eq!(oracle.sched.heap_validated_picks, 0);
        prop_assert_eq!(inc.sched.verify_checks, 0);
        prop_assert!(verified.sched.verify_checks > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An incremental run equals the recompute oracle on arbitrary
    /// workloads (disk + CPU faults, shared locks and decision narrowing
    /// included), and rerunning it is bit-identical, instrumentation
    /// counters included.
    #[test]
    fn incremental_outcomes_are_rerun_invariant(
        specs in proptest::collection::vec(txn_spec(), 1..25),
        disk in any::<bool>(),
        with_modes in any::<bool>(),
        faults in any::<bool>(),
        which in 0usize..4,
    ) {
        let p = policy_by_index(which);
        let inc =
            run_specs_mode(&specs, p.as_ref(), disk, with_modes, faults, CacheMode::Incremental);
        let oracle =
            run_specs_mode(&specs, p.as_ref(), disk, with_modes, faults, CacheMode::AlwaysRecompute);
        prop_assert_eq!(
            inc.sans_sched_stats(),
            oracle.sans_sched_stats(),
            "incremental run diverged from the recompute oracle under {}",
            p.name()
        );
        let again =
            run_specs_mode(&specs, p.as_ref(), disk, with_modes, faults, CacheMode::Incremental);
        prop_assert_eq!(&inc, &again, "nondeterministic rerun under {}", p.name());
    }
}

/// Generator-driven workloads (the Poisson arrival path, not a replay
/// source) agree across modes too — including under fault injection and
/// admission control, whose reject/restart paths exercise the
/// set-clearing invalidation hooks.
#[test]
fn modes_agree_on_generated_workloads() {
    let mut configs: Vec<(SimConfig, &str)> = Vec::new();

    let mut mm_hot = SimConfig::mm_base();
    mm_hot.run.num_transactions = 250;
    mm_hot.run.arrival_rate_tps = 10.0;
    configs.push((mm_hot, "mm overload"));

    let mut disk_faulty = SimConfig::disk_base();
    disk_faulty.run.num_transactions = 150;
    disk_faulty.run.arrival_rate_tps = 4.0;
    disk_faulty.system.faults = FaultPlan {
        error_prob: 0.25,
        spike_prob: 0.2,
        spike_factor: 3.0,
        retry_budget: 2,
        backoff_base_ms: 2.0,
        backoff_cap_ms: 16.0,
        brownout: Some(Brownout {
            period_ms: 2_000.0,
            duration_ms: 300.0,
            error_prob: 0.6,
            latency_factor: 2.0,
        }),
        cpu: None,
    };
    configs.push((disk_faulty, "disk faults"));

    let mut disk_admission = SimConfig::disk_base();
    disk_admission.run.num_transactions = 200;
    disk_admission.run.arrival_rate_tps = 8.0;
    disk_admission.system.admission = Some(AdmissionConfig::Static { safety_factor: 3.0 });
    configs.push((disk_admission, "disk admission"));

    for (cfg, label) in &configs {
        for p in [&Cca::base() as &dyn Policy, &EdfHp, &EdfWait, &Lsf] {
            let oracle = run_simulation_with_mode(cfg, p, CacheMode::AlwaysRecompute);
            let inc = run_simulation_with_mode(cfg, p, CacheMode::Incremental);
            let verified = run_simulation_with_mode(cfg, p, CacheMode::Verify);
            assert_eq!(
                inc.sans_sched_stats(),
                oracle.sans_sched_stats(),
                "{label}: incremental diverged under {}",
                p.name()
            );
            assert_eq!(
                verified.sans_sched_stats(),
                oracle.sans_sched_stats(),
                "{label}: verify diverged under {}",
                p.name()
            );
        }
    }
}

/// The caches actually engage: on a contended run the incremental engine
/// resolves most priority lookups from cache and strictly fewer full
/// evaluations than the oracle, while the oracle records zero hits.
#[test]
fn caches_engage_and_reduce_evaluations() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 300;
    cfg.run.arrival_rate_tps = 10.0;

    for p in [&Cca::base() as &dyn Policy, &EdfHp, &Lsf] {
        let oracle = run_simulation_with_mode(&cfg, p, CacheMode::AlwaysRecompute);
        let inc = run_simulation_with_mode(&cfg, p, CacheMode::Incremental);
        assert_eq!(inc.sans_sched_stats(), oracle.sans_sched_stats());
        assert_eq!(oracle.sched.priority_cache_hits, 0, "{}", p.name());
        assert!(inc.sched.priority_cache_hits > 0, "{}", p.name());
        assert!(
            inc.sched.priority_evals < oracle.sched.priority_evals,
            "{}: {} evals incremental vs {} oracle",
            p.name(),
            inc.sched.priority_evals,
            oracle.sched.priority_evals
        );
        assert_eq!(inc.sched.pick_next_calls, oracle.sched.pick_next_calls);
    }

    // A Static policy collapses to exactly one evaluation per transaction.
    let inc = run_simulation_with_mode(&cfg, &EdfHp, CacheMode::Incremental);
    assert_eq!(
        inc.sched.priority_evals, cfg.run.num_transactions as u64,
        "EDF-HP evaluates each deadline exactly once"
    );
}

/// MPL-256 burst determinism: at the sweep's highest contention point
/// (arrivals far faster than service, so ~256 transactions are active
/// at once) the heap-indexed pick must equal the oracle scan on every
/// decision, rerun bit-identically, and actually exercise its laziness:
/// validated picks, stale pops (keys demoted in place when validation
/// surfaces them), and targeted per-pair invalidations all engage.
#[test]
fn mpl256_burst_heap_determinism() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 256;
    cfg.run.arrival_rate_tps = 2_000.0;
    for p in [&Cca::base() as &dyn Policy, &EdfWait] {
        let oracle = run_simulation_with_mode(&cfg, p, CacheMode::AlwaysRecompute);
        let inc = run_simulation_with_mode(&cfg, p, CacheMode::Incremental);
        let verified = run_simulation_with_mode(&cfg, p, CacheMode::Verify);
        assert_eq!(
            inc.sans_sched_stats(),
            oracle.sans_sched_stats(),
            "MPL-256: heap picks diverged from the oracle under {}",
            p.name()
        );
        assert_eq!(
            verified.sans_sched_stats(),
            oracle.sans_sched_stats(),
            "MPL-256: verify diverged under {}",
            p.name()
        );
        let again = run_simulation_with_mode(&cfg, p, CacheMode::Incremental);
        assert_eq!(
            inc,
            again,
            "{}: heap pick path must be deterministic",
            p.name()
        );
        assert_eq!(inc.sched.pick_next_calls, oracle.sched.pick_next_calls);
        assert!(inc.sched.heap_validated_picks > 0, "{}", p.name());
        assert!(inc.sched.heap_stale_pops > 0, "{}", p.name());
        assert!(inc.sched.pair_invalidations > 0, "{}", p.name());
        assert_eq!(oracle.sched.heap_pushes, 0, "{}", p.name());
    }

    // LSF picks through the slack-ordered index (time-invariant keys,
    // effective-priority validation) rather than the conflict heap; pin
    // the same burst to the oracle scan and to rerun bit-identity. The
    // conflict-counter assertions above don't apply — slack keys never
    // see pair invalidations — but the index must actually serve picks.
    let oracle = run_simulation_with_mode(&cfg, &Lsf, CacheMode::AlwaysRecompute);
    let inc = run_simulation_with_mode(&cfg, &Lsf, CacheMode::Incremental);
    let verified = run_simulation_with_mode(&cfg, &Lsf, CacheMode::Verify);
    assert_eq!(
        inc.sans_sched_stats(),
        oracle.sans_sched_stats(),
        "MPL-256: slack-index picks diverged from the oracle under LSF"
    );
    assert_eq!(
        verified.sans_sched_stats(),
        oracle.sans_sched_stats(),
        "MPL-256: verify diverged under LSF"
    );
    let again = run_simulation_with_mode(&cfg, &Lsf, CacheMode::Incremental);
    assert_eq!(inc, again, "LSF slack-index path must be deterministic");
    assert!(
        inc.sched.heap_validated_picks > 0,
        "slack index never picked"
    );
    assert_eq!(oracle.sched.heap_validated_picks, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Migration batching is an index-maintenance strategy, not a policy
    /// change: with `eager_migrations` the engine re-walks the runner's
    /// unsafe set at every compute burst (no membership reuse), while the
    /// default batched path skips the walk when the timed half already
    /// mirrors that runner. Both must produce bit-identical trajectories
    /// on arbitrary workloads — including faults, shared locks, and
    /// decision narrowing — and both must match the recompute oracle.
    #[test]
    fn batched_migrations_match_eager_walks(
        specs in proptest::collection::vec(txn_spec(), 1..25),
        disk in any::<bool>(),
        with_modes in any::<bool>(),
        faults in any::<bool>(),
        which in 0usize..4,
    ) {
        let p = policy_by_index(which);
        let eager = run_specs_mode_eager(
            &specs, p.as_ref(), disk, with_modes, faults, CacheMode::Incremental, true);
        let batched = run_specs_mode_eager(
            &specs, p.as_ref(), disk, with_modes, faults, CacheMode::Incremental, false);
        let oracle = run_specs_mode_eager(
            &specs, p.as_ref(), disk, with_modes, faults, CacheMode::AlwaysRecompute, false);
        prop_assert_eq!(
            batched.sans_sched_stats(),
            eager.sans_sched_stats(),
            "batched anchor migrations diverged from eager re-walks under {}",
            p.name()
        );
        prop_assert_eq!(
            batched.sans_sched_stats(),
            oracle.sans_sched_stats(),
            "batched migrations diverged from the recompute oracle under {}",
            p.name()
        );
        // Eager mode never reuses a walk, so it reports no batching.
        prop_assert_eq!(eager.sched.migrations_batched, 0, "{}", p.name());
    }
}

/// A sustained CCA burst freezes and resumes the timed half thousands of
/// times; the frozen entries left behind by picks and repairs must be
/// compacted away while the half is idle, and compaction must not perturb
/// the trajectory. Mirrors the bench profile's `mm_cca_burst_mpl64`
/// scenario, where compaction engages reliably.
#[test]
fn frozen_compaction_engages_on_bursts() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 64;
    cfg.run.arrival_rate_tps = 2_000.0;

    let oracle = run_simulation_with_mode(&cfg, &Cca::base(), CacheMode::AlwaysRecompute);
    let inc = run_simulation_with_mode(&cfg, &Cca::base(), CacheMode::Incremental);
    assert_eq!(
        inc.sans_sched_stats(),
        oracle.sans_sched_stats(),
        "frozen compaction perturbed the trajectory"
    );
    assert!(
        inc.sched.frozen_compactions > 0,
        "burst workload never compacted the frozen timed half \
         (got {} compactions)",
        inc.sched.frozen_compactions
    );
    assert!(
        inc.sched.migrations_batched > 0,
        "consecutive bursts by the same runner never reused a walk"
    );
    // The oracle maintains no index at all.
    assert_eq!(oracle.sched.frozen_compactions, 0);
    assert_eq!(oracle.sched.migrations_batched, 0);
    assert_eq!(oracle.sched.index_migrations, 0);
}

/// MPL-1024 burst under `CacheMode::Verify`: every cached priority the
/// pick path consults is bit-checked against a fresh evaluation, and the
/// maintained P-list and ready counts are checked against full scans, at
/// the contention level where migration batching and the pair cache work
/// hardest. Slow (minutes) — run explicitly in CI via `--ignored`.
#[test]
#[ignore = "verify-mode smoke at MPL 1024 is slow; CI runs it explicitly"]
fn mpl1024_verify_smoke() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 1024;
    cfg.run.arrival_rate_tps = 2_000.0;

    let oracle = run_simulation_with_mode(&cfg, &Cca::base(), CacheMode::AlwaysRecompute);
    let verified = run_simulation_with_mode(&cfg, &Cca::base(), CacheMode::Verify);
    assert_eq!(
        verified.sans_sched_stats(),
        oracle.sans_sched_stats(),
        "MPL-1024: verify mode diverged from the recompute oracle"
    );
    assert!(verified.sched.verify_checks > 0);
    assert!(verified.sched.migrations_batched > 0);
}

/// Profiled runs populate the wall-clock counter without perturbing the
/// trajectory; unprofiled runs keep it at zero so summaries stay
/// comparable across machines.
#[test]
fn profiling_is_observationally_neutral() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 200;
    cfg.run.arrival_rate_tps = 9.0;

    let plain = run_simulation_with_mode(&cfg, &Cca::base(), CacheMode::Incremental);
    let profiled = run_simulation_profiled_with_mode(&cfg, &Cca::base(), CacheMode::Incremental);
    assert_eq!(plain.sched.sched_wall_ns, 0);
    assert!(profiled.sched.sched_wall_ns > 0);
    let mut masked = profiled.clone();
    masked.sched.sched_wall_ns = 0;
    assert_eq!(plain, masked, "profiling must not change any other field");
}
