//! Oracle equivalence of the incremental scheduling core.
//!
//! [`CacheMode::AlwaysRecompute`] preserves the pre-incremental engine
//! verbatim — full rescans of `active` for the P-list, ready counts, and
//! feasibility, with no priority index or conflict acceleration.
//! `Incremental` is the production path. `Verify` runs the incremental
//! path while asserting at every use that each priority is
//! **bit-identical** to a freshly computed one, that every index key
//! bounds its fresh priority, and that the maintained P-list and ready
//! counters equal full scans — i.e. the per-decision winner is checked
//! against the recompute oracle inside the engine itself.
//!
//! These tests pin that all three modes produce identical trajectories
//! and metrics (modulo the scheduler's own instrumentation counters) on
//! arbitrary workloads: random item sets, shared locks, decision
//! narrowing, disk IO, injected disk and CPU faults, and admission
//! control.

mod common;

use common::{build, txn_spec, TxnSpec, DB};
use proptest::prelude::*;
use rtx::policies::{Cca, Criticality, EdfHp, EdfWait, Lsf};
use rtx::rtdb::engine::{
    run_simulation_from_mode, run_simulation_profiled_with_mode, run_simulation_with_mode,
};
use rtx::rtdb::{AdmissionConfig, CacheMode, Policy, ReplaySource, RunSummary, SimConfig};
use rtx::sim::fault::{Brownout, CpuFaultPlan, FaultPlan};

fn run_specs_mode(
    specs: &[TxnSpec],
    policy: &dyn Policy,
    disk: bool,
    with_modes: bool,
    faults: bool,
    mode: CacheMode,
) -> RunSummary {
    let mut cfg = if disk {
        SimConfig::disk_base()
    } else {
        SimConfig::mm_base()
    };
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

    // A critical class puts |K| ≈ 1e15 keys into the one index next to
    // ordinary ones: every `K` bound is nudged by that run-wide scale.
    let mut mm_critical = SimConfig::mm_base();
    mm_critical.run.num_transactions = 250;
    mm_critical.run.arrival_rate_tps = 10.0;
    mm_critical.workload.high_criticality_fraction = 0.2;
    configs.push((mm_critical, "mm critical"));

    let crit_lsf = Criticality::new(Lsf);
    for (cfg, label) in &configs {
        for p in [
            &Cca::base() as &dyn Policy,
            &EdfHp,
            &EdfWait,
            &Lsf,
            &crit_lsf,
        ] {
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

/// The indexes actually engage: on a contended run the incremental
/// engine's validated picks perform strictly fewer priority evaluations
/// than the oracle's full scans, over the same scheduling points.
#[test]
fn indexed_picks_reduce_evaluations() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 300;
    cfg.run.arrival_rate_tps = 10.0;

    for p in [&Cca::base() as &dyn Policy, &EdfHp, &Lsf] {
        let oracle = run_simulation_with_mode(&cfg, p, CacheMode::AlwaysRecompute);
        let inc = run_simulation_with_mode(&cfg, p, CacheMode::Incremental);
        assert_eq!(inc.sans_sched_stats(), oracle.sans_sched_stats());
        assert!(
            inc.sched.priority_evals < oracle.sched.priority_evals,
            "{}: {} evals incremental vs {} oracle",
            p.name(),
            inc.sched.priority_evals,
            oracle.sched.priority_evals
        );
        assert_eq!(inc.sched.pick_next_calls, oracle.sched.pick_next_calls);
    }
}

/// MPL-256 burst determinism: at the sweep's highest contention point
/// (arrivals far faster than service, so ~256 transactions are active
/// at once) the heap-indexed pick must equal the oracle scan on every
/// decision, rerun bit-identically, and actually exercise its laziness:
/// validated picks, stale pops (keys demoted in place when validation
/// surfaces them), and clear-repair walks over victims all engage.
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
        assert!(inc.sched.clear_repair_visits > 0, "{}", p.name());
        assert_eq!(oracle.sched.heap_pushes, 0, "{}", p.name());
    }

    // LSF picks through the same index, keyed on its time-invariant `K`
    // and validated against each key's clock-shifted bound; pin the same
    // burst to the oracle scan and to rerun bit-identity. The
    // conflict-counter assertions above don't apply — `K` keys never see
    // clear repairs — but the index must actually serve picks.
    let oracle = run_simulation_with_mode(&cfg, &Lsf, CacheMode::AlwaysRecompute);
    let inc = run_simulation_with_mode(&cfg, &Lsf, CacheMode::Incremental);
    let verified = run_simulation_with_mode(&cfg, &Lsf, CacheMode::Verify);
    assert_eq!(
        inc.sans_sched_stats(),
        oracle.sans_sched_stats(),
        "MPL-256: time-keyed index picks diverged from the oracle under LSF"
    );
    assert_eq!(
        verified.sans_sched_stats(),
        oracle.sans_sched_stats(),
        "MPL-256: verify diverged under LSF"
    );
    let again = run_simulation_with_mode(&cfg, &Lsf, CacheMode::Incremental);
    assert_eq!(inc, again, "LSF time-keyed pick path must be deterministic");
    assert!(
        inc.sched.heap_validated_picks > 0,
        "the index never served an LSF pick"
    );
    assert_eq!(oracle.sched.heap_validated_picks, 0);
}

/// A sustained MPL-64 CCA burst through the one lazy heap: every
/// runner's accruing service leaves its victims' keys stale-high, and the
/// validated picks must still reproduce the oracle's trajectory exactly.
/// Mirrors the bench profile's `mm_cca_burst_mpl64` scenario.
#[test]
fn mpl64_cca_burst_matches_oracle() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 64;
    cfg.run.arrival_rate_tps = 2_000.0;

    let oracle = run_simulation_with_mode(&cfg, &Cca::base(), CacheMode::AlwaysRecompute);
    let inc = run_simulation_with_mode(&cfg, &Cca::base(), CacheMode::Incremental);
    assert_eq!(
        inc.sans_sched_stats(),
        oracle.sans_sched_stats(),
        "MPL-64 CCA burst: heap picks diverged from the oracle"
    );
}

/// MPL-1024 burst under `CacheMode::Verify`: every priority the pick
/// path consults is bit-checked against a fresh evaluation, every index
/// key is checked to bound its fresh priority, and the maintained P-list
/// and ready counts are checked against full scans, at the contention
/// level where the stale-top validations and the slot-row repair walks
/// work hardest. Slow in debug builds — run explicitly in CI (release)
/// via `--ignored`.
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
}

/// CCA under CPU stalls with no retry budget, so every stall restarts
/// its transaction while it is still the runner: the restart's clear
/// raise reads the stalled burst's effective service. Verify's bound
/// check at every pick proves each raised key still bounds its fresh
/// priority, and the trajectory must stay the oracle's.
#[test]
fn cpu_budget_restarts_match_oracle_under_verify() {
    for seed in 0..5 {
        let mut cfg = SimConfig::mm_base();
        cfg.run.seed = seed;
        cfg.run.num_transactions = 400;
        cfg.run.arrival_rate_tps = 12.0;
        cfg.system.faults.cpu = Some(CpuFaultPlan {
            stall_prob: 0.1,
            slow_prob: 0.0,
            slow_factor: 1.0,
            retry_budget: 0,
            backoff_base_ms: 1.0,
            backoff_cap_ms: 8.0,
            brownout: None,
        });
        let oracle = run_simulation_with_mode(&cfg, &Cca::base(), CacheMode::AlwaysRecompute);
        let verified = run_simulation_with_mode(&cfg, &Cca::base(), CacheMode::Verify);
        assert_eq!(
            verified.sans_sched_stats(),
            oracle.sans_sched_stats(),
            "seed {seed}: verify diverged from the recompute oracle"
        );
        assert!(
            verified.cpu_exhausted_aborts > 0,
            "seed {seed}: no stall restarted"
        );
    }
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
