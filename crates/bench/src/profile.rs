//! Scheduler-overhead profiling: the `--bench-profile` mode.
//!
//! Runs matched pairs of simulations — the production incremental engine
//! ([`CacheMode::Incremental`], whose ConflictState/Static policies pick
//! through the lazy priority heap) against the always-recompute oracle
//! ([`CacheMode::AlwaysRecompute`], the pre-incremental hot loop kept
//! verbatim) — with wall-clock timing of `pick_next` enabled, checks the
//! two trajectories agree bit-for-bit, and renders the counters plus the
//! measured speedup as `BENCH_scheduling.json`. Scenarios cover both
//! ConflictState policies (CCA and EDF-Wait) across MPL so the JSON
//! shows the heap-vs-scan ratio per policy and per MPL.
//!
//! The scheduler wall time is a *profiling artifact*: it varies by
//! machine and run, unlike every other field the simulator emits. The
//! committed JSON is a baseline snapshot, not a byte-reproducible
//! output; the counters and the `identical` flags are the deterministic
//! part.

use rtx_core::{Cca, EdfWait, Lsf};
use rtx_rtdb::{
    run_simulation_profiled_with_mode, CacheMode, Policy, RunSummary, SchedStats, SimConfig,
};

/// One scenario of the profile: a config and a policy, run `reps` times
/// (distinct seeds) under both cache modes.
struct Scenario {
    name: &'static str,
    policy: Box<dyn Policy>,
    cfg: SimConfig,
    reps: u64,
}

/// Accumulated counters for one (scenario, mode) cell.
#[derive(Default)]
struct Cell {
    sched: SchedStats,
    committed: u64,
}

impl Cell {
    /// Mean wall nanoseconds per `pick_next` call — the headline
    /// heap-vs-scan number (machine-dependent, like `sched_wall_ns`).
    fn pick_ns(&self) -> f64 {
        self.sched.sched_wall_ns as f64 / self.sched.pick_next_calls.max(1) as f64
    }
}

/// A high-MPL burst: arrivals far faster than service, so ~all
/// transactions are simultaneously active and every reschedule pass
/// works over an n-deep system. This is where the pick path's
/// complexity matters most.
fn burst(mpl: usize) -> SimConfig {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = mpl;
    cfg.run.arrival_rate_tps = 2_000.0;
    cfg
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    if quick {
        // CI smoke: small, mid-size and deep bursts — enough to catch a
        // pick-path regression (cached slower than the oracle, stale-pop
        // blowup) in seconds. The MPL-256 and MPL-1024 cells are what the CI
        // regression gate compares against its checked-in baselines.
        return vec![
            Scenario {
                name: "mm_cca_burst_mpl64",
                policy: Box::new(Cca::base()),
                cfg: burst(64),
                reps: 2,
            },
            Scenario {
                name: "mm_cca_burst_mpl256",
                policy: Box::new(Cca::base()),
                cfg: burst(256),
                reps: 2,
            },
            Scenario {
                name: "mm_cca_burst_mpl1024",
                policy: Box::new(Cca::base()),
                cfg: burst(1024),
                reps: 1,
            },
        ];
    }
    // Heap-vs-scan across MPL for both ConflictState policies,
    // plus the slack-ordered index for LSF (TimeAndSelf).
    let mut out = vec![
        Scenario {
            name: "mm_cca_burst_mpl64",
            policy: Box::new(Cca::base()),
            cfg: burst(64),
            reps: 5,
        },
        Scenario {
            name: "mm_cca_burst_mpl256",
            policy: Box::new(Cca::base()),
            cfg: burst(256),
            reps: 5,
        },
        Scenario {
            name: "mm_cca_burst_mpl1024",
            policy: Box::new(Cca::base()),
            cfg: burst(1024),
            reps: 2,
        },
        Scenario {
            name: "mm_edfwait_burst_mpl64",
            policy: Box::new(EdfWait),
            cfg: burst(64),
            reps: 5,
        },
        Scenario {
            name: "mm_edfwait_burst_mpl256",
            policy: Box::new(EdfWait),
            cfg: burst(256),
            reps: 5,
        },
        Scenario {
            name: "mm_edfwait_burst_mpl1024",
            policy: Box::new(EdfWait),
            cfg: burst(1024),
            reps: 2,
        },
        Scenario {
            name: "mm_lsf_burst_mpl64",
            policy: Box::new(Lsf),
            cfg: burst(64),
            reps: 5,
        },
        Scenario {
            name: "mm_lsf_burst_mpl256",
            policy: Box::new(Lsf),
            cfg: burst(256),
            reps: 5,
        },
    ];
    // Paper-scale steady state on main memory and disk: the P-list stays
    // short here (§3.3), so this bounds the *overhead* of the
    // bookkeeping in the regime the paper argues is typical.
    let mut mm = SimConfig::mm_base();
    mm.run.num_transactions = 2_000;
    mm.run.arrival_rate_tps = 9.0;
    out.push(Scenario {
        name: "mm_cca_steady",
        policy: Box::new(Cca::base()),
        cfg: mm,
        reps: 3,
    });
    let mut disk = SimConfig::disk_base();
    disk.run.num_transactions = 1_000;
    disk.run.arrival_rate_tps = 4.0;
    out.push(Scenario {
        name: "disk_cca_steady",
        policy: Box::new(Cca::base()),
        cfg: disk,
        reps: 3,
    });
    out
}

fn run_cell(
    cfg: &SimConfig,
    policy: &dyn Policy,
    reps: u64,
    mode: CacheMode,
) -> (Cell, Vec<RunSummary>) {
    let mut cell = Cell::default();
    let mut outcomes = Vec::new();
    for rep in 0..reps {
        let mut c = cfg.clone();
        c.run.seed = rep;
        let s = run_simulation_profiled_with_mode(&c, policy, mode);
        cell.sched.pick_next_calls += s.sched.pick_next_calls;
        cell.sched.priority_evals += s.sched.priority_evals;
        cell.sched.priority_cache_hits += s.sched.priority_cache_hits;
        cell.sched.pair_checks += s.sched.pair_checks;
        cell.sched.pair_cache_hits += s.sched.pair_cache_hits;
        cell.sched.heap_pushes += s.sched.heap_pushes;
        cell.sched.heap_stale_pops += s.sched.heap_stale_pops;
        cell.sched.heap_validated_picks += s.sched.heap_validated_picks;
        cell.sched.pair_cache_evictions += s.sched.pair_cache_evictions;
        cell.sched.clear_repair_clears += s.sched.clear_repair_clears;
        cell.sched.clear_repair_visits += s.sched.clear_repair_visits;
        cell.sched.index_migrations += s.sched.index_migrations;
        cell.sched.verify_checks += s.sched.verify_checks;
        cell.sched.sched_wall_ns += s.sched.sched_wall_ns;
        cell.committed += s.committed;
        // Everything but the scheduler's own instrumentation must be
        // identical across modes.
        outcomes.push(s.sans_sched_stats());
    }
    (cell, outcomes)
}

fn cell_json(cell: &Cell, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"sched_wall_ns\": {},\n{indent}  \"pick_ns\": {:.1},\n\
         {indent}  \"pick_next_calls\": {},\n\
         {indent}  \"priority_evals\": {},\n{indent}  \"priority_cache_hits\": {},\n\
         {indent}  \"pair_checks\": {},\n{indent}  \"pair_cache_hits\": {},\n\
         {indent}  \"heap_pushes\": {},\n{indent}  \"heap_stale_pops\": {},\n\
         {indent}  \"heap_validated_picks\": {},\n{indent}  \"pair_cache_evictions\": {},\n\
         {indent}  \"clear_repair_clears\": {},\n\
         {indent}  \"clear_repair_visits\": {},\n{indent}  \"index_migrations\": {},\n\
         {indent}  \"committed\": {}\n{indent}}}",
        cell.sched.sched_wall_ns,
        cell.pick_ns(),
        cell.sched.pick_next_calls,
        cell.sched.priority_evals,
        cell.sched.priority_cache_hits,
        cell.sched.pair_checks,
        cell.sched.pair_cache_hits,
        cell.sched.heap_pushes,
        cell.sched.heap_stale_pops,
        cell.sched.heap_validated_picks,
        cell.sched.pair_cache_evictions,
        cell.sched.clear_repair_clears,
        cell.sched.clear_repair_visits,
        cell.sched.index_migrations,
        cell.committed,
    )
}

/// One scenario's headline numbers, as they land in `BENCH_sched.json`
/// — handed back to the caller so `--bench-profile` can append the run
/// to `results/bench-history.csv` without re-parsing its own JSON.
pub struct ScenarioSummary {
    /// Scenario name (`mm_cca_burst_mpl1024`, …).
    pub name: String,
    /// Policy display name.
    pub policy: String,
    /// Transactions in the burst (the effective MPL).
    pub mpl: usize,
    /// Mean wall ns per `pick_next` under the incremental engine
    /// (machine-dependent).
    pub cached_pick_ns: f64,
    /// Oracle wall / incremental wall (machine-dependent).
    pub sched_speedup: f64,
    /// Deterministic counters from the incremental cell.
    pub heap_stale_pops: u64,
    /// Always 0 ([`SchedStats::index_migrations`]).
    pub index_migrations: u64,
}

/// Run the scheduler-overhead profile and render both JSON documents:
/// the full per-mode counter dump (`BENCH_scheduling.json`) and the
/// per-scenario summary committed at the repo root (`BENCH_sched.json`),
/// plus the structured per-scenario rows for history appends. Both
/// documents carry `commit` verbatim (pass the current git revision, or
/// a placeholder when unknown).
///
/// `quick` restricts the profile to the CI regression smoke cells; the
/// full profile sweeps policy × MPL plus the steady states. Panics if
/// any scenario's incremental trajectory diverges from the recompute
/// oracle — the profile doubles as an end-to-end equivalence check at
/// realistic scales.
pub fn bench_profile_docs(quick: bool, commit: &str) -> (String, String, Vec<ScenarioSummary>) {
    let mut entries = Vec::new();
    let mut summaries = Vec::new();
    let mut rows = Vec::new();
    for sc in scenarios(quick) {
        eprintln!("profiling {} ({} reps x 2 modes)…", sc.name, sc.reps);
        let policy = sc.policy.as_ref();
        let (cold, cold_outcomes) = run_cell(&sc.cfg, policy, sc.reps, CacheMode::AlwaysRecompute);
        let (cached, cached_outcomes) = run_cell(&sc.cfg, policy, sc.reps, CacheMode::Incremental);
        assert_eq!(
            cold_outcomes, cached_outcomes,
            "{}: incremental trajectory diverged from the recompute oracle",
            sc.name
        );
        let speedup = cold.sched.sched_wall_ns as f64 / cached.sched.sched_wall_ns.max(1) as f64;
        eprintln!(
            "  sched wall: cold {:.2} ms, cached {:.2} ms ({speedup:.2}x); \
             pick {:.0} ns -> {:.0} ns",
            cold.sched.sched_wall_ns as f64 / 1e6,
            cached.sched.sched_wall_ns as f64 / 1e6,
            cold.pick_ns(),
            cached.pick_ns(),
        );
        entries.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"policy\": \"{}\",\n      \
             \"num_transactions\": {},\n      \"arrival_rate_tps\": {:.1},\n      \
             \"reps\": {},\n      \"identical_trajectories\": true,\n      \
             \"recompute\": {},\n      \"incremental\": {},\n      \
             \"sched_speedup\": {:.2}\n    }}",
            sc.name,
            policy.name(),
            sc.cfg.run.num_transactions,
            sc.cfg.run.arrival_rate_tps,
            sc.reps,
            cell_json(&cold, "      "),
            cell_json(&cached, "      "),
            speedup,
        ));
        summaries.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"policy\": \"{}\",\n      \
             \"mpl\": {},\n      \"cached_pick_ns\": {:.1},\n      \
             \"oracle_pick_ns\": {:.1},\n      \"sched_speedup\": {:.2},\n      \
             \"heap_stale_pops\": {},\n      \"clear_repair_clears\": {},\n      \
             \"clear_repair_visits\": {},\n      \"index_migrations\": {}\n    }}",
            sc.name,
            policy.name(),
            sc.cfg.run.num_transactions,
            cached.pick_ns(),
            cold.pick_ns(),
            speedup,
            cached.sched.heap_stale_pops,
            cached.sched.clear_repair_clears,
            cached.sched.clear_repair_visits,
            cached.sched.index_migrations,
        ));
        rows.push(ScenarioSummary {
            name: sc.name.to_string(),
            policy: policy.name().to_string(),
            mpl: sc.cfg.run.num_transactions,
            cached_pick_ns: cached.pick_ns(),
            sched_speedup: speedup,
            heap_stale_pops: cached.sched.heap_stale_pops,
            index_migrations: cached.sched.index_migrations,
        });
    }
    let full = format!(
        "{{\n  \"generated_by\": \"experiments --bench-profile\",\n  \
         \"commit\": \"{commit}\",\n  \
         \"note\": \"sched_wall_ns/pick_ns are machine-dependent; counters and identity flags are deterministic\",\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let summary = format!(
        "{{\n  \"generated_by\": \"experiments --bench-profile\",\n  \
         \"commit\": \"{commit}\",\n  \
         \"note\": \"pick latencies are machine-dependent; counters are deterministic\",\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        summaries.join(",\n")
    );
    (full, summary, rows)
}
