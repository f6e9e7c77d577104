//! The batch workloads: `burst_cca_mpl1024` and `paper_steady`.
//!
//! A *replication* is one seed of the workload: every cell (config ×
//! policy) run once on that seed. The seed list is derived from the
//! workload seed and set up before timing; the timed loop replays it back
//! to back until the run's time is up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtx_core::{Cca, EdfHp};
use rtx_rtdb::{
    run_simulation_from, run_simulation_profiled, run_simulation_with_mode, ArrivalGenerator,
    CacheMode, Policy, ReplaySource, RunSummary, SchedStats, SimConfig, StepEngine, Transaction,
    TxnSource, TypeTable,
};
use rtx_sim::rng::{splitmix64, StreamSeeder};

use crate::calib::Calibrator;
use crate::probe::{PolicyTally, SharedPolicy, TimedPolicy, TimedSource};
use crate::report::{ratio, EndToEnd, Layers, Report};
use crate::stats::{median, quantile, quantile_in_place};
use crate::Args;

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// 1024 transactions arriving at 2000 tps under CCA: all active at
    /// once, so conflict-state upkeep dominates.
    Burst,
    /// The paper's load points (Table 1 at 10 tps, Table 2 at 4 tps),
    /// each under CCA and EDF-HP: short P-lists, dispatch dominates.
    Steady,
}

/// One config × policy of a workload.
struct Cell {
    cfg: SimConfig,
    policy: SharedPolicy,
}

/// Times each seed's set-up is repeated; `setup_s` is the median of all
/// samples.
const SETUP_REPEATS: usize = 3;
/// Raw seconds of replications between two host-speed readings.
const CALIBRATE_EVERY_S: f64 = 0.25;

/// The workload's cells and how many seeds one pass replays. The burst's
/// miss share sits near 99% on every seed, so six seeds suffice; the
/// steady cells' miss share varies from seed to seed (each seed draws its
/// own transaction types and runs near capacity), so that workload runs
/// the paper's run lengths over many seeds.
fn cells(w: Workload, size: f64) -> (Vec<Cell>, usize) {
    let scaled = |n: f64, min: usize| ((n * size) as usize).max(min);
    let cca: SharedPolicy = Arc::new(Cca::base());
    let edf: SharedPolicy = Arc::new(EdfHp);
    match w {
        Workload::Burst => {
            let mut cfg = SimConfig::mm_base();
            cfg.run.num_transactions = scaled(1024.0, 16);
            cfg.run.arrival_rate_tps = 2_000.0;
            (vec![Cell { cfg, policy: cca }], 6)
        }
        Workload::Steady => {
            // Figure 4.f's 10 tps point at its smallest database, and
            // Table 2's disk-resident base at 4 tps (figures 5.e/f).
            let mut mm = SimConfig::mm_base();
            mm.run.arrival_rate_tps = 10.0;
            mm.workload.db_size = 100;
            mm.run.num_transactions = scaled(1_000.0, 50);
            let mut disk = SimConfig::disk_base();
            disk.run.arrival_rate_tps = 4.0;
            disk.run.num_transactions = scaled(300.0, 20);
            let cells = [(&mm, &cca), (&mm, &edf), (&disk, &cca), (&disk, &edf)]
                .map(|(cfg, policy)| Cell {
                    cfg: cfg.clone(),
                    policy: Arc::clone(policy),
                })
                .into();
            (cells, 32)
        }
    }
}

/// The replication seeds named by the workload seed.
fn seeds(master: u64, count: usize) -> Vec<u64> {
    let mut state = master;
    (0..count).map(|_| splitmix64(&mut state)).collect()
}

/// One cell on one seed, set up and checked.
struct Prepared {
    cfg: SimConfig,
    policy: SharedPolicy,
    txns: Vec<Transaction>,
    /// The always-recompute oracle's outcome, counters zeroed.
    oracle: RunSummary,
}

/// One replication's inputs, and the generator's time building them.
struct Inputs {
    cells: Vec<(SimConfig, SharedPolicy, Vec<Transaction>)>,
    gen_ns: u64,
    gen_txns: u64,
}

/// Set up one replication: validate each cell's config, build its type
/// tables and arrival list with the program's generator, and construct
/// (then drop) its engine.
fn set_up(cells: &[Cell], seed: u64) -> Inputs {
    let mut out = Inputs {
        cells: Vec::new(),
        gen_ns: 0,
        gen_txns: 0,
    };
    for c in cells {
        let mut cfg = c.cfg.clone();
        cfg.run.seed = seed;
        cfg.validate().expect("benchmark configs are valid");
        let seeder = StreamSeeder::new(seed);
        let table = TypeTable::generate(&cfg, &seeder);
        let mut src = TimedSource::new(ArrivalGenerator::new(&cfg, &table, &seeder));
        let txns: Vec<Transaction> = std::iter::from_fn(|| src.next_transaction()).collect();
        out.gen_ns += src.ns;
        out.gen_txns += src.yielded;
        drop(StepEngine::new(&cfg, &*c.policy).expect("validated above"));
        out.cells.push((cfg, Arc::clone(&c.policy), txns));
    }
    out
}

/// Everything set up before timing.
struct Plan {
    reps: Vec<Vec<Prepared>>,
    /// Set-up durations in reference seconds (see `calib`).
    setup_s: Vec<f64>,
    gen_ns: u64,
    gen_txns: u64,
}

fn plan(w: Workload, args: &Args, cal: &mut Calibrator) -> Plan {
    let (cells, n_seeds) = cells(w, args.size);
    let mut plan = Plan {
        reps: Vec::new(),
        setup_s: Vec::new(),
        gen_ns: 0,
        gen_txns: 0,
    };
    for seed in seeds(args.seed, n_seeds) {
        let mut last = None;
        cal.begin();
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            let built = set_up(&cells, seed);
            let raw = t0.elapsed().as_secs_f64();
            plan.setup_s.push(raw * cal.factor());
            last = Some(built);
        }
        let inputs = last.expect("SETUP_REPEATS > 0");
        plan.gen_ns += inputs.gen_ns;
        plan.gen_txns += inputs.gen_txns;
        // The oracle runs outside every timed region.
        let rep = inputs
            .cells
            .into_iter()
            .map(|(cfg, policy, txns)| {
                let oracle = run_simulation_with_mode(&cfg, &*policy, CacheMode::AlwaysRecompute)
                    .sans_sched_stats();
                Prepared {
                    cfg,
                    policy,
                    txns,
                    oracle,
                }
            })
            .collect();
        plan.reps.push(rep);
    }
    plan
}

/// Run `f`, turning a panic into `None` (a failed replication).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The engine's batch entry point over a prepared arrival list.
fn replay(p: &Prepared, policy: &dyn Policy, txns: Vec<Transaction>) -> RunSummary {
    let n = txns.len();
    run_simulation_from(&p.cfg, policy, &mut ReplaySource::new(txns), n)
}

/// Transactions committed by their deadline.
fn on_time(s: &RunSummary) -> f64 {
    s.committed as f64 * (1.0 - s.miss_percent / 100.0)
}

/// The end-to-end run: replications back to back, each checked against
/// its oracle after its timer stops.
pub fn run(w: Workload, args: &Args) -> Report {
    crate::keep_freed_memory();
    let mut cal = Calibrator::new();
    let plan = plan(w, args, &mut cal);
    let mut r = Report::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut attempted_txns, mut committed, mut raw_wall) = (0u64, 0u64, 0.0);
    let (mut first_pass_txns, mut first_pass_on_time) = (0u64, 0.0);
    let (mut rep_ms, mut rates) = (Vec::new(), Vec::new());
    // Replications timed since the last kernel reading: (raw seconds,
    // transactions). Each group of at least `CALIBRATE_EVERY_S` is
    // converted to reference time with the readings around it.
    let mut group: Vec<(f64, u64)> = Vec::new();
    let mut flush = |group: &mut Vec<(f64, u64)>, cal: &mut Calibrator| {
        let f = cal.factor();
        for (raw, txns) in group.drain(..) {
            rep_ms.push(raw * f * 1e3);
            rates.push(txns as f64 / (raw * f));
        }
    };
    cal.begin();
    let mut i = 0;
    while i < plan.reps.len() || started.elapsed() < budget {
        let first_pass = i < plan.reps.len();
        let rep = &plan.reps[i % plan.reps.len()];
        i += 1;
        let inputs: Vec<Vec<Transaction>> = rep.iter().map(|p| p.txns.clone()).collect();
        let rep_txns: u64 = inputs.iter().map(|t| t.len() as u64).sum();
        let t0 = Instant::now();
        let out = guarded(|| {
            rep.iter()
                .zip(inputs)
                .map(|(p, txns)| replay(p, &*p.policy, txns))
                .collect::<Vec<_>>()
        });
        let raw = t0.elapsed().as_secs_f64();
        r.attempted += 1;
        attempted_txns += rep_txns;
        if first_pass {
            first_pass_txns += rep_txns;
        }
        let sums = out.filter(|sums| {
            sums.iter()
                .zip(rep)
                .all(|(s, p)| s.sans_sched_stats() == p.oracle)
        });
        let Some(sums) = sums else {
            r.failed += 1;
            r.fail_check(format!("replication {} diverged from the oracle", i - 1));
            continue;
        };
        raw_wall += raw;
        group.push((raw, sums.iter().map(|s| s.committed + s.rejected).sum()));
        if group.iter().map(|g| g.0).sum::<f64>() >= CALIBRATE_EVERY_S {
            flush(&mut group, &mut cal);
        }
        for s in &sums {
            committed += s.committed;
            if first_pass {
                first_pass_on_time += on_time(s);
            }
        }
    }
    if !group.is_empty() {
        flush(&mut group, &mut cal);
    }
    eprintln!(
        "perfbench: {} replications ({} latency samples), raw {:.0} txn/s, host kernel median {:.3} ms (reference {} ms)",
        r.attempted,
        rep_ms.len(),
        ratio(committed as f64, raw_wall),
        median(&cal.samples_ms),
        crate::calib::REF_KERNEL_MS,
    );
    EndToEnd {
        // The median replication's rate: a slow spell that covers less
        // than half the run cannot move it.
        txn_per_s: median(&rates),
        miss_pct: 100.0 - 100.0 * ratio(first_pass_on_time, first_pass_txns as f64),
        committed_pct: 100.0 * ratio(committed as f64, attempted_txns as f64),
        p50_ms: quantile(&rep_ms, 0.5),
        p99_ms: quantile(&rep_ms, 0.99),
        setup_s: median(&plan.setup_s),
        peak_rss_mb: crate::stats::peak_rss_mb(),
    }
    .push_into(&mut r);
    r
}

/// Per-pass tallies of the traced run.
#[derive(Default)]
struct Tally {
    events: u64,
    txns: u64,
    step_ns: u64,
    pick_ns: u64,
    untraced_ns: u64,
    traced_ns: u64,
    sched: SchedStats,
    policy: PolicyTally,
    restarts: u64,
    lock_waits: u64,
    committed: u64,
    rejected: u64,
    disk_util: Vec<f64>,
}

/// The traced run: per replication and cell, an untraced reference, a
/// `StepEngine` replay timing every step, a profiled run timing
/// `pick_next`, and a run through the timing policy wrapper.
pub fn run_traced(w: Workload, args: &Args) -> Report {
    crate::keep_freed_memory();
    let mut cal = Calibrator::new();
    let plan = plan(w, args, &mut cal);
    let mut r = Report::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut t = Tally::default();
    let mut steps: Vec<f64> = Vec::new();
    let mut passes = 0u64;
    while passes == 0 || started.elapsed() < budget {
        passes += 1;
        // Per-step samples come from the first pass only (later passes
        // repeat the same events), which bounds their memory.
        let record = passes == 1;
        for (k, rep) in plan.reps.iter().enumerate() {
            r.attempted += 1;
            let ok = guarded(|| trace_replication(rep, &mut t, record.then_some(&mut steps)));
            if ok != Some(true) {
                r.failed += 1;
                r.fail_check(format!("traced replication {k} failed a check"));
            }
        }
    }
    let per_pass = |x: u64| x as f64 / passes as f64;
    let s = &t.sched;
    Layers {
        gen_ns_per_txn: ratio(plan.gen_ns as f64, plan.gen_txns as f64),
        events: per_pass(t.events),
        events_per_txn: ratio(t.events as f64, t.txns as f64),
        step_ns_total: per_pass(t.step_ns),
        step_p50_ns: quantile_in_place(&mut steps, 0.5),
        step_p99_ns: quantile_in_place(&mut steps, 0.99),
        step_max_ns: steps.last().copied().unwrap_or(0.0),
        pick_ns_total: per_pass(t.pick_ns),
        pick_calls: per_pass(s.pick_next_calls),
        priority_hit_ratio: ratio(
            s.priority_cache_hits as f64,
            (s.priority_cache_hits + s.priority_evals) as f64,
        ),
        pair_hit_ratio: ratio(s.pair_cache_hits as f64, s.pair_checks as f64),
        pair_checks: per_pass(s.pair_checks),
        heap_stale_pops: per_pass(s.heap_stale_pops),
        clear_repair_visits: per_pass(s.clear_repair_visits),
        index_migrations: per_pass(s.index_migrations),
        pair_cache_evictions: per_pass(s.pair_cache_evictions),
        policy_priority_calls: per_pass(t.policy.priority_calls),
        policy_priority_ns: per_pass(t.policy.priority_ns),
        policy_clear_raise_ns: per_pass(t.policy.clear_raise_ns),
        restarts_total: per_pass(t.restarts),
        lock_waits: per_pass(t.lock_waits),
        committed: per_pass(t.committed),
        disk_utilization: if t.disk_util.is_empty() {
            0.0
        } else {
            median(&t.disk_util)
        },
        admission_rejected: per_pass(t.rejected),
        host_kernel_ms: median(&cal.samples_ms),
        trace_overhead_pct: 100.0 * (t.traced_ns as f64 / t.untraced_ns as f64 - 1.0),
        ..Layers::default()
    }
    .push_into(&mut r);
    r
}

/// Trace one replication into `t`; false if any check fails.
fn trace_replication(rep: &[Prepared], t: &mut Tally, mut steps: Option<&mut Vec<f64>>) -> bool {
    let mut ok = true;
    for p in rep {
        let n = p.txns.len() as u64;

        let txns = p.txns.clone();
        let t0 = Instant::now();
        let reference = replay(p, &*p.policy, txns);
        t.untraced_ns += t0.elapsed().as_nanos() as u64;

        let txns = p.txns.clone();
        let t0 = Instant::now();
        let mut eng = StepEngine::new(&p.cfg, &*p.policy).expect("validated in set-up");
        for txn in txns {
            eng.submit(txn);
        }
        while eng.terminated() < n {
            let s0 = Instant::now();
            let stepped = eng.step();
            let dt = s0.elapsed().as_nanos() as u64;
            if !stepped {
                break;
            }
            t.step_ns += dt;
            t.events += 1;
            if let Some(steps) = steps.as_deref_mut() {
                steps.push(dt as f64);
            }
        }
        let stepped = eng.finish();
        t.traced_ns += t0.elapsed().as_nanos() as u64;
        t.txns += n;

        let profiled = run_simulation_profiled(&p.cfg, &*p.policy);
        t.pick_ns += profiled.sched.sched_wall_ns;
        add_sched(&mut t.sched, &profiled.sched);

        let timed = TimedPolicy::new(Arc::clone(&p.policy));
        let probed = replay(p, &timed, p.txns.clone());
        let tally = timed.tally();
        t.policy.priority_calls += tally.priority_calls;
        t.policy.priority_ns += tally.priority_ns;
        t.policy.clear_raise_ns += tally.clear_raise_ns;

        t.restarts += reference.restarts_total;
        t.lock_waits += reference.lock_waits;
        t.committed += reference.committed;
        t.rejected += reference.rejected;
        if p.cfg.system.disk.is_some() {
            t.disk_util.push(reference.disk_utilization);
        }

        let checks = [
            ("replay", reference.sans_sched_stats() == p.oracle),
            ("step engine", stepped == reference),
            ("profiled", profiled.sans_sched_stats() == p.oracle),
            ("policy probe", probed == reference),
        ];
        for (what, pass) in checks {
            if !pass {
                eprintln!("perfbench: {what} run diverged (seed {})", p.cfg.run.seed);
                ok = false;
            }
        }
    }
    ok
}

/// Accumulate the scheduler counters the per-layer report uses.
pub fn add_sched(acc: &mut SchedStats, s: &SchedStats) {
    acc.pick_next_calls += s.pick_next_calls;
    acc.priority_evals += s.priority_evals;
    acc.priority_cache_hits += s.priority_cache_hits;
    acc.pair_checks += s.pair_checks;
    acc.pair_cache_hits += s.pair_cache_hits;
    acc.heap_stale_pops += s.heap_stale_pops;
    acc.clear_repair_visits += s.clear_repair_visits;
    acc.index_migrations += s.index_migrations;
    acc.pair_cache_evictions += s.pair_cache_evictions;
}
