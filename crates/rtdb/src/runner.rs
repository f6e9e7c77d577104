//! Replication runner: "We ran the simulation with the same parameter for
//! 10 different random number seeds … For each algorithm the result were
//! collected and averaged over the 10 runs" (§4; 30 runs in §5).
//!
//! Replications are **independent by construction** — each run derives
//! every RNG stream from its own seed — so they can execute on any number
//! of worker threads. Determinism is preserved by separating the two
//! phases:
//!
//! 1. [`run_one`] executes a single seeded replication (pure with respect
//!    to the seed: no shared state, any thread);
//! 2. the per-seed [`RunSummary`] values are folded into
//!    [`AggregateSummary`] **in seed order**, so the floating-point
//!    reductions see the same operand order regardless of
//!    [`Parallelism`] — serial and parallel aggregates are bit-identical.
//!
//! [`run_replications`] keeps the historical serial-by-default signature;
//! [`run_replications_with`] adds the [`ReplicationOptions`] knob.
//!
//! This is the one batch path: every table and figure spreads its seeds
//! with [`run_seeds`], most of them as [`run_replications_with`] →
//! [`run_seeds`] → [`run_one`]. A replication that panics ends its batch:
//! no worker claims another seed, and the panic resurfaces when the
//! workers are joined. A run that must stop instead of hanging sets a
//! [`crate::config::WatchdogConfig`], and
//! [`crate::engine::run_simulation_checked`] returns its trip as a typed
//! [`crate::error::RunError`].

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rtx_sim::stats::{Estimate, Replications};

use crate::config::SimConfig;
use crate::engine::run_simulation_with_mode;
use crate::metrics::RunSummary;
use crate::policy::Policy;
use crate::CacheMode;

/// How a batch of replications is spread across OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run every replication on the calling thread, in seed order.
    Serial,
    /// Fan out across exactly this many worker threads (values of 0 and 1
    /// both mean the serial path).
    Threads(usize),
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of worker threads this setting resolves to for a batch
    /// of `reps` replications (never more workers than replications).
    pub fn workers(self, reps: usize) -> usize {
        let raw = match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        raw.min(reps.max(1))
    }
}

/// Wall-clock accounting for a batch of replications, shared across
/// worker threads.
///
/// `busy` accumulates the per-replication wall time summed over all
/// workers — an estimate of what a serial execution would have cost — so
/// `busy / wall` estimates the parallel speedup without rerunning the
/// batch serially.
#[derive(Debug, Default)]
pub struct ReplicationTimer {
    busy_nanos: AtomicU64,
    runs: AtomicU64,
}

impl ReplicationTimer {
    /// A fresh timer with zero accumulated time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one replication that took `elapsed` of worker wall time.
    pub fn record(&self, elapsed: Duration) {
        self.busy_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Total busy time summed across workers.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }

    /// Number of replications recorded.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }
}

/// Options controlling how [`run_replications_with`] (and the generic
/// [`run_seeds`]) execute a replication batch.
///
/// The options never affect *what* is computed — only on how many threads
/// and whether timing is collected.
#[derive(Debug, Clone, Default)]
pub struct ReplicationOptions {
    /// Worker-thread policy.
    pub parallelism: Parallelism,
    /// Optional shared timer; every completed replication adds its wall
    /// time, regardless of which worker ran it.
    pub timer: Option<Arc<ReplicationTimer>>,
}

impl ReplicationOptions {
    /// Serial execution (the historical behaviour).
    pub fn serial() -> Self {
        ReplicationOptions {
            parallelism: Parallelism::Serial,
            timer: None,
        }
    }

    /// Fan out across `n` worker threads.
    pub fn threads(n: usize) -> Self {
        ReplicationOptions {
            parallelism: Parallelism::Threads(n),
            timer: None,
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        ReplicationOptions {
            parallelism: Parallelism::Auto,
            timer: None,
        }
    }

    /// Attach a shared [`ReplicationTimer`].
    pub fn with_timer(mut self, timer: Arc<ReplicationTimer>) -> Self {
        self.timer = Some(timer);
        self
    }
}

/// Across-replication averages of every [`RunSummary`] field the paper
/// plots, each with a 95% confidence half-width.
#[derive(Debug, Clone)]
pub struct AggregateSummary {
    /// Policy name the runs used.
    pub policy: String,
    /// Number of replications.
    pub replications: usize,
    /// Miss percentage.
    pub miss_percent: Estimate,
    /// Mean tardiness over all transactions, ms.
    pub mean_lateness_ms: Estimate,
    /// Mean signed lateness, ms.
    pub mean_signed_lateness_ms: Estimate,
    /// Restarts per transaction.
    pub restarts_per_txn: Estimate,
    /// Noncontributing (secondary-victim) aborts per run.
    pub noncontributing_aborts: Estimate,
    /// Time-averaged P-list length.
    pub mean_plist_len: Estimate,
    /// CPU utilization.
    pub cpu_utilization: Estimate,
    /// Disk utilization.
    pub disk_utilization: Estimate,
    /// Mean response time, ms.
    pub mean_response_ms: Estimate,
    /// Share of transactions rejected at admission (0 when admission is
    /// off).
    pub rejected_percent: Estimate,
    /// Injected transient IO errors per run (0 under `FaultPlan::none()`).
    pub injected_io_faults: Estimate,
    /// Disk-transfer retries per run.
    pub io_retries: Estimate,
    /// Retry-budget-exhaustion aborts per run.
    pub io_exhausted_aborts: Estimate,
    /// Disk-hold time wasted by doomed transactions per run, ms.
    pub wasted_disk_hold_ms: Estimate,
}

/// Execute replication `rep` of `cfg` under `policy`: one independent
/// simulation run whose seed is `cfg.run.seed + rep` (wrapping).
///
/// Pure with respect to `(cfg, policy, rep)` — it touches no shared
/// mutable state, so batches of `run_one` calls may execute concurrently.
pub fn run_one(cfg: &SimConfig, policy: &dyn Policy, rep: usize) -> RunSummary {
    let mut run_cfg = cfg.clone();
    run_cfg.run.seed = cfg.run.seed.wrapping_add(rep as u64);
    run_simulation_with_mode(&run_cfg, policy, cache_mode_override())
}

/// Cache-mode override for whole-suite sweeps: `RTX_CACHE_MODE=recompute`
/// replays every replication through the always-recompute oracle,
/// `RTX_CACHE_MODE=verify` through the self-asserting verifier; unset (or
/// `incremental`) is the production engine. Published tables are
/// bit-identical under all three — regenerating `results/*.csv` under
/// each value is the whole-suite equivalence gate.
///
/// # Panics
/// Panics on an unrecognized value: a typo must not silently fall back
/// to the production engine mid-gate.
fn cache_mode_override() -> CacheMode {
    match std::env::var("RTX_CACHE_MODE") {
        Err(_) => CacheMode::Incremental,
        Ok(v) => match v.as_str() {
            "" | "incremental" => CacheMode::Incremental,
            "recompute" => CacheMode::AlwaysRecompute,
            "verify" => CacheMode::Verify,
            other => panic!("unknown RTX_CACHE_MODE: {other:?}"),
        },
    }
}

/// Order-preserving parallel map over seed indices `0..reps`.
///
/// `f(rep)` runs once per index on some worker thread; the returned `Vec`
/// is always in index order, so any order-sensitive fold downstream (CI
/// estimates, CSV rows, floating-point sums) sees results exactly as a
/// serial loop would have produced them. Workers pull indices from a
/// shared counter, so uneven per-seed costs balance automatically.
///
/// # Panics
/// Panics if any `f(rep)` panics. Once one has, no worker claims another
/// index, so the batch ends after the replications already running.
///
/// This is the engine under [`run_replications_with`]; experiment
/// harnesses with bespoke per-seed work (custom workloads, per-class
/// metrics) use it directly.
pub fn run_seeds<T, F>(reps: usize, opts: &ReplicationOptions, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let timed = |rep: usize| -> T {
        let start = Instant::now();
        let out = f(rep);
        if let Some(timer) = &opts.timer {
            timer.record(start.elapsed());
        }
        out
    };

    let workers = opts.parallelism.workers(reps);
    if workers <= 1 {
        return (0..reps).map(timed).collect();
    }

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<T>>> = (0..reps).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _stop_on_panic = StopOnPanic(&stop);
                while !stop.load(Ordering::Relaxed) {
                    let rep = next.fetch_add(1, Ordering::Relaxed);
                    if rep >= reps {
                        break;
                    }
                    let out = timed(rep);
                    *slots[rep].lock().expect("replication slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("replication slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Raises a batch's stop flag when the worker holding it unwinds.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Fold per-seed summaries (in slice order) into an [`AggregateSummary`].
///
/// The order of `summaries` is the order every metric's values enter its
/// [`Replications`] accumulator; callers that want serial-equivalent
/// aggregates must pass summaries in seed order.
pub fn aggregate(policy: &str, summaries: &[RunSummary]) -> AggregateSummary {
    let field = |get: fn(&RunSummary) -> f64| -> Estimate {
        let mut reps = Replications::new();
        reps.record_all(summaries.iter().map(get));
        reps.estimate()
    };
    AggregateSummary {
        policy: policy.to_string(),
        replications: summaries.len(),
        miss_percent: field(|s| s.miss_percent),
        mean_lateness_ms: field(|s| s.mean_lateness_ms),
        mean_signed_lateness_ms: field(|s| s.mean_signed_lateness_ms),
        restarts_per_txn: field(|s| s.restarts_per_txn),
        noncontributing_aborts: field(|s| s.noncontributing_aborts as f64),
        mean_plist_len: field(|s| s.mean_plist_len),
        cpu_utilization: field(|s| s.cpu_utilization),
        disk_utilization: field(|s| s.disk_utilization),
        mean_response_ms: field(|s| s.mean_response_ms),
        rejected_percent: field(|s| s.rejected_percent),
        injected_io_faults: field(|s| s.injected_io_faults as f64),
        io_retries: field(|s| s.io_retries as f64),
        io_exhausted_aborts: field(|s| s.io_exhausted_aborts as f64),
        wasted_disk_hold_ms: field(|s| s.wasted_disk_hold_ms),
    }
}

/// Run `replications` independent runs (seeds `0..replications` offset by
/// `cfg.run.seed`) and aggregate, serially on the calling thread.
///
/// Equivalent to [`run_replications_with`] under
/// [`ReplicationOptions::serial`] — and, by the seed-order merge
/// guarantee, to *any* other parallelism setting.
pub fn run_replications(
    cfg: &SimConfig,
    policy: &dyn Policy,
    replications: usize,
) -> AggregateSummary {
    run_replications_with(cfg, policy, replications, &ReplicationOptions::serial())
}

/// Run `replications` independent seeded runs under `opts` and merge the
/// results in seed order.
///
/// The aggregate is **bit-identical across all [`Parallelism`] settings**:
/// each replication is a pure function of its seed, and the merge folds
/// summaries in seed order no matter which worker produced them.
pub fn run_replications_with(
    cfg: &SimConfig,
    policy: &dyn Policy,
    replications: usize,
    opts: &ReplicationOptions,
) -> AggregateSummary {
    assert!(replications > 0, "need at least one replication");
    let summaries = run_seeds(replications, opts, |rep| run_one(cfg, policy, rep));
    aggregate(policy.name(), &summaries)
}

/// Percentage improvement of `ours` over `baseline` for a
/// lower-is-better metric: `(baseline − ours) / baseline × 100` — the
/// paper's `improvement = (EDF − CCA)/EDF × 100`.
pub fn improvement_percent(baseline: f64, ours: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Priority, SystemView};
    use crate::txn::Transaction;

    struct Edf;
    impl Policy for Edf {
        fn name(&self) -> &str {
            "EDF-HP"
        }
        fn priority(&self, txn: &Transaction, _view: &SystemView<'_>) -> Priority {
            Priority(-txn.deadline.as_ms())
        }
    }

    #[test]
    fn aggregates_over_seeds() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 60;
        cfg.run.arrival_rate_tps = 8.0;
        let agg = run_replications(&cfg, &Edf, 4);
        assert_eq!(agg.replications, 4);
        assert_eq!(agg.policy, "EDF-HP");
        assert_eq!(agg.miss_percent.n, 4);
        assert!(agg.miss_percent.mean >= 0.0);
        assert!(agg.cpu_utilization.mean > 0.0);
    }

    #[test]
    fn deterministic_aggregation() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 40;
        let a = run_replications(&cfg, &Edf, 3);
        let b = run_replications(&cfg, &Edf, 3);
        assert_eq!(a.miss_percent.mean, b.miss_percent.mean);
        assert_eq!(a.restarts_per_txn.mean, b.restarts_per_txn.mean);
    }

    #[test]
    fn seed_offset_changes_runs() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 40;
        cfg.run.arrival_rate_tps = 9.0;
        let a = run_replications(&cfg, &Edf, 2);
        cfg.run.seed = 1000;
        let b = run_replications(&cfg, &Edf, 2);
        assert_ne!(a.mean_response_ms.mean, b.mean_response_ms.mean);
    }

    #[test]
    fn improvement_formula() {
        assert!((improvement_percent(10.0, 7.0) - 30.0).abs() < 1e-12);
        assert!((improvement_percent(10.0, 12.0) + 20.0).abs() < 1e-12);
        assert_eq!(improvement_percent(0.0, 5.0), 0.0, "guarded division");
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        let cfg = SimConfig::mm_base();
        run_replications(&cfg, &Edf, 0);
    }

    #[test]
    fn run_one_matches_manual_seed_offset() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 40;
        cfg.run.seed = 7;
        let via_helper = run_one(&cfg, &Edf, 3);
        let mut manual_cfg = cfg.clone();
        manual_cfg.run.seed = 10;
        let manual = crate::engine::run_simulation(&manual_cfg, &Edf);
        assert_eq!(via_helper, manual);
    }

    #[test]
    fn run_seeds_preserves_order_under_parallelism() {
        let serial = run_seeds(17, &ReplicationOptions::serial(), |rep| rep * rep);
        let parallel = run_seeds(17, &ReplicationOptions::threads(4), |rep| rep * rep);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..17).map(|r| r * r).collect::<Vec<_>>());
    }

    /// A panicking replication stops the batch: the other worker claims
    /// no seed after it, instead of running all 29 others first.
    #[test]
    fn a_panicking_seed_stops_the_batch() {
        let ran = AtomicUsize::new(0);
        let batch = std::panic::catch_unwind(|| {
            run_seeds(30, &ReplicationOptions::threads(2), |rep| {
                if rep == 0 {
                    panic!("replication 0 failed");
                }
                ran.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20));
            })
        });
        assert!(batch.is_err(), "the batch must panic");
        let ran = ran.into_inner();
        assert!(
            ran <= 3,
            "{ran} of the 29 other seeds ran after seed 0 panicked"
        );
    }

    #[test]
    fn parallel_equals_serial_bitwise() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 60;
        cfg.run.arrival_rate_tps = 8.0;
        let serial = run_replications_with(&cfg, &Edf, 5, &ReplicationOptions::serial());
        for opts in [
            ReplicationOptions::threads(2),
            ReplicationOptions::threads(4),
            ReplicationOptions::auto(),
        ] {
            let par = run_replications_with(&cfg, &Edf, 5, &opts);
            assert_eq!(serial.miss_percent, par.miss_percent);
            assert_eq!(serial.mean_lateness_ms, par.mean_lateness_ms);
            assert_eq!(serial.mean_signed_lateness_ms, par.mean_signed_lateness_ms);
            assert_eq!(serial.restarts_per_txn, par.restarts_per_txn);
            assert_eq!(serial.noncontributing_aborts, par.noncontributing_aborts);
            assert_eq!(serial.mean_plist_len, par.mean_plist_len);
            assert_eq!(serial.cpu_utilization, par.cpu_utilization);
            assert_eq!(serial.disk_utilization, par.disk_utilization);
            assert_eq!(serial.mean_response_ms, par.mean_response_ms);
        }
    }

    #[test]
    fn timer_counts_every_replication() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 30;
        let timer = Arc::new(ReplicationTimer::new());
        let opts = ReplicationOptions::threads(3).with_timer(Arc::clone(&timer));
        run_replications_with(&cfg, &Edf, 6, &opts);
        assert_eq!(timer.runs(), 6);
        assert!(timer.busy() > Duration::ZERO);
    }

    #[test]
    fn workers_never_exceed_reps() {
        assert_eq!(Parallelism::Threads(8).workers(3), 3);
        assert_eq!(Parallelism::Threads(0).workers(3), 1);
        assert_eq!(Parallelism::Serial.workers(100), 1);
        assert!(Parallelism::Auto.workers(usize::MAX) >= 1);
    }
}
