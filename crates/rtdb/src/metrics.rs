//! Per-run metrics: the quantities the paper's figures plot.
//!
//! * **miss percent** — share of transactions committing after their
//!   deadline (Figures 4.a, 4.d, 4.f, 5.b, 5.e, 5.a, 5.f);
//! * **mean lateness** — we report mean tardiness over all transactions,
//!   `mean(max(0, finish − deadline))`, plus the signed mean and the mean
//!   over missed transactions for sensitivity (Figures 4.b, 4.e, 5.d);
//! * **restarts per transaction** (Figures 4.c, 5.c);
//! * auxiliary series: mean P-list length (§4.1's "1 to 2" check), CPU and
//!   disk utilization (§5's 62.5% bound).

use rtx_sim::hist::Histogram;
use rtx_sim::stats::{Accumulator, TimeWeighted};
use rtx_sim::time::{SimDuration, SimTime};

/// Scheduler-overhead counters: how much work the continuous-evaluation
/// dispatcher did, and how much of it the incremental indexes absorbed.
///
/// All counters are deterministic functions of the event sequence —
/// except `sched_wall_ns`, which is only measured in profiled runs
/// (`run_simulation_profiled`) and stays 0 otherwise, so `RunSummary`
/// equality remains meaningful for determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Scheduling points: calls to the engine's `pick_next`.
    pub pick_next_calls: u64,
    /// Actual `Policy::priority` evaluations performed.
    pub priority_evals: u64,
    /// Always 0: the priority cache it counted is gone (the heap key is
    /// the only stored priority). Kept because the repository benchmark
    /// reads it.
    pub priority_cache_hits: u64,
    /// Pairwise conflict tests requested (static `conflicts_with` plus
    /// dynamic `is_unsafe_with`, e.g. from `penalty_of_conflict`). The
    /// set-at-a-time slot-row relations test no pairs and count none.
    pub pair_checks: u64,
    /// Always 0: the pair-verdict memo it counted is gone. Kept because
    /// the repository benchmark reads it.
    pub pair_cache_hits: u64,
    /// Priority-index key writes: inserts plus in-place repositions
    /// (clear repairs, narrowing refreshes, wound/wait demotions and
    /// pick re-parks) while an indexed pick path is active.
    pub heap_pushes: u64,
    /// Stale-high index tops demoted in place by the pick loop's
    /// validation (the cost of tolerating priority falls lazily).
    pub heap_stale_pops: u64,
    /// Picks answered by the index (top confirmed by an exact
    /// recomputation) instead of a full scan.
    pub heap_validated_picks: u64,
    /// Always 0: the pair-verdict memo it counted is gone. Kept because
    /// the repository benchmark reads it.
    pub pair_cache_evictions: u64,
    /// Conflict-clear repair walks performed (one per clear of a
    /// partially executed transaction while the `ConflictState` heap is
    /// the pick path).
    pub clear_repair_clears: u64,
    /// Victims those walks took from the slot rows: the transactions the
    /// cleared one was unsafe with respect to.
    pub clear_repair_visits: u64,
    /// Always 0: the split priority index whose half-to-half moves it
    /// counted is gone. Kept because the repository benchmark reads it.
    pub index_migrations: u64,
    /// Verify-mode divergence checks performed (maintained-vs-fresh
    /// assertions that ran and passed; 0 outside `CacheMode::Verify`).
    pub verify_checks: u64,
    /// Wall-clock nanoseconds spent inside `pick_next` (profiled runs
    /// only; 0 otherwise).
    pub sched_wall_ns: u64,
}

/// Collected during one run.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    committed: u64,
    missed: u64,
    lateness_signed: Accumulator,
    tardiness_all: Accumulator,
    tardiness_missed: Accumulator,
    response_time: Accumulator,
    tardiness_hist: Histogram,
    restarts_total: u64,
    aborts_of_secondary: u64,
    lock_waits: u64,
    deadlock_resolutions: u64,
    starvation_shields: u64,
    /// Per-criticality-class (committed, missed) counts.
    class_counts: Vec<(u64, u64)>,
    plist_len: TimeWeighted,
    ready_len: TimeWeighted,
    cpu_busy: SimDuration,
    rejected: u64,
    injected_io_faults: u64,
    io_latency_spikes: u64,
    io_retries: u64,
    io_exhausted_aborts: u64,
    total_backoff: SimDuration,
    wasted_disk_hold: SimDuration,
    injected_cpu_stalls: u64,
    cpu_slowdowns: u64,
    cpu_retries: u64,
    cpu_exhausted_aborts: u64,
    cpu_backoff: SimDuration,
    wasted_cpu: SimDuration,
    sched: SchedStats,
}

impl MetricsCollector {
    /// Fresh collector.
    pub fn new() -> Self {
        MetricsCollector {
            committed: 0,
            missed: 0,
            lateness_signed: Accumulator::new(),
            tardiness_all: Accumulator::new(),
            tardiness_missed: Accumulator::new(),
            response_time: Accumulator::new(),
            tardiness_hist: Histogram::for_latency_ms(),
            restarts_total: 0,
            aborts_of_secondary: 0,
            lock_waits: 0,
            deadlock_resolutions: 0,
            starvation_shields: 0,
            class_counts: Vec::new(),
            plist_len: TimeWeighted::new(0.0, 0.0),
            ready_len: TimeWeighted::new(0.0, 0.0),
            cpu_busy: SimDuration::ZERO,
            rejected: 0,
            injected_io_faults: 0,
            io_latency_spikes: 0,
            io_retries: 0,
            io_exhausted_aborts: 0,
            total_backoff: SimDuration::ZERO,
            wasted_disk_hold: SimDuration::ZERO,
            injected_cpu_stalls: 0,
            cpu_slowdowns: 0,
            cpu_retries: 0,
            cpu_exhausted_aborts: 0,
            cpu_backoff: SimDuration::ZERO,
            wasted_cpu: SimDuration::ZERO,
            sched: SchedStats::default(),
        }
    }

    /// Record a commit of a transaction in criticality class `class`.
    pub fn record_commit_in_class(
        &mut self,
        class: u8,
        arrival: SimTime,
        deadline: SimTime,
        finish: SimTime,
    ) {
        let idx = class as usize;
        if idx >= self.class_counts.len() {
            self.class_counts.resize(idx + 1, (0, 0));
        }
        self.class_counts[idx].0 += 1;
        if finish.signed_ms_since(deadline) > 0.0 {
            self.class_counts[idx].1 += 1;
        }
        self.record_commit(arrival, deadline, finish);
    }

    /// Record a commit.
    pub fn record_commit(&mut self, arrival: SimTime, deadline: SimTime, finish: SimTime) {
        self.committed += 1;
        let lateness = finish.signed_ms_since(deadline);
        self.lateness_signed.record(lateness);
        let tardiness = lateness.max(0.0);
        self.tardiness_all.record(tardiness);
        if lateness > 0.0 {
            self.missed += 1;
            self.tardiness_missed.record(tardiness);
        }
        self.response_time.record(finish.signed_ms_since(arrival));
        self.tardiness_hist.record(tardiness);
    }

    /// Record an abort/restart. `of_secondary` flags a noncontributing
    /// execution: the victim had been scheduled during an IO wait.
    pub fn record_restart(&mut self, of_secondary: bool) {
        self.restarts_total += 1;
        if of_secondary {
            self.aborts_of_secondary += 1;
        }
    }

    /// Record that a transaction had to block waiting for a lock
    /// (wound-wait's wait side; never happens under CCA — Theorem 1).
    pub fn record_lock_wait(&mut self) {
        self.lock_waits += 1;
    }

    /// Record that a wedged lock-wait cycle had to be broken by aborting
    /// a cycle member (never happens under CCA or static-priority HP).
    pub fn record_deadlock_resolution(&mut self) {
        self.deadlock_resolutions += 1;
    }

    /// Record that a lock request deferred to a starvation-shielded
    /// holder instead of aborting it (livelock escalation; 0 under the
    /// paper's policies).
    pub fn record_starvation_shield(&mut self) {
        self.starvation_shields += 1;
    }

    /// Record a change of the P-list length (time-weighted).
    pub fn set_plist_len(&mut self, now: SimTime, len: usize) {
        self.plist_len.set(now.as_ms(), len as f64);
    }

    /// Record a change of the ready-queue length (time-weighted).
    pub fn set_ready_len(&mut self, now: SimTime, len: usize) {
        self.ready_len.set(now.as_ms(), len as f64);
    }

    /// Add CPU busy time (bursts, including recovery work).
    pub fn add_cpu_busy(&mut self, d: SimDuration) {
        self.cpu_busy += d;
    }

    /// Record a transaction rejected on arrival by admission control.
    pub fn record_rejection(&mut self) {
        self.rejected += 1;
    }

    /// Record an injected transient IO error (the attempt occupied the
    /// disk and then failed).
    pub fn record_injected_fault(&mut self) {
        self.injected_io_faults += 1;
    }

    /// Record an injected latency spike on a disk transfer.
    pub fn record_latency_spike(&mut self) {
        self.io_latency_spikes += 1;
    }

    /// Record a retry of a failed transfer and the backoff delay spent
    /// before it.
    pub fn record_io_retry(&mut self, backoff: SimDuration) {
        self.io_retries += 1;
        self.total_backoff += backoff;
    }

    /// Record an abort-and-restart forced by an exhausted IO retry budget.
    pub fn record_io_exhausted_abort(&mut self) {
        self.io_exhausted_aborts += 1;
    }

    /// Record disk-hold time wasted by a doomed transaction (aborted
    /// mid-transfer; the transfer ran to completion anyway).
    pub fn add_wasted_disk_hold(&mut self, d: SimDuration) {
        self.wasted_disk_hold += d;
    }

    /// Record an injected CPU stall (the burst occupied the CPU and then
    /// failed to make progress).
    pub fn record_cpu_stall(&mut self) {
        self.injected_cpu_stalls += 1;
    }

    /// Record an injected CPU slowdown on a compute burst.
    pub fn record_cpu_slowdown(&mut self) {
        self.cpu_slowdowns += 1;
    }

    /// Record a retry of a stalled compute burst and the backoff delay
    /// spent before it.
    pub fn record_cpu_retry(&mut self, backoff: SimDuration) {
        self.cpu_retries += 1;
        self.cpu_backoff += backoff;
    }

    /// Record an abort-and-restart forced by an exhausted CPU retry
    /// budget.
    pub fn record_cpu_exhausted_abort(&mut self) {
        self.cpu_exhausted_aborts += 1;
    }

    /// Record CPU time wasted by a stalled burst (it ran to completion
    /// but produced no progress).
    pub fn add_wasted_cpu(&mut self, d: SimDuration) {
        self.wasted_cpu += d;
    }

    /// Install the scheduler-overhead counters (the engine sets these once
    /// at the end of the run, from its internal tallies).
    pub fn set_sched_stats(&mut self, sched: SchedStats) {
        self.sched = sched;
    }

    /// Transactions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Transactions rejected at admission so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Finalize at simulation end time `end` with the disk's busy total.
    pub fn finish(&self, end: SimTime, disk_busy: SimDuration) -> RunSummary {
        let n = self.committed.max(1) as f64;
        RunSummary {
            committed: self.committed,
            miss_percent: 100.0 * self.missed as f64 / n,
            mean_lateness_ms: self.tardiness_all.mean(),
            mean_signed_lateness_ms: self.lateness_signed.mean(),
            mean_tardiness_missed_ms: self.tardiness_missed.mean(),
            mean_response_ms: self.response_time.mean(),
            max_lateness_ms: self.tardiness_all.max().unwrap_or(0.0),
            p95_lateness_ms: self.tardiness_hist.quantile(0.95),
            p99_lateness_ms: self.tardiness_hist.quantile(0.99),
            restarts_per_txn: self.restarts_total as f64 / n,
            restarts_total: self.restarts_total,
            noncontributing_aborts: self.aborts_of_secondary,
            lock_waits: self.lock_waits,
            deadlock_resolutions: self.deadlock_resolutions,
            starvation_shields: self.starvation_shields,
            miss_percent_by_class: self
                .class_counts
                .iter()
                .map(|&(c, m)| {
                    if c == 0 {
                        0.0
                    } else {
                        100.0 * m as f64 / c as f64
                    }
                })
                .collect(),
            mean_plist_len: self.plist_len.mean_until(end.as_ms()),
            max_plist_len: self.plist_len.max(),
            mean_ready_len: self.ready_len.mean_until(end.as_ms()),
            cpu_utilization: if end == SimTime::ZERO {
                0.0
            } else {
                self.cpu_busy.as_secs() / end.as_secs()
            },
            disk_utilization: if end == SimTime::ZERO {
                0.0
            } else {
                disk_busy.as_secs() / end.as_secs()
            },
            makespan_ms: end.as_ms(),
            rejected: self.rejected,
            rejected_percent: {
                let total = self.committed + self.rejected;
                if total == 0 {
                    0.0
                } else {
                    100.0 * self.rejected as f64 / total as f64
                }
            },
            injected_io_faults: self.injected_io_faults,
            io_latency_spikes: self.io_latency_spikes,
            io_retries: self.io_retries,
            io_exhausted_aborts: self.io_exhausted_aborts,
            total_backoff_ms: self.total_backoff.as_ms(),
            wasted_disk_hold_ms: self.wasted_disk_hold.as_ms(),
            injected_cpu_stalls: self.injected_cpu_stalls,
            cpu_slowdowns: self.cpu_slowdowns,
            cpu_retries: self.cpu_retries,
            cpu_exhausted_aborts: self.cpu_exhausted_aborts,
            cpu_backoff_ms: self.cpu_backoff.as_ms(),
            wasted_cpu_ms: self.wasted_cpu.as_ms(),
            sched: self.sched,
        }
    }
}

impl Default for MetricsCollector {
    fn default() -> Self {
        Self::new()
    }
}

/// Final per-run outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Transactions committed (always equals the run's budget).
    pub committed: u64,
    /// Percentage of transactions that missed their deadline.
    pub miss_percent: f64,
    /// Mean tardiness over all transactions, ms — the headline "mean
    /// lateness".
    pub mean_lateness_ms: f64,
    /// Mean signed lateness over all transactions, ms (negative = early).
    pub mean_signed_lateness_ms: f64,
    /// Mean tardiness over missed transactions only, ms.
    pub mean_tardiness_missed_ms: f64,
    /// Mean response time (finish − arrival), ms.
    pub mean_response_ms: f64,
    /// Worst tardiness, ms.
    pub max_lateness_ms: f64,
    /// 95th-percentile tardiness, ms (bucketed to 1% relative error).
    pub p95_lateness_ms: f64,
    /// 99th-percentile tardiness, ms.
    pub p99_lateness_ms: f64,
    /// Restarts per transaction (Figures 4.c, 5.c).
    pub restarts_per_txn: f64,
    /// Total restarts.
    pub restarts_total: u64,
    /// Restarts whose victim had been scheduled during an IO wait
    /// (noncontributing executions, §3.3.2).
    pub noncontributing_aborts: u64,
    /// Times a transaction blocked waiting for a lock (0 under CCA).
    pub lock_waits: u64,
    /// Lock-wait cycles broken by the deadlock resolver (0 under CCA and
    /// under any static-priority policy; LSF can deadlock — §2).
    pub deadlock_resolutions: u64,
    /// Lock requests deferred to starvation-shielded holders (livelock
    /// escalation; 0 under the paper's policies).
    pub starvation_shields: u64,
    /// Miss percentage per criticality class (index = class). Length 1
    /// for the paper's single-class workloads.
    pub miss_percent_by_class: Vec<f64>,
    /// Time-averaged number of partially executed transactions.
    pub mean_plist_len: f64,
    /// Peak P-list length.
    pub max_plist_len: f64,
    /// Time-averaged ready-queue length.
    pub mean_ready_len: f64,
    /// CPU busy fraction.
    pub cpu_utilization: f64,
    /// Disk busy fraction (0 for main memory).
    pub disk_utilization: f64,
    /// Total simulated time, ms.
    pub makespan_ms: f64,
    /// Transactions rejected on arrival by admission control (0 when
    /// admission is disabled).
    pub rejected: u64,
    /// Rejections as a percentage of all terminated transactions
    /// (committed + rejected) — the third leg of the outcome
    /// decomposition alongside `miss_percent`.
    pub rejected_percent: f64,
    /// Injected transient IO errors (0 under `FaultPlan::none()`).
    pub injected_io_faults: u64,
    /// Injected latency spikes on disk transfers.
    pub io_latency_spikes: u64,
    /// Disk-transfer retries after injected faults.
    pub io_retries: u64,
    /// Aborts forced by an exhausted IO retry budget.
    pub io_exhausted_aborts: u64,
    /// Total exponential-backoff delay spent before retries, ms.
    pub total_backoff_ms: f64,
    /// Disk-hold time wasted by doomed transactions (aborted mid-transfer
    /// while the transfer ran on), ms.
    pub wasted_disk_hold_ms: f64,
    /// Injected CPU stalls (0 without a CPU fault plan).
    pub injected_cpu_stalls: u64,
    /// Injected CPU slowdowns on compute bursts.
    pub cpu_slowdowns: u64,
    /// Compute-burst retries after injected stalls.
    pub cpu_retries: u64,
    /// Aborts forced by an exhausted CPU retry budget.
    pub cpu_exhausted_aborts: u64,
    /// Total exponential-backoff delay spent before CPU retries, ms.
    pub cpu_backoff_ms: f64,
    /// CPU time wasted by stalled bursts (ran fully, no progress), ms.
    pub wasted_cpu_ms: f64,
    /// Scheduler-overhead counters (priority evaluations, cache hits,
    /// pair checks, profiled `pick_next` wall time).
    pub sched: SchedStats,
}

impl RunSummary {
    /// This summary with the scheduler-overhead counters zeroed.
    ///
    /// The *simulated* outcome of a run is independent of how the engine
    /// evaluated priorities — cached or from scratch — but the overhead
    /// counters of course differ across cache modes and across policies.
    /// Equality tests that compare outcomes across such axes (e.g. "CCA
    /// with weight 0 behaves exactly like EDF-HP", or "the incremental
    /// engine matches the always-recompute oracle") compare
    /// `a.sans_sched_stats() == b.sans_sched_stats()`.
    pub fn sans_sched_stats(&self) -> RunSummary {
        RunSummary {
            sched: SchedStats::default(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> SimTime {
        SimTime::from_ms(x)
    }

    #[test]
    fn commit_accounting() {
        let mut m = MetricsCollector::new();
        // on time: finish 80, deadline 100
        m.record_commit(ms(0.0), ms(100.0), ms(80.0));
        // late by 50
        m.record_commit(ms(0.0), ms(100.0), ms(150.0));
        let s = m.finish(ms(200.0), SimDuration::ZERO);
        assert_eq!(s.committed, 2);
        assert!((s.miss_percent - 50.0).abs() < 1e-9);
        assert!((s.mean_lateness_ms - 25.0).abs() < 1e-9, "(0 + 50)/2");
        assert!(
            (s.mean_signed_lateness_ms - 15.0).abs() < 1e-9,
            "(-20 + 50)/2"
        );
        assert!((s.mean_tardiness_missed_ms - 50.0).abs() < 1e-9);
        assert!((s.mean_response_ms - 115.0).abs() < 1e-9);
        assert_eq!(s.max_lateness_ms, 50.0);
    }

    #[test]
    fn exactly_on_deadline_is_not_missed() {
        let mut m = MetricsCollector::new();
        m.record_commit(ms(0.0), ms(100.0), ms(100.0));
        let s = m.finish(ms(100.0), SimDuration::ZERO);
        assert_eq!(s.miss_percent, 0.0);
    }

    #[test]
    fn restart_accounting() {
        let mut m = MetricsCollector::new();
        m.record_restart(false);
        m.record_restart(true);
        m.record_restart(false);
        m.record_commit(ms(0.0), ms(10.0), ms(5.0));
        m.record_commit(ms(0.0), ms(10.0), ms(5.0));
        let s = m.finish(ms(10.0), SimDuration::ZERO);
        assert_eq!(s.restarts_total, 3);
        assert!((s.restarts_per_txn - 1.5).abs() < 1e-9);
        assert_eq!(s.noncontributing_aborts, 1);
    }

    #[test]
    fn utilizations() {
        let mut m = MetricsCollector::new();
        m.add_cpu_busy(SimDuration::from_ms(50.0));
        m.record_commit(ms(0.0), ms(10.0), ms(5.0));
        let s = m.finish(ms(100.0), SimDuration::from_ms(25.0));
        assert!((s.cpu_utilization - 0.5).abs() < 1e-9);
        assert!((s.disk_utilization - 0.25).abs() < 1e-9);
    }

    #[test]
    fn plist_time_weighting() {
        let mut m = MetricsCollector::new();
        m.set_plist_len(ms(0.0), 0);
        m.set_plist_len(ms(10.0), 2);
        m.set_plist_len(ms(30.0), 1);
        m.record_commit(ms(0.0), ms(10.0), ms(5.0));
        let s = m.finish(ms(40.0), SimDuration::ZERO);
        // 0×10 + 2×20 + 1×10 = 50 over 40 ms.
        assert!((s.mean_plist_len - 1.25).abs() < 1e-9);
        assert_eq!(s.max_plist_len, 2.0);
    }

    #[test]
    fn fault_and_rejection_accounting() {
        let mut m = MetricsCollector::new();
        m.record_injected_fault();
        m.record_injected_fault();
        m.record_latency_spike();
        m.record_io_retry(SimDuration::from_ms(2.0));
        m.record_io_retry(SimDuration::from_ms(4.0));
        m.record_io_exhausted_abort();
        m.add_wasted_disk_hold(SimDuration::from_ms(12.5));
        m.record_rejection();
        m.record_commit(ms(0.0), ms(10.0), ms(5.0));
        m.record_commit(ms(0.0), ms(10.0), ms(5.0));
        m.record_commit(ms(0.0), ms(10.0), ms(5.0));
        assert_eq!(m.rejected(), 1);
        let s = m.finish(ms(100.0), SimDuration::ZERO);
        assert_eq!(s.injected_io_faults, 2);
        assert_eq!(s.io_latency_spikes, 1);
        assert_eq!(s.io_retries, 2);
        assert_eq!(s.io_exhausted_aborts, 1);
        assert!((s.total_backoff_ms - 6.0).abs() < 1e-9);
        assert!((s.wasted_disk_hold_ms - 12.5).abs() < 1e-9);
        assert_eq!(s.rejected, 1);
        assert!((s.rejected_percent - 25.0).abs() < 1e-9, "1 of 4 outcomes");
    }

    #[test]
    fn cpu_fault_accounting() {
        let mut m = MetricsCollector::new();
        m.record_cpu_stall();
        m.record_cpu_stall();
        m.record_cpu_slowdown();
        m.record_cpu_retry(SimDuration::from_ms(1.0));
        m.record_cpu_retry(SimDuration::from_ms(2.0));
        m.record_cpu_exhausted_abort();
        m.add_wasted_cpu(SimDuration::from_ms(8.0));
        m.record_commit(ms(0.0), ms(10.0), ms(5.0));
        let s = m.finish(ms(100.0), SimDuration::ZERO);
        assert_eq!(s.injected_cpu_stalls, 2);
        assert_eq!(s.cpu_slowdowns, 1);
        assert_eq!(s.cpu_retries, 2);
        assert_eq!(s.cpu_exhausted_aborts, 1);
        assert!((s.cpu_backoff_ms - 3.0).abs() < 1e-9);
        assert!((s.wasted_cpu_ms - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_safe() {
        let m = MetricsCollector::new();
        let s = m.finish(SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(s.committed, 0);
        assert_eq!(s.miss_percent, 0.0);
        assert_eq!(s.cpu_utilization, 0.0);
    }
}
