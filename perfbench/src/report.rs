//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (replications for batch workloads, requests
    /// for the serving workload).
    pub attempted: u64,
    /// Operations that errored, lost their result or failed a check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The end-to-end metrics (`--trace 0`), reported by every workload.
pub struct EndToEnd {
    /// Transactions reaching a terminal outcome per wall second.
    pub txn_per_s: f64,
    /// Share of attempted transactions *not* committed by their deadline
    /// (late, rejected, shed, poisoned or lost): the paper's miss percent.
    pub miss_pct: f64,
    /// Share of attempted transactions committed at all (late or not).
    pub committed_pct: f64,
    /// Median wall latency of the workload's unit of work.
    pub p50_ms: f64,
    /// 99th-percentile wall latency of the workload's unit of work.
    pub p99_ms: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Peak resident set size.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn push_into(&self, r: &mut Report) {
        r.push("txn_per_s", self.txn_per_s, "1/s");
        r.push("miss_pct", self.miss_pct, "%");
        r.push("committed_pct", self.committed_pct, "%");
        r.push("p50_ms", self.p50_ms, "ms");
        r.push("p99_ms", self.p99_ms, "ms");
        r.push("setup_s", self.setup_s, "s");
        r.push("peak_rss_mb", self.peak_rss_mb, "MiB");
    }
}

/// The per-layer metrics (`--trace 1`). Every workload reports every
/// field; a layer the workload does not run reads 0.
#[derive(Default)]
pub struct Layers {
    pub gen_ns_per_txn: f64,
    pub events: f64,
    pub events_per_txn: f64,
    pub step_ns_total: f64,
    pub step_p50_ns: f64,
    pub step_p99_ns: f64,
    pub step_max_ns: f64,
    pub pick_ns_total: f64,
    pub pick_calls: f64,
    pub priority_hit_ratio: f64,
    pub pair_hit_ratio: f64,
    pub pair_checks: f64,
    pub heap_stale_pops: f64,
    pub clear_repair_visits: f64,
    pub index_migrations: f64,
    pub pair_cache_evictions: f64,
    pub policy_priority_calls: f64,
    pub policy_priority_ns: f64,
    pub policy_clear_raise_ns: f64,
    pub restarts_total: f64,
    pub lock_waits: f64,
    pub committed: f64,
    pub disk_utilization: f64,
    pub admission_rejected: f64,
    pub gen_lag_p99_ms: f64,
    pub submit_block_p99_ms: f64,
    pub submit_block_total_s: f64,
    pub door_wait_p99_ms: f64,
    pub sim_response_p99_ms: f64,
    pub delivery_lag_p99_ms: f64,
    pub drain_s: f64,
    pub observe_pass_p99_ms: f64,
    pub host_kernel_ms: f64,
    pub trace_overhead_pct: f64,
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Push every per-layer metric, deriving the ledger rows: the step
    /// total splits exactly into `sched.pick_ns_total` + `engine.other_ns`.
    pub fn push_into(&self, r: &mut Report) {
        let other_ns = self.step_ns_total - self.pick_ns_total;
        r.push("gen.ns_per_txn", self.gen_ns_per_txn, "ns");
        r.push("engine.events", self.events, "count");
        r.push("engine.events_per_txn", self.events_per_txn, "count");
        r.push("engine.step_ns_total", self.step_ns_total, "ns");
        r.push("engine.step_p50_ns", self.step_p50_ns, "ns");
        r.push("engine.step_p99_ns", self.step_p99_ns, "ns");
        r.push("engine.step_max_ns", self.step_max_ns, "ns");
        r.push("engine.other_ns", other_ns, "ns");
        r.push(
            "engine.other_share",
            ratio(other_ns, self.step_ns_total),
            "ratio",
        );
        r.push("sched.pick_ns_total", self.pick_ns_total, "ns");
        r.push("sched.pick_calls", self.pick_calls, "count");
        r.push(
            "sched.pick_share",
            ratio(self.pick_ns_total, self.step_ns_total),
            "ratio",
        );
        r.push("sched.priority_hit_ratio", self.priority_hit_ratio, "ratio");
        r.push("sched.pair_hit_ratio", self.pair_hit_ratio, "ratio");
        r.push("sched.pair_checks", self.pair_checks, "count");
        r.push("sched.heap_stale_pops", self.heap_stale_pops, "count");
        r.push(
            "sched.clear_repair_visits",
            self.clear_repair_visits,
            "count",
        );
        r.push("sched.index_migrations", self.index_migrations, "count");
        r.push(
            "sched.pair_cache_evictions",
            self.pair_cache_evictions,
            "count",
        );
        r.push("policy.priority_calls", self.policy_priority_calls, "count");
        r.push("policy.priority_ns_total", self.policy_priority_ns, "ns");
        r.push(
            "policy.clear_raise_ns_total",
            self.policy_clear_raise_ns,
            "ns",
        );
        r.push("locks.restarts_total", self.restarts_total, "count");
        r.push("locks.lock_waits", self.lock_waits, "count");
        r.push(
            "locks.useful_ratio",
            ratio(self.committed, self.committed + self.restarts_total),
            "ratio",
        );
        r.push("disk.utilization", self.disk_utilization, "ratio");
        r.push("admission.rejected", self.admission_rejected, "count");
        r.push("server.gen_lag_p99_ms", self.gen_lag_p99_ms, "ms");
        r.push("server.submit_block_p99_ms", self.submit_block_p99_ms, "ms");
        r.push(
            "server.submit_block_total_s",
            self.submit_block_total_s,
            "s",
        );
        r.push("server.door_wait_p99_ms", self.door_wait_p99_ms, "ms");
        r.push("server.sim_response_p99_ms", self.sim_response_p99_ms, "ms");
        r.push("server.delivery_lag_p99_ms", self.delivery_lag_p99_ms, "ms");
        r.push("server.drain_s", self.drain_s, "s");
        r.push("server.observe_pass_p99_ms", self.observe_pass_p99_ms, "ms");
        r.push("host.kernel_ms", self.host_kernel_ms, "ms");
        r.push("trace_overhead_pct", self.trace_overhead_pct, "%");
    }
}

impl Report {
    /// An empty report, correct until a check fails.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Mark the run incorrect, explaining why on stderr.
    pub fn fail_check(&mut self, why: impl std::fmt::Display) {
        eprintln!("perfbench: check failed: {why}");
        self.correct = false;
    }

    /// The single-line JSON object. A non-finite value cannot be written
    /// as JSON; it is reported as 0 and makes the run incorrect.
    pub fn render(&mut self) -> String {
        let mut body = String::new();
        let mut bad = Vec::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                m.value
            } else {
                bad.push(m.name);
                0.0
            };
            if i > 0 {
                body.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips,
            // i.e. every digit the measurement has.
            let _ = write!(
                body,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        for name in bad {
            self.fail_check(format!("metric {name} is not finite"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct, self.attempted, self.failed, body
        )
    }

    /// A human-readable table on stderr (stdout carries only the result).
    pub fn print_table(&self, title: &str) {
        eprintln!("perfbench: {title}");
        for m in &self.metrics {
            eprintln!("  {:<32} {:>18.6} {}", m.name, m.value, m.unit);
        }
        eprintln!(
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }
}
