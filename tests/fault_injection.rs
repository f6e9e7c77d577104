//! Fault-injection robustness: injected disk and CPU faults are survived
//! and accounted for, fault-free plans change nothing, admission control
//! decomposes the outcome classes, the lock table never leaks a lock
//! across fault-driven abort/restart, and fault-laden replications stay
//! bit-identical across thread counts.

use proptest::prelude::*;
use rtx_core::{Cca, EdfHp};
use rtx_rtdb::engine::{run_simulation, run_simulation_validated};
use rtx_rtdb::runner::{run_replications_with, AggregateSummary, Parallelism, ReplicationOptions};
use rtx_rtdb::{AdmissionConfig, SimConfig};
use rtx_sim::fault::{Brownout, CpuFaultPlan, FaultPlan};

/// A moderately hostile plan: every knob engaged, all survivable.
fn hostile_plan() -> FaultPlan {
    FaultPlan {
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
    }
}

fn disk_cfg(n: usize, rate: f64) -> SimConfig {
    let mut cfg = SimConfig::disk_base();
    cfg.run.num_transactions = n;
    cfg.run.arrival_rate_tps = rate;
    cfg
}

#[test]
fn faults_are_injected_and_survived() {
    let mut cfg = disk_cfg(150, 4.0);
    cfg.system.faults = hostile_plan();
    let s = run_simulation(&cfg, &Cca::base());
    assert_eq!(s.committed, 150, "every transaction still commits");
    assert!(s.injected_io_faults > 0, "plan must actually fire");
    assert!(s.io_retries > 0, "failed transfers are retried");
    assert!(s.total_backoff_ms > 0.0, "retries wait out a backoff");
    assert!(s.io_latency_spikes > 0, "spike probability must fire");
}

#[test]
fn tight_retry_budget_exhausts_and_restarts() {
    let mut cfg = disk_cfg(120, 4.0);
    cfg.system.faults = FaultPlan {
        error_prob: 0.5,
        retry_budget: 1,
        ..FaultPlan::none()
    };
    let s = run_simulation(&cfg, &EdfHp);
    assert_eq!(s.committed, 120);
    assert!(
        s.io_exhausted_aborts > 0,
        "a 50% error rate against a budget of 1 must exhaust sometimes"
    );
    // Exhaustion restarts the transaction like an HP victim.
    assert!(s.restarts_total >= s.io_exhausted_aborts);
}

#[test]
fn tight_cpu_retry_budget_exhausts_and_restarts() {
    let mut cfg = disk_cfg(120, 4.0);
    cfg.system.faults.cpu = Some(CpuFaultPlan {
        stall_prob: 0.1,
        slow_prob: 0.0,
        slow_factor: 1.0,
        retry_budget: 1,
        backoff_base_ms: 1.0,
        backoff_cap_ms: 8.0,
        brownout: None,
    });
    // Validated: the restarts the stalls force never leak a lock.
    let s = run_simulation_validated(&cfg, &EdfHp);
    assert_eq!(s.committed, 120);
    assert!(
        s.cpu_exhausted_aborts > 0,
        "a 10% stall rate against a budget of 1 must exhaust sometimes"
    );
    assert_eq!(s.io_exhausted_aborts, 0, "the disk plan is empty");
    assert!(s.restarts_total >= s.cpu_exhausted_aborts);
}

#[test]
fn benign_brownout_is_invisible() {
    // A brownout that neither fails nor slows anything consumes fault
    // RNG draws but must not perturb the simulation: the fault stream
    // is isolated from the workload streams.
    let cfg = disk_cfg(120, 4.0);
    let baseline = run_simulation(&cfg, &Cca::base());

    let mut benign = cfg.clone();
    benign.system.faults = FaultPlan {
        brownout: Some(Brownout {
            period_ms: 100.0,
            duration_ms: 100.0,
            error_prob: 0.0,
            latency_factor: 1.0,
        }),
        ..FaultPlan::none()
    };
    assert!(!benign.system.faults.is_none(), "injector must engage");
    let s = run_simulation(&benign, &Cca::base());
    assert_eq!(s, baseline, "benign plan must be byte-identical");
}

#[test]
fn admission_control_decomposes_outcomes() {
    // Well past disk saturation, with a safety margin strict enough to
    // reject the tight-slack tail of the workload (slack is uniform on
    // [0.2, 8]; a 3× margin rejects slack below ~2 on arrival).
    let mut cfg = disk_cfg(200, 8.0);
    cfg.system.admission = Some(AdmissionConfig::Static { safety_factor: 3.0 });
    let s = run_simulation_validated(&cfg, &Cca::base());
    assert!(s.rejected > 0, "overload must trigger rejections");
    assert_eq!(
        s.committed + s.rejected,
        200,
        "every transaction either commits or is rejected"
    );
    assert!(s.rejected_percent > 0.0 && s.rejected_percent < 100.0);
}

fn assert_bitwise_identical(a: &AggregateSummary, b: &AggregateSummary) {
    for (la, lb) in [
        (a.miss_percent, b.miss_percent),
        (a.mean_lateness_ms, b.mean_lateness_ms),
        (a.restarts_per_txn, b.restarts_per_txn),
        (a.rejected_percent, b.rejected_percent),
        (a.injected_io_faults, b.injected_io_faults),
        (a.io_retries, b.io_retries),
        (a.io_exhausted_aborts, b.io_exhausted_aborts),
        (a.wasted_disk_hold_ms, b.wasted_disk_hold_ms),
    ] {
        assert_eq!(la.mean.to_bits(), lb.mean.to_bits());
        assert_eq!(la.half_width.to_bits(), lb.half_width.to_bits());
    }
}

#[test]
fn fault_laden_replications_identical_across_thread_counts() {
    let mut cfg = disk_cfg(80, 5.0);
    cfg.system.faults = hostile_plan();
    cfg.system.admission = Some(AdmissionConfig::lenient());
    let serial = run_replications_with(&cfg, &Cca::base(), 6, &ReplicationOptions::serial());
    assert!(
        serial.injected_io_faults.mean > 0.0,
        "the comparison must exercise the fault paths"
    );
    for parallelism in [Parallelism::Threads(4), Parallelism::Auto] {
        let opts = ReplicationOptions {
            parallelism,
            timer: None,
        };
        let parallel = run_replications_with(&cfg, &Cca::base(), 6, &opts);
        assert_bitwise_identical(&serial, &parallel);
    }
}

/// Strategy over survivable fault plans (error probability bounded away
/// from 1 so every run terminates), with an optional CPU section. Its
/// stall probability stays at or below 0.1: stalls restart whole
/// transactions, and at 0.5 against a budget of 1 a 120-transaction run
/// takes millions of stalls.
fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0.0f64..0.5,
        0.0f64..0.5,
        1.0f64..4.0,
        0u32..4,
        0.5f64..5.0,
        proptest::option::of((100.0f64..2_000.0, 0.0f64..1.0, 1.0f64..3.0)),
        proptest::option::of((0.0f64..0.1, 0.0f64..0.5, 1.0f64..3.0, 0u32..4)),
    )
        .prop_map(
            |(error_prob, spike_prob, spike_factor, retry_budget, base, brown, cpu)| FaultPlan {
                error_prob,
                spike_prob,
                spike_factor,
                retry_budget,
                backoff_base_ms: base,
                backoff_cap_ms: base * 8.0,
                brownout: brown.map(|(period_ms, err, latency_factor)| Brownout {
                    period_ms,
                    duration_ms: period_ms / 4.0,
                    error_prob: err,
                    latency_factor,
                }),
                cpu: cpu.map(
                    |(stall_prob, slow_prob, slow_factor, retry_budget)| CpuFaultPlan {
                        stall_prob,
                        slow_prob,
                        slow_factor,
                        retry_budget,
                        backoff_base_ms: base,
                        backoff_cap_ms: base * 8.0,
                        brownout: None,
                    },
                ),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under arbitrary survivable fault plans the lock table never leaks
    /// a lock across fault-driven abort/restart, disk- or CPU-driven:
    /// `run_simulation_validated`
    /// re-checks the lock/accessed-set invariants after every event and
    /// asserts committed/rejected transactions hold nothing.
    #[test]
    fn lock_table_never_leaks_under_faults(
        plan in fault_plan(),
        seed in 0u64..32,
        admit in any::<bool>(),
    ) {
        prop_assert!(plan.validate().is_ok());
        let mut cfg = disk_cfg(40, 5.0);
        cfg.run.seed = 1000 + seed;
        cfg.system.faults = plan;
        if admit {
            cfg.system.admission = Some(AdmissionConfig::lenient());
        }
        let s = run_simulation_validated(&cfg, &Cca::base());
        prop_assert_eq!(s.committed + s.rejected, 40);
        prop_assert!((0.0..=100.0).contains(&s.miss_percent));
        prop_assert!(s.wasted_disk_hold_ms >= 0.0);
        prop_assert!(s.total_backoff_ms >= 0.0);
    }

    /// Identical fault plans and seeds give byte-identical summaries.
    #[test]
    fn fault_runs_deterministic(plan in fault_plan(), seed in 0u64..16) {
        prop_assert!(plan.validate().is_ok());
        let mut cfg = disk_cfg(30, 5.0);
        cfg.run.seed = seed;
        cfg.system.faults = plan;
        let a = run_simulation(&cfg, &Cca::base());
        let b = run_simulation(&cfg, &Cca::base());
        prop_assert_eq!(a, b);
    }
}
