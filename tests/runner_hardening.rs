//! Hardened replication runner: a poisoned seed, a tripped watchdog or
//! an invalid configuration surfaces as that seed's typed [`RunError`]
//! while every other seed completes and the survivor aggregate stays
//! bit-identical across thread counts.

use rtx_core::{Cca, EdfHp};
use rtx_rtdb::engine::run_simulation_checked;
use rtx_rtdb::runner::{
    run_replications_checked, run_seeds_checked, AggregateSummary, BatchSummary, Parallelism,
    ReplicationOptions,
};
use rtx_rtdb::{ConfigError, RunError, SimConfig, WatchdogConfig};
use rtx_sim::fault::FaultPlan;

fn assert_bitwise_identical(a: &AggregateSummary, b: &AggregateSummary) {
    assert_eq!(a.replications, b.replications);
    for (la, lb) in [
        (a.miss_percent, b.miss_percent),
        (a.mean_lateness_ms, b.mean_lateness_ms),
        (a.restarts_per_txn, b.restarts_per_txn),
        (a.mean_response_ms, b.mean_response_ms),
    ] {
        assert_eq!(la.mean.to_bits(), lb.mean.to_bits());
        assert_eq!(la.half_width.to_bits(), lb.half_width.to_bits());
    }
}

fn poisoned_batch(parallelism: Parallelism) -> BatchSummary {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 100;
    cfg.run.arrival_rate_tps = 6.0;
    cfg.run.poison_seed = Some(cfg.run.seed.wrapping_add(2));
    let opts = ReplicationOptions {
        parallelism,
        timer: None,
    };
    run_replications_checked(&cfg, &Cca::base(), 5, &opts)
}

#[test]
fn poisoned_seed_yields_typed_error_and_identical_survivors() {
    let serial = poisoned_batch(Parallelism::Serial);
    assert_eq!(serial.outcomes.len(), 5);
    assert_eq!(serial.survivors().count(), 4);
    let failures: Vec<_> = serial.errors().collect();
    assert_eq!(failures.len(), 1);
    let (rep, err) = failures[0];
    assert_eq!(rep, 2, "exactly the poisoned replication fails");
    match err {
        RunError::Panicked { message } => {
            assert!(message.contains("poisoned seed"), "{message}")
        }
        other => panic!("expected Panicked, got {other}"),
    }
    let serial_agg = serial.aggregate.as_ref().expect("survivors remain");
    assert_eq!(serial_agg.replications, 4);

    for parallelism in [Parallelism::Threads(4), Parallelism::Auto] {
        let parallel = poisoned_batch(parallelism);
        assert!(matches!(
            parallel.outcomes[2],
            Err(RunError::Panicked { .. })
        ));
        let agg = parallel.aggregate.as_ref().expect("survivors remain");
        assert_bitwise_identical(serial_agg, agg);
    }
}

#[test]
fn all_seeds_poisoned_leaves_no_aggregate() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 20;
    cfg.run.poison_seed = Some(cfg.run.seed);
    let batch = run_replications_checked(&cfg, &EdfHp, 1, &ReplicationOptions::serial());
    assert!(batch.aggregate.is_none());
    assert_eq!(batch.errors().count(), 1);
}

#[test]
fn watchdog_trips_on_event_limit() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 200;
    cfg.run.watchdog = Some(WatchdogConfig {
        max_events: 50,
        max_sim_ms: 1e12,
    });
    match run_simulation_checked(&cfg, &EdfHp) {
        Err(RunError::WatchdogEvents { limit }) => assert_eq!(limit, 50),
        other => panic!("expected WatchdogEvents, got {other:?}"),
    }
}

#[test]
fn watchdog_trips_on_sim_time_limit() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 200;
    cfg.run.watchdog = Some(WatchdogConfig {
        max_events: u64::MAX,
        max_sim_ms: 5.0,
    });
    match run_simulation_checked(&cfg, &EdfHp) {
        Err(RunError::WatchdogSimTime {
            limit_ms,
            reached_ms,
        }) => {
            assert_eq!(limit_ms, 5.0);
            assert!(reached_ms > limit_ms);
        }
        other => panic!("expected WatchdogSimTime, got {other:?}"),
    }
}

#[test]
fn generous_watchdog_is_invisible() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 80;
    let plain = run_simulation_checked(&cfg, &Cca::base()).expect("clean run");
    cfg.run.watchdog = Some(WatchdogConfig::generous(cfg.run.num_transactions));
    let watched = run_simulation_checked(&cfg, &Cca::base()).expect("clean run");
    assert_eq!(plain, watched);
}

#[test]
fn unsurvivable_fault_plan_is_caught_by_watchdog() {
    // With a 100% transient-error rate no disk transfer ever succeeds;
    // the run would retry forever. The watchdog turns the livelock into
    // a typed error instead of a hang.
    let mut cfg = SimConfig::disk_base();
    cfg.run.num_transactions = 20;
    cfg.system.faults = FaultPlan {
        error_prob: 1.0,
        ..FaultPlan::none()
    };
    cfg.run.watchdog = Some(WatchdogConfig {
        max_events: 50_000,
        max_sim_ms: 1e12,
    });
    assert!(matches!(
        run_simulation_checked(&cfg, &EdfHp),
        Err(RunError::WatchdogEvents { .. })
    ));
}

#[test]
fn invalid_config_is_a_typed_error_not_a_panic() {
    let mut cfg = SimConfig::mm_base();
    cfg.workload.num_types = 0;
    match run_simulation_checked(&cfg, &EdfHp) {
        Err(RunError::Config(ConfigError::ZeroTypes)) => {}
        other => panic!("expected Config(ZeroTypes), got {other:?}"),
    }
}

#[test]
fn run_seeds_checked_isolates_closure_panics() {
    let outcomes = run_seeds_checked(4, &ReplicationOptions::threads(4), |rep| {
        if rep == 1 {
            panic!("boom in rep {rep}");
        }
        Ok(rep * 10)
    });
    assert_eq!(outcomes.len(), 4);
    for (rep, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(v) => {
                assert_ne!(rep, 1);
                assert_eq!(*v, rep * 10);
            }
            Err(RunError::Panicked { message }) => {
                assert_eq!(rep, 1);
                assert!(message.contains("boom in rep 1"), "{message}");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
