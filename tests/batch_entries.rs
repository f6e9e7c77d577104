//! The batch entry points agree, and each failure has one shape.
//!
//! Every generator-driven `run_simulation*` entry, and
//! `run_simulation_from` over the generator's own transactions, returns
//! the summary `run_simulation` returns, field for field. A tripped
//! watchdog or an invalid configuration comes back from
//! `run_simulation_checked` as a typed [`RunError`], and every panicking
//! entry panics on an invalid configuration with the same message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rtx_core::{Cca, EdfHp};
use rtx_rtdb::engine::{
    run_simulation, run_simulation_checked, run_simulation_from, run_simulation_profiled,
    run_simulation_traced, run_simulation_validated,
};
use rtx_rtdb::{
    ArrivalGenerator, ConfigError, Policy, ReplaySource, RunError, SimConfig, Transaction,
    TypeTable, WatchdogConfig,
};
use rtx_sim::fault::FaultPlan;
use rtx_sim::rng::StreamSeeder;

/// The transactions `run_simulation` generates for `cfg`, in arrival
/// order.
fn generated(cfg: &SimConfig) -> Vec<Transaction> {
    let seeder = StreamSeeder::new(cfg.run.seed);
    let table = TypeTable::generate(cfg, &seeder);
    let mut generator = ArrivalGenerator::new(cfg, &table, &seeder);
    std::iter::from_fn(|| generator.next_transaction()).collect()
}

#[test]
fn every_batch_entry_matches_run_simulation() {
    let cca = Cca::base();
    let policies: [&dyn Policy; 2] = [&cca, &EdfHp];
    for (name, mut cfg) in [
        ("mm", SimConfig::mm_base()),
        ("disk", SimConfig::disk_base()),
    ] {
        cfg.run.num_transactions = 150;
        cfg.run.arrival_rate_tps = 9.0;
        for policy in policies {
            let plain = run_simulation(&cfg, policy);
            let mut replay = ReplaySource::new(generated(&cfg));
            for (entry, summary) in [
                ("checked", run_simulation_checked(&cfg, policy).unwrap()),
                ("validated", run_simulation_validated(&cfg, policy)),
                ("traced", run_simulation_traced(&cfg, policy).0),
                ("from", run_simulation_from(&cfg, policy, &mut replay, 150)),
            ] {
                assert_eq!(summary, plain, "{entry} on {name} under {}", policy.name());
            }
        }
    }
}

#[test]
fn invalid_config_panics_alike_in_every_entry() {
    let mut cfg = SimConfig::mm_base();
    cfg.workload.num_types = 0;
    let message = |entry: &dyn Fn()| {
        let payload = catch_unwind(AssertUnwindSafe(entry)).expect_err("an invalid config panics");
        *payload.downcast::<String>().unwrap()
    };
    let plain = message(&|| drop(run_simulation(&cfg, &EdfHp)));
    assert!(
        plain.starts_with("invalid simulation configuration"),
        "{plain}"
    );
    let from = || run_simulation_from(&cfg, &EdfHp, &mut ReplaySource::new(vec![]), 1);
    for other in [
        message(&|| drop(from())),
        message(&|| drop(run_simulation_profiled(&cfg, &EdfHp))),
        message(&|| drop(run_simulation_validated(&cfg, &EdfHp))),
        message(&|| drop(run_simulation_traced(&cfg, &EdfHp))),
    ] {
        assert_eq!(other, plain);
    }
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
