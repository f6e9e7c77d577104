//! Cross-thread-count determinism of the replication runner.
//!
//! Replications are pure functions of their seed and the merge folds
//! per-seed summaries in seed order, so every [`Parallelism`] setting
//! must yield a **bit-identical** [`AggregateSummary`] — not merely
//! statistically equivalent. These tests pin that guarantee for both the
//! paper's baseline (EDF-HP) and CCA on main-memory and disk-resident
//! configurations.

use rtx_core::{Cca, EdfHp};
use rtx_rtdb::policy::Policy;
use rtx_rtdb::runner::{
    run_replications, run_replications_with, AggregateSummary, Parallelism, ReplicationOptions,
};
use rtx_rtdb::SimConfig;

/// Assert every estimate of two aggregates is bit-identical (mean,
/// half-width, and replication count).
fn assert_identical(a: &AggregateSummary, b: &AggregateSummary) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.replications, b.replications);
    for (la, lb) in [
        (a.miss_percent, b.miss_percent),
        (a.mean_lateness_ms, b.mean_lateness_ms),
        (a.mean_signed_lateness_ms, b.mean_signed_lateness_ms),
        (a.restarts_per_txn, b.restarts_per_txn),
        (a.noncontributing_aborts, b.noncontributing_aborts),
        (a.mean_plist_len, b.mean_plist_len),
        (a.cpu_utilization, b.cpu_utilization),
        (a.disk_utilization, b.disk_utilization),
        (a.mean_response_ms, b.mean_response_ms),
        (a.rejected_percent, b.rejected_percent),
        (a.injected_io_faults, b.injected_io_faults),
        (a.io_retries, b.io_retries),
        (a.io_exhausted_aborts, b.io_exhausted_aborts),
        (a.wasted_disk_hold_ms, b.wasted_disk_hold_ms),
    ] {
        assert_eq!(la.mean.to_bits(), lb.mean.to_bits(), "{}: mean", a.policy);
        assert_eq!(
            la.half_width.to_bits(),
            lb.half_width.to_bits(),
            "{}: half-width",
            a.policy
        );
        assert_eq!(la.n, lb.n);
    }
}

fn check_all_parallelism_settings(cfg: &SimConfig, policy: &dyn Policy, reps: usize) {
    let serial = run_replications_with(cfg, policy, reps, &ReplicationOptions::serial());
    for parallelism in [
        Parallelism::Threads(1),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ] {
        let opts = ReplicationOptions {
            parallelism,
            timer: None,
        };
        let parallel = run_replications_with(cfg, policy, reps, &opts);
        assert_identical(&serial, &parallel);
    }
}

#[test]
fn mm_edf_identical_across_thread_counts() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 120;
    cfg.run.arrival_rate_tps = 8.0;
    check_all_parallelism_settings(&cfg, &EdfHp, 6);
}

#[test]
fn mm_cca_identical_across_thread_counts() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 120;
    cfg.run.arrival_rate_tps = 8.0;
    check_all_parallelism_settings(&cfg, &Cca::base(), 6);
}

#[test]
fn mm_cca_high_mpl_identical_across_thread_counts() {
    // Far past saturation the P-list and conflict caches are at their
    // busiest; the incremental bookkeeping must not introduce any
    // thread-count-visible state.
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 200;
    cfg.run.arrival_rate_tps = 40.0;
    check_all_parallelism_settings(&cfg, &Cca::base(), 4);
}

#[test]
fn disk_edf_identical_across_thread_counts() {
    let mut cfg = SimConfig::disk_base();
    cfg.run.num_transactions = 80;
    cfg.run.arrival_rate_tps = 4.0;
    check_all_parallelism_settings(&cfg, &EdfHp, 5);
}

#[test]
fn disk_cca_identical_across_thread_counts() {
    let mut cfg = SimConfig::disk_base();
    cfg.run.num_transactions = 80;
    cfg.run.arrival_rate_tps = 4.0;
    check_all_parallelism_settings(&cfg, &Cca::base(), 5);
}

#[test]
fn parallel_default_api_matches_explicit_serial() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 100;
    cfg.run.arrival_rate_tps = 6.0;
    let default_api = run_replications(&cfg, &EdfHp, 4);
    let explicit = run_replications_with(&cfg, &EdfHp, 4, &ReplicationOptions::auto());
    assert_identical(&default_api, &explicit);
}

#[test]
fn more_workers_than_replications_is_safe() {
    let mut cfg = SimConfig::mm_base();
    cfg.run.num_transactions = 60;
    let serial = run_replications_with(&cfg, &EdfHp, 2, &ReplicationOptions::serial());
    let wide = run_replications_with(&cfg, &EdfHp, 2, &ReplicationOptions::threads(16));
    assert_identical(&serial, &wide);
}
