//! The penalty of conflict (§3.3.1).
//!
//! "If the transaction `Ta` which is selected to be run next conflicts
//! with m transactions that are unsafe or conditionally unsafe with `Ta`,
//! we might lose `TL = Σ_{t∈M} (rollback_t + exec_t)` where `M = {t |
//! transaction t is unsafe or conditionally unsafe with Ta}`, `exec_t` is
//! the effective service time of `Tt` and `rollback_t` is the time
//! required to roll back `Tt`."
//!
//! The simulation evaluates safety with the paper's oracle assumption
//! ("whenever we assign new priorities we can decide whether the
//! relationship is safe or unsafe"): a partially executed transaction `t`
//! is unsafe w.r.t. `Ta` iff `hasaccessed(t) ∩ mightaccess(Ta) ≠ ∅` —
//! for straight-line workloads the conditionally-unsafe case never arises.

use rtx_rtdb::policy::SystemView;
use rtx_rtdb::txn::Transaction;
use rtx_sim::time::SimDuration;

// The unsafety test lives with the transaction state (so the engine's
// pair tests and oracles share the single definition its slot rows must
// match); re-exported here, its historical home.
pub use rtx_rtdb::txn::is_unsafe_with;

/// The penalty of conflict of `candidate`: the total effective service
/// time plus rollback time of every partially executed transaction that
/// would have to be rolled back for `candidate` to run to its commit
/// point without interruption.
///
/// The pair tests go through [`SystemView::is_unsafe_with`], so inside
/// the engine they walk the maintained P-list; the sum itself is over
/// exact integer durations, so its value is independent of evaluation
/// order.
///
/// Key contract (see `PriorityDeps::ConflictState`): other
/// transactions influence this sum only through (a) which partials test
/// unsafe against `candidate` and (b) each such partial's effective
/// service — `candidate`'s own `might_access` is an input to the unsafe
/// test, but the partial's is not. Every term is nonnegative and grows
/// monotonically under access growth and clock advance, so those events
/// only *raise* the penalty (lower the priority); only a partial's
/// clear shrinks it. The engine exploits exactly this shape: an eager
/// key raise for each victim of a clear, lazy stale-high tolerance for
/// everything else.
pub fn penalty_of_conflict(candidate: &Transaction, view: &SystemView<'_>) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for t in view.partially_executed(candidate.id) {
        if view.is_unsafe_with(t, candidate) {
            total += t.effective_service(view.now) + view.abort_cost;
        }
    }
    total
}

/// The number of transactions `candidate` would destroy (the `m` above).
pub fn conflicting_victims(candidate: &Transaction, view: &SystemView<'_>) -> usize {
    view.partially_executed(candidate.id)
        .filter(|t| view.is_unsafe_with(t, candidate))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_preanalysis::ItemId;
    use rtx_rtdb::txn::{TxnId, TxnState};
    use rtx_sim::time::SimTime;

    fn mk(id: u32, might: &[u32], accessed: &[u32], service_ms: f64) -> Transaction {
        Transaction {
            id: TxnId(id),
            deadline: SimTime::from_ms(100.0),
            resource_time: SimDuration::from_ms(80.0),
            items: might.iter().map(|&i| ItemId(i)).collect(),
            update_time: SimDuration::from_ms(4.0),
            might_access: might.iter().map(|&i| ItemId(i)).collect(),
            accessed: accessed.iter().map(|&i| ItemId(i)).collect(),
            service: SimDuration::from_ms(service_ms),
            ..Default::default()
        }
    }

    fn view(txns: &[Transaction]) -> SystemView<'_> {
        SystemView::new(SimTime::ZERO, txns, SimDuration::from_ms(4.0))
    }

    #[test]
    fn unsafe_iff_accessed_overlaps_might() {
        let partial = mk(1, &[1, 2, 3], &[1], 8.0);
        let cand_overlap = mk(2, &[1, 9], &[], 0.0);
        let cand_disjoint = mk(3, &[8, 9], &[], 0.0);
        assert!(is_unsafe_with(&partial, &cand_overlap));
        assert!(!is_unsafe_with(&partial, &cand_disjoint));
    }

    #[test]
    fn future_only_overlap_is_safe() {
        // The partial txn *will* access item 5 but hasn't yet: blocking
        // suffices, no rollback needed → no penalty.
        let partial = mk(1, &[1, 5], &[1], 8.0);
        let cand = mk(2, &[5], &[], 0.0);
        assert!(!is_unsafe_with(&partial, &cand));
    }

    #[test]
    fn penalty_sums_service_plus_rollback() {
        let txns = vec![
            mk(0, &[1], &[1], 10.0), // victim 1: 10 + 4
            mk(1, &[2], &[2], 6.0),  // victim 2: 6 + 4
            mk(2, &[3], &[3], 99.0), // disjoint from candidate
            mk(3, &[1, 2, 9], &[], 0.0),
        ];
        let v = view(&txns);
        let p = penalty_of_conflict(&txns[3], &v);
        assert_eq!(p, SimDuration::from_ms(24.0));
        assert_eq!(conflicting_victims(&txns[3], &v), 2);
    }

    #[test]
    fn penalty_excludes_self() {
        let txns = vec![mk(0, &[1], &[1], 10.0)];
        let v = view(&txns);
        assert_eq!(penalty_of_conflict(&txns[0], &v), SimDuration::ZERO);
    }

    #[test]
    fn fresh_transactions_cost_nothing() {
        // A conflicting transaction that holds no locks is not in the
        // P-list: aborting it destroys nothing.
        let txns = vec![mk(0, &[1], &[], 10.0), mk(1, &[1], &[], 0.0)];
        let v = view(&txns);
        assert_eq!(penalty_of_conflict(&txns[1], &v), SimDuration::ZERO);
        assert_eq!(conflicting_victims(&txns[1], &v), 0);
    }

    #[test]
    fn committed_transactions_cost_nothing() {
        let mut done = mk(0, &[1], &[1], 10.0);
        done.state = TxnState::Committed;
        let txns = vec![done, mk(1, &[1], &[], 0.0)];
        let v = view(&txns);
        assert_eq!(penalty_of_conflict(&txns[1], &v), SimDuration::ZERO);
    }
}
