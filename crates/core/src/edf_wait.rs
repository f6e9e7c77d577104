//! EDF-Wait: the `w → ∞` limit of CCA (§3.3.3).
//!
//! "If penalty-weight is ∞ (i.e a value large enough so that transaction
//! abort may not happen), it produces the EDF-Wait for main memory
//! database": any transaction whose execution would destroy partially
//! executed work is deprioritized below every conflict-free transaction,
//! so aborts effectively never happen — at the price of the excessive
//! waiting (and the deadline pressure) that motivates CCA's finite `w`.
//!
//! Implemented as a lexicographic priority: conflict-free transactions
//! first (by deadline), then conflicting ones (by deadline), realised with
//! a penalty weight large enough that any non-zero penalty dominates any
//! deadline in the simulated horizon.

use rtx_rtdb::policy::{Policy, Priority, PriorityDeps, SystemView};
use rtx_rtdb::txn::Transaction;

use crate::penalty::conflicting_victims;

/// A weight that dwarfs any deadline value (ms) reachable in a run.
const EFFECTIVE_INFINITY_MS: f64 = 1e12;

/// The EDF-Wait limit policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdfWait;

impl Policy for EdfWait {
    fn name(&self) -> &str {
        "EDF-Wait"
    }

    fn priority(&self, txn: &Transaction, view: &SystemView<'_>) -> Priority {
        // Using the victim *count* rather than the penalty duration keeps
        // the ordering pure-lexicographic regardless of service times.
        let victims = conflicting_victims(txn, view) as f64;
        Priority(-(txn.deadline.as_ms() + victims * EFFECTIVE_INFINITY_MS))
    }

    fn iowait_restrict(&self) -> bool {
        true
    }

    fn conflict_clear_raise(&self, _cleared: &Transaction, _view: &SystemView<'_>) -> f64 {
        // The clear removes at most one victim from each other
        // transaction's count — one lexicographic step.
        EFFECTIVE_INFINITY_MS
    }

    fn depends_on(&self) -> PriorityDeps {
        // The victim count reads P-list membership and access sets, and
        // nothing else about other transactions — exactly the set of
        // unsafe partials a clear's repair walk enumerates.
        // Fall-monotonicity holds trivially: growth can only add victims
        // (priority falls, which the lazy heap tolerates), a clear
        // removes them (eager walk), and there is no dependence on the
        // victims' service at all — a key survives clock advances
        // bit-exactly.
        PriorityDeps::ConflictState
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_preanalysis::ItemId;
    use rtx_rtdb::txn::TxnId;
    use rtx_sim::time::{SimDuration, SimTime};

    fn mk(id: u32, deadline_ms: f64, might: &[u32], accessed: &[u32]) -> Transaction {
        Transaction {
            id: TxnId(id),
            deadline: SimTime::from_ms(deadline_ms),
            resource_time: SimDuration::from_ms(80.0),
            items: might.iter().map(|&i| ItemId(i)).collect(),
            update_time: SimDuration::from_ms(4.0),
            might_access: might.iter().map(|&i| ItemId(i)).collect(),
            accessed: accessed.iter().map(|&i| ItemId(i)).collect(),
            service: SimDuration::from_ms(10.0),
            ..Default::default()
        }
    }

    #[test]
    fn any_conflict_loses_to_any_deadline() {
        let txns = vec![
            mk(0, 10.0, &[1], &[1]),   // partial
            mk(1, 20.0, &[1], &[]),    // conflicts, urgent deadline
            mk(2, 99999.0, &[9], &[]), // conflict-free, distant deadline
        ];
        let v = SystemView::new(SimTime::ZERO, &txns, SimDuration::from_ms(4.0));
        let p_conflicting = EdfWait.priority(&txns[1], &v);
        let p_free = EdfWait.priority(&txns[2], &v);
        assert!(
            p_free > p_conflicting,
            "EDF-Wait must defer conflicting work regardless of deadlines"
        );
    }

    #[test]
    fn ties_fall_back_to_deadline() {
        let txns = vec![mk(0, 50.0, &[1], &[]), mk(1, 100.0, &[2], &[])];
        let v = SystemView::new(SimTime::ZERO, &txns, SimDuration::ZERO);
        assert!(EdfWait.priority(&txns[0], &v) > EdfWait.priority(&txns[1], &v));
    }

    #[test]
    fn restricts_iowait() {
        assert!(EdfWait.iowait_restrict());
        assert_eq!(EdfWait.name(), "EDF-Wait");
    }
}
