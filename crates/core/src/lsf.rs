//! LSF: Least Slack First — a continuously evaluated baseline (§3.2).
//!
//! `slack = deadline − now − remaining service estimate`. The paper argues
//! LSF "is not appropriate for RTDBS because it is not easy to estimate
//! the worst case execution time of a transaction"; we give it the best
//! estimate the simulator can honestly provide — the instance's remaining
//! isolated resource time, prorated by progress — which is *optimistic*
//! (it ignores blocking and restarts), exactly the weakness the paper
//! points at.

use rtx_rtdb::policy::{Policy, Priority, PriorityDeps, SystemView};
use rtx_rtdb::txn::Transaction;

/// The Least Slack First baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lsf;

impl Lsf {
    /// Remaining isolated service estimate, ms.
    fn remaining_estimate_ms(txn: &Transaction) -> f64 {
        let total = txn.total_updates().max(1) as f64;
        let left = (txn.total_updates() - txn.progress) as f64;
        txn.resource_time.as_ms() * (left / total)
    }
}

impl Policy for Lsf {
    fn name(&self) -> &str {
        "LSF"
    }

    fn priority(&self, txn: &Transaction, view: &SystemView<'_>) -> Priority {
        let slack = txn.deadline.as_ms() - view.now.as_ms() - Self::remaining_estimate_ms(txn);
        Priority(-slack)
    }

    fn depends_on(&self) -> PriorityDeps {
        // Slack reads the clock and the transaction's own progress, but
        // no other transaction's state.
        PriorityDeps::TimeAndSelf
    }

    fn time_invariant_key(&self, txn: &Transaction) -> Option<f64> {
        // -slack = now - (deadline - estimate): the clock enters as a
        // plain additive term, so ordering by `estimate - deadline` is
        // ordering by priority at any instant. Changes only when
        // `progress` does (update completion, restart).
        Some(Self::remaining_estimate_ms(txn) - txn.deadline.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_preanalysis::ItemId;
    use rtx_rtdb::txn::TxnId;
    use rtx_sim::time::{SimDuration, SimTime};

    fn mk(id: u32, deadline_ms: f64, updates: usize, progress: usize) -> Transaction {
        Transaction {
            id: TxnId(id),
            deadline: SimTime::from_ms(deadline_ms),
            resource_time: SimDuration::from_ms(4.0 * updates as f64),
            items: (0..updates as u32).map(ItemId).collect(),
            update_time: SimDuration::from_ms(4.0),
            might_access: (0..updates as u32).map(ItemId).collect(),
            progress,
            ..Default::default()
        }
    }

    fn view_at(txns: &[Transaction], now_ms: f64) -> SystemView<'_> {
        SystemView::new(SimTime::from_ms(now_ms), txns, SimDuration::ZERO)
    }

    #[test]
    fn smaller_slack_is_higher_priority() {
        // Same deadline, more remaining work → less slack → higher priority.
        let txns = vec![mk(0, 200.0, 10, 0), mk(1, 200.0, 2, 0)];
        let v = view_at(&txns, 0.0);
        assert!(Lsf.priority(&txns[0], &v) > Lsf.priority(&txns[1], &v));
    }

    #[test]
    fn progress_increases_slack() {
        let fresh = mk(0, 200.0, 10, 0);
        let half_done = mk(1, 200.0, 10, 5);
        let txns = vec![fresh, half_done];
        let v = view_at(&txns, 0.0);
        assert!(
            Lsf.priority(&txns[0], &v) > Lsf.priority(&txns[1], &v),
            "completed work shrinks the remaining estimate"
        );
    }

    #[test]
    fn continuous_evaluation_raises_urgency_over_time() {
        let txns = vec![mk(0, 200.0, 10, 0)];
        let early = Lsf.priority(&txns[0], &view_at(&txns, 0.0));
        let late = Lsf.priority(&txns[0], &view_at(&txns, 150.0));
        assert!(late > early, "slack shrinks as the clock advances");
    }

    #[test]
    fn name_and_defaults() {
        assert_eq!(Lsf.name(), "LSF");
        assert!(!Lsf.iowait_restrict());
    }
}
