//! EDF-HP: Earliest Deadline First with High Priority conflict resolution
//! — the paper's baseline (Abbott & Garcia-Molina 1988).
//!
//! A dynamic priority assignment with *static* evaluation: the priority is
//! just the (negated) absolute deadline, fixed at arrival. Conflicts are
//! resolved by HP (the higher-priority transaction wins, aborting the
//! holder), and IO waits are filled with whatever ready transaction has
//! the highest priority — the source of the noncontributing executions
//! §3.3.2 describes.

use rtx_rtdb::policy::{Policy, Priority, PriorityDeps, SystemView};
use rtx_rtdb::txn::Transaction;

/// The EDF-HP baseline policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdfHp;

impl Policy for EdfHp {
    fn name(&self) -> &str {
        "EDF-HP"
    }

    fn priority(&self, txn: &Transaction, _view: &SystemView<'_>) -> Priority {
        Priority(-txn.deadline.as_ms())
    }

    fn depends_on(&self) -> PriorityDeps {
        // The deadline is fixed at arrival: the heap key seeded then
        // stays exact forever.
        PriorityDeps::Static
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_preanalysis::{DataSet, ItemId};
    use rtx_rtdb::txn::TxnId;
    use rtx_sim::time::{SimDuration, SimTime};

    fn mk(id: u32, deadline_ms: f64) -> Transaction {
        Transaction {
            id: TxnId(id),
            deadline: SimTime::from_ms(deadline_ms),
            resource_time: SimDuration::from_ms(80.0),
            items: vec![ItemId(0)],
            update_time: SimDuration::from_ms(4.0),
            might_access: DataSet::from_items([ItemId(0)]),
            ..Default::default()
        }
    }

    #[test]
    fn earlier_deadline_wins() {
        let txns = vec![mk(0, 50.0), mk(1, 200.0)];
        let v = SystemView::new(SimTime::ZERO, &txns, SimDuration::ZERO);
        assert!(EdfHp.priority(&txns[0], &v) > EdfHp.priority(&txns[1], &v));
    }

    #[test]
    fn no_iowait_restriction() {
        assert!(!EdfHp.iowait_restrict());
        assert_eq!(EdfHp.name(), "EDF-HP");
    }
}
