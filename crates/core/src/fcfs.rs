//! FCFS: First Come, First Served — the deadline-blind control baseline.
//!
//! Not evaluated in the paper, but useful as a floor: it shows how much of
//! CCA's and EDF's advantage comes from using deadline information at all.

use rtx_rtdb::policy::{Policy, Priority, PriorityDeps, SystemView};
use rtx_rtdb::txn::Transaction;

/// The FCFS baseline: earlier arrival = higher priority.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Policy for Fcfs {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn priority(&self, txn: &Transaction, _view: &SystemView<'_>) -> Priority {
        Priority(-txn.arrival.as_ms())
    }

    fn depends_on(&self) -> PriorityDeps {
        // The arrival time never changes: the heap key seeded at arrival
        // stays exact forever.
        PriorityDeps::Static
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_preanalysis::table::TypeId;
    use rtx_preanalysis::{DataSet, ItemId};
    use rtx_rtdb::txn::{Stage, TxnId, TxnState};
    use rtx_sim::time::{SimDuration, SimTime};

    fn mk(id: u32, arrival_ms: f64) -> Transaction {
        Transaction {
            id: TxnId(id),
            ty: TypeId(0),
            arrival: SimTime::from_ms(arrival_ms),
            deadline: SimTime::from_ms(arrival_ms + 100.0),
            resource_time: SimDuration::from_ms(80.0),
            items: vec![ItemId(0)],
            io_pattern: vec![],
            modes: Vec::new(),
            update_time: SimDuration::from_ms(4.0),
            might_access: DataSet::from_items([ItemId(0)]),
            state: TxnState::Ready,
            progress: 0,
            stage: Stage::Lock,
            cpu_left: SimDuration::ZERO,
            burst_start: SimTime::ZERO,
            accessed: DataSet::new(),
            written: DataSet::new(),
            service: SimDuration::ZERO,
            restarts: 0,
            waiting_for: None,
            decision: None,
            criticality: 0,
            doomed: false,
            doomed_at: SimTime::ZERO,
            io_retries: 0,
            retry_token: 0,
            finish: None,
        }
    }

    #[test]
    fn earlier_arrival_wins() {
        let txns = vec![mk(0, 5.0), mk(1, 50.0)];
        let v = SystemView::new(SimTime::ZERO, &txns, SimDuration::ZERO);
        assert!(Fcfs.priority(&txns[0], &v) > Fcfs.priority(&txns[1], &v));
        assert_eq!(Fcfs.name(), "FCFS");
    }
}
