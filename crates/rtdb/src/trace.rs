//! Execution traces: a per-run log of scheduling decisions.
//!
//! The paper's arguments are about *decisions* — who preempts whom, which
//! victim an abort destroys, which transaction fills an IO wait. A
//! [`Trace`] records every such decision with its timestamp so tests can
//! assert on scheduling behaviour directly and examples can render
//! schedules (see `examples/schedule_trace.rs`).

use std::fmt;

use rtx_preanalysis::sets::ItemId;
use rtx_sim::time::SimTime;

use crate::txn::TxnId;

/// One scheduling decision or lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A transaction entered the system.
    Arrival {
        /// The transaction.
        txn: TxnId,
        /// Its absolute deadline.
        deadline: SimTime,
    },
    /// A transaction was put on the CPU.
    Dispatch {
        /// The transaction.
        txn: TxnId,
        /// True iff it was chosen by `IOwait-schedule` (a secondary).
        secondary: bool,
    },
    /// The running transaction was preempted.
    Preempt {
        /// The preempted transaction.
        txn: TxnId,
    },
    /// The runner aborted a conflicting lock holder (HP wound).
    Abort {
        /// The aborted holder.
        victim: TxnId,
        /// The transaction whose lock request caused it.
        by: TxnId,
        /// The contended item.
        item: ItemId,
    },
    /// The requester blocked on a higher-priority holder (wound-wait).
    LockWait {
        /// The blocked requester.
        txn: TxnId,
        /// The contended item.
        item: ItemId,
    },
    /// A transaction issued a disk request.
    IoIssued {
        /// The transaction.
        txn: TxnId,
        /// True iff the disk was busy and the request queued.
        queued: bool,
    },
    /// A disk transfer completed.
    IoDone {
        /// The transaction whose transfer finished.
        txn: TxnId,
    },
    /// A disk transfer failed with an injected transient error; the
    /// transaction backs off before retrying.
    IoFault {
        /// The transaction whose transfer failed.
        txn: TxnId,
        /// Retries already spent on this transfer (0 = first failure).
        retries: u32,
    },
    /// A transaction exhausted its IO retry budget and was
    /// aborted-and-restarted.
    IoGaveUp {
        /// The transaction.
        txn: TxnId,
    },
    /// A transaction was rejected on arrival by admission control.
    Rejected {
        /// The transaction.
        txn: TxnId,
        /// Its absolute deadline (infeasible at arrival).
        deadline: SimTime,
    },
    /// A transaction committed.
    Commit {
        /// The transaction.
        txn: TxnId,
        /// Signed lateness at commit, ms.
        lateness_ms: f64,
    },
    /// The deadlock resolver broke a lock-wait cycle.
    DeadlockResolved {
        /// The aborted cycle member.
        victim: TxnId,
    },
    /// One scheduler pass (a `reschedule` invocation) completed; the
    /// counters are this pass's deltas of the run-wide scheduler-overhead
    /// tallies (see [`crate::metrics::SchedStats`]).
    SchedulerPass {
        /// `Policy::priority` evaluations this pass performed.
        evals: u64,
        /// Pairwise conflict tests this pass requested.
        pair_checks: u64,
    },
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// The full event log of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append an event.
    pub fn push(&mut self, at: SimTime, event: TraceEvent) {
        self.records.push(TraceRecord { at, event });
    }

    /// All records, in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records concerning one transaction.
    pub fn for_txn(&self, txn: TxnId) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| match &r.event {
            TraceEvent::Arrival { txn: t, .. }
            | TraceEvent::Dispatch { txn: t, .. }
            | TraceEvent::Preempt { txn: t }
            | TraceEvent::LockWait { txn: t, .. }
            | TraceEvent::IoIssued { txn: t, .. }
            | TraceEvent::IoDone { txn: t }
            | TraceEvent::IoFault { txn: t, .. }
            | TraceEvent::IoGaveUp { txn: t }
            | TraceEvent::Rejected { txn: t, .. }
            | TraceEvent::Commit { txn: t, .. }
            | TraceEvent::DeadlockResolved { victim: t } => *t == txn,
            TraceEvent::Abort { victim, by, .. } => *victim == txn || *by == txn,
            TraceEvent::SchedulerPass { .. } => false,
        })
    }

    /// Count of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.event)).count()
    }

    /// Total aborts recorded.
    pub fn aborts(&self) -> usize {
        self.count(|e| matches!(e, TraceEvent::Abort { .. }))
    }

    /// Total dispatches recorded.
    pub fn dispatches(&self) -> usize {
        self.count(|e| matches!(e, TraceEvent::Dispatch { .. }))
    }

    /// Total commits recorded.
    pub fn commits(&self) -> usize {
        self.count(|e| matches!(e, TraceEvent::Commit { .. }))
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12}] ", format!("{}", self.at))?;
        match &self.event {
            TraceEvent::Arrival { txn, deadline } => {
                write!(f, "{txn} arrives (deadline {deadline})")
            }
            TraceEvent::Dispatch { txn, secondary } => {
                if *secondary {
                    write!(f, "{txn} dispatched via IOwait-schedule")
                } else {
                    write!(f, "{txn} dispatched as TH")
                }
            }
            TraceEvent::Preempt { txn } => write!(f, "{txn} preempted"),
            TraceEvent::Abort { victim, by, item } => {
                write!(f, "{by} aborts {victim} over {item}")
            }
            TraceEvent::LockWait { txn, item } => {
                write!(f, "{txn} waits for {item}")
            }
            TraceEvent::IoIssued { txn, queued } => {
                if *queued {
                    write!(f, "{txn} queues for the disk")
                } else {
                    write!(f, "{txn} starts a disk transfer")
                }
            }
            TraceEvent::IoDone { txn } => write!(f, "{txn} disk transfer done"),
            TraceEvent::IoFault { txn, retries } => {
                write!(f, "{txn} disk transfer FAILED (retry {})", retries + 1)
            }
            TraceEvent::IoGaveUp { txn } => {
                write!(f, "{txn} exhausted its IO retry budget; restarting")
            }
            TraceEvent::Rejected { txn, deadline } => {
                write!(f, "{txn} rejected at admission (deadline {deadline})")
            }
            TraceEvent::Commit { txn, lateness_ms } => {
                if *lateness_ms > 0.0 {
                    write!(f, "{txn} commits LATE by {lateness_ms:.1} ms")
                } else {
                    write!(f, "{txn} commits on time ({:.1} ms early)", -lateness_ms)
                }
            }
            TraceEvent::DeadlockResolved { victim } => {
                write!(f, "deadlock resolved by aborting {victim}")
            }
            TraceEvent::SchedulerPass { evals, pair_checks } => {
                write!(
                    f,
                    "scheduler pass: {evals} evals, {pair_checks} pair checks"
                )
            }
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.records {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn push_and_query() {
        let mut trace = Trace::new();
        trace.push(
            t(0.0),
            TraceEvent::Arrival {
                txn: TxnId(0),
                deadline: t(100.0),
            },
        );
        trace.push(
            t(0.0),
            TraceEvent::Dispatch {
                txn: TxnId(0),
                secondary: false,
            },
        );
        trace.push(
            t(5.0),
            TraceEvent::Abort {
                victim: TxnId(1),
                by: TxnId(0),
                item: ItemId(3),
            },
        );
        trace.push(
            t(80.0),
            TraceEvent::Commit {
                txn: TxnId(0),
                lateness_ms: -20.0,
            },
        );
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.aborts(), 1);
        assert_eq!(trace.commits(), 1);
        assert_eq!(trace.dispatches(), 1);
        assert_eq!(trace.for_txn(TxnId(0)).count(), 4, "abort names both");
        assert_eq!(trace.for_txn(TxnId(1)).count(), 1);
        assert_eq!(trace.for_txn(TxnId(9)).count(), 0);
    }

    #[test]
    fn display_renders_lines() {
        let mut trace = Trace::new();
        trace.push(
            t(1.0),
            TraceEvent::LockWait {
                txn: TxnId(2),
                item: ItemId(7),
            },
        );
        trace.push(
            t(2.0),
            TraceEvent::Commit {
                txn: TxnId(2),
                lateness_ms: 3.5,
            },
        );
        let s = format!("{trace}");
        assert!(s.contains("T2 waits for i7"), "{s}");
        assert!(s.contains("LATE by 3.5 ms"), "{s}");
    }
}
