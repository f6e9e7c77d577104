//! Client-facing transaction requests and terminal outcomes.

use rtx_preanalysis::{ItemId, TypeId};
use rtx_rtdb::{Completion, CompletionKind, Transaction, TxnId};
use rtx_sim::{SimDuration, SimTime};

/// What a client asks the server to run: the transaction's shape, not
/// its engine-internal state.
///
/// The server turns a request into a full [`Transaction`] at submission
/// time, assigning the dense id and the arrival stamp (wall-clock mode
/// stamps "now"; virtual mode honours [`TxnRequest::arrival`]). The
/// deadline follows the paper's assignment:
/// `deadline = arrival + resource_time × (1 + slack)`.
#[derive(Debug, Clone)]
pub struct TxnRequest {
    /// Transaction type (indexes the pre-analysis tables; free-form for
    /// ad-hoc workloads).
    pub ty: TypeId,
    /// The records this transaction updates (write-locks, in order).
    pub items: Vec<ItemId>,
    /// CPU time per record update.
    pub update_time: SimDuration,
    /// Slack factor for the deadline assignment.
    pub slack: f64,
    /// Requested arrival stamp. Virtual-clock serving uses it verbatim
    /// (it is the replayed trace's arrival time); wall-clock serving
    /// stamps real time instead and treats this as the *intended*
    /// arrival — the anchor for the shedding check when
    /// [`crate::ServeConfig::shed_infeasible`] is on.
    pub arrival: SimTime,
    /// Which updates perform a disk access before their CPU burst,
    /// index-aligned with [`TxnRequest::items`]. A shorter pattern means
    /// "no IO" for the remaining updates; empty is the pure main-memory
    /// request. Any `true` entry requires the engine configuration to
    /// have a disk ([`rtx_rtdb::SimConfig::system`]`.disk`), exactly as
    /// a batch disk-resident workload would.
    pub io_pattern: Vec<bool>,
}

impl TxnRequest {
    /// Total CPU demand: one update burst per item. (Disk time from
    /// [`TxnRequest::io_pattern`] is *not* included — the request does
    /// not know the disk's access time; IO-bearing requests should
    /// carry correspondingly generous slack.)
    pub fn resource_time(&self) -> SimDuration {
        self.update_time * self.items.len() as u64
    }

    /// The absolute deadline this request would get if it arrived at
    /// `arrival`.
    pub fn deadline_from(&self, arrival: SimTime) -> SimTime {
        arrival + self.resource_time().scale(1.0 + self.slack)
    }

    /// Materialize the engine-side [`Transaction`], exactly as the batch
    /// workload generator would build it: both set the fields a source
    /// owns and take the execution state from [`Transaction::default`], so
    /// the match holds by construction. The serving bit-identity test
    /// leans on this: replaying a trace through the server and through
    /// [`rtx_rtdb::run_simulation_from`] constructs identical values.
    pub fn into_transaction(self, id: TxnId, arrival: SimTime) -> Transaction {
        let deadline = self.deadline_from(arrival);
        let resource_time = self.resource_time();
        Transaction {
            id,
            ty: self.ty,
            arrival,
            deadline,
            resource_time,
            might_access: self.items.iter().copied().collect(),
            items: self.items,
            io_pattern: self.io_pattern,
            update_time: self.update_time,
            ..Default::default()
        }
    }
}

/// The terminal outcome a [`crate::Ticket`] resolves to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The engine drove the transaction to a terminal state: committed
    /// (deadline met or missed) or rejected at admission.
    Finished {
        /// The engine-side completion record (sim-time stamps).
        completion: Completion,
        /// Response time converted to wall milliseconds under the
        /// server's clock (identical to the sim response for virtual
        /// serving).
        response_wall_ms: f64,
    },
    /// Load shedding dropped the request at dequeue: by the time it
    /// left the submission queue, its intended deadline
    /// ([`TxnRequest::deadline_from`] of the *requested* arrival) was
    /// already infeasible even on an idle system. Only produced when
    /// [`crate::ServeConfig::shed_infeasible`] is on.
    Shed {
        /// Wall milliseconds the request spent queued (intended arrival
        /// to shed decision).
        response_wall_ms: f64,
    },
    /// The engine crashed while this request was in flight; the
    /// supervisor resolved the ticket so no submitter hangs. The
    /// transaction's effects are gone with the crashed engine state.
    Poisoned,
}

impl Outcome {
    /// True iff the transaction committed (was not rejected at
    /// admission, shed, or lost to a crash).
    pub fn accepted(&self) -> bool {
        matches!(
            self,
            Outcome::Finished {
                completion: Completion {
                    kind: CompletionKind::Committed { .. },
                    ..
                },
                ..
            }
        )
    }

    /// True iff it committed past its deadline.
    pub fn missed(&self) -> bool {
        matches!(
            self,
            Outcome::Finished {
                completion: Completion {
                    kind: CompletionKind::Committed { missed: true },
                    ..
                },
                ..
            }
        )
    }

    /// True iff load shedding dropped the request at dequeue.
    pub fn shed(&self) -> bool {
        matches!(self, Outcome::Shed { .. })
    }

    /// True iff the request was lost to an engine crash.
    pub fn poisoned(&self) -> bool {
        matches!(self, Outcome::Poisoned)
    }

    /// The engine-side completion record, when the engine finished the
    /// transaction.
    pub fn completion(&self) -> Option<&Completion> {
        match self {
            Outcome::Finished { completion, .. } => Some(completion),
            _ => None,
        }
    }

    /// The wall-clock response time, when one is defined (finished or
    /// shed; a poisoned request has none).
    pub fn response_wall_ms(&self) -> Option<f64> {
        match self {
            Outcome::Finished {
                response_wall_ms, ..
            }
            | Outcome::Shed { response_wall_ms } => Some(*response_wall_ms),
            Outcome::Poisoned => None,
        }
    }
}
