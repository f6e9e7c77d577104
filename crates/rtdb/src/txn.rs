//! Run-time transaction state.
//!
//! Each transaction is an instance of a pre-analyzed type: an ordered list
//! of items to update, a per-update CPU time, a predrawn IO pattern and a
//! deadline. The engine drives it through a per-update pipeline
//! (lock → optional IO → compute) and the scheduler inspects its progress
//! to price aborting it.

use rtx_preanalysis::sets::{DataSet, ItemId};
use rtx_preanalysis::table::TypeId;
use rtx_sim::time::{SimDuration, SimTime};

use crate::locks::LockMode;

/// Identifier of a transaction instance (dense, in arrival order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u32);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Stage of the current update's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stage {
    /// About to acquire the write lock for the current item.
    #[default]
    Lock,
    /// Consuming CPU to roll back a victim before continuing with the
    /// current update (recovery work charged to this transaction).
    Recover,
    /// Waiting for / performing the disk access of the current update.
    Io,
    /// Consuming the current update's CPU burst.
    Compute,
}

/// Scheduling state of an admitted transaction. A rejected arrival is
/// never stored, so it has no state; `Committed` is the only terminal one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnState {
    /// Runnable: waiting for the CPU (fresh, preempted, or back from IO).
    #[default]
    Ready,
    /// Currently on the CPU.
    Running,
    /// Waiting in the disk queue.
    IoQueued,
    /// Its disk transfer is in progress.
    IoActive,
    /// Its last attempt — a disk transfer or a compute burst — failed with
    /// an injected transient fault; the transaction is off the disk and the
    /// CPU, holding its locks, waiting out an exponential-backoff delay
    /// before retrying the attempt.
    IoBackoff,
    /// Blocked waiting for a write lock held by a *higher-priority*
    /// transaction (HP wound-wait: a requester only aborts lower-priority
    /// holders). Under CCA this state is unreachable — the paper's "no
    /// lock wait" property — but EDF-HP's unrestricted IO-wait secondaries
    /// can hit locks held by the IO-blocked `TH` and must wait.
    LockWait,
    /// Committed; out of the system.
    Committed,
}

impl TxnState {
    /// Eligible for the CPU — what the pick loops accept.
    pub fn is_runnable(self) -> bool {
        matches!(self, TxnState::Ready | TxnState::Running)
    }
}

/// A decision point in an instance's execution (the §3.2.2 extension the
/// paper leaves to future work: "we didn't simulate the effects of
/// conditionally unsafe and conditionally conflict").
///
/// The instance's concrete items already reflect the branch its program
/// semantics will take, but the *analysis* cannot know that until the
/// decision point executes: `might_access` starts at the pessimistic
/// `full` set and narrows to `narrowed` once `after_update` updates have
/// completed. A restart re-widens it.
#[derive(Debug, Clone)]
pub struct DecisionSpec {
    /// Number of completed updates after which the decision executes.
    pub after_update: usize,
    /// The pessimistic pre-decision `mightaccess` (the type's data set).
    pub full: DataSet,
    /// The post-decision `mightaccess` (taken branch only).
    pub narrowed: DataSet,
}

/// One transaction: the instance a source builds, plus the execution
/// state the engine drives.
///
/// A builder (the workload generator, a serving request, a test) sets
/// the fields from `id` through `criticality`; the engine owns the
/// execution state after them. [`Default`] is a fresh, never-run
/// transaction — `Ready` at the first update's lock stage, holding no
/// lock and with no service, on no one's P list — so a builder names
/// only the fields it sets and ends with `..Default::default()`.
#[derive(Debug, Clone, Default)]
pub struct Transaction {
    /// Instance id (arrival order).
    pub id: TxnId,
    /// The transaction type this is an instance of.
    pub ty: TypeId,
    /// Arrival (= release) time.
    pub arrival: SimTime,
    /// Absolute deadline (soft: missing it never drops the transaction).
    pub deadline: SimTime,
    /// True isolated service time (CPU + predrawn IO), used for the
    /// deadline assignment.
    pub resource_time: SimDuration,
    /// Ordered items this instance updates (the type's program order).
    pub items: Vec<ItemId>,
    /// Predrawn "does update k need a disk access" flags (empty for main
    /// memory residence).
    pub io_pattern: Vec<bool>,
    /// Access mode per update. Empty means every update writes — the
    /// paper's §3.1 model; the §6 shared-lock extension populates it.
    pub modes: Vec<LockMode>,
    /// CPU time per update for this instance's type.
    pub update_time: SimDuration,
    /// Everything this instance might access — the oracle `mightaccess`
    /// (for straight-line types: the full item set).
    pub might_access: DataSet,
    /// Optional decision point narrowing `might_access` mid-execution.
    pub decision: Option<DecisionSpec>,
    /// Criticality class (0 = normal). The §6 "multiple criticalness"
    /// extension: policies may order classes lexicographically (see
    /// `rtx-core`'s `Criticality` wrapper); the engine itself treats it
    /// as opaque but reports per-class miss rates.
    pub criticality: u8,

    // ---- mutable execution state ----
    /// Scheduling state.
    pub state: TxnState,
    /// Updates fully completed since the last (re)start.
    pub progress: usize,
    /// Pipeline stage of the current update.
    pub stage: Stage,
    /// Remaining CPU of the current burst (recovery or compute).
    pub cpu_left: SimDuration,
    /// When the current burst started (valid while `Running`).
    pub burst_start: SimTime,
    /// Items locked (= accessed, either mode) since the last restart: the
    /// oracle `hasaccessed`.
    pub accessed: DataSet,
    /// Items exclusively locked (written) since the last restart — the
    /// subset of `accessed` whose loss forces rollbacks of readers too.
    pub written: DataSet,
    /// Useful CPU consumed since the last restart — the *effective service
    /// time* of §3.3.1 (recovery work excluded).
    pub service: SimDuration,
    /// Times this transaction has been aborted and restarted.
    pub restarts: u32,
    /// The item this transaction is lock-waiting on (`LockWait` only).
    pub waiting_for: Option<ItemId>,
    /// Set when aborted during an active disk transfer: the transfer
    /// completes ("it is not deleted until it releases the disk") and only
    /// then does the transaction re-enter the ready queue from scratch.
    pub doomed: bool,
    /// When `doomed` was set: from here until the transfer releases the
    /// disk, the hold time is wasted and attributed to metrics.
    pub doomed_at: SimTime,
    /// Consecutive injected-fault retries of the *current* update's
    /// transfer or compute burst (an update retries one or the other,
    /// never both at once). Reset when the attempt succeeds and on
    /// restart.
    pub io_retries: u32,
    /// Monotonic token identifying the latest backoff (disk or CPU) this
    /// transaction armed; a retry event carrying a stale token is
    /// ignored (the transaction was aborted and restarted while the
    /// event was in flight).
    pub retry_token: u64,
}

impl Transaction {
    /// Total number of updates this instance performs.
    pub fn total_updates(&self) -> usize {
        self.items.len()
    }

    /// True iff the transaction is still in the system (not committed).
    pub fn is_active(&self) -> bool {
        self.state != TxnState::Committed
    }

    /// True iff the transaction can be put on the CPU right now.
    pub fn is_runnable(&self) -> bool {
        self.state.is_runnable()
    }

    /// True iff the transaction has partially executed — it holds locks
    /// whose release would destroy work (the paper's *P list* membership
    /// test).
    pub fn is_partially_executed(&self) -> bool {
        self.is_active() && !self.accessed.is_empty()
    }

    /// The item of the current update.
    ///
    /// # Panics
    /// Panics if the transaction already performed all its updates.
    pub fn current_item(&self) -> ItemId {
        self.items[self.progress]
    }

    /// Does the current update need a disk access?
    pub fn current_needs_io(&self) -> bool {
        self.io_pattern.get(self.progress).copied().unwrap_or(false)
    }

    /// Lock mode of the current update (exclusive when no modes are set —
    /// the paper's write-only model).
    pub fn current_mode(&self) -> LockMode {
        self.modes
            .get(self.progress)
            .copied()
            .unwrap_or(LockMode::Exclusive)
    }

    /// Might this transaction still *write* into any item of `set`?
    /// (Mode-aware `mightaccess` test; with no modes every access writes.)
    pub fn might_write_into(&self, set: &DataSet) -> bool {
        if self.modes.is_empty() {
            return self.might_access.intersects(set);
        }
        self.items.iter().zip(&self.modes).any(|(item, mode)| {
            *mode == LockMode::Exclusive && self.might_access.contains(*item) && set.contains(*item)
        })
    }

    /// Mode-aware conflict test between two transactions' refinement
    /// states: they conflict iff some item both might access is written by
    /// at least one of them. With write-only workloads this degenerates to
    /// the plain `mightaccess` intersection the paper uses.
    pub fn conflicts_with(&self, other: &Transaction) -> bool {
        self.might_write_into(&other.might_access) || other.might_write_into(&self.might_access)
    }

    /// Reset execution state for a restart after an abort. Keeps identity,
    /// items, IO pattern and deadline ("transactions that do not meet
    /// their deadlines are not dropped").
    pub fn reset_for_restart(&mut self) {
        self.progress = 0;
        self.stage = Stage::Lock;
        self.cpu_left = SimDuration::ZERO;
        self.accessed.clear();
        self.written.clear();
        self.service = SimDuration::ZERO;
        self.restarts += 1;
        self.waiting_for = None;
        self.io_retries = 0;
        // A restart re-executes from the root of the transaction tree, so
        // the analysis is pessimistic again.
        if let Some(d) = &self.decision {
            self.might_access = d.full.clone();
        }
    }

    /// Called by the engine when an update completes: execute the decision
    /// point, narrowing `might_access`, if this was the decision update.
    /// Returns `true` iff a narrowing happened (the caller must reindex
    /// the slot rows and refresh the heap key, both of which read
    /// `might_access`).
    pub fn maybe_execute_decision(&mut self) -> bool {
        if let Some(d) = &self.decision {
            if self.progress == d.after_update {
                self.might_access = d.narrowed.clone();
                return true;
            }
        }
        false
    }

    /// The *effective service time* as of `now`: CPU work that would be
    /// lost if this transaction were aborted right now. While the
    /// transaction is on the CPU in a compute burst, the in-flight part of
    /// the burst accrues continuously — otherwise a preemption would
    /// retroactively raise the preemptor's penalty of conflict and invert
    /// priorities (violating Lemma 1).
    pub fn effective_service(&self, now: SimTime) -> SimDuration {
        if self.state == TxnState::Running && self.stage == Stage::Compute {
            self.service + now.since(self.burst_start)
        } else {
            self.service
        }
    }
}

/// Is `partial` unsafe (or conditionally unsafe) with respect to
/// `candidate`? Oracle evaluation over the instances' item sets (§3.3.1).
///
/// Mode-aware: `partial` must be rolled back iff it *wrote* something the
/// candidate might access, or it accessed (in any mode) something the
/// candidate might *write*. For the paper's write-only workload both
/// conditions collapse to `hasaccessed(partial) ∩ mightaccess(candidate)`.
///
/// Lives here (rather than in `rtx-core`'s penalty module, which
/// re-exports it) so the engine's pair tests and `Verify` oracles share
/// the one definition its slot rows' set-at-a-time answers must match.
pub fn is_unsafe_with(partial: &Transaction, candidate: &Transaction) -> bool {
    partial.written.intersects(&candidate.might_access)
        || candidate.might_write_into(&partial.accessed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn() -> Transaction {
        Transaction {
            id: TxnId(1),
            ty: TypeId(3),
            arrival: SimTime::from_ms(10.0),
            deadline: SimTime::from_ms(100.0),
            resource_time: SimDuration::from_ms(40.0),
            items: vec![ItemId(1), ItemId(2)],
            io_pattern: vec![false, true],
            update_time: SimDuration::from_ms(4.0),
            might_access: [1u32, 2].into_iter().collect(),
            ..Default::default()
        }
    }

    #[test]
    fn fresh_transaction_state() {
        let t = txn();
        assert!(t.is_active());
        assert!(t.is_runnable());
        assert!(!t.is_partially_executed(), "no locks yet");
        assert_eq!(t.total_updates(), 2);
        assert_eq!(t.current_item(), ItemId(1));
        assert!(!t.current_needs_io());
    }

    #[test]
    fn partially_executed_requires_locks() {
        let mut t = txn();
        t.accessed.insert(ItemId(1));
        assert!(t.is_partially_executed());
        t.state = TxnState::Committed;
        assert!(!t.is_partially_executed());
    }

    #[test]
    fn io_pattern_indexed_by_progress() {
        let mut t = txn();
        assert!(!t.current_needs_io());
        t.progress = 1;
        assert!(t.current_needs_io());
        assert_eq!(t.current_item(), ItemId(2));
    }

    /// A restart puts every execution field it resets back to the fresh
    /// transaction's value, so the two places that write the start state
    /// cannot drift apart.
    #[test]
    fn restart_resets_execution_but_keeps_identity() {
        let mut t = txn();
        t.progress = 1;
        t.stage = Stage::Compute;
        t.cpu_left = SimDuration::from_ms(3.0);
        t.accessed.insert(ItemId(1));
        t.written.insert(ItemId(1));
        t.service = SimDuration::from_ms(12.0);
        t.waiting_for = Some(ItemId(2));
        t.io_retries = 2;
        t.retry_token = 5;
        t.reset_for_restart();
        let fresh = Transaction::default();
        assert_eq!(t.progress, fresh.progress);
        assert_eq!(t.stage, fresh.stage);
        assert_eq!(t.cpu_left, fresh.cpu_left);
        assert_eq!(t.accessed, fresh.accessed);
        assert_eq!(t.written, fresh.written);
        assert_eq!(t.service, fresh.service);
        assert_eq!(t.waiting_for, fresh.waiting_for);
        assert_eq!(
            t.io_retries, fresh.io_retries,
            "retry budget is per-incarnation"
        );
        assert_eq!(t.restarts, 1);
        assert_eq!(t.retry_token, 5, "stale retries stay recognizable");
        assert_eq!(t.deadline, SimTime::from_ms(100.0), "deadline unchanged");
        assert_eq!(t.items.len(), 2, "items unchanged");
    }

    #[test]
    fn runnable_states() {
        let mut t = txn();
        for (state, runnable) in [
            (TxnState::Ready, true),
            (TxnState::Running, true),
            (TxnState::IoQueued, false),
            (TxnState::IoActive, false),
            (TxnState::IoBackoff, false),
            (TxnState::LockWait, false),
            (TxnState::Committed, false),
        ] {
            t.state = state;
            assert_eq!(t.is_runnable(), runnable, "{state:?}");
        }
    }
}
