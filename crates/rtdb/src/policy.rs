//! The scheduling-policy interface.
//!
//! The engine is policy-agnostic: at every scheduling point it asks the
//! [`Policy`] for each active transaction's priority and dispatches the
//! highest-priority runnable transaction (or, when that transaction is
//! blocked on IO, the best *compatible* ready transaction if the policy
//! enables the paper's `IOwait-schedule` step). Concrete policies — CCA,
//! EDF-HP, EDF-Wait, LSF, FCFS — live in the `rtx-core` crate.

use std::cmp::Ordering;

use rtx_sim::time::{SimDuration, SimTime};

use crate::sched::ConflictAccel;
use crate::txn::{Transaction, TxnId};

/// A scheduling priority. Higher compares greater. Total order (the
/// engine breaks ties by id, which is arrival order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priority(pub f64);

impl Priority {
    /// The least possible priority.
    pub const MIN: Priority = Priority(f64::NEG_INFINITY);
}

impl Eq for Priority {}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert!(!self.0.is_nan() && !other.0.is_nan(), "NaN priority");
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// Which inputs a policy's [`Policy::priority`] is a function of. It
/// fixes, for a whole run, what the engine's one priority index stores:
/// an upper bound on the priority under `Static` (where it is exact) and
/// `ConflictState`, the time-invariant key of
/// [`Policy::time_invariant_key`] under a `TimeAndSelf` policy that
/// exposes one. Every pick validates the index top the same way; a
/// `TimeAndSelf` policy without keys and a `Volatile` one pick through a
/// full scan instead. Only `ConflictState` keys are repaired by a walk
/// over victims on a clear.
///
/// Declaring a *wider* dependency than the policy actually has is always
/// safe (it only costs evaluations); declaring a narrower one breaks
/// bit-identity and is caught by the engine's `Verify` cache mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriorityDeps {
    /// Depends only on the transaction's immutable attributes (deadline,
    /// arrival, criticality). EDF-HP, FCFS: computed once, never again.
    Static,
    /// Depends on the current time and the transaction's own mutable
    /// state (progress, service), but not on other transactions. LSF.
    TimeAndSelf,
    /// Depends on time, own state, *and* the system's conflict state.
    /// CCA, EDF-Wait. Contract, part 1 (shape): the priority of `T` may
    /// depend on other transactions **only** through the set of partials
    /// unsafe w.r.t. `T` (`is_unsafe_with`) and those partials'
    /// effective service / abort cost. Contract, part 2
    /// (fall-monotonicity): conflict events other than a partial's
    /// *clear* — an access-set growth, effective service accruing with
    /// the clock — may only **lower** the priority, never raise it
    /// (penalty terms are nonnegative and grow monotonically). Contract,
    /// part 3 (own state): of `T`'s own mutable state, only a narrowing
    /// of `T`'s `might_access` may *raise* `T`'s priority; its own
    /// service and progress must not enter its own priority at all. The
    /// engine leans on all three: a partial's clear raises the affected
    /// index keys in place by the policy's
    /// [`Policy::conflict_clear_raise`] bound, a narrowing eagerly
    /// refreshes `T`'s own key, and every other event leaves index keys
    /// as stale-high upper bounds that the lazy pick path revalidates at
    /// the top. A policy whose priority can *rise* on growth or with time
    /// must declare [`PriorityDeps::Volatile`] instead.
    ///
    /// Parts 1 and 2 together mean that a partial `c` enters `T`'s
    /// priority only while `c` is on the P-list, and a clear takes back
    /// at most what `c`'s join and growth took away. So a priority
    /// evaluated before `c` joined already bounds the priority after `c`
    /// clears: the engine raises only keys evaluated after `c` joined
    /// (the index's join stamps), and skips the clear's walk when there
    /// are none.
    ConflictState,
    /// No indexable structure declared; every pick scans. The
    /// conservative default for policies written before this hint
    /// existed.
    Volatile,
}

/// A read-only view of the system handed to policies when they evaluate a
/// transaction's priority.
///
/// Construct with [`SystemView::new`]; the engine additionally threads an
/// internal conflict accelerator through it so `penalty_of_conflict`
/// walks the maintained P-list and its pair tests are counted.
pub struct SystemView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The engine's record store, in slot order: every live transaction,
    /// plus the emptied headers of committed ones, retired in place until
    /// a later arrival takes their slot over (filter as needed). Slots
    /// are recycled, so this is not id order, and a departed transaction
    /// may have no record at all.
    pub txns: &'a [Transaction],
    /// CPU time required to roll back one transaction (the `rollback_t`
    /// term of the penalty of conflict).
    pub abort_cost: SimDuration,
    /// The engine's incremental conflict state, when running
    /// incrementally.
    accel: Option<&'a ConflictAccel>,
}

impl<'a> SystemView<'a> {
    /// A plain view with no acceleration state: every P-list walk scans
    /// `txns` and every pair test recomputes from the transactions' sets.
    /// `txns` may be any list of records, in any order.
    pub fn new(now: SimTime, txns: &'a [Transaction], abort_cost: SimDuration) -> Self {
        SystemView {
            now,
            txns,
            abort_cost,
            accel: None,
        }
    }

    /// A view backed by the engine's conflict accelerator: P-list walks
    /// iterate the maintained list and pair tests are counted.
    pub(crate) fn with_accel(
        now: SimTime,
        txns: &'a [Transaction],
        abort_cost: SimDuration,
        accel: &'a ConflictAccel,
    ) -> Self {
        SystemView {
            now,
            txns,
            abort_cost,
            accel: Some(accel),
        }
    }

    /// The paper's *P list*: transactions that have partially executed
    /// (hold locks that would be destroyed by an abort), excluding `of`.
    ///
    /// The two views yield the same transactions in different orders:
    /// the maintained P-list in ascending id order, each id looked up
    /// through the engine's slot map, and a scan in the order of `txns`
    /// (slot order in the engine). Every consumer must therefore be
    /// order-independent, as sums of integer durations and counts are;
    /// then accel-backed and fresh evaluations are bit-identical, which
    /// the engine's `Verify` mode asserts for every priority.
    pub fn partially_executed(&self, of: TxnId) -> PartiallyExecuted<'a> {
        let inner = match self.accel {
            Some(accel) => PlistIter::Ids {
                ids: accel.plist().iter(),
                txns: self.txns,
                accel,
                of,
            },
            None => PlistIter::Scan {
                iter: self.txns.iter(),
                of,
            },
        };
        PartiallyExecuted { inner }
    }

    /// Is `partial` unsafe (or conditionally unsafe) with respect to
    /// `candidate`? Computed from the transactions' sets, and counted in
    /// the engine's `pair_checks` when this view carries its accelerator
    /// — see [`crate::txn::is_unsafe_with`].
    pub fn is_unsafe_with(&self, partial: &Transaction, candidate: &Transaction) -> bool {
        match self.accel {
            Some(a) => a.is_unsafe(partial, candidate),
            None => crate::txn::is_unsafe_with(partial, candidate),
        }
    }

    /// Symmetric static conflict test (`conflicts_with`), counted in the
    /// engine's `pair_checks` when this view carries its accelerator.
    pub fn conflicts(&self, a: &Transaction, b: &Transaction) -> bool {
        match self.accel {
            Some(acc) => acc.conflicts(a, b),
            None => a.conflicts_with(b),
        }
    }
}

enum PlistIter<'a> {
    Scan {
        iter: std::slice::Iter<'a, Transaction>,
        of: TxnId,
    },
    Ids {
        ids: std::slice::Iter<'a, TxnId>,
        txns: &'a [Transaction],
        accel: &'a ConflictAccel,
        of: TxnId,
    },
}

/// Iterator over the P-list (see [`SystemView::partially_executed`]).
pub struct PartiallyExecuted<'a> {
    inner: PlistIter<'a>,
}

impl<'a> Iterator for PartiallyExecuted<'a> {
    type Item = &'a Transaction;

    fn next(&mut self) -> Option<&'a Transaction> {
        match &mut self.inner {
            PlistIter::Scan { iter, of } => iter.find(|t| t.id != *of && t.is_partially_executed()),
            PlistIter::Ids {
                ids,
                txns,
                accel,
                of,
            } => {
                for &id in ids.by_ref() {
                    if id == *of {
                        continue;
                    }
                    let t = &txns[accel.slot_of(id).0 as usize];
                    debug_assert!(
                        t.is_partially_executed(),
                        "maintained P-list out of sync for {id}"
                    );
                    return Some(t);
                }
                None
            }
        }
    }
}

/// A real-time transaction scheduling policy: one priority assignment
/// plus the choice of whether `IOwait-schedule` restricts execution during
/// IO waits to conflict-free transactions.
///
/// # Thread safety
///
/// `Policy: Sync` so one `&dyn Policy` can be shared by the replication
/// runner's worker threads (each seeded run borrows the same policy
/// concurrently). The engine only ever takes `&self`, so a policy must be
/// safe to *read* from many threads; in practice every policy in
/// `rtx-core` is a plain value type (a few `f64` weights at most) and is
/// trivially `Sync`. A policy that wants interior mutable state (caches,
/// statistics) must synchronise it itself — and must keep `priority` a
/// pure function of `(txn, view)` per run, or cross-replication
/// determinism is lost.
pub trait Policy: Sync {
    /// Short policy name for reports ("CCA", "EDF-HP", …).
    fn name(&self) -> &str;

    /// The priority of `txn` given the current system state. Called at
    /// every scheduling point for every active transaction (continuous
    /// evaluation); policies that only use static information are free to
    /// ignore `view`.
    fn priority(&self, txn: &Transaction, view: &SystemView<'_>) -> Priority;

    /// If `true`, the engine's IO-wait scheduling only considers ready
    /// transactions that neither conflict nor conditionally conflict with
    /// any partially executed transaction (§3.3.3 `IOwait-schedule`); if
    /// `false`, the highest-priority ready transaction runs regardless
    /// (EDF-HP's behaviour, which produces noncontributing executions).
    fn iowait_restrict(&self) -> bool {
        false
    }

    /// What [`Policy::priority`] depends on — the engine's pick-path
    /// selector. The default, [`PriorityDeps::Volatile`], scans at every
    /// pick and is always correct; policies should override it with the
    /// narrowest honest answer.
    fn depends_on(&self) -> PriorityDeps {
        PriorityDeps::Volatile
    }

    /// For [`PriorityDeps::ConflictState`] policies: an upper bound (in
    /// priority units) on how much *any* other transaction's priority can
    /// rise when `cleared`'s access sets clear, evaluated **before** the
    /// clearing (so `cleared`'s effective service is still the one the
    /// victims' penalties charged).
    ///
    /// The engine uses this to repair affected index keys in place — old
    /// key plus this bound stays an upper bound on the post-clear
    /// priority, no recomputation needed. It raises only the keys
    /// evaluated after `cleared` joined the P-list: a key evaluated
    /// before never charged `cleared`'s term, so it already bounds the
    /// post-clear priority (see [`PriorityDeps::ConflictState`]).
    /// Soundness only requires a value `>=` the true rise; tightness only
    /// buys fewer revalidations at the next pick. The default, `+∞`, is always sound (the repaired keys
    /// float to the top and revalidate exactly) and is what a
    /// `ConflictState` policy gets if it declines to override. Policies
    /// with other dependency classes never see this called.
    fn conflict_clear_raise(&self, cleared: &Transaction, view: &SystemView<'_>) -> f64 {
        let _ = (cleared, view);
        f64::INFINITY
    }

    /// For [`PriorityDeps::TimeAndSelf`] policies: the time-invariant
    /// part `K` of the priority, such that
    /// `priority(txn, now) ≈ now_ms + K(txn)` up to floating-point
    /// rounding in the policy's own evaluation. `K` may depend on the
    /// transaction's mutable own state (progress, restarts) but not on
    /// the clock, so it only changes at events the engine already
    /// observes. When a policy returns `Some`, the engine's priority
    /// index stores `K` — candidates keep their relative order as time
    /// advances, so picks validate the top instead of rescanning. A pick
    /// bounds each entry by `nudge_up(now_ms + K, scale)`, where one
    /// run-wide scale (the largest |K|, deadline and clock seen) covers
    /// the rounding, and revalidates it exactly (the scan remains the
    /// `Verify`-mode oracle). `None` (the default) keeps the scan path.
    /// LSF's slack `-(d - now - estimate)` decomposes this way; a
    /// time/self policy with a nonlinear clock term does not and must
    /// return `None`.
    fn time_invariant_key(&self, txn: &Transaction) -> Option<f64> {
        let _ = txn;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnState;
    use rtx_preanalysis::sets::DataSet;
    use rtx_preanalysis::ItemId;

    fn mk_txn(id: u32, accessed: &[u32]) -> Transaction {
        Transaction {
            id: TxnId(id),
            deadline: SimTime::from_ms(100.0),
            resource_time: SimDuration::from_ms(80.0),
            items: vec![ItemId(0)],
            update_time: SimDuration::from_ms(4.0),
            might_access: DataSet::from_items([ItemId(0)]),
            accessed: accessed.iter().map(|&i| ItemId(i)).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn priority_total_order() {
        let a = Priority(-10.0);
        let b = Priority(-5.0);
        assert!(b > a, "later deadline (more negative) is lower priority");
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(Priority::MIN < a);
        let mut v = vec![b, Priority::MIN, a];
        v.sort();
        assert_eq!(v, vec![Priority::MIN, a, b]);
    }

    #[test]
    fn partially_executed_filters_self_and_fresh() {
        let txns = vec![mk_txn(0, &[1]), mk_txn(1, &[]), mk_txn(2, &[2])];
        let view = SystemView::new(SimTime::ZERO, &txns, SimDuration::from_ms(4.0));
        let plist: Vec<u32> = view.partially_executed(TxnId(0)).map(|t| t.id.0).collect();
        assert_eq!(plist, vec![2], "self (0) and lock-free (1) excluded");
        let plist: Vec<u32> = view.partially_executed(TxnId(9)).map(|t| t.id.0).collect();
        assert_eq!(plist, vec![0, 2]);
    }

    #[test]
    fn committed_txns_not_partially_executed() {
        let mut t = mk_txn(0, &[1]);
        t.state = TxnState::Committed;
        let txns = vec![t];
        let view = SystemView::new(SimTime::ZERO, &txns, SimDuration::ZERO);
        assert_eq!(view.partially_executed(TxnId(9)).count(), 0);
    }
}
