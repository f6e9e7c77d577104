//! Timing probes that sit *outside* the program: wrappers around the
//! public `TxnSource` and `Policy` traits. They delegate every call
//! unchanged, so a run through them is bit-identical to one without.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtx_rtdb::{Policy, Priority, PriorityDeps, SystemView, Transaction, TxnSource};

/// A policy the batch runner and the server can both share.
pub type SharedPolicy = Arc<dyn Policy + Send + Sync>;

/// Times every `next_transaction` call of the wrapped source.
pub struct TimedSource<S> {
    inner: S,
    pub ns: u64,
    pub yielded: u64,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            ns: 0,
            yielded: 0,
        }
    }
}

impl<S: TxnSource> TxnSource for TimedSource<S> {
    fn next_transaction(&mut self) -> Option<Transaction> {
        let t0 = Instant::now();
        let next = self.inner.next_transaction();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.yielded += u64::from(next.is_some());
        next
    }
}

/// Counts and times `Policy::priority`, and times
/// `Policy::conflict_clear_raise`, on the wrapped policy. The engine calls `priority` from inside
/// `pick_next` and from conflict repair, so this span overlaps both and
/// is never added into the step ledger.
pub struct TimedPolicy {
    inner: SharedPolicy,
    priority_calls: AtomicU64,
    priority_ns: AtomicU64,
    clear_raise_ns: AtomicU64,
}

/// A snapshot of a [`TimedPolicy`]'s tallies.
#[derive(Debug, Default, Clone, Copy)]
pub struct PolicyTally {
    pub priority_calls: u64,
    pub priority_ns: u64,
    pub clear_raise_ns: u64,
}

impl TimedPolicy {
    pub fn new(inner: SharedPolicy) -> Self {
        TimedPolicy {
            inner,
            priority_calls: AtomicU64::new(0),
            priority_ns: AtomicU64::new(0),
            clear_raise_ns: AtomicU64::new(0),
        }
    }

    /// The tallies so far. The counters are statistics that publish no
    /// other data, so relaxed loads suffice.
    pub fn tally(&self) -> PolicyTally {
        PolicyTally {
            priority_calls: self.priority_calls.load(Ordering::Relaxed),
            priority_ns: self.priority_ns.load(Ordering::Relaxed),
            clear_raise_ns: self.clear_raise_ns.load(Ordering::Relaxed),
        }
    }
}

fn add_ns(ns: &AtomicU64, t0: Instant) {
    ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn priority(&self, txn: &Transaction, view: &SystemView<'_>) -> Priority {
        let t0 = Instant::now();
        let p = self.inner.priority(txn, view);
        add_ns(&self.priority_ns, t0);
        self.priority_calls.fetch_add(1, Ordering::Relaxed);
        p
    }

    fn iowait_restrict(&self) -> bool {
        self.inner.iowait_restrict()
    }

    fn depends_on(&self) -> PriorityDeps {
        self.inner.depends_on()
    }

    fn conflict_clear_raise(&self, cleared: &Transaction, view: &SystemView<'_>) -> f64 {
        let t0 = Instant::now();
        let raise = self.inner.conflict_clear_raise(cleared, view);
        add_ns(&self.clear_raise_ns, t0);
        raise
    }

    fn time_invariant_key(&self, txn: &Transaction) -> Option<f64> {
        self.inner.time_invariant_key(txn)
    }
}
