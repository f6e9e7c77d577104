//! The priority index: the engine's one lazy priority heap, and every
//! rule about what its keys mean.
//!
//! While the index is the pick path it holds exactly one entry per active
//! transaction in a position-tracked binary max-heap. What a key means is
//! fixed once per run, when the engine is built, from the cache mode and
//! the policy's [`PriorityDeps`] — the [`KeyKind`]:
//!
//! * **no index** under the `AlwaysRecompute` oracle and for `Volatile`
//!   policies: every pick scans;
//! * **exact** under `Static`: the key is the exact priority, and nothing
//!   moves it;
//! * **bound** under `ConflictState`: the key is an upper bound on the
//!   priority, which falls without a key write (another partial's access
//!   growth, the runner's accruing service). This is the only kind a
//!   clear raises ([`PriorityIndex::raise_all`]), and only where the key
//!   charged the cleared partial (see *Join stamps* below);
//! * **time-invariant `K`** under `TimeAndSelf`: the key is
//!   [`Policy::time_invariant_key`], whose order is the priority order at
//!   every instant. A policy that exposes no `K` leaves the index short of
//!   the active set, and the engine scans instead
//!   ([`PriorityIndex::in_use`]).
//!
//! Every key stands for an **upper bound** on its transaction's exact
//! priority: the key itself, or `nudge_up(now_ms + K, scale)` for a `K`.
//! [`PriorityIndex::best`] validates the stale-high tops against exact
//! values the engine supplies, so the engine never reads a key or
//! computes a bound. Ties are broken by id alone. Ids are dense and
//! assigned at arrival, and each arrival is scheduled when the previous
//! one fires into a calendar that refuses times in the past, so id order
//! is arrival order.
//!
//! **Join stamps.** Each key carries the P-list join count
//! ([`crate::sched::ConflictAccel::joins`]) at the moment an exact
//! priority was last written into it. A `ConflictState` priority charges
//! only partials on the P-list, so a key evaluated before a partial `c`
//! joined never held `c`'s term, and `c`'s clear cannot lift the priority
//! above it: every other event since either lowered the priority (growth,
//! service, joins) or raised the key (a clear of a partial the key did
//! charge, a narrowing, which rewrites and restamps it). A clear therefore
//! raises only the keys stamped after `c` joined, and when no key was
//! stamped since, the engine skips its walk ([`PriorityIndex::keyed_since`]).
//! The stamps of `Static` and `K` keys are never read.

use std::cmp::{Ordering, Reverse};

use rtx_sim::time::SimTime;

use crate::policy::{Policy, Priority, PriorityDeps, SystemView};
use crate::sched::CacheMode;
use crate::txn::{Transaction, TxnId};

/// `v` plus a floating-point safety margin: used when repairing a stored
/// upper bound by an exact real-arithmetic delta, so the repaired key
/// stays an upper bound even after the roundings the fresh evaluation and
/// the repair perform differently.
///
/// The margin scales with `scale` — the largest magnitude appearing in
/// *either* computation — not with `v` itself: a repair can cancel (an
/// EDF-Wait entry at `-(d + 10¹²)` raised by `10¹²` lands near `-d`),
/// and the bits of `d` lost to rounding at magnitude `10¹²` are an
/// *absolute* error of order `ulp(10¹²)`, invisible at the result's own
/// magnitude. Looseness is harmless — the pick path revalidates the top
/// bit-exactly before dispatching — only a key *below* the true priority
/// would be unsound.
pub fn nudge_up(v: f64, scale: f64) -> f64 {
    if v.is_infinite() {
        return v;
    }
    v + (scale * (32.0 * f64::EPSILON)).max(f64::MIN_POSITIVE)
}

/// What an index key means, fixed for a run (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyKind {
    /// No index: `AlwaysRecompute`, `Volatile`.
    Unindexed,
    /// The exact priority: `Static`.
    Exact,
    /// An upper bound on the priority: `ConflictState`.
    Bound,
    /// The time-invariant `K`: `TimeAndSelf`.
    TimeInvariant,
}

/// One heap entry. Ordered by key, then by smaller id (arrival order), so
/// the index maximum is the scan winner bit for bit. The join stamp rides
/// along outside the order (see the module docs).
#[derive(Clone, Copy)]
struct HeapEntry {
    pri: Priority,
    id: TxnId,
    stamp: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.pri, Reverse(self.id)).cmp(&(other.pri, Reverse(other.id)))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A position-tracked binary max-heap with at most one entry per id.
/// Position tracking (`pos`) is what moves a key in place in O(log n): no
/// duplicate entry, no rebuild.
#[derive(Default)]
struct Heap {
    /// The heap slots (max-heap by [`HeapEntry::cmp`]).
    slots: Vec<HeapEntry>,
    /// Transaction id → slot position + 1; 0 = not in the heap. Grown on
    /// demand at insert, so it is only as long as the largest id held.
    pos: Vec<u32>,
}

impl Heap {
    #[inline]
    fn contains(&self, id: TxnId) -> bool {
        self.pos.get(id.0 as usize).is_some_and(|&p| p != 0)
    }

    /// The maximum entry, if any. O(1).
    #[inline]
    fn peek(&self) -> Option<HeapEntry> {
        self.slots.first().copied()
    }

    /// `id`'s current entry, if held. O(1).
    #[inline]
    fn get(&self, id: TxnId) -> Option<HeapEntry> {
        match self.pos.get(id.0 as usize).copied().unwrap_or(0) {
            0 => None,
            p => Some(self.slots[(p - 1) as usize]),
        }
    }

    /// Insert an entry for an id not currently held.
    #[inline]
    fn insert(&mut self, e: HeapEntry) {
        debug_assert!(!self.contains(e.id), "{} already indexed", e.id);
        let slot = e.id.0 as usize;
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, 0);
        }
        let i = self.slots.len();
        self.slots.push(e);
        self.pos[slot] = i as u32 + 1;
        self.sift_up(i);
    }

    /// Remove `id`'s entry. Returns whether it was present.
    fn remove(&mut self, id: TxnId) -> bool {
        let p = self.pos.get(id.0 as usize).copied().unwrap_or(0);
        if p == 0 {
            return false;
        }
        let i = (p - 1) as usize;
        self.pos[id.0 as usize] = 0;
        let last = self.slots.len() - 1;
        if i != last {
            self.slots.swap(i, last);
            self.pos[self.slots[i].id.0 as usize] = i as u32 + 1;
        }
        self.slots.pop();
        if i < self.slots.len() {
            // The displaced entry can need to move either way.
            self.sift_up(i);
            self.sift_down(i);
        }
        true
    }

    /// Replace `e.id`'s entry with `e` and reposition it (a raise, a lower
    /// or none). Returns whether it was present.
    #[inline]
    fn set(&mut self, e: HeapEntry) -> bool {
        let p = self.pos.get(e.id.0 as usize).copied().unwrap_or(0);
        if p == 0 {
            return false;
        }
        let i = (p - 1) as usize;
        self.slots[i] = e;
        self.sift_up(i);
        self.sift_down(i);
        true
    }

    // The sifts move the displaced entry as a "hole": parents/children
    // shift into place one write each, and the entry lands once at the
    // end — half the slot and `pos` writes of swap-based sifting.

    fn sift_up(&mut self, mut i: usize) {
        let e = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if e <= self.slots[parent] {
                break;
            }
            self.slots[i] = self.slots[parent];
            self.pos[self.slots[i].id.0 as usize] = i as u32 + 1;
            i = parent;
        }
        self.slots[i] = e;
        self.pos[e.id.0 as usize] = i as u32 + 1;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.slots[i];
        loop {
            let l = 2 * i + 1;
            if l >= self.slots.len() {
                break;
            }
            let r = l + 1;
            let child = if r < self.slots.len() && self.slots[r] > self.slots[l] {
                r
            } else {
                l
            };
            if self.slots[child] <= e {
                break;
            }
            self.slots[i] = self.slots[child];
            self.pos[self.slots[i].id.0 as usize] = i as u32 + 1;
            i = child;
        }
        self.slots[i] = e;
        self.pos[e.id.0 as usize] = i as u32 + 1;
    }
}

/// The engine's priority index (see the module docs): the heap, the
/// run's key kind, the latest join stamp, the nudge scale of `K` bounds,
/// the pick's scratch buffer and the heap tallies reported in
/// [`crate::metrics::SchedStats`].
pub(crate) struct PriorityIndex {
    kind: KeyKind,
    heap: Heap,
    /// The latest join stamp written: no key holds a later one. It never
    /// falls, not even when its key leaves — it backs the skip, which only
    /// needs an upper bound.
    latest: u64,
    /// The nudge scale of `K` bounds: the largest |K| and deadline (ms)
    /// keyed in this run. It never shrinks — it backs soundness, not
    /// tightness.
    scale: f64,
    /// Entries a pick popped, re-inserted when it ends; kept to reuse
    /// the allocation.
    scratch: Vec<HeapEntry>,
    /// Key writes: seeds, moves, raises and validated re-keys.
    pub(crate) pushes: u64,
    /// Validations that did not settle their pick.
    pub(crate) stale_pops: u64,
    /// Picks the index settled.
    pub(crate) validated_picks: u64,
}

impl PriorityIndex {
    /// The index of a run under `mode` for a policy with `deps`: this
    /// fixes the key kind for the whole run.
    pub(crate) fn new(mode: CacheMode, deps: PriorityDeps) -> Self {
        let kind = match deps {
            _ if mode == CacheMode::AlwaysRecompute => KeyKind::Unindexed,
            PriorityDeps::Volatile => KeyKind::Unindexed,
            PriorityDeps::Static => KeyKind::Exact,
            PriorityDeps::ConflictState => KeyKind::Bound,
            PriorityDeps::TimeAndSelf => KeyKind::TimeInvariant,
        };
        PriorityIndex {
            kind,
            heap: Heap::default(),
            latest: 0,
            scale: 0.0,
            scratch: Vec::new(),
            pushes: 0,
            stale_pops: 0,
            validated_picks: 0,
        }
    }

    /// Are keys priorities — exact under `Static`, upper bounds under
    /// `ConflictState`? Then arrival seeds each key with the exact
    /// priority, and a narrowing refreshes it.
    pub(crate) fn keys_are_priorities(&self) -> bool {
        matches!(self.kind, KeyKind::Exact | KeyKind::Bound)
    }

    /// Does a clear raise keys? Only upper bounds can fall below a
    /// priority that a clear raises.
    pub(crate) fn clear_raises(&self) -> bool {
        self.kind == KeyKind::Bound
    }

    /// Is the index the pick path over `active` transactions? Always for
    /// priority keys; for `K` keys only while they cover the active set (a
    /// policy that exposes no `K` never populates the index).
    pub(crate) fn in_use(&self, active: usize) -> bool {
        match self.kind {
            KeyKind::Unindexed => false,
            KeyKind::Exact | KeyKind::Bound => true,
            KeyKind::TimeInvariant => self.heap.slots.len() == active,
        }
    }

    /// Move `e.id`'s entry to `e` in place, or insert it. O(log n).
    #[inline]
    fn upsert(&mut self, e: HeapEntry) {
        if !self.heap.set(e) {
            self.heap.insert(e);
        }
        self.pushes += 1;
    }

    /// `exact` is `id`'s exact priority, just evaluated after `joins`
    /// P-list joins. When keys are priorities, seed the key with it or move
    /// the key to it if the two differ, and stamp the key with `joins`
    /// either way: a narrowing can swap the partials a priority charges
    /// without moving its value, so an unchanged key is restamped too. A
    /// `K` key is left alone.
    pub(crate) fn rekey_exact(&mut self, id: TxnId, exact: Priority, joins: u64) {
        if !self.keys_are_priorities() {
            return;
        }
        let e = HeapEntry {
            pri: exact,
            id,
            stamp: joins,
        };
        match self.heap.get(id) {
            Some(old) if old.pri.0.to_bits() == exact.0.to_bits() => {
                self.heap.set(e);
            }
            _ => self.upsert(e),
        }
        self.latest = joins;
    }

    /// `t`'s own state changed (admission, progress, restart): re-key its
    /// `K`. No-op unless keys are `K` and `policy` exposes one for `t`.
    pub(crate) fn rekey_own(&mut self, t: &Transaction, policy: &dyn Policy) {
        if self.kind != KeyKind::TimeInvariant {
            return;
        }
        let Some(k) = policy.time_invariant_key(t) else {
            return;
        };
        self.scale = self.scale.max(k.abs()).max(t.deadline.as_ms());
        // A `K` key is never raised, so its stamp is never read.
        self.upsert(HeapEntry {
            pri: Priority(k),
            id: t.id,
            stamp: 0,
        });
    }

    /// Remove a departed transaction's entry, if it has one.
    pub(crate) fn remove(&mut self, id: TxnId) {
        self.heap.remove(id);
    }

    /// Was any key stamped after stint `joined` began? If not, a clear
    /// of that stint raises no key, and its walk can be skipped.
    pub(crate) fn keyed_since(&self, joined: u64) -> bool {
        self.latest > joined
    }

    /// A clear of the partial whose stint is `joined`
    /// ([`crate::sched::ConflictAccel::joined`]) raised each of `victims`'
    /// priorities by at most `raise` ([`Policy::conflict_clear_raise`]).
    /// Raise in place, with no exact recomputation, exactly the keys
    /// stamped after `joined`: old key plus `raise`, nudged against the
    /// rounding at the magnitudes involved, bounds the post-clear
    /// priority, and the pick's validation tightens it when (and only
    /// when) the victim surfaces at the top. A key stamped at or before
    /// `joined` never charged the cleared partial, so it already bounds
    /// the post-clear priority (see the module docs) and keeps its bits.
    pub(crate) fn raise_all(&mut self, victims: &[TxnId], raise: f64, joined: u64) {
        debug_assert!(self.clear_raises(), "only upper bounds are raised");
        debug_assert!(raise >= 0.0, "clear-raise bound must be nonnegative");
        for &x in victims {
            let e = self.heap.get(x).expect("active but not indexed");
            if e.stamp > joined {
                let pri = Priority(nudge_up(e.pri.0 + raise, e.pri.0.abs().max(raise)));
                self.upsert(HeapEntry { pri, ..e });
            }
        }
    }

    /// The bound a key stands for at `now`: the key itself when it is a
    /// priority, and `nudge_up(now_ms + K, scale)` for a time-invariant
    /// `K`. One scale serves every entry — the largest |K|, deadline and
    /// clock of the run — so the bound is monotone in `K` and the heap's
    /// order is the bounds' order; 32 ulp of it dominate the few-ulp gap
    /// between `now_ms + K` and the policy's actually rounded priority.
    fn bound(&self, now: SimTime) -> impl Fn(Priority) -> Priority {
        let time_keyed = self.kind == KeyKind::TimeInvariant;
        let now_ms = now.as_ms();
        let scale = self.scale.max(now_ms).max(1.0);
        move |key| {
            if time_keyed {
                Priority(nudge_up(now_ms + key.0, scale))
            } else {
                key
            }
        }
    }

    /// The validated argmax at `now`: the `accept`ed transaction with the
    /// highest `exact` priority, ties by smaller id.
    ///
    /// Every key's bound sits at or above its exact priority: an exact
    /// priority only falls between key writes (a clear or a narrowing,
    /// the only rises, raise the key first), and a `K` key's bound follows
    /// the clock. Each round pops the top and validates it by one `exact`
    /// evaluation; the entry is out of the heap, so the loop re-parks it
    /// itself — a priority key under its exact value, a `K` key unchanged,
    /// since `K` moves only on own-state events. The moment the best
    /// validated entry beats the top's bound, no un-popped entry can win
    /// (its exact sits at or below its own bound, which sits at or below
    /// the top's), and the argmax is settled. Entries `accept` rejects
    /// are parked unchanged — acceptability does not read priorities.
    ///
    /// A priority key that validation moves is stamped with `joins`, the
    /// P-list joins so far; one it confirms keeps its stamp, so the fast
    /// path mutates nothing.
    ///
    /// Each entry pops at most once per pick, so a pick costs
    /// O(validations · log n); `stale_pops` counts the validations that
    /// did *not* settle the pick (validations − 1).
    pub(crate) fn best(
        &mut self,
        now: SimTime,
        joins: u64,
        accept: impl Fn(TxnId) -> bool,
        exact: impl Fn(TxnId) -> Priority,
    ) -> Option<TxnId> {
        let bound = self.bound(now);
        let rekey = self.keys_are_priorities();
        // Fast path: a top whose exact priority equals its bound bit for
        // bit settles the argmax with zero heap mutation — every other
        // bound sits at or below it, and the entry order already broke
        // ties. This is the steady-state common case for priority keys
        // (fresh keys, one peek + one validation per pick); a `K` bound is
        // nudged above the exact value, so `K` keys always take the loop.
        // A miss carries the exact value into the loop, whose first round
        // pops this same top.
        let mut carried = None;
        if let Some(top) = self.heap.peek().filter(|t| accept(t.id)) {
            let value = exact(top.id);
            if value.0.to_bits() == bound(top.pri).0.to_bits() {
                self.validated_picks += 1;
                return Some(top.id);
            }
            carried = Some((top.id, value));
        }
        debug_assert!(self.scratch.is_empty());
        let mut best: Option<HeapEntry> = None;
        let mut validations: u64 = 0;
        while let Some(entry) = self.heap.peek() {
            let entry_bound = HeapEntry {
                pri: bound(entry.pri),
                ..entry
            };
            if best.is_some_and(|b| b > entry_bound) {
                break;
            }
            let id = entry.id;
            self.heap.remove(id);
            if !accept(id) {
                self.scratch.push(entry);
                continue;
            }
            let value = match carried.take() {
                Some((carried_id, value)) if carried_id == id => value,
                _ => exact(id),
            };
            validations += 1;
            debug_assert!(
                value <= entry_bound.pri,
                "{id}: index bound {} was not an upper bound on exact {}",
                entry_bound.pri.0,
                value.0
            );
            let mut validated = HeapEntry {
                pri: value,
                ..entry
            };
            if rekey {
                if value.0.to_bits() != entry.pri.0.to_bits() {
                    validated.stamp = joins;
                    self.latest = joins;
                }
                self.scratch.push(validated);
                self.pushes += 1;
            } else {
                self.scratch.push(entry);
            }
            // `None` orders below every `Some`.
            if Some(validated) > best {
                best = Some(validated);
            }
        }
        for e in self.scratch.drain(..) {
            self.heap.insert(e);
        }
        if best.is_some() {
            self.validated_picks += 1;
            self.stale_pops += validations.saturating_sub(1);
        }
        best.map(|b| b.id)
    }

    /// The one key check, at every `Verify` pick and in the engine's
    /// state validation. While the index is the pick path it holds one
    /// entry per `active` transaction, and every key stands for a bound
    /// on its transaction's fresh priority under `view`: a `Static` key
    /// is bit-identical to it (nothing moves a static priority), a `K` key
    /// is bit-identical to the policy's current `K`, and every bound is
    /// `>=` it (lazy falls leave stale-high keys by design, while a bound
    /// *below* the fresh value means a rise escaped the clear walk or the
    /// narrowing refresh, which would make the heap's pop order unsound).
    /// Returns the number of comparisons made.
    pub(crate) fn check<'t>(
        &self,
        now: SimTime,
        active: &[TxnId],
        txn: impl Fn(TxnId) -> &'t Transaction,
        policy: &dyn Policy,
        view: &SystemView<'_>,
    ) -> u64 {
        if !self.in_use(active.len()) {
            return 0;
        }
        assert_eq!(self.heap.slots.len(), active.len(), "index size diverged");
        let bound = self.bound(now);
        let mut checks = 0;
        for &id in active {
            let key = self
                .heap
                .get(id)
                .unwrap_or_else(|| panic!("{id}: active but not indexed"))
                .pri;
            let t = txn(id);
            let fresh = policy.priority(t, view);
            checks += 1;
            match self.kind {
                KeyKind::Exact => assert_eq!(
                    key.0.to_bits(),
                    fresh.0.to_bits(),
                    "{id}: Static index key {} != fresh {}",
                    key.0,
                    fresh.0
                ),
                KeyKind::TimeInvariant => {
                    let k = policy
                        .time_invariant_key(t)
                        .expect("time-keyed policy stopped exposing keys");
                    checks += 1;
                    assert_eq!(
                        key.0.to_bits(),
                        k.to_bits(),
                        "{id}: index key diverged from the policy's time-invariant key"
                    );
                }
                KeyKind::Bound | KeyKind::Unindexed => {}
            }
            assert!(
                bound(key) >= fresh,
                "{id}: index bound {} < fresh {} (a priority rise escaped \
                 the clear walk or the narrowing refresh)",
                bound(key).0,
                fresh.0
            );
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::btree_map::{BTreeMap, Entry};

    /// One step against a [`Heap`]. Ids are sparse (multiples of 13), so
    /// the position lane grows in jumps; keys come from a small range, so
    /// raises, lowers and key ties all occur.
    #[derive(Debug, Clone, Copy)]
    enum HeapOp {
        Insert(u32, f64),
        Remove(u32),
        SetKey(u32, f64),
    }

    fn heap_op() -> impl Strategy<Value = HeapOp> {
        (0u8..3, 0u32..48, -20i64..20).prop_map(|(kind, id, key)| {
            let (id, key) = (id * 13, key as f64 * 0.5);
            match kind {
                0 => HeapOp::Insert(id, key),
                1 => HeapOp::Remove(id),
                _ => HeapOp::SetKey(id, key),
            }
        })
    }

    /// One indexed transaction for the `best` property: its exact
    /// priority, how far its key sits above it, and whether the pick
    /// accepts it.
    #[derive(Debug, Clone, Copy)]
    struct Candidate {
        exact: f64,
        slack: f64,
        accepted: bool,
    }

    fn candidate() -> impl Strategy<Value = Candidate> {
        (-12i64..12, 0u8..6, 0u8..4).prop_map(|(exact, slack, accept)| Candidate {
            exact: exact as f64 * 0.5,
            // Half the keys are exact: ties between keys, between
            // exact values and between a bound and an exact value.
            slack: [0.0, 0.0, 0.0, 0.5, 1.0, 4.0][slack as usize],
            accepted: accept != 0,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random insert / remove / set histories against a model
        /// map: after every step the heap's top is the model's maximum
        /// under [`HeapEntry`] order, `get` and `contains` answer for
        /// every id, and both the heap invariant and the position lane
        /// (`pos[id] = slot + 1` for exactly the held ids) hold.
        #[test]
        fn priority_index_matches_sorted_model(
            ops in proptest::collection::vec(heap_op(), 1..300),
        ) {
            let mut heap = Heap::default();
            let mut model: BTreeMap<u32, HeapEntry> = BTreeMap::new();
            for op in ops {
                match op {
                    HeapOp::Insert(id, key) => {
                        if let Entry::Vacant(slot) = model.entry(id) {
                            let e = HeapEntry { pri: Priority(key), id: TxnId(id), stamp: 0 };
                            heap.insert(e);
                            slot.insert(e);
                        }
                    }
                    HeapOp::Remove(id) => {
                        prop_assert_eq!(heap.remove(TxnId(id)), model.remove(&id).is_some());
                    }
                    HeapOp::SetKey(id, key) => {
                        let present = model.get_mut(&id).map(|e| e.pri = Priority(key)).is_some();
                        let e = HeapEntry { pri: Priority(key), id: TxnId(id), stamp: 0 };
                        prop_assert_eq!(heap.set(e), present);
                    }
                }
                prop_assert!(heap.peek() == model.values().max().copied(), "{:?}", op);
                for id in 0..48 * 13 {
                    let want = model.get(&id).map(|e| e.pri);
                    prop_assert!(heap.get(TxnId(id)).map(|e| e.pri) == want, "get({})", id);
                    prop_assert_eq!(heap.contains(TxnId(id)), want.is_some());
                }
                let slots = &heap.slots;
                prop_assert_eq!(slots.len(), model.len());
                for i in 1..slots.len() {
                    prop_assert!(slots[(i - 1) / 2] >= slots[i], "heap order at slot {}", i);
                }
                for (i, e) in slots.iter().enumerate() {
                    prop_assert_eq!(heap.pos[e.id.0 as usize], i as u32 + 1);
                }
                prop_assert_eq!(heap.pos.iter().filter(|&&p| p != 0).count(), slots.len());
            }
        }

        /// `best` over random keys and accept filters, for exact keys,
        /// upper-bound keys at or above their exact values, and `K` keys
        /// whose nudged bounds sit above theirs: it returns the argmax of
        /// the accepted exact values (ties by id); it evaluates exactly
        /// the accepted entries whose bound ranks at or above the winner's
        /// exact value, each once; `stale_pops` grows by that count minus
        /// one; and afterwards each validated priority key equals its
        /// exact value, while every other key is unchanged. Only a key
        /// the validation moved takes the pick's join stamp.
        #[test]
        fn best_is_the_validated_argmax(
            kind in 0u8..3,
            now_ms in 0.0f64..50.0,
            candidates in proptest::collection::vec(candidate(), 0..40),
        ) {
            let kind = [KeyKind::Exact, KeyKind::Bound, KeyKind::TimeInvariant][kind as usize];
            let mut index = PriorityIndex::new(CacheMode::Incremental, PriorityDeps::Static);
            index.kind = kind;
            let now = SimTime::from_ms(now_ms);
            // An exact key is the exact value, and an upper bound sits the
            // slack above it. A `K` key is a grid value whose exact value
            // sits the slack below `now_ms + K`; the scale covers |K|, as
            // `rekey_own` keeps it.
            let mut exacts = Vec::new();
            for (i, c) in candidates.iter().enumerate() {
                let (exact, key) = match kind {
                    KeyKind::Exact => (c.exact, c.exact),
                    KeyKind::Bound => (c.exact, c.exact + c.slack),
                    _ => {
                        index.scale = index.scale.max(c.exact.abs());
                        (now.as_ms() + c.exact - c.slack, c.exact)
                    }
                };
                index.upsert(HeapEntry { pri: Priority(key), id: TxnId(i as u32), stamp: 0 });
                exacts.push(Priority(exact));
            }
            let n = candidates.len();
            let keys = |index: &PriorityIndex| -> Vec<Priority> {
                (0..n).map(|i| index.heap.get(TxnId(i as u32)).unwrap().pri).collect()
            };
            let before = keys(&index);
            let bound = index.bound(now);
            let accepted = |i: usize| candidates[i].accepted;
            let winner = (0..n)
                .filter(|&i| accepted(i))
                .max_by_key(|&i| (exacts[i], Reverse(i)));
            let expected: Vec<usize> = winner.map_or(Vec::new(), |w| {
                (0..n)
                    .filter(|&i| accepted(i))
                    .filter(|&i| (bound(before[i]), Reverse(i)) >= (exacts[w], Reverse(w)))
                    .collect()
            });
            // The fast path settles on the top without touching a key.
            let fast = index.heap.peek().is_some_and(|top| {
                let i = top.id.0 as usize;
                accepted(i) && bound(top.pri).0.to_bits() == exacts[i].0.to_bits()
            });
            let (pushes, stale_pops) = (index.pushes, index.stale_pops);
            let latest = index.latest;
            let evaluated = RefCell::new(Vec::new());
            let picked = index.best(
                now,
                1,
                |id| accepted(id.0 as usize),
                |id| {
                    evaluated.borrow_mut().push(id.0 as usize);
                    exacts[id.0 as usize]
                },
            );
            prop_assert_eq!(picked.map(|id| id.0 as usize), winner);
            let mut evaluated = evaluated.into_inner();
            evaluated.sort_unstable();
            prop_assert_eq!(&evaluated, &expected);
            let validations = expected.len() as u64;
            prop_assert_eq!(index.stale_pops - stale_pops, validations.saturating_sub(1));
            let rekeyed = index.keys_are_priorities() && !fast;
            prop_assert_eq!(index.pushes - pushes, if rekeyed { validations } else { 0 });
            let after = keys(&index);
            let mut restamped = false;
            for i in 0..n {
                let validated = index.keys_are_priorities() && expected.contains(&i);
                let want = if validated { exacts[i] } else { before[i] };
                prop_assert_eq!(after[i].0.to_bits(), want.0.to_bits(), "key of {}", i);
                let moved = after[i].0.to_bits() != before[i].0.to_bits();
                let stamp = index.heap.get(TxnId(i as u32)).unwrap().stamp;
                prop_assert_eq!(stamp, u64::from(moved), "stamp of {}", i);
                restamped |= moved;
            }
            prop_assert_eq!(index.latest, if restamped { 1 } else { latest });
            let slots = &index.heap.slots;
            for i in 1..slots.len() {
                prop_assert!(slots[(i - 1) / 2] >= slots[i], "heap order at slot {}", i);
            }
        }

        /// `raise_all` over random keys, join stamps and victim sets: it
        /// raises exactly the victims stamped after `joined`, each by
        /// the nudged `raise`, and leaves every other key bit-identical;
        /// no stamp moves, and only the raised keys count as pushes.
        /// `keyed_since` answers as a scan of the stamps does.
        #[test]
        fn raise_all_moves_exactly_the_keys_stamped_after_the_join(
            keys in proptest::collection::vec((-40i64..40, 0u64..12, 0u8..3), 0..40),
            joined in 0u64..12,
            raise in 0.0f64..8.0,
        ) {
            let mut index = PriorityIndex::new(CacheMode::Incremental, PriorityDeps::ConflictState);
            // Keys are written in join order, as the engine writes them.
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&i| keys[i].1);
            for i in order {
                let (key, stamp, _) = keys[i];
                index.rekey_exact(TxnId(i as u32), Priority(key as f64 * 0.5), stamp);
            }
            for j in 0..13 {
                prop_assert_eq!(index.keyed_since(j), keys.iter().any(|k| k.1 > j), "since {}", j);
            }
            let ids = || (0..keys.len() as u32).map(TxnId);
            let before: Vec<HeapEntry> = ids().map(|id| index.heap.get(id).unwrap()).collect();
            let victims: Vec<TxnId> = ids().filter(|id| keys[id.0 as usize].2 != 0).collect();
            let pushes = index.pushes;
            index.raise_all(&victims, raise, joined);
            let mut raised = 0;
            for (id, b) in ids().zip(&before) {
                let a = index.heap.get(id).unwrap();
                let moves = victims.contains(&id) && b.stamp > joined;
                let want = if moves {
                    nudge_up(b.pri.0 + raise, b.pri.0.abs().max(raise))
                } else {
                    b.pri.0
                };
                prop_assert_eq!(a.pri.0.to_bits(), want.to_bits(), "key of {}", id);
                prop_assert_eq!(a.stamp, b.stamp, "stamp of {}", id);
                raised += u64::from(moves);
            }
            prop_assert_eq!(index.pushes - pushes, raised);
            let slots = &index.heap.slots;
            for i in 1..slots.len() {
                prop_assert!(slots[(i - 1) / 2] >= slots[i], "heap order at slot {}", i);
            }
        }
    }
}
