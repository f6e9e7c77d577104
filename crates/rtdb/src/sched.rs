//! The incremental scheduling core's acceleration state.
//!
//! The engine's hot loop — `pick_next` → `Policy::priority` →
//! `penalty_of_conflict` — used to rescan every transaction slot at every
//! scheduling point, giving O(active × P-list) set operations per event.
//! [`ConflictAccel`] makes the per-event cost proportional to *what
//! changed* instead:
//!
//! * an explicitly maintained, id-sorted **P-list** (the partially
//!   executed transactions) replaces the per-event scan of all slots;
//! * **per-item slot rows** evaluate the unsafe and conflict relations a
//!   whole set at a time. Every database item `i` owns two bit rows over
//!   transaction slots: `might[i]` (the slot's `might_access` holds `i`)
//!   and `write[i]` (the slot might write `i`). The transactions a
//!   partial `c` is unsafe with respect to are then the OR of `might[i]`
//!   over `c.written` and `write[i]` over `c.accessed` — one row per
//!   item, MPL/64 words each — instead of one pair test per candidate.
//!   The engine's clear-repair walk takes its victims from exactly this
//!   set.
//!
//! Correctness contract: every maintained answer is **bit-identical** to
//! a fresh recomputation. The engine's [`CacheMode::Verify`] mode asserts
//! this at every single use, and `tests/incremental_equivalence.rs`
//! drives it over randomized workloads.

use std::cell::Cell;

use rtx_preanalysis::sets::{DataSet, ItemId};

use crate::locks::LockMode;
use crate::txn::{is_unsafe_with, Transaction, TxnId};

/// How the engine evaluates priorities and conflict relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Use the maintained P-list, the per-item slot rows and the lazy
    /// priority indexes (the default; production path).
    #[default]
    Incremental,
    /// Recompute everything from scratch at every scheduling point — the
    /// pre-incremental reference engine. Used as the oracle in
    /// equivalence tests and as the "cold" side of benchmarks.
    AlwaysRecompute,
    /// Run incrementally but recompute fresh alongside every maintained
    /// answer and assert it: bit-identity for the P-list, the slot-row
    /// relations and every priority, the upper-bound contract for every
    /// index key. Slow; tests only.
    Verify,
}

/// Compact index of a live transaction's slot in the slot rows. Slots are
/// *recycled*: a departed transaction's slot is handed to a later
/// arrival, so the rows stay sized by the peak concurrent population
/// rather than the run's total transaction count. Holders map ids to
/// slots through [`ConflictAccel`]'s slot map, never by arithmetic on the
/// id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct TxnSlot(pub(crate) u32);

impl TxnSlot {
    /// Sentinel for "this transaction's slot was released" in the slot
    /// map (no run ever reaches 2^32 - 1 live slots).
    pub(crate) const RELEASED: TxnSlot = TxnSlot(u32::MAX);
}

/// Offset of `might[i]` within item `i`'s pair of rows.
const MIGHT: usize = 0;
/// Offset of `write[i]` within item `i`'s pair of rows.
const WRITE: usize = 1;

/// The word holding `slot`'s bit in a slot row, and the bit's mask.
#[inline]
fn bit(slot: TxnSlot) -> (usize, u64) {
    let s = slot.0 as usize;
    (s / 64, 1 << (s % 64))
}

/// Position in the row store of word `w` of item `item`'s row `kind`
/// (`MIGHT` or `WRITE`), at `words` words per row.
#[inline]
fn at(words: usize, item: ItemId, kind: usize, w: usize) -> usize {
    (2 * item.0 as usize + kind) * words + w
}

/// Call `f` with every item `t` might write — mode-aware like
/// [`Transaction::might_write_into`]: without lock modes every item of
/// `might_access` is written.
fn each_write(t: &Transaction, mut f: impl FnMut(ItemId)) {
    if t.modes.is_empty() {
        t.might_access.iter().for_each(f);
    } else {
        for (&item, &mode) in t.items.iter().zip(&t.modes) {
            if mode == LockMode::Exclusive && t.might_access.contains(item) {
                f(item);
            }
        }
    }
}

/// Incrementally maintained conflict state (see the module docs).
///
/// Owned by the engine; policies reach it read-only through
/// [`crate::policy::SystemView`]. All mutation goes through the engine's
/// state-transition bookkeeping, which is what makes the P-list and the
/// slot rows trustworthy.
pub struct ConflictAccel {
    /// Partially executed transactions, sorted by id (ascending). Because
    /// the engine's `active` list is always in arrival = id order, this
    /// reproduces the exact iteration order of the full-scan P-list.
    plist: Vec<TxnId>,
    pair_checks: Cell<u64>,
    /// Two bit rows per database item over slots, `words` words
    /// each: row `2i` is `might[i]`, row `2i + 1` is `write[i]` (see
    /// [`each_write`]). Only admitted transactions are indexed, so a set
    /// bit always names a live, admitted transaction.
    rows: Vec<u64>,
    /// Words per row: the slot high-water mark over 64, rounded up — the
    /// peak concurrent population, not the run's transaction count.
    words: usize,
    /// One row over slots: the P-list members.
    partial: Vec<u64>,
    /// Per slot: the `might_access` its bits in `rows` were set from
    /// (empty while unindexed), so a reindex clears exactly those bits.
    footprint: Vec<DataSet>,
    /// Per slot: the transaction holding it. Its length is the slot
    /// high-water mark.
    owner: Vec<TxnId>,
    /// Released slots awaiting reuse (last in, first out: the most
    /// recently touched slot is handed out first).
    free: Vec<u32>,
    /// Transaction id → slot. Ids are dense and never reused, so this is
    /// a push-only vector; slots of departed transactions are recycled
    /// through `free` and marked [`TxnSlot::RELEASED`] here.
    slot_map: Vec<TxnSlot>,
}

impl ConflictAccel {
    pub(crate) fn new(capacity: usize, db_size: usize) -> Self {
        ConflictAccel {
            plist: Vec::new(),
            pair_checks: Cell::new(0),
            rows: vec![0; 2 * db_size],
            words: 1,
            partial: vec![0],
            footprint: Vec::new(),
            owner: Vec::new(),
            free: Vec::new(),
            slot_map: Vec::with_capacity(capacity),
        }
    }

    /// Register a newly arrived transaction (ids are dense and arrive in
    /// order, so the slot-map entry is a push; the slot itself is a
    /// released one if any is free, else a new one past the high-water
    /// mark). The slot starts out unindexed.
    pub(crate) fn register(&mut self, id: TxnId) {
        debug_assert_eq!(id.0 as usize, self.slot_map.len());
        let slot = TxnSlot(self.free.pop().unwrap_or(self.owner.len() as u32));
        self.slot_map.push(slot);
        let s = slot.0 as usize;
        if s < self.owner.len() {
            self.owner[s] = id;
        } else {
            self.owner.push(id);
            self.footprint.push(DataSet::new());
            if s == self.words * 64 {
                self.widen();
            }
        }
    }

    /// Grow every slot row by one word: the high-water mark outgrew
    /// `words × 64` slots.
    fn widen(&mut self) {
        let (old, new) = (self.words, self.words + 1);
        let mut rows = vec![0; self.rows.len() / old * new];
        for (to, from) in rows.chunks_exact_mut(new).zip(self.rows.chunks_exact(old)) {
            to[..old].copy_from_slice(from);
        }
        self.rows = rows;
        self.words = new;
        self.partial.push(0);
    }

    /// `id` departed for good (commit or admission rejection): return its
    /// slot to the free list. Its bits must already be gone
    /// ([`Self::drop_index`]), or the slot's next owner would inherit
    /// them.
    pub(crate) fn release(&mut self, id: TxnId) {
        let slot = std::mem::replace(&mut self.slot_map[id.0 as usize], TxnSlot::RELEASED);
        debug_assert_ne!(slot, TxnSlot::RELEASED, "double release of {id}");
        let (w, m) = bit(slot);
        debug_assert!(
            self.footprint[slot.0 as usize].is_empty(),
            "{id}: released while indexed"
        );
        debug_assert_eq!(self.partial[w] & m, 0, "{id}: released on the P-list");
        self.free.push(slot.0);
    }

    /// Slot occupancy: (live slots, high-water mark). The mark tracks the
    /// peak concurrent population, not the run's transaction count.
    #[cfg(test)]
    pub(crate) fn slot_occupancy(&self) -> (usize, usize) {
        (self.owner.len() - self.free.len(), self.owner.len())
    }

    /// `id`'s slot; panics in debug builds if the slot was
    /// released (no scheduler path may touch a departed transaction).
    #[inline]
    fn slot_idx(&self, id: TxnId) -> TxnSlot {
        let slot = self.slot_map[id.0 as usize];
        debug_assert_ne!(slot, TxnSlot::RELEASED, "{id}: slot used after release");
        slot
    }

    /// (Re)index `t` in the slot rows under its current `might_access`:
    /// clear the bits of its previous footprint, then set `might[i]` for
    /// every item it might access and `write[i]` for every item it might
    /// write. Only *admitted* transactions may be indexed — the engine
    /// calls this on admission, decision narrowing and restart
    /// re-widening, and [`Self::drop_index`] on departure.
    pub(crate) fn reindex(&mut self, t: &Transaction) {
        let slot = self.slot_idx(t.id);
        self.unindex(slot);
        let (w, m) = bit(slot);
        let (words, rows) = (self.words, &mut self.rows);
        for i in t.might_access.iter() {
            rows[at(words, i, MIGHT, w)] |= m;
        }
        each_write(t, |i| rows[at(words, i, WRITE, w)] |= m);
        self.footprint[slot.0 as usize].union_with(&t.might_access);
    }

    /// Remove `id` from the slot rows (commit, or any other departure
    /// from the active set). Runs before [`Self::release`] recycles the
    /// slot.
    pub(crate) fn drop_index(&mut self, id: TxnId) {
        self.unindex(self.slot_idx(id));
    }

    fn unindex(&mut self, slot: TxnSlot) {
        let (w, m) = bit(slot);
        let footprint = &mut self.footprint[slot.0 as usize];
        for i in footprint.iter() {
            self.rows[at(self.words, i, MIGHT, w)] &= !m;
            self.rows[at(self.words, i, WRITE, w)] &= !m;
        }
        footprint.clear();
    }

    /// OR item `item`'s row `kind` into `set`.
    #[inline]
    fn or_row(&self, item: ItemId, kind: usize, set: &mut [u64]) {
        let start = at(self.words, item, kind, 0);
        for (s, r) in set.iter_mut().zip(&self.rows[start..start + self.words]) {
            *s |= r;
        }
    }

    /// Fill `set` with every indexed transaction other than `partial`
    /// itself that `partial` is unsafe with respect to — each `x` with
    /// [`is_unsafe_with`]`(partial, x)`: the OR of `might[i]` over
    /// `partial.written` and `write[i]` over `partial.accessed`.
    pub(crate) fn unsafe_set(&self, partial: &Transaction, set: &mut Vec<u64>) {
        set.clear();
        set.resize(self.words, 0);
        for i in partial.written.iter() {
            self.or_row(i, MIGHT, set);
        }
        for i in partial.accessed.iter() {
            self.or_row(i, WRITE, set);
        }
        let (w, m) = bit(self.slot_idx(partial.id));
        set[w] &= !m;
    }

    /// How many P-list members conflict with `candidate`
    /// (`conflicts_with`): the OR of `write[i]` over its `might_access`
    /// and `might[i]` over the items it might write, counted within the
    /// P-list row. `candidate` is an arrival, not on the P-list itself;
    /// `set` is scratch.
    pub(crate) fn partial_conflicts(&self, candidate: &Transaction, set: &mut Vec<u64>) -> usize {
        set.clear();
        set.resize(self.words, 0);
        for i in candidate.might_access.iter() {
            self.or_row(i, WRITE, set);
        }
        each_write(candidate, |i| self.or_row(i, MIGHT, set));
        set.iter()
            .zip(&self.partial)
            .map(|(s, p)| (s & p).count_ones() as usize)
            .sum()
    }

    /// The transactions in `set`, ascending by id. Slots are recycled
    /// last-in first-out, so slot order is not id order.
    pub(crate) fn ids(&self, set: &[u64], out: &mut Vec<TxnId>) {
        out.clear();
        for (w, &word) in set.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(self.owner[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        out.sort_unstable();
    }

    /// A lock grant grew `id`'s `accessed`/`written` sets. Joins the
    /// P-list on the first grant since (re)start.
    ///
    /// The growth may flip `is_unsafe(id, X)` for other transactions `X`,
    /// but that can only *lower* their `ConflictState` priorities (the
    /// penalty gains nonnegative terms), so nothing is walked for them:
    /// the engine's lazy heap tolerates stale-high keys and revalidates
    /// on pop. Only clears — which *raise* priorities — get an eager walk
    /// (see [`Self::note_sets_cleared`]).
    pub(crate) fn note_access_growth(&mut self, id: TxnId, was_partial: bool) {
        if !was_partial {
            let slot = self.slot_idx(id);
            let pos = self.plist.binary_search(&id).unwrap_err();
            self.plist.insert(pos, id);
            let (w, m) = bit(slot);
            self.partial[w] |= m;
        }
    }

    /// `id`'s access sets were cleared (abort/restart or commit) and — on
    /// restart with a decision point — `might_access` was re-widened. The
    /// transaction leaves the P-list.
    ///
    /// The engine performs its clear-repair walk *before* this call,
    /// while `id`'s sets still describe the contribution being removed.
    pub(crate) fn note_sets_cleared(&mut self, id: TxnId) {
        let slot = self.slot_idx(id);
        let pos = self
            .plist
            .binary_search(&id)
            .expect("cleared transaction held locks, so it was on the P-list");
        self.plist.remove(pos);
        let (w, m) = bit(slot);
        self.partial[w] &= !m;
    }

    /// The maintained P-list, ascending by id.
    pub(crate) fn plist(&self) -> &[TxnId] {
        &self.plist
    }

    pub(crate) fn plist_len(&self) -> usize {
        self.plist.len()
    }

    /// `is_unsafe_with(partial, candidate)` (directional), counted in
    /// `pair_checks`.
    pub(crate) fn is_unsafe(&self, partial: &Transaction, candidate: &Transaction) -> bool {
        self.pair_checks.set(self.pair_checks.get() + 1);
        is_unsafe_with(partial, candidate)
    }

    /// Symmetric `a.conflicts_with(b)`, counted in `pair_checks`.
    pub(crate) fn conflicts(&self, a: &Transaction, b: &Transaction) -> bool {
        self.pair_checks.set(self.pair_checks.get() + 1);
        a.conflicts_with(b)
    }

    pub(crate) fn pair_checks(&self) -> u64 {
        self.pair_checks.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{Stage, TxnState};
    use proptest::prelude::*;
    use rtx_preanalysis::sets::DataSet;
    use rtx_preanalysis::table::TypeId;
    use rtx_preanalysis::ItemId;
    use rtx_sim::time::{SimDuration, SimTime};

    fn mk(id: u32, might: &[u32]) -> Transaction {
        Transaction {
            id: TxnId(id),
            ty: TypeId(0),
            arrival: SimTime::ZERO,
            deadline: SimTime::from_ms(100.0),
            resource_time: SimDuration::from_ms(80.0),
            items: might.iter().map(|&i| ItemId(i)).collect(),
            io_pattern: vec![],
            modes: Vec::new(),
            update_time: SimDuration::from_ms(4.0),
            might_access: might.iter().map(|&i| ItemId(i)).collect(),
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

    /// The transactions `partial` is unsafe with respect to, from the
    /// slot rows.
    fn unsafe_ids(a: &ConflictAccel, partial: &Transaction) -> Vec<TxnId> {
        let (mut set, mut out) = (Vec::new(), Vec::new());
        a.unsafe_set(partial, &mut set);
        a.ids(&set, &mut out);
        out
    }

    /// Grant `t` a lock on `item`, as the engine's lock path does.
    fn grant(a: &mut ConflictAccel, t: &mut Transaction, item: u32, write: bool) {
        let was_partial = !t.accessed.is_empty();
        t.accessed.insert(ItemId(item));
        if write {
            t.written.insert(ItemId(item));
        }
        a.note_access_growth(t.id, was_partial);
    }

    #[test]
    fn plist_stays_sorted() {
        let mut a = ConflictAccel::new(4, 64);
        for i in 0..4 {
            a.register(TxnId(i));
        }
        a.note_access_growth(TxnId(2), false);
        a.note_access_growth(TxnId(0), false);
        a.note_access_growth(TxnId(3), false);
        assert_eq!(a.plist(), &[TxnId(0), TxnId(2), TxnId(3)]);
        a.note_sets_cleared(TxnId(2));
        assert_eq!(a.plist(), &[TxnId(0), TxnId(3)]);
        assert_eq!(a.plist_len(), 2);
    }

    #[test]
    fn growth_of_a_partial_does_not_duplicate() {
        let mut a = ConflictAccel::new(2, 64);
        a.register(TxnId(0));
        a.note_access_growth(TxnId(0), false);
        a.note_access_growth(TxnId(0), true);
        assert_eq!(a.plist(), &[TxnId(0)]);
    }

    #[test]
    fn unsafe_set_follows_access_growth() {
        let mut a = ConflictAccel::new(2, 64);
        let mut partial = mk(0, &[1, 2]);
        let candidate = mk(1, &[1, 9]);
        for t in [&partial, &candidate] {
            a.register(t.id);
            a.reindex(t);
        }
        // Nothing accessed yet: unsafe w.r.t. nobody.
        assert!(unsafe_ids(&a, &partial).is_empty());
        // A read of item 2 touches nothing the candidate might write.
        grant(&mut a, &mut partial, 2, false);
        assert!(unsafe_ids(&a, &partial).is_empty());
        // Writing item 1 makes the partial unsafe w.r.t. the candidate,
        // never w.r.t. itself.
        grant(&mut a, &mut partial, 1, true);
        assert_eq!(unsafe_ids(&a, &partial), vec![TxnId(1)]);
        assert!(a.is_unsafe(&partial, &candidate));
        assert_eq!(a.pair_checks(), 1, "only pair tests are counted");
    }

    #[test]
    fn unsafe_set_follows_narrowing_and_rewidening() {
        let mut a = ConflictAccel::new(2, 64);
        let mut partial = mk(0, &[1, 2]);
        let mut candidate = mk(1, &[2, 3]);
        let full = candidate.might_access.clone();
        let mut probe = Vec::new();
        for t in [&partial, &candidate] {
            a.register(t.id);
            a.reindex(t);
        }
        grant(&mut a, &mut partial, 2, true);
        assert_eq!(unsafe_ids(&a, &partial), vec![TxnId(1)]);
        assert_eq!(a.partial_conflicts(&mk(2, &[2]), &mut probe), 1);
        // The candidate narrows away from the overlap: out of the set.
        candidate.might_access = DataSet::from_items([ItemId(3)]);
        a.reindex(&candidate);
        assert!(unsafe_ids(&a, &partial).is_empty());
        // A restart re-widens it: back in.
        candidate.might_access = full;
        a.reindex(&candidate);
        assert_eq!(unsafe_ids(&a, &partial), vec![TxnId(1)]);
        // The partial's own clear empties its unsafe set and takes it off
        // the P-list row.
        a.note_sets_cleared(partial.id);
        partial.accessed.clear();
        partial.written.clear();
        assert!(unsafe_ids(&a, &partial).is_empty());
        assert_eq!(a.partial_conflicts(&mk(2, &[2]), &mut probe), 0);
    }

    #[test]
    fn released_slots_recycle_through_the_accel() {
        let mut a = ConflictAccel::new(4, 64);
        // A departing wave of transactions keeps the slots at the peak
        // *concurrent* population, not the total registered count.
        for i in 0..100u32 {
            a.register(TxnId(i));
            a.note_access_growth(TxnId(i), false);
            let (live, high) = a.slot_occupancy();
            assert_eq!(live, 2.min(i as usize + 1));
            assert!(high <= 2, "slots grew past the concurrent peak: {high}");
            if i > 0 {
                a.note_sets_cleared(TxnId(i - 1));
                a.release(TxnId(i - 1));
            }
        }
        // Released slots are reused last in, first out, and the high-water
        // mark grows only once the free list is empty.
        let mut a = ConflictAccel::new(4, 64);
        for i in 0..3 {
            a.register(TxnId(i));
        }
        assert_eq!(a.slot_occupancy(), (3, 3));
        a.release(TxnId(0));
        a.release(TxnId(1));
        assert_eq!(a.slot_occupancy(), (1, 3));
        a.register(TxnId(3));
        a.register(TxnId(4));
        assert_eq!(a.slot_idx(TxnId(3)), TxnSlot(1));
        assert_eq!(a.slot_idx(TxnId(4)), TxnSlot(0));
        assert_eq!(a.slot_idx(TxnId(2)), TxnSlot(2));
        assert_eq!(a.slot_occupancy(), (3, 3));
        a.register(TxnId(5));
        assert_eq!(a.slot_idx(TxnId(5)), TxnSlot(3));
        assert_eq!(a.slot_occupancy(), (4, 4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot used after release")]
    fn released_slot_access_is_caught_in_debug() {
        let mut a = ConflictAccel::new(2, 64);
        a.register(TxnId(0));
        a.release(TxnId(0));
        a.drop_index(TxnId(0));
    }

    #[test]
    fn slot_rows_track_footprints() {
        let mut a = ConflictAccel::new(3, 64);
        let mut t = [mk(0, &[1, 2]), mk(1, &[2, 3]), mk(2, &[9])];
        for x in &t {
            a.register(x.id);
            a.reindex(x);
        }
        // A writer of items 1, 2, 3 and 9 is unsafe w.r.t. everyone who
        // might access one of them.
        let mut writer = mk(3, &[1, 2, 3, 9]);
        a.register(writer.id);
        a.reindex(&writer);
        for i in [1, 2, 3, 9] {
            grant(&mut a, &mut writer, i, true);
        }
        assert_eq!(unsafe_ids(&a, &writer), vec![TxnId(0), TxnId(1), TxnId(2)]);
        // Narrowing away from item 2 drops that membership only.
        t[0].might_access = DataSet::from_items([ItemId(1)]);
        a.reindex(&t[0]);
        let mut reader = mk(4, &[2, 9]);
        a.register(reader.id);
        a.reindex(&reader);
        grant(&mut a, &mut reader, 2, true);
        grant(&mut a, &mut reader, 9, true);
        assert_eq!(unsafe_ids(&a, &reader), vec![TxnId(1), TxnId(2), TxnId(3)]);
        // Departure empties every row the transaction was in, and its
        // recycled slot starts out of all of them.
        a.drop_index(TxnId(1));
        a.release(TxnId(1));
        assert_eq!(unsafe_ids(&a, &reader), vec![TxnId(2), TxnId(3)]);
        a.register(TxnId(5));
        assert_eq!(unsafe_ids(&a, &writer), vec![TxnId(0), TxnId(2), TxnId(4)]);
        // Mode-aware write rows: a shared-mode reader of item 1 is unsafe
        // only w.r.t. a partial that *wrote* item 1, not one that read it.
        let mut shared = mk(5, &[1]);
        shared.modes = vec![LockMode::Shared];
        a.reindex(&shared);
        let mut read_one = mk(6, &[1]);
        a.register(read_one.id);
        grant(&mut a, &mut read_one, 1, false);
        assert!(!unsafe_ids(&a, &read_one).contains(&TxnId(5)));
        assert!(unsafe_ids(&a, &writer).contains(&TxnId(5)));
    }

    /// One step of a random accel history (see the proptest below).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Register an arrival built from the seed; admit (index) it or
        /// reject it (release it unindexed).
        Arrive(u64, bool),
        /// Grant the picked live transaction its next lock.
        Grow(usize),
        /// Execute the picked transaction's decision point.
        Narrow(usize),
        /// Abort and restart the picked transaction (clear, re-widen).
        Restart(usize),
        /// Commit the picked transaction (clear, drop, release).
        Commit(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, any::<u64>()).prop_map(|(kind, seed)| {
            let pick = seed as usize;
            match kind {
                0..=2 => Op::Arrive(seed, seed % 4 != 0),
                3..=5 => Op::Grow(pick),
                6 => Op::Narrow(pick),
                7 => Op::Restart(pick),
                _ => Op::Commit(pick),
            }
        })
    }

    /// A transaction over a 12-item database drawn from `seed`: 1–5
    /// items, random lock modes (or none, the paper's write-only model),
    /// and sometimes a decision point narrowing to the first half.
    fn arrival(id: u32, mut seed: u64) -> Transaction {
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        let len = 1 + next(5) as usize;
        let items: Vec<u32> = (0..len).map(|_| next(12) as u32).collect();
        let mut t = mk(id, &items);
        if next(2) == 0 {
            t.modes = (0..len)
                .map(|_| {
                    if next(2) == 0 {
                        LockMode::Shared
                    } else {
                        LockMode::Exclusive
                    }
                })
                .collect();
        }
        if next(3) == 0 {
            t.decision = Some(crate::txn::DecisionSpec {
                after_update: 0,
                full: t.might_access.clone(),
                narrowed: t.items[..len.div_ceil(2)].iter().copied().collect(),
            });
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Over random register / reindex / grow / narrow / clear /
        /// release histories with random lock modes, the slot rows give
        /// every partial's unsafe set exactly as a scan of
        /// `is_unsafe_with` does, ascending by id, and the admission
        /// count exactly as a scan of `conflicts_with` over the P-list —
        /// across recycled slots whose order differs from id order, and
        /// across row widening past 64 slots.
        #[test]
        fn slot_rows_match_pair_scans(
            prefill in 0usize..160,
            ops in proptest::collection::vec(op(), 1..300),
        ) {
            let mut a = ConflictAccel::new(0, 12);
            let mut txns: Vec<Transaction> = Vec::new();
            let mut live: Vec<TxnId> = Vec::new();
            let mut probe = Vec::new();
            let arrivals = (0..prefill).map(|i| Op::Arrive(i as u64, true));
            for op in arrivals.chain(ops) {
                let pick = |k: usize| (!live.is_empty()).then(|| live[k % live.len()]);
                match op {
                    Op::Arrive(seed, admit) => {
                        let t = arrival(txns.len() as u32, seed);
                        a.register(t.id);
                        if admit {
                            a.reindex(&t);
                            live.push(t.id);
                        } else {
                            a.release(t.id);
                        }
                        txns.push(t);
                    }
                    Op::Grow(k) => if let Some(id) = pick(k) {
                        let t = &mut txns[id.0 as usize];
                        if t.progress < t.items.len() {
                            let was_partial = t.is_partially_executed();
                            let item = t.items[t.progress];
                            t.accessed.insert(item);
                            if t.current_mode() == LockMode::Exclusive {
                                t.written.insert(item);
                            }
                            t.progress += 1;
                            a.note_access_growth(id, was_partial);
                        }
                    },
                    Op::Narrow(k) => if let Some(id) = pick(k) {
                        let t = &mut txns[id.0 as usize];
                        if let Some(d) = &t.decision {
                            t.might_access = d.narrowed.union(&t.accessed);
                            a.reindex(t);
                        }
                    },
                    Op::Restart(k) => if let Some(id) = pick(k) {
                        let t = &mut txns[id.0 as usize];
                        if t.is_partially_executed() {
                            a.note_sets_cleared(id);
                        }
                        t.reset_for_restart();
                        a.reindex(t);
                    },
                    Op::Commit(k) => if let Some(id) = pick(k) {
                        let t = &mut txns[id.0 as usize];
                        if t.is_partially_executed() {
                            a.note_sets_cleared(id);
                        }
                        t.state = TxnState::Committed;
                        a.drop_index(id);
                        a.release(id);
                        live.retain(|&x| x != id);
                    },
                }
                live.sort_unstable();
                for &p in &live {
                    let partial = &txns[p.0 as usize];
                    if !partial.is_partially_executed() {
                        continue;
                    }
                    let scan: Vec<TxnId> = live
                        .iter()
                        .copied()
                        .filter(|&x| x != p && is_unsafe_with(partial, &txns[x.0 as usize]))
                        .collect();
                    prop_assert_eq!(unsafe_ids(&a, partial), scan);
                }
                let newcomer = arrival(u32::MAX, txns.len() as u64);
                let scanned = live
                    .iter()
                    .map(|&x| &txns[x.0 as usize])
                    .filter(|x| x.is_partially_executed() && newcomer.conflicts_with(x))
                    .count();
                prop_assert_eq!(a.partial_conflicts(&newcomer, &mut probe), scanned);
            }
        }
    }
}
