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
//! * a **pairwise conflict cache** (direct-mapped, lossy) memoizes the
//!   static `conflicts_with` test and the dynamic `is_unsafe_with` test,
//!   gated by per-transaction version counters so a pair is only
//!   re-examined after one side's access sets actually changed;
//! * a **per-transaction pair stamp** records, for every transaction,
//!   the last time the set of partially executed transactions unsafe with
//!   respect to *it* changed. A conflict event at transaction `C`
//!   (lock-grant growth, abort/commit set clearing, decision narrowing)
//!   bumps only the stamps of the transactions whose relation to `C`
//!   actually moved, so the engine's priority cache invalidates exactly
//!   those [`crate::policy::PriorityDeps::ConflictState`] entries instead
//!   of epoch-flushing every one of them.
//!
//! Correctness contract: every cached answer is **bit-identical** to a
//! fresh recomputation. The engine's [`CacheMode::Verify`] mode asserts
//! this at every single use, and `tests/incremental_equivalence.rs`
//! drives it over randomized workloads.

use std::cell::Cell;

use rtx_preanalysis::sets::DataSet;
use rtx_sim::time::SimTime;

use crate::arena::{SchedArena, SlotState, TxnSlot};
use crate::policy::Priority;
use crate::txn::{is_unsafe_with, Transaction, TxnId};

/// How the engine evaluates priorities and conflict relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Use the maintained P-list, the pairwise conflict cache and the
    /// epoch-invalidated priority cache (the default; production path).
    #[default]
    Incremental,
    /// Recompute everything from scratch at every scheduling point — the
    /// pre-incremental reference engine. Used as the oracle in
    /// equivalence tests and as the "cold" side of benchmarks.
    AlwaysRecompute,
    /// Run incrementally but recompute fresh alongside every cache read
    /// and assert bit-identity. Slow; tests only.
    Verify,
}

/// splitmix64 finalizer: a deterministic full-avalanche mix for packed
/// `u64` pair keys, fixed across platforms so runs stay reproducible.
#[inline]
fn mix64(n: u64) -> u64 {
    let mut z = n;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One memoized pair verdict, tagged with the pair key it belongs to and
/// the version counters of the inputs it was computed from.
#[derive(Clone, Copy)]
struct PairSlot {
    key: u64,
    versions: (u64, u64),
    result: bool,
}

impl PairSlot {
    /// No transaction ever gets id `u32::MAX` (ids are dense from 0), so
    /// this key matches no real pair.
    const EMPTY: PairSlot = PairSlot {
        key: u64::MAX,
        versions: (0, 0),
        result: false,
    };
}

/// Smallest pair-cache size: 2^13 = 8192 slots × 32 B = 256 KiB per
/// cache — the original fixed table, still right for small MPLs.
const PAIR_CACHE_MIN_BITS: u32 = 13;

/// Largest pair-cache size: 2^18 slots × 32 B = 8 MiB per cache. Beyond
/// this the table stops being cache-resident and bigger only buys
/// compulsory misses.
const PAIR_CACHE_MAX_BITS: u32 = 18;

/// Two-way (primary + victim slot), lossy pair-verdict cache, sized by
/// MPL.
///
/// Each packed pair key hashes to a primary slot `s`; its victim way is
/// the adjacent slot `s ^ 1`, so both ways share one 64-byte cache line.
/// A colliding pair displaces the primary occupant into the victim way
/// instead of dropping it, which halves thrash between two hot pairs
/// that hash together. Losing an entry only costs a recomputation —
/// verdicts are pure functions of the two transactions' sets, so a
/// lossy cache cannot change results, only hit rates. Compared to a
/// `HashMap` memo this removes probe chains, occupancy bookkeeping and
/// insertion rehashing from the innermost loop — which matters precisely
/// in high-contention bursts, where version churn drives the hit rate
/// toward zero and every check would otherwise pay full map overhead for
/// nothing. `Cell` slots keep lookups `&self` without `RefCell` traffic.
///
/// The slot count is the next power of two covering a `4 × MPL²` pair
/// budget, clamped to `[2^13, 2^18]`: the hot working set is
/// partials × candidates, which grows quadratically with MPL, and the
/// fixed 8192-slot table was the dominant eviction source at MPL 1024
/// (~2.1 M evictions per burst run).
struct PairCache {
    slots: Box<[Cell<PairSlot>]>,
    /// `64 - log2(slot count)`: `slot_of` takes the top bits of the
    /// mixed key.
    shift: u32,
    /// Times `put` dropped a live entry for a *different* pair from the
    /// cache entirely (displaced out of the victim way) — the collision/
    /// thrash signal. Refreshing a slot that already holds the same pair
    /// (version churn) is not an eviction, and neither is the
    /// primary→victim displacement itself.
    evictions: Cell<u64>,
    /// Victim-way lookups performed after a primary-slot key miss.
    probes: Cell<u64>,
}

impl PairCache {
    fn with_bits(bits: u32) -> Self {
        debug_assert!((1..=63).contains(&bits));
        PairCache {
            slots: vec![Cell::new(PairSlot::EMPTY); 1 << bits].into_boxed_slice(),
            shift: 64 - bits,
            evictions: Cell::new(0),
            probes: Cell::new(0),
        }
    }

    /// Slot-count bits for a run admitting at most `capacity` concurrent
    /// transactions: next power of two ≥ the `4 × capacity²` pair
    /// budget, clamped to `[PAIR_CACHE_MIN_BITS, PAIR_CACHE_MAX_BITS]`.
    fn bits_for_capacity(capacity: usize) -> u32 {
        let budget = capacity
            .saturating_mul(capacity)
            .saturating_mul(4)
            .max(1)
            .next_power_of_two();
        budget
            .trailing_zeros()
            .clamp(PAIR_CACHE_MIN_BITS, PAIR_CACHE_MAX_BITS)
    }

    fn sized_for(capacity: usize) -> Self {
        Self::with_bits(Self::bits_for_capacity(capacity))
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (mix64(key) >> self.shift) as usize
    }

    #[inline]
    fn get(&self, key: u64, versions: (u64, u64)) -> Option<bool> {
        let s = self.slot_of(key);
        let a = self.slots[s].get();
        if a.key == key {
            return (a.versions == versions).then_some(a.result);
        }
        // Primary way holds a different pair: probe the victim way.
        self.probes.set(self.probes.get() + 1);
        let b = self.slots[s ^ 1].get();
        (b.key == key && b.versions == versions).then_some(b.result)
    }

    #[inline]
    fn put(&self, key: u64, versions: (u64, u64), result: bool) {
        let fresh = PairSlot {
            key,
            versions,
            result,
        };
        let s = self.slot_of(key);
        let primary = &self.slots[s];
        if primary.get().key == key {
            primary.set(fresh);
            return;
        }
        let victim = &self.slots[s ^ 1];
        if victim.get().key == key {
            victim.set(fresh);
            return;
        }
        if primary.get().key == u64::MAX {
            primary.set(fresh);
            return;
        }
        // Displace the primary occupant into the victim way; whatever
        // lived there leaves the cache.
        let dropped = victim.get().key;
        victim.set(primary.get());
        primary.set(fresh);
        if dropped != u64::MAX {
            self.evictions.set(self.evictions.get() + 1);
        }
    }

    fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    fn probes(&self) -> u64 {
        self.probes.get()
    }
}

#[inline]
fn pair_key(a: TxnId, b: TxnId) -> u64 {
    (u64::from(a.0) << 32) | u64::from(b.0)
}

/// Incrementally maintained conflict state (see the module docs).
///
/// Owned by the engine; policies reach it read-only through
/// [`crate::policy::SystemView`]. All mutation goes through the engine's
/// state-transition bookkeeping, which is what makes the version/epoch
/// stamps trustworthy.
pub struct ConflictAccel {
    /// Partially executed transactions, sorted by id (ascending). Because
    /// the engine's `active` list is always in arrival = id order, this
    /// reproduces the exact iteration order of the full-scan P-list.
    plist: Vec<TxnId>,
    /// Dense per-transaction hot state: the version counters gating the
    /// pair caches (`might_version`, `access_version`, `own_version`),
    /// the per-transaction conflict stamp (`pair_stamp` — bumped by the
    /// engine's targeted walks via [`Self::bump_pair_stamp`] for exactly
    /// the transactions whose unsafe-partial set changed), and the
    /// engine's cached priority with its validity stamps — one 64-byte
    /// [`SlotState`] line per transaction instead of five scattered
    /// vectors.
    arena: SchedArena,
    /// Total pair-stamp bumps (targeted invalidations) performed.
    pair_invalidations: Cell<u64>,
    static_pairs: PairCache,
    unsafe_pairs: PairCache,
    pair_checks: Cell<u64>,
    pair_cache_hits: Cell<u64>,
    /// Item → admitted transactions whose `might_access` contains the
    /// item, each list ascending by id. Because `accessed ⊆ might_access`
    /// (decision narrowing keeps the already-taken prefix) this is a
    /// reverse index over *every* set the pair predicates read, so any
    /// pair with a true `conflicts_with`/`is_unsafe_with` verdict shares
    /// at least one list.
    item_txns: Vec<Vec<TxnId>>,
    /// Per-transaction snapshot of the footprint currently registered in
    /// `item_txns`, diffed on reindex so membership updates touch only
    /// the items that changed.
    indexed_items: Vec<DataSet>,
    /// Transaction id → arena slot. Ids are dense and never reused, so
    /// this is a push-only vector; slots of departed transactions are
    /// recycled through the arena's free list and marked
    /// [`TxnSlot::RELEASED`] here.
    slot_map: Vec<TxnSlot>,
}

impl ConflictAccel {
    pub(crate) fn new(capacity: usize, db_size: usize) -> Self {
        ConflictAccel {
            plist: Vec::new(),
            arena: SchedArena::with_capacity(capacity),
            pair_invalidations: Cell::new(0),
            static_pairs: PairCache::sized_for(capacity),
            unsafe_pairs: PairCache::sized_for(capacity),
            pair_checks: Cell::new(0),
            pair_cache_hits: Cell::new(0),
            item_txns: vec![Vec::new(); db_size],
            indexed_items: Vec::with_capacity(capacity),
            slot_map: Vec::with_capacity(capacity),
        }
    }

    /// Register a newly arrived transaction (ids are dense and arrive in
    /// order, so the slot-map entry is a push; the arena slot itself may
    /// be a recycled one).
    pub(crate) fn register(&mut self, id: TxnId) {
        debug_assert_eq!(id.0 as usize, self.slot_map.len());
        let slot = self.arena.register();
        self.slot_map.push(slot);
        self.indexed_items.push(DataSet::new());
    }

    /// `id` departed for good (commit or admission rejection): return its
    /// arena slot to the free list. The id's pair-cache entries need no
    /// sweep — ids are never reused, so those keys can never be probed
    /// again.
    pub(crate) fn release(&mut self, id: TxnId) {
        let slot = std::mem::replace(&mut self.slot_map[id.0 as usize], TxnSlot::RELEASED);
        debug_assert_ne!(slot, TxnSlot::RELEASED, "double release of {id}");
        self.arena.release(slot);
    }

    /// Arena occupancy: (live slots, high-water mark). The mark tracks
    /// the peak concurrent population, not the run's transaction count.
    #[cfg(test)]
    pub(crate) fn arena_occupancy(&self) -> (usize, usize) {
        (self.arena.live(), self.arena.len())
    }

    /// `id`'s arena slot; panics in debug builds if the slot was
    /// released (no scheduler path may touch a departed transaction).
    #[inline]
    fn slot_idx(&self, id: TxnId) -> TxnSlot {
        let slot = self.slot_map[id.0 as usize];
        debug_assert_ne!(slot, TxnSlot::RELEASED, "{id}: slot used after release");
        slot
    }

    /// (Re)register `id` in the item→transaction reverse index under
    /// `footprint` (its current `might_access`). Diffs against the
    /// previous footprint so only changed items' lists move. Only
    /// *admitted* transactions may be indexed — the engine calls this on
    /// admission, decision narrowing and restart re-widening, and
    /// [`Self::drop_index`] on departure.
    pub(crate) fn reindex(&mut self, id: TxnId, footprint: &DataSet) {
        let slot = id.0 as usize;
        let old = std::mem::take(&mut self.indexed_items[slot]);
        for item in old.iter() {
            if !footprint.contains(item) {
                let list = &mut self.item_txns[item.0 as usize];
                let pos = list
                    .binary_search(&id)
                    .expect("indexed item lists mirror the stored footprint");
                list.remove(pos);
            }
        }
        for item in footprint.iter() {
            if !old.contains(item) {
                let list = &mut self.item_txns[item.0 as usize];
                if let Err(pos) = list.binary_search(&id) {
                    list.insert(pos, id);
                }
            }
        }
        self.indexed_items[slot] = footprint.clone();
    }

    /// Remove `id` from the reverse index (commit, or any other
    /// departure from the active set).
    pub(crate) fn drop_index(&mut self, id: TxnId) {
        let slot = id.0 as usize;
        let old = std::mem::take(&mut self.indexed_items[slot]);
        for item in old.iter() {
            let list = &mut self.item_txns[item.0 as usize];
            let pos = list
                .binary_search(&id)
                .expect("indexed item lists mirror the stored footprint");
            list.remove(pos);
        }
    }

    /// Collect into `out` every indexed transaction whose registered
    /// footprint intersects `items`, ascending by id. This is a sound
    /// superset of the transactions that can hold a true
    /// `conflicts_with` or (either-direction) `is_unsafe_with` verdict
    /// against a transaction whose sets are covered by `items`: both
    /// predicates require a shared item between one side's
    /// `accessed`/`written`/`might_access` and the other's, and every
    /// such set is a subset of the registered `might_access`.
    pub(crate) fn sharers(&self, items: &DataSet, out: &mut Vec<TxnId>) {
        out.clear();
        for item in items.iter() {
            if let Some(list) = self.item_txns.get(item.0 as usize) {
                out.extend_from_slice(list);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// One cache-line copy of `id`'s hot scheduler state (versions,
    /// conflict stamp, cached priority).
    #[inline]
    pub(crate) fn slot(&self, id: TxnId) -> SlotState {
        self.arena.get(self.slot_idx(id))
    }

    /// Cache `value` as `id`'s priority, stamped with the slot's
    /// *current* versions (callers evaluate the policy and write in the
    /// same event, with no version bump in between).
    #[inline]
    pub(crate) fn write_pri(&self, id: TxnId, value: Priority, at: SimTime) {
        self.arena.update(self.slot_idx(id), |s| {
            s.pri_value = value;
            s.pri_at = at;
            s.pri_stamp = s.pair_stamp;
            s.pri_own = s.own_version;
        });
    }

    /// The conflict stamp of `id` — the per-transaction replacement for
    /// the old global conflict epoch. Part of the priority-cache key for
    /// `ConflictState` policies.
    #[cfg(test)]
    pub(crate) fn pair_stamp(&self, id: TxnId) -> u64 {
        self.arena.get(self.slot_idx(id)).pair_stamp
    }

    /// The unsafe-partial set of `id` changed: invalidate its cached
    /// `ConflictState` priority (and only its).
    pub(crate) fn bump_pair_stamp(&mut self, id: TxnId) {
        self.arena.update(self.slot_idx(id), |s| s.pair_stamp += 1);
        self.pair_invalidations
            .set(self.pair_invalidations.get() + 1);
    }

    pub(crate) fn bump_own(&mut self, id: TxnId) {
        self.arena.update(self.slot_idx(id), |s| s.own_version += 1);
    }

    /// A lock grant grew `id`'s `accessed`/`written` sets. Joins the
    /// P-list on the first grant since (re)start.
    ///
    /// The growth may flip `is_unsafe(id, X)` for other transactions `X`,
    /// but that can only *lower* their `ConflictState` priorities (the
    /// penalty gains nonnegative terms), so no stamps are bumped for
    /// them: the engine's lazy heap tolerates stale-high cached values
    /// and revalidates on pop. Only clears — which *raise* priorities —
    /// get an eager walk (see [`Self::note_sets_cleared`]).
    pub(crate) fn note_access_growth(&mut self, id: TxnId, was_partial: bool) {
        self.arena.update(self.slot_idx(id), |s| {
            s.access_version += 1;
            s.own_version += 1;
        });
        if !was_partial {
            let pos = self.plist.binary_search(&id).unwrap_err();
            self.plist.insert(pos, id);
        }
    }

    /// `id`'s access sets were cleared (abort/restart or commit) and — on
    /// restart with a decision point — `might_access` was re-widened. The
    /// transaction leaves the P-list.
    ///
    /// The engine performs the targeted pair-stamp walk *before* this
    /// call, while `id`'s sets (and the memoized verdicts keyed on their
    /// versions) still describe the contribution being removed.
    pub(crate) fn note_sets_cleared(&mut self, id: TxnId) {
        self.arena.update(self.slot_idx(id), |s| {
            s.access_version += 1;
            s.might_version += 1;
            s.own_version += 1;
        });
        let pos = self
            .plist
            .binary_search(&id)
            .expect("cleared transaction held locks, so it was on the P-list");
        self.plist.remove(pos);
    }

    /// `id` executed its decision point, narrowing `might_access`.
    ///
    /// A narrowing changes only how *other* partials relate to `id` as a
    /// candidate (`is_unsafe` reads the partial's `accessed`/`written`
    /// against the candidate's `might_access`), so the only
    /// `ConflictState` priority it can move is `id`'s own: one stamp
    /// bump, no walk.
    pub(crate) fn note_narrowed(&mut self, id: TxnId) {
        self.arena
            .update(self.slot_idx(id), |s| s.might_version += 1);
        self.bump_pair_stamp(id);
    }

    /// The maintained P-list, ascending by id.
    pub(crate) fn plist(&self) -> &[TxnId] {
        &self.plist
    }

    pub(crate) fn plist_len(&self) -> usize {
        self.plist.len()
    }

    /// Memoized `is_unsafe_with(partial, candidate)` (directional), valid
    /// while `partial`'s access sets and `candidate`'s `might_access` are
    /// unchanged.
    pub(crate) fn is_unsafe(&self, partial: &Transaction, candidate: &Transaction) -> bool {
        self.pair_checks.set(self.pair_checks.get() + 1);
        let versions = (
            self.arena.get(self.slot_idx(partial.id)).access_version,
            self.arena.get(self.slot_idx(candidate.id)).might_version,
        );
        let key = pair_key(partial.id, candidate.id);
        if let Some(result) = self.unsafe_pairs.get(key, versions) {
            self.pair_cache_hits.set(self.pair_cache_hits.get() + 1);
            return result;
        }
        let result = is_unsafe_with(partial, candidate);
        self.unsafe_pairs.put(key, versions, result);
        result
    }

    /// Memoized symmetric `a.conflicts_with(b)`, valid while both sides'
    /// `might_access` sets are unchanged.
    pub(crate) fn conflicts(&self, a: &Transaction, b: &Transaction) -> bool {
        self.pair_checks.set(self.pair_checks.get() + 1);
        let (lo, hi) = if a.id <= b.id { (a, b) } else { (b, a) };
        let versions = (
            self.arena.get(self.slot_idx(lo.id)).might_version,
            self.arena.get(self.slot_idx(hi.id)).might_version,
        );
        let key = pair_key(lo.id, hi.id);
        if let Some(result) = self.static_pairs.get(key, versions) {
            self.pair_cache_hits.set(self.pair_cache_hits.get() + 1);
            return result;
        }
        let result = lo.conflicts_with(hi);
        self.static_pairs.put(key, versions, result);
        result
    }

    pub(crate) fn pair_checks(&self) -> u64 {
        self.pair_checks.get()
    }

    pub(crate) fn pair_cache_hits(&self) -> u64 {
        self.pair_cache_hits.get()
    }

    pub(crate) fn pair_invalidations(&self) -> u64 {
        self.pair_invalidations.get()
    }

    /// Live entries dropped from the two pair caches by colliding pairs
    /// (thrash signal; see [`PairCache`]).
    pub(crate) fn pair_cache_evictions(&self) -> u64 {
        self.static_pairs.evictions() + self.unsafe_pairs.evictions()
    }

    /// Victim-way lookups performed by the two pair caches after a
    /// primary-slot miss (see [`PairCache`]).
    pub(crate) fn pair_cache_probes(&self) -> u64 {
        self.static_pairs.probes() + self.unsafe_pairs.probes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{Stage, TxnState};
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
    fn unsafe_cache_invalidates_on_version_bump() {
        let mut a = ConflictAccel::new(2, 64);
        a.register(TxnId(0));
        a.register(TxnId(1));
        let mut partial = mk(0, &[1, 2]);
        let candidate = mk(1, &[1, 9]);
        // No overlap with accessed yet → safe; the verdict is cached.
        assert!(!a.is_unsafe(&partial, &candidate));
        assert!(!a.is_unsafe(&partial, &candidate));
        assert_eq!(a.pair_cache_hits(), 1);
        // The partial writes item 1. Without the version bump the stale
        // "safe" verdict would be returned; with it, recomputed.
        partial.accessed.insert(ItemId(1));
        partial.written.insert(ItemId(1));
        a.note_access_growth(TxnId(0), false);
        assert!(a.is_unsafe(&partial, &candidate));
        assert_eq!(a.pair_checks(), 3);
    }

    #[test]
    fn static_cache_is_symmetric_and_version_gated() {
        let mut a = ConflictAccel::new(2, 64);
        a.register(TxnId(0));
        a.register(TxnId(1));
        let mut x = mk(0, &[1, 2]);
        let y = mk(1, &[2, 3]);
        assert!(a.conflicts(&x, &y));
        assert!(a.conflicts(&y, &x), "symmetric lookup hits the same entry");
        assert_eq!(a.pair_cache_hits(), 1);
        // Narrow x away from the overlap; the verdict flips.
        x.might_access = DataSet::from_items([ItemId(1)]);
        a.note_narrowed(TxnId(0));
        assert!(!a.conflicts(&x, &y));
    }

    #[test]
    fn pair_stamps_are_per_transaction() {
        let mut a = ConflictAccel::new(3, 64);
        for i in 0..3 {
            a.register(TxnId(i));
        }
        let s1 = a.pair_stamp(TxnId(1));
        let s2 = a.pair_stamp(TxnId(2));
        // Narrowing invalidates only the narrowed transaction itself.
        a.note_narrowed(TxnId(1));
        assert!(a.pair_stamp(TxnId(1)) > s1);
        assert_eq!(a.pair_stamp(TxnId(2)), s2);
        // Targeted bumps touch exactly the named transaction and tally.
        let inv = a.pair_invalidations();
        a.bump_pair_stamp(TxnId(2));
        assert!(a.pair_stamp(TxnId(2)) > s2);
        assert_eq!(a.pair_stamp(TxnId(0)), 0);
        assert_eq!(a.pair_invalidations(), inv + 1);
        // Growth and clearing keep version counters moving but leave the
        // cross-transaction stamping to the engine's walk.
        a.note_access_growth(TxnId(0), false);
        a.note_sets_cleared(TxnId(0));
        assert_eq!(a.pair_stamp(TxnId(0)), 0);
    }

    #[test]
    fn released_slots_recycle_through_the_accel() {
        let mut a = ConflictAccel::new(4, 64);
        // A departing wave of transactions keeps the arena at the peak
        // *concurrent* population, not the total registered count.
        for i in 0..100u32 {
            a.register(TxnId(i));
            a.note_access_growth(TxnId(i), false);
            let (live, high) = a.arena_occupancy();
            assert_eq!(live, 2.min(i as usize + 1));
            assert!(high <= 2, "arena grew past the concurrent peak: {high}");
            if i > 0 {
                a.note_sets_cleared(TxnId(i - 1));
                a.release(TxnId(i - 1));
            }
        }
        // Recycled slots read as fresh for their new owner.
        assert_eq!(a.pair_stamp(TxnId(99)), 0);
        a.bump_pair_stamp(TxnId(99));
        assert_eq!(a.pair_stamp(TxnId(99)), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot used after release")]
    fn released_slot_access_is_caught_in_debug() {
        let mut a = ConflictAccel::new(2, 64);
        a.register(TxnId(0));
        a.release(TxnId(0));
        a.bump_pair_stamp(TxnId(0));
    }

    #[test]
    fn reverse_index_tracks_footprints() {
        let mut a = ConflictAccel::new(3, 64);
        for i in 0..3 {
            a.register(TxnId(i));
        }
        let mut out = Vec::new();
        a.reindex(TxnId(0), &DataSet::from_items([ItemId(1), ItemId(2)]));
        a.reindex(TxnId(1), &DataSet::from_items([ItemId(2), ItemId(3)]));
        a.reindex(TxnId(2), &DataSet::from_items([ItemId(9)]));
        a.sharers(&DataSet::from_items([ItemId(2)]), &mut out);
        assert_eq!(out, vec![TxnId(0), TxnId(1)]);
        // Narrowing away from item 2 drops that membership only.
        a.reindex(TxnId(0), &DataSet::from_items([ItemId(1)]));
        a.sharers(&DataSet::from_items([ItemId(2), ItemId(9)]), &mut out);
        assert_eq!(out, vec![TxnId(1), TxnId(2)]);
        // Departure empties all of the transaction's list memberships.
        a.drop_index(TxnId(1));
        a.sharers(
            &DataSet::from_items([ItemId(1), ItemId(2), ItemId(3)]),
            &mut out,
        );
        assert_eq!(out, vec![TxnId(0)]);
        // Multi-item queries dedup across lists and stay id-ascending.
        a.reindex(TxnId(1), &DataSet::from_items([ItemId(1), ItemId(9)]));
        a.sharers(&DataSet::from_items([ItemId(1), ItemId(9)]), &mut out);
        assert_eq!(out, vec![TxnId(0), TxnId(1), TxnId(2)]);
    }

    #[test]
    fn pair_cache_counts_evictions() {
        let c = PairCache::with_bits(PAIR_CACHE_MIN_BITS);
        let k1 = 1u64;
        let target = c.slot_of(k1);
        let mut colliding = (2u64..).filter(|&k| c.slot_of(k) == target);
        let k2 = colliding.next().expect("lossy cache has colliding keys");
        let k3 = colliding.next().expect("lossy cache has colliding keys");
        c.put(k1, (0, 0), true);
        assert_eq!(c.evictions(), 0);
        // Refreshing the same pair under new versions is not an eviction.
        c.put(k1, (1, 0), false);
        assert_eq!(c.evictions(), 0);
        // A colliding pair displaces k1 into the (empty) victim way:
        // nothing leaves the cache yet, and k1 is still readable there.
        c.put(k2, (0, 0), true);
        assert_eq!(c.evictions(), 0);
        let probes = c.probes();
        assert_eq!(c.get(k1, (1, 0)), Some(false), "victim way serves k1");
        assert!(c.probes() > probes, "victim-way lookups are counted");
        // A third colliding pair finally drops one of them.
        c.put(k3, (0, 0), true);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn pair_cache_capacity_is_mpl_derived_power_of_two() {
        // The budget is 4 × capacity², clamped to [2^13, 2^18] slots.
        for (capacity, bits) in [
            (0, 13),
            (1, 13),
            (45, 13),
            (64, 14),
            (128, 16),
            (256, 18),
            (1024, 18),
            (1_000_000, 18),
        ] {
            let got = PairCache::bits_for_capacity(capacity);
            assert_eq!(got, bits, "capacity {capacity}");
            let cache = PairCache::sized_for(capacity);
            assert!(cache.len().is_power_of_two());
            assert_eq!(cache.len(), 1 << bits);
        }
        // The accel sizes both of its caches from the admitted-transaction
        // capacity.
        let a = ConflictAccel::new(1024, 64);
        assert_eq!(a.static_pairs.len(), 1 << PAIR_CACHE_MAX_BITS);
        assert_eq!(a.unsafe_pairs.len(), 1 << PAIR_CACHE_MAX_BITS);
    }

    #[test]
    fn pair_cache_victim_way_shares_the_bucket() {
        let c = PairCache::with_bits(PAIR_CACHE_MIN_BITS);
        let k1 = 1u64;
        let target = c.slot_of(k1);
        let k2 = (2u64..)
            .find(|&k| c.slot_of(k) == target)
            .expect("lossy cache has colliding keys");
        c.put(k1, (0, 0), true);
        c.put(k2, (7, 7), false);
        // Both colliding pairs are live at once — one per way.
        assert_eq!(c.get(k1, (0, 0)), Some(true));
        assert_eq!(c.get(k2, (7, 7)), Some(false));
        // Version-stale entries still miss in either way.
        assert_eq!(c.get(k1, (0, 1)), None);
        assert_eq!(c.get(k2, (7, 8)), None);
        // Refreshing the displaced pair updates it in place (no eviction).
        c.put(k1, (0, 1), false);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(k1, (0, 1)), Some(false));
        assert_eq!(c.get(k2, (7, 7)), Some(false));
    }
}
