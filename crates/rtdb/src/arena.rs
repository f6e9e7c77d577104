//! Dense per-transaction scheduler state.
//!
//! The scheduler's hot loops — peek-validate-demote picks and
//! clear-repair walks — touch the state of many transactions. This
//! module packs each transaction's hot state into a single 64-byte
//! [`SlotState`] record in one arena, indexed by a compact [`TxnSlot`]:
//! validating one candidate reads exactly one cache line, and a repair
//! walk streams contiguous lines. The same slot numbers index the
//! conflict accelerator's per-item slot rows.
//!
//! The arena holds *redundant acceleration state only*: every field is
//! reconstructible from the transactions themselves, and the `Verify`
//! cache mode asserts the derived values against scan-based oracles at
//! every pick.

use std::cell::Cell;

use rtx_sim::time::SimTime;

use crate::policy::Priority;

/// Compact arena index for a transaction's slot. Slots are *recycled*:
/// a departed transaction's slot is handed to a later arrival, so the
/// arena stays sized by the peak concurrent population rather than the
/// run's total transaction count. Holders map ids to slots through
/// `ConflictAccel`'s slot map, never by arithmetic on the id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct TxnSlot(pub(crate) u32);

impl TxnSlot {
    /// Sentinel for "this transaction's slot was released" in slot maps
    /// (no arena ever reaches 2^32 - 1 live slots).
    pub(crate) const RELEASED: TxnSlot = TxnSlot(u32::MAX);
}

/// One transaction's hot scheduler state, packed into a single cache
/// line: the cached priority with the stamps it was computed from, and
/// the stamps it is validated against (see the field docs). Validity of
/// the cached priority is encoded in `pri_stamp`: [`SlotState::NO_PRI`]
/// means "never computed" (real stamps count up from 0 and can never
/// reach it).
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct SlotState {
    /// Cached priority value (policy-dependent upper bound or exact;
    /// see `EngineState::priority_of`).
    pub pri_value: Priority,
    /// Simulation time the value was computed at (`TimeAndSelf` key).
    pub pri_at: SimTime,
    /// `pair_stamp` at computation time (`ConflictState` key), or
    /// [`SlotState::NO_PRI`] when no priority has been cached yet.
    pub pri_stamp: u64,
    /// `own_version` at computation time.
    pub pri_own: u64,
    /// Per-transaction conflict stamp: bumped for exactly the
    /// transactions whose unsafe/conditionally-unsafe partial set (the
    /// input of a `ConflictState` priority) changed.
    pub pair_stamp: u64,
    /// Bumped on *any* own-state change that could move this
    /// transaction's priority (progress, restarts, set changes).
    pub own_version: u64,
}

const _: () = assert!(
    std::mem::size_of::<SlotState>() == 64,
    "SlotState must stay one cache line"
);

impl SlotState {
    /// `pri_stamp` sentinel marking "no cached priority". Stamps are
    /// bumped at most once per simulation event, so they never reach it.
    pub const NO_PRI: u64 = u64::MAX;

    /// A freshly registered transaction: zero versions, no priority.
    pub const EMPTY: SlotState = SlotState {
        pri_value: Priority::MIN,
        pri_at: SimTime::ZERO,
        pri_stamp: Self::NO_PRI,
        pri_own: 0,
        pair_stamp: 0,
        own_version: 0,
    };

    /// Has a priority ever been cached for this transaction?
    #[inline]
    pub fn pri_valid(&self) -> bool {
        self.pri_stamp != Self::NO_PRI
    }
}

/// The slot arena: one [`SlotState`] cache line per *live* transaction,
/// readable and writable through shared references (the pick paths run
/// under `&self`).
///
/// Slots of departed transactions are recycled through a free list, and
/// each slot carries a generation stamp bumped on release. The stamp
/// makes recycling safe **without a version sweep**: a recycled slot is
/// reset to [`SlotState::EMPTY`] in O(1) at release, exactly the state a
/// fresh push would have had, and the generation lets debug builds and
/// tests prove no stale [`TxnSlot`] from a previous incarnation is ever
/// dereferenced.
pub(crate) struct SchedArena {
    slots: Vec<Cell<SlotState>>,
    /// Incarnation counter per slot, bumped when the slot is released.
    generations: Vec<Cell<u32>>,
    /// Released slot indices awaiting reuse (LIFO: the hottest line is
    /// handed out first).
    free: Vec<u32>,
}

impl SchedArena {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        SchedArena {
            slots: Vec::with_capacity(capacity),
            generations: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Total slots ever allocated (live + free) — the high-water mark of
    /// the concurrent population.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently assigned to live transactions.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Assign a slot to a new transaction: reuse a released slot if one
    /// is free, else grow the arena. The returned slot's state is
    /// [`SlotState::EMPTY`] either way.
    pub(crate) fn register(&mut self) -> TxnSlot {
        if let Some(i) = self.free.pop() {
            debug_assert!(!self.slots[i as usize].get().pri_valid());
            TxnSlot(i)
        } else {
            self.slots.push(Cell::new(SlotState::EMPTY));
            self.generations.push(Cell::new(0));
            TxnSlot((self.slots.len() - 1) as u32)
        }
    }

    /// Return a departed transaction's slot to the free list: reset the
    /// state and bump the generation so any stale reference to the old
    /// incarnation is detectable.
    pub(crate) fn release(&mut self, slot: TxnSlot) {
        let i = slot.0 as usize;
        debug_assert!(!self.free.contains(&slot.0), "double release of {slot:?}");
        self.slots[i].set(SlotState::EMPTY);
        self.generations[i].set(self.generations[i].get().wrapping_add(1));
        self.free.push(slot.0);
    }

    /// The slot's incarnation count (bumps on each release).
    #[cfg(test)]
    pub(crate) fn generation(&self, slot: TxnSlot) -> u32 {
        self.generations[slot.0 as usize].get()
    }

    /// Copy out a slot's state (one cache-line read).
    #[inline]
    pub(crate) fn get(&self, slot: TxnSlot) -> SlotState {
        self.slots[slot.0 as usize].get()
    }

    /// Read-modify-write a slot in place.
    #[inline]
    pub(crate) fn update(&self, slot: TxnSlot, f: impl FnOnce(&mut SlotState)) {
        let cell = &self.slots[slot.0 as usize];
        let mut s = cell.get();
        f(&mut s);
        cell.set(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_state_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<SlotState>(), 64);
        assert_eq!(std::mem::align_of::<SlotState>(), 64);
    }

    #[test]
    fn empty_slot_has_no_priority() {
        let s = SlotState::EMPTY;
        assert!(!s.pri_valid());
        let mut arena = SchedArena::with_capacity(2);
        let a = arena.register();
        let b = arena.register();
        assert_eq!((a, b), (TxnSlot(0), TxnSlot(1)));
        assert_eq!(arena.len(), 2);
        arena.update(b, |s| {
            s.pair_stamp += 1;
            s.pri_stamp = s.pair_stamp;
        });
        assert!(arena.get(b).pri_valid());
        assert!(!arena.get(a).pri_valid());
    }

    #[test]
    fn release_recycles_reset_slots_lifo() {
        let mut arena = SchedArena::with_capacity(4);
        let a = arena.register();
        let b = arena.register();
        let c = arena.register();
        arena.update(b, |s| {
            s.pair_stamp = 7;
            s.pri_stamp = 7;
        });
        assert_eq!((arena.len(), arena.live()), (3, 3));
        let (gen_a, gen_b) = (arena.generation(a), arena.generation(b));
        arena.release(a);
        arena.release(b);
        assert_eq!((arena.len(), arena.live()), (3, 1));
        assert_eq!(arena.generation(a), gen_a + 1);
        assert_eq!(arena.generation(b), gen_b + 1);
        // LIFO reuse, and the recycled slot reads as freshly registered.
        let d = arena.register();
        assert_eq!(d, b);
        assert!(!arena.get(d).pri_valid());
        assert_eq!(arena.get(d).pair_stamp, 0);
        let e = arena.register();
        assert_eq!(e, a);
        // The untouched live slot kept its identity and no growth happened.
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.live(), 3);
        let f = arena.register();
        assert_eq!(f, TxnSlot(3));
        assert_eq!(arena.get(c).pair_stamp, 0);
    }
}
