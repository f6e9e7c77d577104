//! The lock table.
//!
//! The paper analyzes write locks only ("we allow only write locks in our
//! current analysis", §3.1) but names shared locks as future work ("the
//! effect of shared locks in transactions … will affect the performance",
//! §6). The table therefore supports both modes: exclusive (write) locks
//! and shared (read) locks, with the usual compatibility matrix. Under HP
//! conflict resolution there is still **no queueing inside the table** —
//! a conflicting request either aborts the holders or the requester
//! blocks, both decided by the engine.
//!
//! A transaction's `accessed` set is exactly the items it holds, so
//! [`LockTable::release`] frees a commit's or an abort's locks by visiting
//! those items only. [`LockTable::held_by`] scans the whole table: it is
//! the oracle that checks `accessed`.

use rtx_preanalysis::sets::{DataSet, ItemId};

use crate::txn::TxnId;

/// Access mode of one lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) lock: compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock: compatible with nothing.
    Exclusive,
}

/// Per-item lock state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Free,
    /// Shared holders, sorted by id (small vectors: contention on one
    /// item involves a handful of transactions).
    Shared(Vec<TxnId>),
    Exclusive(TxnId),
}

/// Exclusive/shared lock table over a database of fixed size.
#[derive(Debug, Clone)]
pub struct LockTable {
    slots: Vec<Slot>,
    held_count: usize,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The request is granted (also covers re-requests and read→write
    /// upgrades with no other holders).
    Granted,
    /// Incompatible holders exist; under HP the engine aborts them all or
    /// the requester waits. Never contains the requester itself.
    HeldBy(Vec<TxnId>),
}

impl LockTable {
    /// A table for `db_size` items, all free.
    pub fn new(db_size: u64) -> Self {
        LockTable {
            slots: vec![Slot::Free; db_size as usize],
            held_count: 0,
        }
    }

    /// Number of items in the database.
    pub fn db_size(&self) -> usize {
        self.slots.len()
    }

    /// Number of (transaction, item) lock pairs currently held.
    pub fn held_count(&self) -> usize {
        self.held_count
    }

    /// The holders of `item` (empty if free). The second element tells
    /// whether the lock is exclusive.
    pub fn holders(&self, item: ItemId) -> (Vec<TxnId>, bool) {
        match &self.slots[item.0 as usize] {
            Slot::Free => (Vec::new(), false),
            Slot::Shared(hs) => (hs.clone(), false),
            Slot::Exclusive(h) => (vec![*h], true),
        }
    }

    /// Compatibility-checked lock request.
    ///
    /// * `Exclusive` conflicts with any other holder;
    /// * `Shared` conflicts with an exclusive holder only;
    /// * re-requests are idempotent; a shared holder requesting exclusive
    ///   is an upgrade, granted iff it is the only holder.
    pub fn request(&mut self, txn: TxnId, item: ItemId, mode: LockMode) -> LockOutcome {
        let slot = &mut self.slots[item.0 as usize];
        match (&mut *slot, mode) {
            (Slot::Free, LockMode::Shared) => {
                *slot = Slot::Shared(vec![txn]);
                self.held_count += 1;
                LockOutcome::Granted
            }
            (Slot::Free, LockMode::Exclusive) => {
                *slot = Slot::Exclusive(txn);
                self.held_count += 1;
                LockOutcome::Granted
            }
            (Slot::Shared(holders), LockMode::Shared) => {
                if !holders.contains(&txn) {
                    holders.push(txn);
                    holders.sort_unstable();
                    self.held_count += 1;
                }
                LockOutcome::Granted
            }
            (Slot::Shared(holders), LockMode::Exclusive) => {
                let others: Vec<TxnId> = holders.iter().copied().filter(|&h| h != txn).collect();
                if others.is_empty() {
                    // Upgrade: the requester is the sole shared holder.
                    debug_assert!(holders.contains(&txn));
                    *slot = Slot::Exclusive(txn);
                    LockOutcome::Granted
                } else {
                    LockOutcome::HeldBy(others)
                }
            }
            (Slot::Exclusive(h), _) if *h == txn => LockOutcome::Granted,
            (Slot::Exclusive(h), _) => LockOutcome::HeldBy(vec![*h]),
        }
    }

    /// Forcibly grant `item` to `txn` after its conflicting holders were
    /// aborted (their locks released).
    ///
    /// # Panics
    /// Panics if an incompatible holder remains — the abort path must have
    /// released the victims' locks first.
    pub fn grant_after_abort(&mut self, txn: TxnId, item: ItemId, mode: LockMode) {
        match self.request(txn, item, mode) {
            LockOutcome::Granted => {}
            LockOutcome::HeldBy(hs) => {
                panic!("lock on {item} still held by {hs:?} after the victims' abort")
            }
        }
    }

    /// Release `txn`'s locks on `items` (commit or abort: the engine
    /// passes the transaction's `accessed` set, which is exactly what it
    /// holds). Items `txn` does not hold are left alone. Returns how many
    /// locks were released.
    pub fn release(&mut self, txn: TxnId, items: &DataSet) -> usize {
        let mut released = 0;
        for item in items.iter() {
            let slot = &mut self.slots[item.0 as usize];
            match slot {
                Slot::Exclusive(h) if *h == txn => {
                    *slot = Slot::Free;
                    released += 1;
                }
                Slot::Shared(holders) => {
                    if let Ok(pos) = holders.binary_search(&txn) {
                        holders.remove(pos);
                        released += 1;
                        if holders.is_empty() {
                            *slot = Slot::Free;
                        }
                    }
                }
                _ => {}
            }
        }
        self.held_count -= released;
        released
    }

    /// Items on which `txn` holds a lock (either mode), in item order: a
    /// scan of the whole table, for checks only.
    pub fn held_by(&self, txn: TxnId) -> Vec<ItemId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let held = match slot {
                    Slot::Free => false,
                    Slot::Exclusive(h) => *h == txn,
                    Slot::Shared(hs) => hs.contains(&txn),
                };
                held.then_some(ItemId(i as u32))
            })
            .collect()
    }

    /// Debug invariant: `held_count` matches the table contents.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut actual = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            match slot {
                Slot::Free => {}
                Slot::Exclusive(_) => actual += 1,
                Slot::Shared(hs) => {
                    if hs.is_empty() {
                        return Err(format!("item {i}: empty shared holder list"));
                    }
                    let mut sorted = hs.clone();
                    sorted.dedup();
                    if sorted.len() != hs.len() {
                        return Err(format!("item {i}: duplicate shared holders"));
                    }
                    actual += hs.len();
                }
            }
        }
        if actual != self.held_count {
            return Err(format!(
                "held_count {} != actual {}",
                self.held_count, actual
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::{Exclusive, Shared};

    #[test]
    fn exclusive_grant_and_conflict() {
        let mut lt = LockTable::new(10);
        assert_eq!(
            lt.request(TxnId(1), ItemId(3), Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(lt.holders(ItemId(3)), (vec![TxnId(1)], true));
        assert_eq!(
            lt.request(TxnId(2), ItemId(3), Exclusive),
            LockOutcome::HeldBy(vec![TxnId(1)])
        );
        assert_eq!(
            lt.request(TxnId(2), ItemId(3), Shared),
            LockOutcome::HeldBy(vec![TxnId(1)])
        );
        assert_eq!(lt.held_count(), 1);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn shared_locks_are_compatible() {
        let mut lt = LockTable::new(10);
        assert_eq!(
            lt.request(TxnId(1), ItemId(0), Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(2), ItemId(0), Shared),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(3), ItemId(0), Shared),
            LockOutcome::Granted
        );
        assert_eq!(lt.held_count(), 3);
        let (holders, exclusive) = lt.holders(ItemId(0));
        assert_eq!(holders, vec![TxnId(1), TxnId(2), TxnId(3)]);
        assert!(!exclusive);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn write_blocked_by_readers_lists_all() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(0), Shared);
        lt.request(TxnId(2), ItemId(0), Shared);
        assert_eq!(
            lt.request(TxnId(3), ItemId(0), Exclusive),
            LockOutcome::HeldBy(vec![TxnId(1), TxnId(2)])
        );
    }

    #[test]
    fn reentrant_requests_idempotent() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(3), Exclusive);
        assert_eq!(
            lt.request(TxnId(1), ItemId(3), Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(1), ItemId(3), Shared),
            LockOutcome::Granted,
            "read after write is covered by the exclusive lock"
        );
        assert_eq!(lt.held_count(), 1);
        lt.request(TxnId(2), ItemId(4), Shared);
        assert_eq!(
            lt.request(TxnId(2), ItemId(4), Shared),
            LockOutcome::Granted
        );
        assert_eq!(lt.held_count(), 2);
    }

    #[test]
    fn upgrade_sole_reader_granted() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(0), Shared);
        assert_eq!(
            lt.request(TxnId(1), ItemId(0), Exclusive),
            LockOutcome::Granted
        );
        assert_eq!(lt.holders(ItemId(0)), (vec![TxnId(1)], true));
        assert_eq!(lt.held_count(), 1);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn upgrade_with_other_readers_conflicts() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(0), Shared);
        lt.request(TxnId(2), ItemId(0), Shared);
        assert_eq!(
            lt.request(TxnId(1), ItemId(0), Exclusive),
            LockOutcome::HeldBy(vec![TxnId(2)]),
            "the requester itself is never in the conflict list"
        );
    }

    fn items(ids: &[u32]) -> DataSet {
        DataSet::from_items(ids.iter().map(|&i| ItemId(i)))
    }

    #[test]
    fn release_frees_both_modes() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(0), Exclusive);
        lt.request(TxnId(1), ItemId(5), Shared);
        assert_eq!(lt.release(TxnId(1), &items(&[0, 5])), 2);
        assert_eq!(lt.holders(ItemId(0)), (vec![], false));
        assert_eq!(lt.holders(ItemId(5)), (vec![], false));
        assert_eq!(lt.held_count(), 0);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn release_keeps_shared_co_holders() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(5), Shared);
        lt.request(TxnId(2), ItemId(5), Shared);
        lt.request(TxnId(3), ItemId(5), Shared);
        assert_eq!(lt.release(TxnId(2), &items(&[5])), 1);
        assert_eq!(lt.holders(ItemId(5)), (vec![TxnId(1), TxnId(3)], false));
        assert_eq!(lt.held_count(), 2);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn second_release_frees_nothing() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(0), Exclusive);
        lt.request(TxnId(1), ItemId(5), Shared);
        lt.request(TxnId(2), ItemId(5), Shared);
        lt.request(TxnId(2), ItemId(7), Exclusive);
        let held = items(&[0, 5]);
        assert_eq!(lt.release(TxnId(1), &held), 2);
        assert_eq!(lt.release(TxnId(1), &held), 0, "nothing left to free");
        assert_eq!(
            lt.release(TxnId(1), &items(&[7])),
            0,
            "another holder's lock stays"
        );
        assert_eq!(lt.holders(ItemId(5)), (vec![TxnId(2)], false));
        assert_eq!(lt.holders(ItemId(7)), (vec![TxnId(2)], true));
        assert_eq!(lt.held_count(), 2);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn held_by_lists_items_in_order() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(9), Exclusive);
        lt.request(TxnId(1), ItemId(2), Shared);
        lt.request(TxnId(2), ItemId(2), Shared);
        assert_eq!(lt.held_by(TxnId(1)), vec![ItemId(2), ItemId(9)]);
        assert_eq!(lt.held_by(TxnId(2)), vec![ItemId(2)]);
        assert!(lt.held_by(TxnId(3)).is_empty());
    }

    #[test]
    fn grant_after_abort_flow() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(4), Shared);
        lt.request(TxnId(2), ItemId(4), Shared);
        // HP: T3 wants item 4 exclusively → abort both readers → grant.
        assert_eq!(
            lt.request(TxnId(3), ItemId(4), Exclusive),
            LockOutcome::HeldBy(vec![TxnId(1), TxnId(2)])
        );
        lt.release(TxnId(1), &items(&[4]));
        lt.release(TxnId(2), &items(&[4]));
        lt.grant_after_abort(TxnId(3), ItemId(4), LockMode::Exclusive);
        assert_eq!(lt.holders(ItemId(4)), (vec![TxnId(3)], true));
        lt.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "still held by")]
    fn grant_after_abort_requires_compatible_state() {
        let mut lt = LockTable::new(10);
        lt.request(TxnId(1), ItemId(4), Exclusive);
        lt.grant_after_abort(TxnId(2), ItemId(4), LockMode::Exclusive);
    }
}
