//! Pluggable transaction sources.
//!
//! The paper's workload (Poisson arrivals over 50 generated straight-line
//! types) is the default, but the engine itself only needs a stream of
//! transaction instances in arrival order — custom workloads (the
//! branching-program extension, hand-crafted scenarios in the examples)
//! implement [`TxnSource`] and use
//! [`run_simulation_from`](crate::engine::run_simulation_from).

use std::collections::VecDeque;

use crate::txn::Transaction;
use crate::workload::ArrivalGenerator;

/// A stream of transaction instances in non-decreasing arrival order with
/// dense ids `0, 1, 2, …` (the engine indexes its tables by id).
pub trait TxnSource {
    /// The next transaction, or `None` when the workload is exhausted.
    fn next_transaction(&mut self) -> Option<Transaction>;
}

impl TxnSource for ArrivalGenerator<'_> {
    fn next_transaction(&mut self) -> Option<Transaction> {
        ArrivalGenerator::next_transaction(self)
    }
}

/// A source that replays a pre-built list of transactions.
///
/// # Panics
/// `new` panics if ids are not dense (`0..n`) or arrivals are not
/// non-decreasing — both would corrupt the engine's indexing.
pub struct ReplaySource {
    txns: std::vec::IntoIter<Transaction>,
}

impl ReplaySource {
    /// Build from a complete arrival-ordered list.
    pub fn new(txns: Vec<Transaction>) -> Self {
        for (i, t) in txns.iter().enumerate() {
            assert_eq!(t.id.0 as usize, i, "transaction ids must be dense");
            if i > 0 {
                assert!(
                    txns[i - 1].arrival <= t.arrival,
                    "arrivals must be non-decreasing"
                );
            }
        }
        ReplaySource {
            txns: txns.into_iter(),
        }
    }
}

impl TxnSource for ReplaySource {
    fn next_transaction(&mut self) -> Option<Transaction> {
        self.txns.next()
    }
}

/// A queue of submitted transactions, drained front first: the source a
/// [`StepEngine`](crate::engine::StepEngine) steps over. Submitters push
/// to the back in arrival order.
impl TxnSource for VecDeque<Transaction> {
    fn next_transaction(&mut self) -> Option<Transaction> {
        self.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::workload::TypeTable;
    use rtx_sim::rng::StreamSeeder;

    #[test]
    fn generator_implements_source() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 5;
        let seeder = StreamSeeder::new(1);
        let table = TypeTable::generate(&cfg, &seeder);
        let mut gen = ArrivalGenerator::new(&cfg, &table, &seeder);
        let source: &mut dyn TxnSource = &mut gen;
        let mut count = 0;
        while source.next_transaction().is_some() {
            count += 1;
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn replay_source_returns_in_order() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 3;
        let seeder = StreamSeeder::new(2);
        let table = TypeTable::generate(&cfg, &seeder);
        let mut gen = ArrivalGenerator::new(&cfg, &table, &seeder);
        let txns: Vec<Transaction> = std::iter::from_fn(|| gen.next_transaction()).collect();
        let arrivals: Vec<_> = txns.iter().map(|t| t.arrival).collect();
        let mut replay = ReplaySource::new(txns);
        for &expect in &arrivals {
            assert_eq!(replay.next_transaction().unwrap().arrival, expect);
        }
        assert!(replay.next_transaction().is_none());
    }

    #[test]
    #[should_panic(expected = "ids must be dense")]
    fn replay_rejects_sparse_ids() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 2;
        let seeder = StreamSeeder::new(3);
        let table = TypeTable::generate(&cfg, &seeder);
        let mut gen = ArrivalGenerator::new(&cfg, &table, &seeder);
        let mut txns: Vec<Transaction> = std::iter::from_fn(|| gen.next_transaction()).collect();
        txns.remove(0);
        ReplaySource::new(txns);
    }
}
