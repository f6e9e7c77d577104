//! The random workload the system property suites share: a strategy for
//! one transaction's specification and the builder that turns a list of
//! specifications into engine transactions.

use proptest::prelude::*;
use rtx::preanalysis::{DataSet, ItemId};
use rtx::rtdb::locks::LockMode;
use rtx::rtdb::{DecisionSpec, SimConfig, Transaction, TxnId};
use rtx::sim::{SimDuration, SimTime};

/// Specification of one random transaction.
#[derive(Debug, Clone)]
pub struct TxnSpec {
    /// Gap after the previous arrival.
    pub gap_ms: f64,
    /// Items updated, in order (consecutive repeats removed).
    pub items: Vec<u16>,
    /// Deadline slack factor.
    pub slack: f64,
    /// Disk-access flag per update (used on a disk-resident config).
    pub io: Vec<bool>,
    /// Shared-lock flag per update (used when modes are on).
    pub reads: Vec<bool>,
    /// A decision point after update `branch_at + 1`, if any.
    pub branch_at: Option<usize>,
}

/// Size of the database the specifications draw their items from.
pub const DB: u64 = 12;

/// A random [`TxnSpec`] over the [`DB`]-item database.
pub fn txn_spec() -> impl Strategy<Value = TxnSpec> {
    (
        0.1f64..50.0,
        proptest::collection::vec(0u16..DB as u16, 1..8),
        0.1f64..4.0,
        proptest::collection::vec(any::<bool>(), 8),
        proptest::collection::vec(any::<bool>(), 8),
        proptest::option::of(0usize..4),
    )
        .prop_map(|(gap_ms, mut items, slack, io, reads, branch_at)| {
            items.dedup();
            TxnSpec {
                gap_ms,
                items,
                slack,
                io,
                reads,
                branch_at,
            }
        })
}

/// Materialize specs into engine transactions.
pub fn build(specs: &[TxnSpec], cfg: &SimConfig, with_modes: bool) -> Vec<Transaction> {
    let mut clock = SimTime::ZERO;
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            clock += SimDuration::from_ms(spec.gap_ms);
            let items: Vec<ItemId> = spec.items.iter().map(|&x| ItemId(x as u32)).collect();
            let update_time = SimDuration::from_ms(2.0);
            let io_pattern: Vec<bool> = if cfg.system.disk.is_some() {
                items.iter().zip(&spec.io).map(|(_, &b)| b).collect()
            } else {
                Vec::new()
            };
            let io_time =
                SimDuration::from_ms(25.0) * io_pattern.iter().filter(|&&b| b).count() as u64;
            let resource_time = update_time * items.len() as u64 + io_time;
            let might: DataSet = items.iter().copied().collect();
            let modes: Vec<LockMode> = if with_modes {
                items
                    .iter()
                    .zip(&spec.reads)
                    .map(|(_, &r)| {
                        if r {
                            LockMode::Shared
                        } else {
                            LockMode::Exclusive
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            // Before its decision point a branching transaction might touch
            // any item (the untaken branch), so executing the decision
            // narrows `might_access` to the items it locks and can raise its
            // priority — the rise the engine's narrowing refresh must catch.
            let decision = spec.branch_at.and_then(|at| {
                (at + 1 < items.len()).then(|| DecisionSpec {
                    after_update: at + 1,
                    full: (0..DB as u32).map(ItemId).collect(),
                    narrowed: might.clone(),
                })
            });
            Transaction {
                id: TxnId(i as u32),
                arrival: clock,
                deadline: clock + resource_time.scale(1.0 + spec.slack),
                resource_time,
                items,
                io_pattern,
                modes,
                update_time,
                might_access: decision.as_ref().map_or(might, |d| d.full.clone()),
                decision,
                ..Default::default()
            }
        })
        .collect()
}
