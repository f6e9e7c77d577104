//! Workload generation (§4):
//!
//! * 50 transaction types; "the number of objects updated by a transaction
//!   type is chosen from a normal distribution and the actual database
//!   items are chosen uniformly from the range of database size. These
//!   items and the number are regenerated at each run";
//! * Poisson arrivals; the type of each arriving instance is uniform over
//!   the types;
//! * `Deadline = arrival + resource_time × (1 + slack%)`, slack uniform in
//!   `[min_slack, max_slack]`;
//! * disk residence predraws each update's IO need with probability 1/10,
//!   so a restarted transaction re-executes the *same* program.

use rtx_preanalysis::program::Program;
use rtx_preanalysis::sets::{DataSet, ItemId};
use rtx_preanalysis::table::TypeId;
use rtx_sim::dist::{
    bernoulli, exponential, sample_distinct, uniform_below, uniform_range, NormalSampler,
};
use rtx_sim::rng::{StreamSeeder, Xoshiro256};
use rtx_sim::time::{SimDuration, SimTime};

use crate::config::SimConfig;
use crate::locks::LockMode;
use crate::txn::{Transaction, TxnId};

/// One generated transaction type: an ordered item list plus derived data.
#[derive(Debug, Clone)]
pub struct TxnType {
    /// Dense type id.
    pub id: TypeId,
    /// Ordered items every instance updates.
    pub items: Vec<ItemId>,
    /// The items as a set — the type's (straight-line) `mightaccess`.
    pub data_set: DataSet,
    /// Per-update access mode (empty = all writes, the paper's model).
    pub modes: Vec<LockMode>,
    /// Per-update CPU time (class-dependent in §4.2).
    pub update_time: SimDuration,
}

impl TxnType {
    /// As a straight-line [`Program`], so the full pre-analysis machinery
    /// can be applied to generated workloads too.
    pub fn to_program(&self) -> Program {
        Program::straight_line(format!("T{}", self.id.0), self.items.iter().copied())
    }
}

/// The per-run table of transaction types.
#[derive(Debug, Clone)]
pub struct TypeTable {
    types: Vec<TxnType>,
}

impl TypeTable {
    /// Generate the table for one run. Uses the seeder's `"types"` stream,
    /// so the table depends only on the run seed (it is "regenerated at
    /// each run").
    pub fn generate(cfg: &SimConfig, seeder: &StreamSeeder) -> Self {
        let mut rng = seeder.stream("types");
        let mut normal = NormalSampler::new();
        let w = &cfg.workload;
        let types = (0..w.num_types)
            .map(|k| {
                let raw = normal.sample(&mut rng, w.updates_mean, w.updates_std);
                let count = (raw.round() as i64).clamp(1, w.db_size as i64) as usize;
                let items: Vec<ItemId> = sample_distinct(&mut rng, w.db_size, count)
                    .into_iter()
                    .map(|i| ItemId(i as u32))
                    .collect();
                let data_set = items.iter().copied().collect();
                // Shared-lock extension: each update reads (rather than
                // writes) with probability `read_probability`; the mode is
                // part of the program, so it lives on the type.
                let modes: Vec<LockMode> = if w.read_probability > 0.0 {
                    items
                        .iter()
                        .map(|_| {
                            if bernoulli(&mut rng, w.read_probability) {
                                LockMode::Shared
                            } else {
                                LockMode::Exclusive
                            }
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                TxnType {
                    id: TypeId(k as u32),
                    items,
                    data_set,
                    modes,
                    update_time: w.update_time_for_type(k),
                }
            })
            .collect();
        TypeTable { types }
    }

    /// The generated types.
    pub fn types(&self) -> &[TxnType] {
        &self.types
    }

    /// One type by id.
    pub fn get(&self, id: TypeId) -> &TxnType {
        &self.types[id.0 as usize]
    }

    /// Number of types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True iff the table is empty (never for valid configs).
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

/// Generates the arrival stream: types, arrival instants, slacks and IO
/// patterns for each instance, in arrival order.
pub struct ArrivalGenerator<'c> {
    cfg: &'c SimConfig,
    table: &'c TypeTable,
    arrivals_rng: Xoshiro256,
    pick_rng: Xoshiro256,
    slack_rng: Xoshiro256,
    io_rng: Xoshiro256,
    crit_rng: Xoshiro256,
    next_arrival: SimTime,
    issued: usize,
}

impl<'c> ArrivalGenerator<'c> {
    /// New generator over independent RNG streams.
    pub fn new(cfg: &'c SimConfig, table: &'c TypeTable, seeder: &StreamSeeder) -> Self {
        ArrivalGenerator {
            cfg,
            table,
            arrivals_rng: seeder.stream("arrivals"),
            pick_rng: seeder.stream("type-pick"),
            slack_rng: seeder.stream("slack"),
            io_rng: seeder.stream("io-pattern"),
            crit_rng: seeder.stream("criticality"),
            next_arrival: SimTime::ZERO,
            issued: 0,
        }
    }

    /// Number of instances issued so far.
    pub fn issued(&self) -> usize {
        self.issued
    }

    /// True iff the run's transaction budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.issued >= self.cfg.run.num_transactions
    }

    /// Generate the next transaction instance, or `None` when the budget
    /// of `num_transactions` is exhausted.
    pub fn next_transaction(&mut self) -> Option<Transaction> {
        if self.exhausted() {
            return None;
        }
        // Exponential inter-arrival (Poisson process); mean 1/λ seconds.
        let gap_s = exponential(&mut self.arrivals_rng, 1.0 / self.cfg.run.arrival_rate_tps);
        self.next_arrival += SimDuration::from_secs(gap_s);
        let arrival = self.next_arrival;

        // "the transaction type for arriving transaction is chosen
        // uniformly from the range of types"
        let ty = self.table.get(TypeId(
            uniform_below(&mut self.pick_rng, self.table.len() as u64) as u32,
        ));

        // Predraw the IO pattern so restarts replay the same program.
        let io_pattern: Vec<bool> = match &self.cfg.system.disk {
            None => Vec::new(),
            Some(d) => (0..ty.items.len())
                .map(|_| bernoulli(&mut self.io_rng, d.access_prob))
                .collect(),
        };

        // True isolated service time: CPU plus this instance's IO.
        let io_time: SimDuration = match &self.cfg.system.disk {
            None => SimDuration::ZERO,
            Some(d) => d.access_time() * io_pattern.iter().filter(|&&b| b).count() as u64,
        };
        let resource_time = ty.update_time * ty.items.len() as u64 + io_time;

        // Deadline = arrival + resource_time × (1 + slack).
        let slack = uniform_range(
            &mut self.slack_rng,
            self.cfg.workload.min_slack,
            self.cfg.workload.max_slack,
        );
        let deadline = arrival + resource_time.scale(1.0 + slack);

        // §6 extension: some instances carry higher criticality.
        let criticality = if bernoulli(
            &mut self.crit_rng,
            self.cfg.workload.high_criticality_fraction,
        ) {
            1
        } else {
            0
        };

        let id = TxnId(self.issued as u32);
        self.issued += 1;
        Some(Transaction {
            id,
            ty: ty.id,
            arrival,
            deadline,
            resource_time,
            items: ty.items.clone(),
            io_pattern,
            modes: ty.modes.clone(),
            update_time: ty.update_time,
            might_access: ty.data_set.clone(),
            criticality,
            ..Default::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeder(seed: u64) -> StreamSeeder {
        StreamSeeder::new(seed)
    }

    #[test]
    fn type_table_shape() {
        let cfg = SimConfig::mm_base();
        let table = TypeTable::generate(&cfg, &seeder(1));
        assert_eq!(table.len(), 50);
        for ty in table.types() {
            assert!(!ty.items.is_empty());
            assert!(ty.items.len() <= 30, "clamped to db size");
            assert_eq!(ty.data_set.len(), ty.items.len(), "items distinct");
            assert!(ty.items.iter().all(|i| i.0 < 30));
            assert_eq!(ty.update_time, SimDuration::from_ms(4.0));
        }
        // Mean update count should be near 20 (normal(20,10) clamped).
        let mean = table.types().iter().map(|t| t.items.len()).sum::<usize>() as f64 / 50.0;
        assert!((mean - 20.0).abs() < 4.0, "mean items {mean}");
    }

    #[test]
    fn type_table_regenerated_per_seed() {
        let cfg = SimConfig::mm_base();
        let t1 = TypeTable::generate(&cfg, &seeder(1));
        let t1b = TypeTable::generate(&cfg, &seeder(1));
        let t2 = TypeTable::generate(&cfg, &seeder(2));
        // Same seed → identical tables.
        for (a, b) in t1.types().iter().zip(t1b.types()) {
            assert_eq!(a.items, b.items);
        }
        // Different seeds → (almost surely) different tables.
        assert!(t1
            .types()
            .iter()
            .zip(t2.types())
            .any(|(a, b)| a.items != b.items));
    }

    #[test]
    fn high_variance_classes() {
        let cfg = SimConfig::mm_high_variance();
        let table = TypeTable::generate(&cfg, &seeder(3));
        let t0 = table.get(TypeId(0));
        let t1 = table.get(TypeId(1));
        let t2 = table.get(TypeId(2));
        assert_eq!(t0.update_time, SimDuration::from_ms(0.4));
        assert_eq!(t1.update_time, SimDuration::from_ms(4.0));
        assert_eq!(t2.update_time, SimDuration::from_ms(40.0));
    }

    #[test]
    fn arrivals_are_poisson_like() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.arrival_rate_tps = 10.0;
        cfg.run.num_transactions = 5000;
        let table = TypeTable::generate(&cfg, &seeder(4));
        let mut g = ArrivalGenerator::new(&cfg, &table, &seeder(4));
        let mut last = SimTime::ZERO;
        let mut gaps = Vec::new();
        while let Some(t) = g.next_transaction() {
            assert!(t.arrival >= last, "arrivals monotone");
            gaps.push(t.arrival.since(last).as_secs());
            last = t.arrival;
        }
        assert_eq!(gaps.len(), 5000);
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.1).abs() < 0.01, "mean gap {mean}");
        assert!(g.exhausted());
        assert!(g.next_transaction().is_none());
    }

    #[test]
    fn deadline_formula_bounds() {
        let cfg = SimConfig::mm_base();
        let table = TypeTable::generate(&cfg, &seeder(5));
        let mut g = ArrivalGenerator::new(&cfg, &table, &seeder(5));
        for _ in 0..500 {
            let t = g.next_transaction().unwrap();
            let rt = t.resource_time;
            // resource time for MM = items × 4 ms
            assert_eq!(rt, t.update_time * t.items.len() as u64);
            let lo = t.arrival + rt.scale(1.2);
            let hi = t.arrival + rt.scale(9.0);
            assert!(
                t.deadline >= lo && t.deadline <= hi,
                "deadline {:?} outside [{:?}, {:?}]",
                t.deadline,
                lo,
                hi
            );
        }
    }

    #[test]
    fn disk_instances_have_io_patterns() {
        let cfg = SimConfig::disk_base();
        let table = TypeTable::generate(&cfg, &seeder(6));
        let mut g = ArrivalGenerator::new(&cfg, &table, &seeder(6));
        let mut io_updates = 0usize;
        let mut total_updates = 0usize;
        for _ in 0..300 {
            let t = g.next_transaction().unwrap();
            assert_eq!(t.io_pattern.len(), t.items.len());
            io_updates += t.io_pattern.iter().filter(|&&b| b).count();
            total_updates += t.items.len();
            // Resource time includes the predrawn IO.
            let io_count = t.io_pattern.iter().filter(|&&b| b).count() as u64;
            let expect =
                t.update_time * t.items.len() as u64 + SimDuration::from_ms(25.0) * io_count;
            assert_eq!(t.resource_time, expect);
        }
        let rate = io_updates as f64 / total_updates as f64;
        assert!((rate - 0.1).abs() < 0.02, "io rate {rate}");
    }

    #[test]
    fn mm_instances_have_no_io() {
        let cfg = SimConfig::mm_base();
        let table = TypeTable::generate(&cfg, &seeder(7));
        let mut g = ArrivalGenerator::new(&cfg, &table, &seeder(7));
        let t = g.next_transaction().unwrap();
        assert!(t.io_pattern.is_empty());
        assert!(!t.current_needs_io());
    }

    #[test]
    fn type_to_program_round_trip() {
        let cfg = SimConfig::mm_base();
        let table = TypeTable::generate(&cfg, &seeder(8));
        let ty = table.get(TypeId(0));
        let program = ty.to_program();
        assert!(program.is_straight_line());
        assert_eq!(program.data_set(), ty.data_set);
    }

    #[test]
    fn instance_type_distribution_uniform() {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 10_000;
        let table = TypeTable::generate(&cfg, &seeder(9));
        let mut g = ArrivalGenerator::new(&cfg, &table, &seeder(9));
        let mut counts = vec![0u32; 50];
        while let Some(t) = g.next_transaction() {
            counts[t.ty.0 as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 200).abs() < 80, "type counts {counts:?}");
        }
    }
}
