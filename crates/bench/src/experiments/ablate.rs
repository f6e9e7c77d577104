//! Ablation and extension studies (beyond the paper's figures; indexed in
//! DESIGN.md).
//!
//! * `ablate-recovery` — §6's conjecture: with recovery cost proportional
//!   to the destroyed work, CCA's advantage over EDF-HP grows;
//! * `ablate-iowait` — isolates CCA's two mechanisms on disk workloads by
//!   disabling the `IOwait-schedule` restriction while keeping the
//!   penalty term;
//! * `ablate-policies` — the full policy zoo (FCFS, LSF, EDF-HP,
//!   EDF-Wait, CCA) across the base arrival sweep;
//! * `ext-branching` — transaction programs *with decision points*: the
//!   analytic `mightaccess` narrows mid-execution, exercising the
//!   conditional conflict/safety machinery the paper left unsimulated.

use rtx_core::{Cca, Criticality, EdfHp, EdfWait, Fcfs, Lsf};
use rtx_preanalysis::sets::{DataSet, ItemId};
use rtx_preanalysis::table::TypeId;
use rtx_rtdb::engine::run_simulation_from;
use rtx_rtdb::policy::{Policy, Priority, SystemView};
use rtx_rtdb::runner::{run_replications_with, run_seeds, ReplicationOptions};
use rtx_rtdb::source::ReplaySource;
use rtx_rtdb::txn::{DecisionSpec, Transaction, TxnId};
use rtx_rtdb::{RunSummary, SimConfig};
use rtx_sim::dist::{exponential, sample_distinct, uniform_below, uniform_range};
use rtx_sim::rng::StreamSeeder;
use rtx_sim::stats::Replications;
use rtx_sim::time::{SimDuration, SimTime};

use super::compare;
use crate::table::Table;
use crate::Scale;

/// CCA's penalty term *without* the IO-wait restriction, used to attribute
/// the disk-resident gains to the right mechanism.
struct CcaNoIowait(Cca);

impl Policy for CcaNoIowait {
    fn name(&self) -> &str {
        "CCA-no-iowait"
    }
    fn priority(&self, txn: &Transaction, view: &SystemView<'_>) -> Priority {
        self.0.priority(txn, view)
    }
    fn iowait_restrict(&self) -> bool {
        false
    }
}

/// `ablate-recovery`: flat vs work-proportional rollback cost.
pub fn recovery_cost(scale: Scale, opts: &ReplicationOptions) -> Table {
    let mut t = Table::new(
        "ablate-recovery",
        &[
            "arrival_tps",
            "improve_miss_flat",
            "improve_miss_prop",
            "improve_late_flat",
            "improve_late_prop",
        ],
    );
    let reps = scale.reps(10);
    for rate in [6.0, 8.0, 10.0] {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = scale.txns(1000);
        cfg.run.arrival_rate_tps = rate;
        let flat = compare(&cfg, reps, opts);
        cfg.system.proportional_recovery = true;
        let prop = compare(&cfg, reps, opts);
        let (fm, fl) = flat.improvements();
        let (pm, pl) = prop.improvements();
        t.push_numeric_row(&[rate, fm, pm, fl, pl]);
    }
    t
}

/// `ablate-iowait`: CCA vs CCA-without-IOwait-schedule vs EDF-HP on the
/// disk-resident base sweep.
pub fn iowait_mechanism(scale: Scale, opts: &ReplicationOptions) -> Table {
    let mut t = Table::new(
        "ablate-iowait",
        &[
            "arrival_tps",
            "edf_miss",
            "cca_noiowait_miss",
            "cca_miss",
            "edf_noncontrib",
            "cca_noiowait_noncontrib",
            "cca_noncontrib",
        ],
    );
    let reps = scale.reps(30);
    for rate in [2.0, 4.0, 6.0] {
        let mut cfg = SimConfig::disk_base();
        cfg.run.num_transactions = scale.txns(300);
        cfg.run.arrival_rate_tps = rate;
        let edf = run_replications_with(&cfg, &EdfHp, reps, opts);
        let no_iowait = run_replications_with(&cfg, &CcaNoIowait(Cca::base()), reps, opts);
        let cca = run_replications_with(&cfg, &Cca::base(), reps, opts);
        t.push_numeric_row(&[
            rate,
            edf.miss_percent.mean,
            no_iowait.miss_percent.mean,
            cca.miss_percent.mean,
            edf.noncontributing_aborts.mean,
            no_iowait.noncontributing_aborts.mean,
            cca.noncontributing_aborts.mean,
        ]);
    }
    t
}

/// `ablate-policies`: miss percent of every policy across the base sweep.
pub fn policy_zoo(scale: Scale, opts: &ReplicationOptions) -> Table {
    let mut t = Table::new(
        "ablate-policies",
        &["arrival_tps", "fcfs", "lsf", "edf_hp", "edf_wait", "cca"],
    );
    let reps = scale.reps(10);
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(Fcfs),
        Box::new(Lsf),
        Box::new(EdfHp),
        Box::new(EdfWait),
        Box::new(Cca::base()),
    ];
    for rate in [2.0, 4.0, 6.0, 8.0, 10.0] {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = scale.txns(1000);
        cfg.run.arrival_rate_tps = rate;
        let mut row = vec![rate];
        for p in &policies {
            row.push(
                run_replications_with(&cfg, p.as_ref(), reps, opts)
                    .miss_percent
                    .mean,
            );
        }
        t.push_numeric_row(&row);
    }
    t
}

/// `ext-shared-locks`: the §6 extension — a growing fraction of updates
/// take shared (read) locks. Read-read compatibility lowers contention,
/// shrinking both policies' miss rates and the gap between them.
pub fn shared_locks(scale: Scale, opts: &ReplicationOptions) -> Table {
    let mut t = Table::new(
        "ext-shared-locks",
        &[
            "read_fraction",
            "edf_miss",
            "cca_miss",
            "edf_restarts",
            "cca_restarts",
        ],
    );
    let reps = scale.reps(10);
    for read_frac in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let mut cfg = SimConfig::mm_base();
        cfg.workload.read_probability = read_frac;
        cfg.run.num_transactions = scale.txns(1000);
        cfg.run.arrival_rate_tps = 8.0;
        let pair = compare(&cfg, reps, opts);
        t.push_numeric_row(&[
            read_frac,
            pair.edf.miss_percent.mean,
            pair.cca.miss_percent.mean,
            pair.edf.restarts_per_txn.mean,
            pair.cca.restarts_per_txn.mean,
        ]);
    }
    t
}

/// `ablate-disk-sched`: FCFS vs earliest-deadline disk queueing (§3.3.2
/// cites real-time IO scheduling as a complementary way to reduce IO
/// waits). Both policies run on both disciplines.
pub fn disk_scheduling(scale: Scale, opts: &ReplicationOptions) -> Table {
    use rtx_rtdb::DiskDiscipline;
    let mut t = Table::new(
        "ablate-disk-sched",
        &[
            "arrival_tps",
            "edf_fcfs_miss",
            "edf_edfdisk_miss",
            "cca_fcfs_miss",
            "cca_edfdisk_miss",
        ],
    );
    let reps = scale.reps(30);
    for rate in [3.0, 5.0, 7.0] {
        let mut cfg = SimConfig::disk_base();
        cfg.run.num_transactions = scale.txns(300);
        cfg.run.arrival_rate_tps = rate;
        let mut row = vec![rate];
        for policy in [&EdfHp as &dyn Policy, &Cca::base()] {
            for discipline in [DiskDiscipline::Fcfs, DiskDiscipline::EarliestDeadline] {
                let mut c = cfg.clone();
                c.system.disk.as_mut().expect("disk config").discipline = discipline;
                row.push(
                    run_replications_with(&c, policy, reps, opts)
                        .miss_percent
                        .mean,
                );
            }
        }
        t.push_numeric_row(&row);
    }
    t
}

/// `ext-criticality`: the §6 "multiple criticalness" extension — 20% of
/// instances are high-criticality; the `Criticality` wrapper orders
/// classes lexicographically above the base policy. The question: how
/// completely is the critical class protected, and what does the normal
/// class pay?
pub fn criticality_classes(scale: Scale, opts: &ReplicationOptions) -> Table {
    let mut t = Table::new(
        "ext-criticality",
        &[
            "arrival_tps",
            "cca_miss_all",
            "crit_cca_miss_hi",
            "crit_cca_miss_lo",
            "crit_edf_miss_hi",
            "crit_edf_miss_lo",
        ],
    );
    let reps = scale.reps(10);
    for rate in [6.0, 8.0, 10.0] {
        let mut cfg = SimConfig::mm_base();
        cfg.workload.high_criticality_fraction = 0.2;
        cfg.run.num_transactions = scale.txns(1000);
        cfg.run.arrival_rate_tps = rate;

        // Baseline: class-blind CCA (criticality ignored).
        let blind = run_replications_with(&cfg, &Cca::base(), reps, opts);
        // Class-aware CCA and EDF: run both policies per seed (possibly
        // in parallel), then fold per-class miss rates in seed order.
        let per_seed = run_seeds(reps, opts, |rep| {
            let mut run_cfg = cfg.clone();
            run_cfg.run.seed = rep as u64;
            (
                rtx_rtdb::run_simulation(&run_cfg, &Criticality::new(Cca::base())),
                rtx_rtdb::run_simulation(&run_cfg, &Criticality::new(EdfHp)),
            )
        });
        let mut crit_cca = [Replications::new(), Replications::new()];
        let mut crit_edf = [Replications::new(), Replications::new()];
        for (c, e) in per_seed {
            for (agg, s) in [(&mut crit_cca, c), (&mut crit_edf, e)] {
                for (class, slot) in agg.iter_mut().enumerate() {
                    slot.record(s.miss_percent_by_class.get(class).copied().unwrap_or(0.0));
                }
            }
        }
        t.push_numeric_row(&[
            rate,
            blind.miss_percent.mean,
            crit_cca[1].estimate().mean,
            crit_cca[0].estimate().mean,
            crit_edf[1].estimate().mean,
            crit_edf[0].estimate().mean,
        ]);
    }
    t
}

/// Build one replication of the branching workload: types with a common
/// prefix and two alternative suffixes. The instance's concrete items
/// follow the branch its "program semantics" takes, but the analysis only
/// learns the branch when the decision point executes.
fn branching_workload_txns(cfg: &SimConfig, seed: u64, narrowing: bool) -> Vec<Transaction> {
    let seeder = StreamSeeder::new(seed);
    let mut type_rng = seeder.stream("branch-types");
    let db = cfg.workload.db_size;

    struct BranchType {
        prefix: Vec<ItemId>,
        suffixes: [Vec<ItemId>; 2],
        full: DataSet,
        update_time: SimDuration,
    }
    let types: Vec<BranchType> = (0..cfg.workload.num_types)
        .map(|k| {
            // A short common prefix and two large alternative suffixes:
            // the decision point executes early and rules out 8 of the 20
            // items, so the refinement has real leverage.
            let drawn = sample_distinct(&mut type_rng, db, 20);
            let ids: Vec<ItemId> = drawn.into_iter().map(|i| ItemId(i as u32)).collect();
            let prefix = ids[0..4].to_vec();
            let sa = ids[4..12].to_vec();
            let sb = ids[12..20].to_vec();
            let full = ids.iter().copied().collect();
            BranchType {
                prefix,
                suffixes: [sa, sb],
                full,
                update_time: cfg.workload.update_time_for_type(k),
            }
        })
        .collect();

    let mut arr_rng = seeder.stream("branch-arrivals");
    let mut pick_rng = seeder.stream("branch-pick");
    let mut slack_rng = seeder.stream("branch-slack");
    let mut io_rng = seeder.stream("branch-io");
    let mut clock = SimTime::ZERO;
    (0..cfg.run.num_transactions)
        .map(|i| {
            let gap = exponential(&mut arr_rng, 1.0 / cfg.run.arrival_rate_tps);
            clock += SimDuration::from_secs(gap);
            let ty_idx = uniform_below(&mut pick_rng, types.len() as u64) as usize;
            let branch = uniform_below(&mut pick_rng, 2) as usize;
            let ty = &types[ty_idx];
            let mut items = ty.prefix.clone();
            items.extend_from_slice(&ty.suffixes[branch]);
            let narrowed: DataSet = items.iter().copied().collect();
            let io_pattern: Vec<bool> = match &cfg.system.disk {
                None => Vec::new(),
                Some(d) => (0..items.len())
                    .map(|_| rtx_sim::dist::bernoulli(&mut io_rng, d.access_prob))
                    .collect(),
            };
            let io_time = match &cfg.system.disk {
                None => SimDuration::ZERO,
                Some(d) => d.access_time() * io_pattern.iter().filter(|&&b| b).count() as u64,
            };
            let resource_time = ty.update_time * items.len() as u64 + io_time;
            let slack = uniform_range(
                &mut slack_rng,
                cfg.workload.min_slack,
                cfg.workload.max_slack,
            );
            let deadline = clock + resource_time.scale(1.0 + slack);
            Transaction {
                id: TxnId(i as u32),
                ty: TypeId(ty_idx as u32),
                arrival: clock,
                deadline,
                resource_time,
                items,
                io_pattern,
                update_time: ty.update_time,
                might_access: ty.full.clone(),
                decision: narrowing.then(|| DecisionSpec {
                    after_update: ty.prefix.len(),
                    full: ty.full.clone(),
                    narrowed,
                }),
                ..Default::default()
            }
        })
        .collect()
}

/// One replication of the branching experiment under one policy.
fn run_branching(cfg: &SimConfig, policy: &dyn Policy, seed: u64, narrowing: bool) -> RunSummary {
    let txns = branching_workload_txns(cfg, seed, narrowing);
    let n = txns.len();
    let mut source = ReplaySource::new(txns);
    run_simulation_from(cfg, policy, &mut source, n)
}

/// `ext-branching`: CCA pricing conditional conflicts with narrowing
/// (`cca_narrow`) vs the pessimistic analysis (`cca_pessim`) vs EDF-HP,
/// on a **disk-resident** branching-program workload over a 60-item
/// database. Disk residence is where the refinement has leverage: the
/// `IOwait-schedule` compatibility test admits more secondaries once a
/// partial transaction's `mightaccess` has narrowed past its decision
/// point. (On main memory the refinement only perturbs penalties and is
/// empirically inert — a null result recorded in EXPERIMENTS.md.)
pub fn branching_workload(scale: Scale, opts: &ReplicationOptions) -> Table {
    let mut cfg = SimConfig::disk_base();
    cfg.workload.db_size = 60; // room for 20-item branching types
    cfg.run.num_transactions = scale.txns(300);
    let reps = scale.reps(20);

    let mut t = Table::new(
        "ext-branching",
        &[
            "arrival_tps",
            "edf_miss",
            "cca_pessim_miss",
            "cca_narrow_miss",
        ],
    );
    for rate in [3.0, 5.0, 7.0] {
        cfg.run.arrival_rate_tps = rate;
        let per_seed = run_seeds(reps, opts, |rep| {
            let seed = rep as u64;
            (
                run_branching(&cfg, &EdfHp, seed, false).miss_percent,
                run_branching(&cfg, &Cca::base(), seed, false).miss_percent,
                run_branching(&cfg, &Cca::base(), seed, true).miss_percent,
            )
        });
        let mut edf = Replications::new();
        let mut pessim = Replications::new();
        let mut narrow = Replications::new();
        for (e, p, n) in per_seed {
            edf.record(e);
            pessim.record(p);
            narrow.record(n);
        }
        t.push_numeric_row(&[
            rate,
            edf.estimate().mean,
            pessim.estimate().mean,
            narrow.estimate().mean,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branching_txns_well_formed() {
        let mut cfg = SimConfig::mm_base();
        cfg.workload.db_size = 60;
        cfg.run.num_transactions = 20;
        let txns = branching_workload_txns(&cfg, 1, true);
        assert!(txns.iter().all(|t| t.io_pattern.is_empty()), "mm: no io");
        assert_eq!(txns.len(), 20);
        for (i, t) in txns.iter().enumerate() {
            assert_eq!(t.id.0 as usize, i);
            assert_eq!(t.items.len(), 12, "prefix 4 + suffix 8");
            let d = t.decision.as_ref().unwrap();
            assert_eq!(d.after_update, 4);
            // narrowed ⊆ full, and the concrete items are the narrowed set.
            assert!(d.narrowed.is_subset(&d.full));
            let concrete: DataSet = t.items.iter().copied().collect();
            assert_eq!(concrete, d.narrowed);
            assert_eq!(t.might_access, d.full, "pessimistic at start");
        }
    }

    #[test]
    fn branching_disk_instances_have_io() {
        let mut cfg = SimConfig::disk_base();
        cfg.workload.db_size = 60;
        cfg.run.num_transactions = 50;
        let txns = branching_workload_txns(&cfg, 1, true);
        assert!(txns.iter().all(|t| t.io_pattern.len() == t.items.len()));
        let io: usize = txns
            .iter()
            .map(|t| t.io_pattern.iter().filter(|&&b| b).count())
            .sum();
        assert!(io > 0, "some updates need the disk");
    }

    #[test]
    fn branching_deterministic_per_seed() {
        let mut cfg = SimConfig::mm_base();
        cfg.workload.db_size = 60;
        cfg.run.num_transactions = 30;
        cfg.run.arrival_rate_tps = 8.0;
        let a = run_branching(&cfg, &EdfHp, 3, true);
        let b = run_branching(&cfg, &EdfHp, 3, true);
        assert_eq!(a, b);
        assert_eq!(a.committed, 30);
    }

    #[test]
    fn narrowing_runs_complete() {
        let mut cfg = SimConfig::mm_base();
        cfg.workload.db_size = 60;
        cfg.run.num_transactions = 40;
        cfg.run.arrival_rate_tps = 10.0;
        let s = run_branching(&cfg, &Cca::base(), 5, true);
        assert_eq!(s.committed, 40);
        assert_eq!(s.lock_waits, 0, "CCA never lock-waits, even branching");
    }
}
