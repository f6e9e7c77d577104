//! The experiment registry: one entry per table/figure of the paper plus
//! the ablation/extension studies from DESIGN.md.
//!
//! Experiments are organised into **groups** — sets of ids that share one
//! underlying parameter sweep, so `all` never recomputes a sweep. Each
//! group runs its replications under a caller-supplied
//! [`ReplicationOptions`] (serial or multi-threaded; the output is
//! bit-identical either way, see `rtx_rtdb::runner`) and reports
//! wall-clock plus summed per-replication time, from which a speedup
//! estimate over serial execution is derived.

use std::sync::Arc;
use std::time::Instant;

use rtx_core::{Cca, EdfHp};
use rtx_rtdb::runner::{
    improvement_percent, run_replications_with, AggregateSummary, ReplicationOptions,
    ReplicationTimer,
};
use rtx_rtdb::SimConfig;

use crate::table::Table;
use crate::Scale;

pub mod ablate;
pub mod chaos;
pub mod disk;
pub mod faults;
pub mod mm;
pub mod serve;

/// All experiment ids, in presentation order.
pub const ALL_IDS: &[&str] = &[
    "table1",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig4d",
    "fig4e",
    "fig4f",
    "fig5a",
    "table2",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig5e",
    "fig5f",
    "ablate-recovery",
    "ablate-iowait",
    "ablate-policies",
    "ablate-disk-sched",
    "ext-shared-locks",
    "ext-criticality",
    "ext-branching",
    "faults",
    "faults-admission",
    "serve-vt",
    "chaos",
    "chaos-crash",
];

/// The output of one experiment group: its tables plus timing.
#[derive(Debug)]
pub struct GroupReport {
    /// The ids (of those requested) this group produced.
    pub ids: Vec<&'static str>,
    /// The tables for those ids, in the group's emission order.
    pub tables: Vec<Table>,
    /// Number of simulation runs executed.
    pub runs: u64,
    /// Wall-clock time for the whole group, seconds.
    pub wall_seconds: f64,
    /// Per-replication wall time summed over all workers, seconds — an
    /// estimate of the group's serial cost.
    pub busy_seconds: f64,
}

impl GroupReport {
    /// Estimated speedup over serial execution (`busy / wall`; 1.0 when
    /// no replications ran, e.g. parameter tables).
    pub fn speedup_estimate(&self) -> f64 {
        if self.runs == 0 || self.wall_seconds <= 0.0 {
            1.0
        } else {
            self.busy_seconds / self.wall_seconds
        }
    }
}

/// Run the requested ids group by group, delivering each group's tables
/// and timing to `emit` as soon as the group completes. Ids that share a
/// sweep are computed once.
pub fn run_group_with(
    ids: &[&str],
    scale: Scale,
    opts: &ReplicationOptions,
    mut emit: impl FnMut(GroupReport),
) {
    let want = |id: &str| ids.contains(&id) || ids.contains(&"all");
    let mut group = |group_ids: &[&'static str],
                     compute: &dyn Fn(&ReplicationOptions) -> Vec<Table>| {
        let wanted: Vec<&'static str> = group_ids.iter().copied().filter(|id| want(id)).collect();
        if wanted.is_empty() {
            return;
        }
        let timer = Arc::new(ReplicationTimer::new());
        let timed = opts.clone().with_timer(Arc::clone(&timer));
        let start = Instant::now();
        let tables: Vec<Table> = compute(&timed)
            .into_iter()
            .filter(|t| want(&t.title))
            .collect();
        emit(GroupReport {
            ids: wanted,
            tables,
            runs: timer.runs(),
            wall_seconds: start.elapsed().as_secs_f64(),
            busy_seconds: timer.busy().as_secs_f64(),
        });
    };

    group(&["table1"], &|_| vec![mm::table1()]);
    group(&["fig4a", "fig4b", "fig4c"], &|o| mm::base_sweep(scale, o));
    group(&["fig4d", "fig4e"], &|o| mm::high_variance_sweep(scale, o));
    group(&["fig4f"], &|o| vec![mm::db_size_sweep(scale, o)]);
    group(&["fig5a"], &|o| vec![mm::penalty_weight_sweep(scale, o)]);
    group(&["table2"], &|_| vec![disk::table2()]);
    // The disk sweep emits [fig5b, fig5d, fig5c] (figure order differs
    // from column order in the paper); emission order is preserved.
    group(&["fig5b", "fig5d", "fig5c"], &|o| {
        disk::base_sweep(scale, o)
    });
    group(&["fig5e"], &|o| vec![disk::db_size_sweep(scale, o)]);
    group(&["fig5f"], &|o| vec![disk::penalty_weight_sweep(scale, o)]);
    group(&["ablate-recovery"], &|o| {
        vec![ablate::recovery_cost(scale, o)]
    });
    group(&["ablate-iowait"], &|o| {
        vec![ablate::iowait_mechanism(scale, o)]
    });
    group(&["ablate-policies"], &|o| {
        vec![ablate::policy_zoo(scale, o)]
    });
    group(&["ablate-disk-sched"], &|o| {
        vec![ablate::disk_scheduling(scale, o)]
    });
    group(&["ext-shared-locks"], &|o| {
        vec![ablate::shared_locks(scale, o)]
    });
    group(&["ext-criticality"], &|o| {
        vec![ablate::criticality_classes(scale, o)]
    });
    group(&["ext-branching"], &|o| {
        vec![ablate::branching_workload(scale, o)]
    });
    group(&["faults"], &|o| vec![faults::severity_sweep(scale, o)]);
    group(&["faults-admission"], &|o| {
        vec![faults::admission_sweep(scale, o)]
    });
    group(&["serve-vt"], &|o| vec![serve::vt_sweep(scale, o)]);
    group(&["chaos"], &|o| vec![chaos::overload_sweep(scale, o)]);
    group(&["chaos-crash"], &|o| {
        vec![chaos::crash_supervision(scale, o)]
    });
}

/// One (EDF-HP, CCA) comparison at a single configuration.
pub(crate) struct Pair {
    pub edf: AggregateSummary,
    pub cca: AggregateSummary,
}

/// Run EDF-HP and CCA(base) on the same configuration and replication
/// count.
pub(crate) fn compare(cfg: &SimConfig, reps: usize, opts: &ReplicationOptions) -> Pair {
    Pair {
        edf: run_replications_with(cfg, &EdfHp, reps, opts),
        cca: run_replications_with(cfg, &Cca::base(), reps, opts),
    }
}

impl Pair {
    /// The paper's improvement percentages `(EDF − CCA)/EDF × 100` for
    /// miss percent and mean lateness.
    pub fn improvements(&self) -> (f64, f64) {
        (
            improvement_percent(self.edf.miss_percent.mean, self.cca.miss_percent.mean),
            improvement_percent(
                self.edf.mean_lateness_ms.mean,
                self.cca.mean_lateness_ms.mean,
            ),
        )
    }
}
