//! Simulation parameters, mirroring Table 1 (main memory) and Table 2
//! (disk resident) of the paper, plus the robustness extensions (fault
//! plan, admission control, run watchdog) that the paper's tables do not
//! model.

use crate::error::ConfigError;
use rtx_sim::fault::FaultPlan;
use rtx_sim::time::SimDuration;

/// Workload-shape parameters (shared by both resident models).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of transaction types ("Transaction type 50").
    pub num_types: usize,
    /// Mean of the per-type update count ("Update per transaction (mean)").
    pub updates_mean: f64,
    /// Standard deviation of the update count.
    pub updates_std: f64,
    /// Number of objects in the database ("Database size").
    pub db_size: u64,
    /// Lower bound of slack as a fraction of the resource time
    /// ("Min-slack as fraction of total runtime", 20% → 0.2).
    pub min_slack: f64,
    /// Upper bound of slack (800% → 8.0).
    pub max_slack: f64,
    /// Probability that an update only *reads* its item (shared lock).
    /// The paper's model is write-only (`0.0`, §3.1); non-zero values
    /// drive the §6 shared-lock extension experiment.
    pub read_probability: f64,
    /// Fraction of instances drawn as high-criticality (class 1). The
    /// paper assumes "same criticalness" (`0.0`); non-zero values drive
    /// the §6 "multiple criticalness" extension experiment.
    pub high_criticality_fraction: f64,
    /// Per-update CPU times, one per *class* of transaction types.
    ///
    /// The base experiments use a single class of 4 ms
    /// ("Computation/update (ms) 4"); the high-variance experiment (§4.2)
    /// classifies the 50 types into 3 classes with 0.4 / 4 / 40 ms. Types
    /// are assigned to classes round-robin by type index.
    pub update_time_classes_ms: Vec<f64>,
}

impl WorkloadConfig {
    /// The per-update CPU time of type `type_index`.
    pub fn update_time_for_type(&self, type_index: usize) -> SimDuration {
        let class = type_index % self.update_time_classes_ms.len();
        SimDuration::from_ms(self.update_time_classes_ms[class])
    }

    /// Validate parameter sanity; returns the first problem found as a
    /// typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_types == 0 {
            return Err(ConfigError::ZeroTypes);
        }
        if self.db_size == 0 {
            return Err(ConfigError::ZeroDbSize);
        }
        if self.updates_mean <= 0.0 {
            return Err(ConfigError::NonPositiveUpdatesMean);
        }
        if self.updates_std < 0.0 {
            return Err(ConfigError::NegativeUpdatesStd);
        }
        if self.min_slack < 0.0 || self.max_slack < self.min_slack {
            return Err(ConfigError::BadSlackRange {
                min: self.min_slack,
                max: self.max_slack,
            });
        }
        if !(0.0..=1.0).contains(&self.read_probability) {
            return Err(ConfigError::ProbabilityOutOfRange {
                field: "read_probability",
                value: self.read_probability,
            });
        }
        if !(0.0..=1.0).contains(&self.high_criticality_fraction) {
            return Err(ConfigError::ProbabilityOutOfRange {
                field: "high_criticality_fraction",
                value: self.high_criticality_fraction,
            });
        }
        if self.update_time_classes_ms.is_empty()
            || self.update_time_classes_ms.iter().any(|&t| t <= 0.0)
        {
            return Err(ConfigError::BadUpdateTimeClasses);
        }
        Ok(())
    }
}

/// Feasibility-based admission control (config-gated; `None` disables it).
///
/// On arrival the engine estimates whether the transaction can possibly
/// finish by its deadline: estimated execution time plus the current
/// penalty of conflict, inflated by a safety factor, must fit within the
/// deadline. Transactions that fail the test are **rejected** — a distinct
/// outcome class from *missed* (ran, finished late or was discarded at its
/// deadline) — so the miss ratio decomposes into missed/aborted/rejected.
///
/// The safety factor is either pinned for the whole run (`Static`) or
/// driven by a windowed miss-ratio feedback controller (`Adaptive`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionConfig {
    /// One safety factor for the whole run — the original admission test.
    Static {
        /// Multiplier applied to the execution + conflict-penalty
        /// estimate (`1.0` = admit exactly when the raw estimate fits;
        /// larger values reject earlier).
        safety_factor: f64,
    },
    /// Miss-ratio feedback: the factor starts at
    /// [`AdaptiveAdmission::base_factor`] and moves with the observed
    /// windowed miss percentage.
    Adaptive(AdaptiveAdmission),
}

/// Parameters of the miss-ratio feedback admission controller.
///
/// The engine tallies commits and deadline misses over fixed windows of
/// simulated time. When a window closes with miss% above
/// `target_miss_percent`, the safety factor is multiplied by `tighten`
/// (rejecting earlier); when it closes below `hysteresis ×
/// target_miss_percent`, the factor is multiplied by `relax` (letting
/// load back in). The factor is clamped to `[base_factor, max_factor]`,
/// and the hysteresis band between the two thresholds keeps the
/// controller from oscillating on every window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveAdmission {
    /// Starting (and minimum) safety factor.
    pub base_factor: f64,
    /// Ceiling on the safety factor (`≥ base_factor`).
    pub max_factor: f64,
    /// Windowed miss percentage the controller steers toward (`> 0`).
    pub target_miss_percent: f64,
    /// Controller window length in simulated milliseconds (`> 0`).
    pub window_ms: f64,
    /// Multiplier applied when a window misses above target (`> 1`).
    pub tighten: f64,
    /// Multiplier applied when a window misses below the hysteresis
    /// threshold (`0 < relax < 1`).
    pub relax: f64,
    /// Fraction of the target below which the controller relaxes
    /// (`0 ≤ hysteresis ≤ 1`); windows between `hysteresis × target` and
    /// `target` leave the factor unchanged.
    pub hysteresis: f64,
}

impl AdaptiveAdmission {
    /// A reasonable starting point: no margin at rest, up to 8× under
    /// sustained misses, steering toward 5% windowed misses over 1-second
    /// windows.
    pub fn default_controller() -> Self {
        AdaptiveAdmission {
            base_factor: 1.0,
            max_factor: 8.0,
            target_miss_percent: 5.0,
            window_ms: 1000.0,
            tighten: 1.5,
            relax: 0.9,
            hysteresis: 0.5,
        }
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let bad = |msg: String| Err(ConfigError::BadAdmission(msg));
        if !self.base_factor.is_finite() || self.base_factor <= 0.0 {
            return bad(format!(
                "base_factor {} must be positive and finite",
                self.base_factor
            ));
        }
        if !self.max_factor.is_finite() || self.max_factor < self.base_factor {
            return bad(format!(
                "max_factor {} must be ≥ base_factor {}",
                self.max_factor, self.base_factor
            ));
        }
        if !self.target_miss_percent.is_finite() || self.target_miss_percent <= 0.0 {
            return bad(format!(
                "target_miss_percent {} must be positive",
                self.target_miss_percent
            ));
        }
        if !self.window_ms.is_finite() || self.window_ms <= 0.0 {
            return bad(format!("window_ms {} must be positive", self.window_ms));
        }
        if !self.tighten.is_finite() || self.tighten <= 1.0 {
            return bad(format!("tighten {} must be > 1", self.tighten));
        }
        if !self.relax.is_finite() || self.relax <= 0.0 || self.relax >= 1.0 {
            return bad(format!("relax {} must be in (0,1)", self.relax));
        }
        if !self.hysteresis.is_finite() || !(0.0..=1.0).contains(&self.hysteresis) {
            return bad(format!("hysteresis {} must be in [0,1]", self.hysteresis));
        }
        Ok(())
    }
}

impl AdmissionConfig {
    /// Static admission with no safety margin.
    pub fn lenient() -> Self {
        AdmissionConfig::Static { safety_factor: 1.0 }
    }

    /// Adaptive admission with the default controller parameters.
    pub fn adaptive() -> Self {
        AdmissionConfig::Adaptive(AdaptiveAdmission::default_controller())
    }

    /// The safety factor the run starts with (static factor, or the
    /// adaptive controller's base).
    pub fn initial_factor(&self) -> f64 {
        match self {
            AdmissionConfig::Static { safety_factor } => *safety_factor,
            AdmissionConfig::Adaptive(a) => a.base_factor,
        }
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            AdmissionConfig::Static { safety_factor } => {
                if !safety_factor.is_finite() || *safety_factor <= 0.0 {
                    return Err(ConfigError::BadAdmission(format!(
                        "safety_factor {safety_factor} must be positive and finite"
                    )));
                }
                Ok(())
            }
            AdmissionConfig::Adaptive(a) => a.validate(),
        }
    }
}

/// Hard limits on one replication, enforced by the engine's event loop.
///
/// A run that exceeds either limit is stopped with a typed
/// [`crate::error::RunError`] instead of spinning forever. This is the
/// one check that catches a livelocked run, say under a fault plan where
/// no disk transfer ever succeeds. [`crate::engine::run_simulation_checked`]
/// returns the error; the other entry points panic with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Maximum number of calendar events the run may process.
    pub max_events: u64,
    /// Maximum simulated time the run may reach, ms.
    pub max_sim_ms: f64,
}

impl WatchdogConfig {
    /// Generous limits: far above anything a healthy run produces, low
    /// enough to stop a livelocked one promptly.
    pub fn generous(num_transactions: usize) -> Self {
        WatchdogConfig {
            max_events: (num_transactions as u64).saturating_mul(100_000).max(1),
            max_sim_ms: 1e9,
        }
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_events == 0 {
            return Err(ConfigError::BadWatchdog(
                "max_events must be positive".into(),
            ));
        }
        if !self.max_sim_ms.is_finite() || self.max_sim_ms <= 0.0 {
            return Err(ConfigError::BadWatchdog(format!(
                "max_sim_ms {} must be positive and finite",
                self.max_sim_ms
            )));
        }
        Ok(())
    }
}

/// Disk parameters (§5; `None` in [`SystemConfig`] models the main-memory
/// resident database of §4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskConfig {
    /// Time for one disk access ("Disk access time (ms) 25").
    pub access_time_ms: f64,
    /// Probability that an update needs a disk access
    /// ("Disk access probability 1/10").
    pub access_prob: f64,
    /// IO queue discipline (FCFS in the paper; EDF for the
    /// `ablate-disk-sched` experiment).
    pub discipline: crate::disk::DiskDiscipline,
}

impl DiskConfig {
    /// Disk access duration.
    pub fn access_time(&self) -> SimDuration {
        SimDuration::from_ms(self.access_time_ms)
    }
}

/// Resource-model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// CPU time to roll a transaction back ("abort cost (ms)": 4 for main
    /// memory, 5 for disk resident).
    pub abort_cost_ms: f64,
    /// Disk model, if the database is disk resident.
    pub disk: Option<DiskConfig>,
    /// When `true`, rollback consumes CPU time proportional to the work the
    /// victim had performed (`abort_cost_ms` per performed update) instead
    /// of the paper's flat cost. This is the §6 ablation: "if the recovery
    /// cost is proportional to the execution of a transaction … then our
    /// approach is very attractive".
    pub proportional_recovery: bool,
    /// Disk fault-injection plan. [`FaultPlan::none()`] (the default built
    /// by every constructor) injects nothing and consumes no randomness,
    /// keeping fault-free runs byte-identical to pre-fault builds.
    pub faults: FaultPlan,
    /// Feasibility-based admission control; `None` admits everything.
    pub admission: Option<AdmissionConfig>,
}

impl SystemConfig {
    /// Abort (rollback) cost as a duration.
    pub fn abort_cost(&self) -> SimDuration {
        SimDuration::from_ms(self.abort_cost_ms)
    }
}

/// Parameters of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Mean transaction arrival rate, transactions/second (Poisson).
    pub arrival_rate_tps: f64,
    /// Number of transactions per run (1000 main memory, 300 disk).
    pub num_transactions: usize,
    /// Master seed: the type table and all stochastic draws derive from it.
    pub seed: u64,
    /// Hard event-count / sim-time limits; `None` runs unbounded.
    pub watchdog: Option<WatchdogConfig>,
}

/// Full configuration of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Resource model.
    pub system: SystemConfig,
    /// Run parameters.
    pub run: RunConfig,
}

impl SimConfig {
    /// Table 1: the main-memory base parameters.
    pub fn mm_base() -> Self {
        SimConfig {
            workload: WorkloadConfig {
                num_types: 50,
                updates_mean: 20.0,
                updates_std: 10.0,
                db_size: 30,
                min_slack: 0.2,
                max_slack: 8.0,
                read_probability: 0.0,
                high_criticality_fraction: 0.0,
                update_time_classes_ms: vec![4.0],
            },
            system: SystemConfig {
                abort_cost_ms: 4.0,
                disk: None,
                proportional_recovery: false,
                faults: FaultPlan::none(),
                admission: None,
            },
            run: RunConfig {
                arrival_rate_tps: 5.0,
                num_transactions: 1000,
                seed: 0,
                watchdog: None,
            },
        }
    }

    /// §4.2: the high-variance main-memory workload — 3 classes with
    /// 0.4 / 4 / 40 ms per update.
    pub fn mm_high_variance() -> Self {
        let mut cfg = Self::mm_base();
        cfg.workload.update_time_classes_ms = vec![0.4, 4.0, 40.0];
        cfg
    }

    /// Table 2: the disk-resident base parameters.
    pub fn disk_base() -> Self {
        SimConfig {
            workload: WorkloadConfig {
                num_types: 50,
                updates_mean: 20.0,
                updates_std: 10.0,
                db_size: 30,
                min_slack: 0.2,
                max_slack: 8.0,
                read_probability: 0.0,
                high_criticality_fraction: 0.0,
                update_time_classes_ms: vec![4.0],
            },
            system: SystemConfig {
                abort_cost_ms: 5.0,
                disk: Some(DiskConfig {
                    access_time_ms: 25.0,
                    access_prob: 0.1,
                    discipline: crate::disk::DiskDiscipline::Fcfs,
                }),
                proportional_recovery: false,
                faults: FaultPlan::none(),
                admission: None,
            },
            run: RunConfig {
                arrival_rate_tps: 4.0,
                num_transactions: 300,
                seed: 0,
                watchdog: None,
            },
        }
    }

    /// The system's theoretical CPU capacity in transactions/second,
    /// disregarding aborts (§4.1's "12.5 transactions/second" calculation).
    pub fn cpu_capacity_tps(&self) -> f64 {
        let mean_update_ms = self.workload.update_time_classes_ms.iter().sum::<f64>()
            / self.workload.update_time_classes_ms.len() as f64;
        1000.0 / (mean_update_ms * self.workload.updates_mean)
    }

    /// Expected disk utilization at a given arrival rate, disregarding
    /// aborts (§5's "62.5%" calculation). Zero for main memory.
    pub fn disk_utilization_at(&self, arrival_tps: f64) -> f64 {
        match &self.system.disk {
            None => 0.0,
            Some(d) => {
                arrival_tps * self.workload.updates_mean * d.access_prob * d.access_time_ms / 1000.0
            }
        }
    }

    /// Validate all parameters; returns the first problem found as a
    /// typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.workload.validate()?;
        if self.system.abort_cost_ms < 0.0 {
            return Err(ConfigError::NegativeAbortCost);
        }
        if let Some(d) = &self.system.disk {
            if d.access_time_ms <= 0.0 {
                return Err(ConfigError::NonPositiveDiskAccessTime);
            }
            if !(0.0..=1.0).contains(&d.access_prob) {
                return Err(ConfigError::ProbabilityOutOfRange {
                    field: "disk access probability",
                    value: d.access_prob,
                });
            }
        }
        self.system
            .faults
            .validate()
            .map_err(ConfigError::BadFaultPlan)?;
        if !self.system.faults.disk_is_none() && self.system.disk.is_none() {
            return Err(ConfigError::FaultsWithoutDisk);
        }
        if let Some(a) = &self.system.admission {
            a.validate()?;
        }
        if self.run.arrival_rate_tps <= 0.0 {
            return Err(ConfigError::NonPositiveArrivalRate);
        }
        if self.run.num_transactions == 0 {
            return Err(ConfigError::ZeroTransactions);
        }
        if let Some(w) = &self.run.watchdog {
            w.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters() {
        let cfg = SimConfig::mm_base();
        assert_eq!(cfg.workload.num_types, 50);
        assert_eq!(cfg.workload.updates_mean, 20.0);
        assert_eq!(cfg.workload.updates_std, 10.0);
        assert_eq!(cfg.workload.db_size, 30);
        assert_eq!(cfg.workload.min_slack, 0.2);
        assert_eq!(cfg.workload.max_slack, 8.0);
        assert_eq!(cfg.system.abort_cost_ms, 4.0);
        assert!(cfg.system.disk.is_none());
        assert_eq!(cfg.run.num_transactions, 1000);
        cfg.validate().unwrap();
    }

    #[test]
    fn table2_parameters() {
        let cfg = SimConfig::disk_base();
        assert_eq!(cfg.system.abort_cost_ms, 5.0);
        let d = cfg.system.disk.unwrap();
        assert_eq!(d.access_time_ms, 25.0);
        assert_eq!(d.access_prob, 0.1);
        assert_eq!(cfg.run.num_transactions, 300);
        cfg.validate().unwrap();
    }

    #[test]
    fn paper_capacity_calculations() {
        // §4.1: 4 ms/update × 20 updates → 80 ms/txn → 12.5 tps.
        let mm = SimConfig::mm_base();
        assert!((mm.cpu_capacity_tps() - 12.5).abs() < 1e-9);
        // §4.2: mean of (0.4, 4, 40) × 20 → 296 ms → ≈3.37 tps.
        let hv = SimConfig::mm_high_variance();
        assert!((hv.cpu_capacity_tps() - 1000.0 / 296.0).abs() < 1e-9);
        // §5: at 12.5 tps the disk is 62.5% utilized.
        let disk = SimConfig::disk_base();
        assert!((disk.disk_utilization_at(12.5) - 0.625).abs() < 1e-9);
    }

    #[test]
    fn class_assignment_round_robin() {
        let hv = SimConfig::mm_high_variance();
        assert_eq!(
            hv.workload.update_time_for_type(0),
            SimDuration::from_ms(0.4)
        );
        assert_eq!(
            hv.workload.update_time_for_type(1),
            SimDuration::from_ms(4.0)
        );
        assert_eq!(
            hv.workload.update_time_for_type(2),
            SimDuration::from_ms(40.0)
        );
        assert_eq!(
            hv.workload.update_time_for_type(3),
            SimDuration::from_ms(0.4)
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SimConfig::mm_base();
        cfg.workload.db_size = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::mm_base();
        cfg.workload.min_slack = 2.0;
        cfg.workload.max_slack = 1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::mm_base();
        cfg.run.arrival_rate_tps = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::disk_base();
        cfg.system.disk = Some(DiskConfig {
            access_time_ms: 25.0,
            access_prob: 1.5,
            discipline: crate::disk::DiskDiscipline::Fcfs,
        });
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::mm_base();
        cfg.workload.update_time_classes_ms = vec![];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_errors_are_typed() {
        use crate::error::ConfigError;

        let mut cfg = SimConfig::mm_base();
        cfg.workload.num_types = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroTypes));

        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroTransactions));

        let mut cfg = SimConfig::mm_base();
        cfg.workload.read_probability = -0.5;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ProbabilityOutOfRange {
                field: "read_probability",
                ..
            })
        ));
    }

    #[test]
    fn validation_covers_robustness_extensions() {
        use crate::error::ConfigError;
        use rtx_sim::fault::FaultPlan;

        // Faults on a main-memory config: nothing to fault.
        let mut cfg = SimConfig::mm_base();
        cfg.system.faults = FaultPlan {
            error_prob: 0.1,
            ..FaultPlan::none()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::FaultsWithoutDisk));

        // Same plan on the disk config is fine.
        let mut cfg = SimConfig::disk_base();
        cfg.system.faults = FaultPlan {
            error_prob: 0.1,
            ..FaultPlan::none()
        };
        cfg.validate().unwrap();

        // Malformed plan parameters are caught.
        let mut cfg = SimConfig::disk_base();
        cfg.system.faults = FaultPlan {
            error_prob: 2.0,
            ..FaultPlan::none()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::BadFaultPlan(_))));

        // Admission and watchdog parameters are validated too.
        let mut cfg = SimConfig::mm_base();
        cfg.system.admission = Some(AdmissionConfig::Static { safety_factor: 0.0 });
        assert!(matches!(cfg.validate(), Err(ConfigError::BadAdmission(_))));
        cfg.system.admission = Some(AdmissionConfig::lenient());
        cfg.validate().unwrap();

        // A CPU fault section is valid without a disk (it faults the
        // processor, not the disk) but its parameters are still checked.
        let mut cfg = SimConfig::mm_base();
        cfg.system.faults.cpu = Some(rtx_sim::fault::CpuFaultPlan {
            stall_prob: 0.1,
            slow_prob: 0.0,
            slow_factor: 2.0,
            retry_budget: 2,
            backoff_base_ms: 1.0,
            backoff_cap_ms: 4.0,
            brownout: None,
        });
        cfg.validate().unwrap();
        cfg.system.faults.cpu.as_mut().unwrap().stall_prob = 1.5;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadFaultPlan(_))));

        // Adaptive admission parameters are validated.
        let mut cfg = SimConfig::mm_base();
        cfg.system.admission = Some(AdmissionConfig::adaptive());
        cfg.validate().unwrap();
        let mut bad = AdaptiveAdmission::default_controller();
        bad.relax = 1.5;
        cfg.system.admission = Some(AdmissionConfig::Adaptive(bad));
        assert!(matches!(cfg.validate(), Err(ConfigError::BadAdmission(_))));

        let mut cfg = SimConfig::mm_base();
        cfg.run.watchdog = Some(WatchdogConfig {
            max_events: 0,
            max_sim_ms: 100.0,
        });
        assert!(matches!(cfg.validate(), Err(ConfigError::BadWatchdog(_))));
        cfg.run.watchdog = Some(WatchdogConfig::generous(cfg.run.num_transactions));
        cfg.validate().unwrap();
    }
}
