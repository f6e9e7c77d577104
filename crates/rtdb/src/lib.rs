//! `rtx-rtdb` — the real-time database simulator the paper's evaluation
//! runs on (§4 main memory, §5 disk resident).
//!
//! The crate is policy-agnostic: it defines the [`policy::Policy`] trait
//! and everything needed to execute a workload under any priority
//! assignment — the concrete CCA / EDF-HP / LSF policies live in
//! `rtx-core`. The pieces:
//!
//! * [`config`] — Table 1 / Table 2 parameter sets and validation, plus
//!   the robustness extensions (fault plan, admission control, watchdog);
//! * [`error`] — typed configuration ([`error::ConfigError`]) and run
//!   ([`error::RunError`]) failures;
//! * [`workload`] — transaction types, Poisson arrivals, deadline
//!   assignment (`deadline = arrival + resource_time × (1 + slack)`);
//! * [`txn`] — run-time transaction state (pipeline stage, locks held,
//!   effective service time, restarts);
//! * [`locks`] — the write-lock table (no lock waits under HP);
//! * [`disk`] — the single FCFS disk;
//! * [`engine`] — the event-driven execution engine with HP conflict
//!   resolution, preemption, IO-wait scheduling and abort/restart;
//! * [`metrics`] — miss percent, mean lateness, restarts per transaction,
//!   utilization, P-list length;
//! * [`runner`] — multi-seed replication and the paper's improvement
//!   formula.
//!
//! # Example
//!
//! ```
//! use rtx_rtdb::config::SimConfig;
//! use rtx_rtdb::engine::run_simulation;
//! use rtx_rtdb::policy::{Policy, Priority, SystemView};
//! use rtx_rtdb::txn::Transaction;
//!
//! struct Edf;
//! impl Policy for Edf {
//!     fn name(&self) -> &str { "EDF-HP" }
//!     fn priority(&self, t: &Transaction, _: &SystemView<'_>) -> Priority {
//!         Priority(-t.deadline.as_ms())
//!     }
//! }
//!
//! let mut cfg = SimConfig::mm_base();
//! cfg.run.num_transactions = 50;
//! let summary = run_simulation(&cfg, &Edf);
//! assert_eq!(summary.committed, 50);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod disk;
pub mod engine;
pub mod error;
pub mod locks;
pub mod metrics;
pub mod policy;
pub mod runner;
pub mod sched;
pub mod source;
pub mod trace;
pub mod txn;
pub mod workload;

pub use config::{
    AdaptiveAdmission, AdmissionConfig, DiskConfig, RunConfig, SimConfig, SystemConfig,
    WatchdogConfig, WorkloadConfig,
};
pub use disk::DiskDiscipline;
pub use engine::{
    run_simulation, run_simulation_checked, run_simulation_from, run_simulation_from_mode,
    run_simulation_profiled, run_simulation_profiled_with_mode, run_simulation_traced,
    run_simulation_validated, run_simulation_with_mode, Completion, CompletionKind, StepEngine,
};
pub use error::{ConfigError, RunError};
pub use metrics::{RunSummary, SchedStats};
pub use policy::{PartiallyExecuted, Policy, Priority, PriorityDeps, SystemView};
pub use runner::{
    aggregate, improvement_percent, run_one, run_one_checked, run_replications,
    run_replications_checked, run_replications_with, run_seeds, run_seeds_checked,
    AggregateSummary, BatchSummary, Parallelism, ReplicationOptions, ReplicationTimer,
};
pub use sched::CacheMode;
pub use source::{ReplaySource, TxnSource};
pub use trace::{Trace, TraceEvent, TraceRecord};
pub use txn::{DecisionSpec, Stage, Transaction, TxnId, TxnState};
pub use workload::{ArrivalGenerator, TxnType, TypeTable};
