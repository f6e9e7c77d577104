//! Typed errors for configuration validation and run execution.
//!
//! [`ConfigError`] enumerates every parameter check performed by
//! [`crate::config::SimConfig::validate`]. [`RunError`] is why one run
//! could not produce a summary: its configuration failed validation, or
//! its [`crate::config::WatchdogConfig`] stopped it.
//! [`crate::engine::run_simulation_checked`] returns it; the other
//! entry points panic on it.

use std::error::Error;
use std::fmt;

/// A specific reason a [`crate::config::SimConfig`] is invalid.
///
/// Mirrors, case by case, the checks in
/// [`crate::config::SimConfig::validate`]; the `Display` text matches the
/// historical string messages so existing error-message assertions keep
/// passing.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `workload.num_types` is zero.
    ZeroTypes,
    /// `workload.db_size` is zero.
    ZeroDbSize,
    /// `workload.updates_mean` is not positive.
    NonPositiveUpdatesMean,
    /// `workload.updates_std` is negative.
    NegativeUpdatesStd,
    /// Slack bounds violate `0 ≤ min ≤ max`.
    BadSlackRange {
        /// Configured lower bound.
        min: f64,
        /// Configured upper bound.
        max: f64,
    },
    /// A probability parameter is outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The out-of-range value.
        value: f64,
    },
    /// `workload.update_time_classes_ms` is empty or contains a
    /// non-positive entry.
    BadUpdateTimeClasses,
    /// `system.abort_cost_ms` is negative.
    NegativeAbortCost,
    /// `disk.access_time_ms` is not positive.
    NonPositiveDiskAccessTime,
    /// `run.arrival_rate_tps` is not positive.
    NonPositiveArrivalRate,
    /// `run.num_transactions` is zero.
    ZeroTransactions,
    /// A non-empty fault plan is configured but the database is
    /// main-memory resident (no disk to fault).
    FaultsWithoutDisk,
    /// The fault plan itself is malformed (reason inside).
    BadFaultPlan(String),
    /// The admission-control parameters are malformed (reason inside).
    BadAdmission(String),
    /// The watchdog limits are malformed (reason inside).
    BadWatchdog(String),
    /// The serving-layer configuration is malformed (reason inside).
    /// Produced by `rtx_serve::Server::start`, not by
    /// [`crate::config::SimConfig::validate`].
    BadServe(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroTypes => write!(f, "num_types must be positive"),
            ConfigError::ZeroDbSize => write!(f, "db_size must be positive"),
            ConfigError::NonPositiveUpdatesMean => write!(f, "updates_mean must be positive"),
            ConfigError::NegativeUpdatesStd => write!(f, "updates_std cannot be negative"),
            ConfigError::BadSlackRange { min, max } => write!(
                f,
                "slack range must satisfy 0 <= min <= max (got min {min}, max {max})"
            ),
            ConfigError::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} must be in [0,1] (got {value})")
            }
            ConfigError::BadUpdateTimeClasses => write!(f, "update time classes must be positive"),
            ConfigError::NegativeAbortCost => write!(f, "abort cost cannot be negative"),
            ConfigError::NonPositiveDiskAccessTime => {
                write!(f, "disk access time must be positive")
            }
            ConfigError::NonPositiveArrivalRate => write!(f, "arrival rate must be positive"),
            ConfigError::ZeroTransactions => write!(f, "num_transactions must be positive"),
            ConfigError::FaultsWithoutDisk => {
                write!(f, "fault plan configured but system has no disk")
            }
            ConfigError::BadFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            ConfigError::BadAdmission(why) => write!(f, "invalid admission control: {why}"),
            ConfigError::BadWatchdog(why) => write!(f, "invalid watchdog: {why}"),
            ConfigError::BadServe(why) => write!(f, "invalid serve config: {why}"),
        }
    }
}

impl Error for ConfigError {}

/// Why one run failed to produce a [`crate::metrics::RunSummary`].
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The configuration failed validation before the run started.
    Config(ConfigError),
    /// The watchdog tripped: the event loop processed more events than
    /// `watchdog.max_events` allows.
    WatchdogEvents {
        /// The configured event limit.
        limit: u64,
    },
    /// The watchdog tripped: simulated time passed `watchdog.max_sim_ms`.
    WatchdogSimTime {
        /// The configured limit, ms.
        limit_ms: f64,
        /// Simulated time when the limit was detected, ms.
        reached_ms: f64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::WatchdogEvents { limit } => {
                write!(f, "watchdog: event budget of {limit} events exhausted")
            }
            RunError::WatchdogSimTime {
                limit_ms,
                reached_ms,
            } => write!(
                f,
                "watchdog: simulated time {reached_ms:.3}ms passed the {limit_ms:.3}ms limit"
            ),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_messages() {
        assert_eq!(
            ConfigError::ZeroTypes.to_string(),
            "num_types must be positive"
        );
        assert_eq!(
            ConfigError::ZeroTransactions.to_string(),
            "num_transactions must be positive"
        );
        assert_eq!(
            ConfigError::ProbabilityOutOfRange {
                field: "read_probability",
                value: 1.5
            }
            .to_string(),
            "read_probability must be in [0,1] (got 1.5)"
        );
    }

    #[test]
    fn run_error_wraps_config_error() {
        let e: RunError = ConfigError::ZeroDbSize.into();
        assert_eq!(e, RunError::Config(ConfigError::ZeroDbSize));
        assert!(e.to_string().contains("db_size"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn watchdog_errors_format() {
        let e = RunError::WatchdogEvents { limit: 10 };
        assert!(e.to_string().contains("10 events"));
        let e = RunError::WatchdogSimTime {
            limit_ms: 100.0,
            reached_ms: 150.5,
        };
        assert!(e.to_string().contains("150.500ms"));
    }
}
