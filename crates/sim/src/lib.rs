//! `rtx-sim` — a small, deterministic discrete-event simulation kernel.
//!
//! This crate replaces the C + SIMPACK substrate the paper's evaluation was
//! built on. It provides:
//!
//! * [`time`] — integer-microsecond simulation clock types;
//! * [`calendar`] — the future event list with O(log n) schedule/cancel and
//!   deterministic FIFO ordering of simultaneous events;
//! * [`clock`] — virtual vs wall-clock time sources, so a serving loop can
//!   pace the same event machinery against real time;
//! * [`rng`] — self-contained xoshiro256++ generators with labelled,
//!   independently derivable streams per simulation component;
//! * [`dist`] — the exact variate families the workload model needs
//!   (exponential, normal, uniform, Bernoulli, distinct sampling);
//! * [`fault`] — deterministic disk- and CPU-fault injection plans
//!   (transient errors, slowdowns, brownout windows) on dedicated RNG
//!   streams;
//! * [`stats`] — within-run accumulators, time-weighted state averages and
//!   across-replication confidence intervals;
//! * [`hist`] — log-bucketed histograms for tail quantiles.
//!
//! Everything is single-threaded and allocation-light by design: runs must
//! be bit-reproducible given a seed, which is what the cross-crate
//! determinism tests assert.
//!
//! # Example
//!
//! ```
//! use rtx_sim::calendar::Calendar;
//! use rtx_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Arrival(u32), Done(u32) }
//!
//! let mut cal = Calendar::new();
//! cal.schedule(SimTime::from_ms(1.0), Ev::Arrival(0));
//! while let Some(fired) = cal.pop() {
//!     match fired.payload {
//!         Ev::Arrival(id) => {
//!             // serve for 4 ms
//!             cal.schedule(fired.time + SimDuration::from_ms(4.0), Ev::Done(id));
//!         }
//!         Ev::Done(id) => assert_eq!(id, 0),
//!     }
//! }
//! assert_eq!(cal.now(), SimTime::from_ms(5.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calendar;
pub mod clock;
pub mod dist;
pub mod fault;
pub mod hist;
pub mod rng;
pub mod stats;
pub mod time;

pub use calendar::{Calendar, EventHandle, Fired};
pub use clock::Clock;
pub use fault::{Attempt, Brownout, CpuFaultPlan, FaultInjector, FaultPlan, Resource};
pub use hist::Histogram;
pub use rng::{StreamSeeder, Xoshiro256};
pub use stats::{Accumulator, Estimate, Replications, TimeWeighted};
pub use time::{SimDuration, SimTime};
