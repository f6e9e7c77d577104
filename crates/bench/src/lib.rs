//! `rtx-bench` — the experiment harness.
//!
//! One generator per table and figure of the paper's evaluation (§4 and
//! §5): each experiment runs the simulator at the paper's parameters,
//! averages over the paper's replication counts, prints the series the
//! figure plots, and writes a CSV under `results/`.
//!
//! The binary `experiments` drives it:
//!
//! ```text
//! cargo run -p rtx-bench --release --bin experiments -- all
//! cargo run -p rtx-bench --release --bin experiments -- fig4a fig4c
//! cargo run -p rtx-bench --release --bin experiments -- --quick all
//! ```
//!
//! `--quick` divides the replication counts and run lengths by ~4 for a
//! fast smoke pass; EXPERIMENTS.md records full-scale results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod plot;
pub mod profile;
pub mod table;

pub use plot::render_chart;
pub use profile::{bench_profile_docs, ScenarioSummary};
pub use table::Table;

/// Controls experiment size: full paper scale or a fast smoke pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale replications and run lengths.
    Full,
    /// ~4× smaller for smoke testing.
    Quick,
}

impl Scale {
    /// Scale a replication count.
    pub fn reps(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 4).max(2),
        }
    }

    /// Scale a per-run transaction count.
    pub fn txns(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 4).max(50),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors() {
        assert_eq!(Scale::Full.reps(10), 10);
        assert_eq!(Scale::Quick.reps(10), 2);
        assert_eq!(Scale::Quick.reps(30), 7);
        assert_eq!(Scale::Full.txns(1000), 1000);
        assert_eq!(Scale::Quick.txns(1000), 250);
        assert_eq!(Scale::Quick.txns(100), 50);
    }
}
