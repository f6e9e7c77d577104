//! The Cost Conscious Approach — the paper's contribution.
//!
//! Dynamic priority assignment with continuous evaluation:
//!
//! ```text
//! Pr(Ti) = -(di + w · TLi)
//! ```
//!
//! where `di` is the deadline, `TLi` the penalty of conflict and `w` the
//! penalty-weight parameter. With `w = 0` this degenerates to EDF-HP; as
//! `w → ∞` it approaches EDF-Wait (transactions whose execution would
//! destroy partially executed work are deferred essentially forever).
//! On disk-resident databases CCA additionally enables the
//! `IOwait-schedule` step, which only runs transactions compatible with
//! every partially executed transaction during IO waits, eliminating
//! noncontributing executions.

use rtx_rtdb::policy::{Policy, Priority, PriorityDeps, SystemView};
use rtx_rtdb::txn::Transaction;

use crate::penalty::penalty_of_conflict;

/// The CCA scheduling policy.
#[derive(Debug, Clone)]
pub struct Cca {
    /// The penalty-weight `w` ("will be adjusted accordingly to get the
    /// best performance"; Table 1 uses 1).
    weight: f64,
    name: String,
}

impl Cca {
    /// CCA with the given penalty weight.
    ///
    /// # Panics
    /// Panics if `weight` is negative, NaN or infinite (use
    /// [`crate::edf_wait::EdfWait`] for the `w → ∞` limit).
    pub fn new(weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "penalty weight must be finite and non-negative"
        );
        Cca {
            weight,
            name: format!("CCA(w={weight})"),
        }
    }

    /// The base-parameter CCA of Tables 1 and 2 (`w = 1`).
    pub fn base() -> Self {
        Cca::new(1.0)
    }

    /// The penalty weight in use.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

impl Default for Cca {
    fn default() -> Self {
        Cca::base()
    }
}

impl Policy for Cca {
    fn name(&self) -> &str {
        &self.name
    }

    fn priority(&self, txn: &Transaction, view: &SystemView<'_>) -> Priority {
        // Procedure Pr: "calculate (deadline + (penalty-weight × penalty of
        // conflict)); take negative value".
        let penalty_ms = penalty_of_conflict(txn, view).as_ms();
        Priority(-(txn.deadline.as_ms() + self.weight * penalty_ms))
    }

    fn iowait_restrict(&self) -> bool {
        true
    }

    fn conflict_clear_raise(&self, cleared: &Transaction, view: &SystemView<'_>) -> f64 {
        // A victim of the clear loses exactly `w · (effective_service +
        // abort_cost)` of penalty — the term `cleared` contributed — and
        // a non-victim loses nothing, so this bound is tight.
        self.weight * (cleared.effective_service(view.now) + view.abort_cost).as_ms()
    }

    fn depends_on(&self) -> PriorityDeps {
        // The penalty term reads the P-list membership, the victims'
        // access sets and their effective service: time, own state and
        // conflict state all matter. It satisfies both halves of the
        // `ConflictState` key contract: other transactions enter only
        // through `is_unsafe_with` (which partials would be destroyed)
        // and those partials' effective service (shape), and since every
        // penalty term is nonnegative and grows with access growth and
        // the clock, only a partial's clear can *raise* the priority
        // (fall-monotonicity, w >= 0).
        PriorityDeps::ConflictState
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_preanalysis::{DataSet, ItemId};
    use rtx_rtdb::txn::TxnId;
    use rtx_sim::time::{SimDuration, SimTime};

    fn mk(
        id: u32,
        deadline_ms: f64,
        might: &[u32],
        accessed: &[u32],
        service_ms: f64,
    ) -> Transaction {
        Transaction {
            id: TxnId(id),
            deadline: SimTime::from_ms(deadline_ms),
            resource_time: SimDuration::from_ms(80.0),
            items: might.iter().map(|&i| ItemId(i)).collect(),
            update_time: SimDuration::from_ms(4.0),
            might_access: might.iter().map(|&i| ItemId(i)).collect(),
            accessed: accessed.iter().map(|&i| ItemId(i)).collect(),
            service: SimDuration::from_ms(service_ms),
            ..Default::default()
        }
    }

    fn view(txns: &[Transaction]) -> SystemView<'_> {
        SystemView::new(SimTime::ZERO, txns, SimDuration::from_ms(4.0))
    }

    #[test]
    fn zero_weight_is_pure_edf() {
        let cca = Cca::new(0.0);
        let txns = vec![mk(0, 100.0, &[1], &[1], 50.0), mk(1, 90.0, &[1], &[], 0.0)];
        let v = view(&txns);
        // With w=0 the conflicting partial work is ignored entirely.
        assert_eq!(cca.priority(&txns[1], &v), Priority(-90.0));
        assert_eq!(cca.priority(&txns[0], &v), Priority(-100.0));
    }

    #[test]
    fn penalty_demotes_conflicting_candidate() {
        let cca = Cca::base();
        // Candidate 1 (deadline 90) conflicts with a partial that has 50 ms
        // of service → effective priority -(90 + 54) = -144, now WORSE than
        // the non-conflicting candidate 2 (deadline 120).
        let txns = vec![
            mk(0, 100.0, &[1], &[1], 50.0),
            mk(1, 90.0, &[1], &[], 0.0),
            mk(2, 120.0, &[9], &[], 0.0),
        ];
        let v = view(&txns);
        let p1 = cca.priority(&txns[1], &v);
        let p2 = cca.priority(&txns[2], &v);
        assert_eq!(p1, Priority(-144.0));
        assert_eq!(p2, Priority(-120.0));
        assert!(p2 > p1, "CCA defers the expensive transaction");
    }

    #[test]
    fn weight_scales_penalty_linearly() {
        let txns = vec![mk(0, 100.0, &[1], &[1], 16.0), mk(1, 90.0, &[1], &[], 0.0)];
        let v = view(&txns);
        // penalty = 16 + 4 = 20 ms
        for (w, expect) in [(0.5, -100.0), (1.0, -110.0), (5.0, -190.0)] {
            let p = Cca::new(w).priority(&txns[1], &v);
            assert_eq!(p, Priority(expect), "w={w}");
        }
    }

    #[test]
    fn enables_iowait_restriction() {
        assert!(Cca::base().iowait_restrict());
    }

    #[test]
    fn name_includes_weight() {
        assert_eq!(Cca::new(2.0).name(), "CCA(w=2)");
        assert_eq!(Cca::base().weight(), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_rejected() {
        Cca::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_weight_rejected() {
        Cca::new(f64::INFINITY);
    }

    #[test]
    fn aborting_victims_raises_runner_priority() {
        // Lemma 1's mechanism: when the runner aborts its victim, the
        // victim leaves the P-list and the runner's penalty drops, so its
        // priority rises.
        let cca = Cca::base();
        let mut txns = vec![mk(0, 100.0, &[1], &[1], 50.0), mk(1, 90.0, &[1], &[], 0.0)];
        let before = {
            let v = view(&txns);
            cca.priority(&txns[1], &v)
        };
        // Abort the victim: it releases its lock (accessed clears).
        txns[0].accessed = DataSet::new();
        txns[0].service = SimDuration::ZERO;
        let after = {
            let v = view(&txns);
            cca.priority(&txns[1], &v)
        };
        assert!(after > before);
        assert_eq!(after, Priority(-90.0));
    }
}
