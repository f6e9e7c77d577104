//! Multiple criticalness (§6 future work).
//!
//! "In this paper we assumed that we only have exclusive locks and same
//! criticalness in the system. The effect of shared locks in transactions
//! and multiple criticalness will affect the performance of RTDBS."
//!
//! [`Criticality`] lifts any base policy to a class-aware one with
//! **lexicographic** semantics: a higher-criticality transaction always
//! outranks a lower one; within a class the base policy decides. This is
//! the standard treatment of criticality in the RTDB literature (value
//! classes), and it composes with HP/wound-wait unchanged: a critical
//! transaction wounds its way past non-critical lock holders.

use rtx_rtdb::policy::{Policy, Priority, PriorityDeps, SystemView};
use rtx_rtdb::txn::Transaction;

/// Priority head-room per criticality class: larger than any |deadline +
/// w·penalty| value reachable in a simulated horizon, so classes never
/// interleave.
const CLASS_BAND: f64 = 1e15;

/// Class-aware wrapper around a base policy.
#[derive(Debug, Clone)]
pub struct Criticality<P> {
    inner: P,
    name: String,
}

impl<P: Policy> Criticality<P> {
    /// Wrap `inner` with lexicographic criticality classes.
    pub fn new(inner: P) -> Self {
        let name = format!("Crit<{}>", inner.name());
        Criticality { inner, name }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Policy> Policy for Criticality<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn priority(&self, txn: &Transaction, view: &SystemView<'_>) -> Priority {
        let base = self.inner.priority(txn, view);
        Priority(base.0 + txn.criticality as f64 * CLASS_BAND)
    }

    fn iowait_restrict(&self) -> bool {
        self.inner.iowait_restrict()
    }

    fn conflict_clear_raise(&self, cleared: &Transaction, view: &SystemView<'_>) -> f64 {
        // The class offset is a per-transaction constant: it cancels in
        // any before/after difference, so the base policy's rise bound is
        // the wrapper's rise bound.
        self.inner.conflict_clear_raise(cleared, view)
    }

    fn depends_on(&self) -> PriorityDeps {
        // The class offset is static; the base policy's dependencies are
        // the wrapper's dependencies. Adding a per-transaction constant
        // preserves the base policy's `ConflictState` key contract
        // (constants drop out of any difference), so the delegated hint
        // stays valid under the clear-repair walk too.
        self.inner.depends_on()
    }

    fn time_invariant_key(&self, txn: &Transaction) -> Option<f64> {
        // base ≈ now + K_inner  ⇒  wrapped ≈ now + (K_inner + class·band).
        // The extra addition re-rounds, but the engine's index only needs
        // `K` to order candidates and bound the exact value to within a
        // few ulp of the largest magnitude involved. Its validation nudge
        // is 32 ulp of the run's largest |K|, so it covers the band term's
        // rounding. With a critical class present that scale is ~1e15 and
        // every bound loosens by ~7 ms, which costs extra validations,
        // never soundness.
        self.inner
            .time_invariant_key(txn)
            .map(|k| k + txn.criticality as f64 * CLASS_BAND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cca, EdfHp};
    use rtx_preanalysis::{DataSet, ItemId};
    use rtx_rtdb::txn::TxnId;
    use rtx_sim::time::{SimDuration, SimTime};

    fn mk(id: u32, deadline_ms: f64, criticality: u8) -> Transaction {
        Transaction {
            id: TxnId(id),
            deadline: SimTime::from_ms(deadline_ms),
            resource_time: SimDuration::from_ms(80.0),
            items: vec![ItemId(0)],
            update_time: SimDuration::from_ms(4.0),
            might_access: DataSet::from_items([ItemId(0)]),
            criticality,
            ..Default::default()
        }
    }

    fn view(txns: &[Transaction]) -> SystemView<'_> {
        SystemView::new(SimTime::ZERO, txns, SimDuration::from_ms(4.0))
    }

    #[test]
    fn higher_class_always_wins() {
        let p = Criticality::new(EdfHp);
        // Critical txn with a *much later* deadline still outranks.
        let txns = vec![mk(0, 10.0, 0), mk(1, 1_000_000.0, 1)];
        let v = view(&txns);
        assert!(p.priority(&txns[1], &v) > p.priority(&txns[0], &v));
    }

    #[test]
    fn within_class_base_policy_decides() {
        let p = Criticality::new(EdfHp);
        let txns = vec![mk(0, 10.0, 1), mk(1, 20.0, 1)];
        let v = view(&txns);
        assert!(p.priority(&txns[0], &v) > p.priority(&txns[1], &v));
    }

    #[test]
    fn inherits_iowait_restriction() {
        assert!(Criticality::new(Cca::base()).iowait_restrict());
        assert!(!Criticality::new(EdfHp).iowait_restrict());
        assert_eq!(Criticality::new(EdfHp).name(), "Crit<EDF-HP>");
        assert_eq!(Criticality::new(Cca::base()).inner().weight(), 1.0);
    }

    #[test]
    fn class_zero_is_transparent() {
        let wrapped = Criticality::new(EdfHp);
        let txns = vec![mk(0, 123.0, 0)];
        let v = view(&txns);
        assert_eq!(wrapped.priority(&txns[0], &v), EdfHp.priority(&txns[0], &v));
    }
}
