//! Property test for the clear-repair soundness contract
//! (`Policy::conflict_clear_raise`).
//!
//! When a partially executed transaction `c` clears (commits or aborts),
//! the engine repairs every affected cached priority in place: new key =
//! `nudge_up(old + raise, …)` where `raise` is the policy's declared
//! bound on how much any other transaction's priority can rise from the
//! clear. Soundness requires `raise` ≥ the exact rise for *every* other
//! transaction — a repaired key below the true priority would let the
//! lazy pick path dispatch the wrong transaction, silently diverging
//! from the recompute oracle.
//!
//! This test replays the contract against the policies that declare
//! `ConflictState` dependencies (CCA across weights, EDF-Wait, and both
//! under the `Criticality` wrapper): for arbitrary system states, the
//! engine's own repair formula applied to the pre-clear priority must
//! bound the post-clear priority, compared with plain `>=` on the raw
//! f64s — no tolerance.
//!
//! The engine raises only the keys evaluated after `c` joined the P-list
//! (their join stamps). `a_clear_never_lifts_a_priority_evaluated_before_the_join`
//! pins why that is sound: a priority evaluated before `c` joined already
//! bounds the priority after `c` clears, whatever `c` and the other
//! partials did in between.

use proptest::prelude::*;
use rtx::policies::{Cca, Criticality, EdfWait};
use rtx::preanalysis::{DataSet, ItemId};
use rtx::rtdb::engine::nudge_up;
use rtx::rtdb::{Policy, Stage, SystemView, Transaction, TxnId, TxnState};
use rtx::sim::{SimDuration, SimTime};

const DB: u32 = 10;

/// Specification of one transaction's scheduling-relevant state.
#[derive(Debug, Clone)]
struct StateSpec {
    deadline_ms: f64,
    might: Vec<u32>,
    /// Indices into `might` (modulo its length) accessed so far.
    accessed_of_might: Vec<usize>,
    service_ms: f64,
    criticality: u8,
}

fn state_spec() -> impl Strategy<Value = StateSpec> {
    (
        1.0f64..1000.0,
        proptest::collection::vec(0u32..DB, 1..6),
        proptest::collection::vec(0usize..8, 0..6),
        0.0f64..100.0,
        0u8..3,
    )
        .prop_map(
            |(deadline_ms, mut might, accessed_of_might, service_ms, criticality)| {
                might.sort_unstable();
                might.dedup();
                StateSpec {
                    deadline_ms,
                    might,
                    accessed_of_might,
                    service_ms,
                    criticality,
                }
            },
        )
}

fn build(specs: &[StateSpec], runner: Option<usize>, now: SimTime) -> Vec<Transaction> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let might: DataSet = spec.might.iter().map(|&x| ItemId(x)).collect();
            let accessed: DataSet = spec
                .accessed_of_might
                .iter()
                .map(|&idx| ItemId(spec.might[idx % spec.might.len()]))
                .collect();
            let mut t = Transaction {
                id: TxnId(i as u32),
                deadline: SimTime::from_ms(spec.deadline_ms),
                resource_time: SimDuration::from_ms(80.0),
                items: spec.might.iter().map(|&x| ItemId(x)).collect(),
                update_time: SimDuration::from_ms(4.0),
                might_access: might,
                accessed,
                service: SimDuration::from_ms(spec.service_ms),
                criticality: spec.criticality,
                ..Default::default()
            };
            if runner == Some(i) {
                // The runner accrues effective service with the clock —
                // the time-dependent term in CCA's raise bound.
                t.state = TxnState::Running;
                t.stage = Stage::Compute;
                t.burst_start = now - SimDuration::from_ms(5.0);
            }
            t
        })
        .collect()
}

/// Every `ConflictState` policy under test, CCA at penalty weight `weight`.
fn conflict_state_policies(weight: f64) -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(Cca::new(weight)),
        Box::new(EdfWait),
        Box::new(Criticality::new(Cca::new(weight))),
        Box::new(Criticality::new(EdfWait)),
    ]
}

/// Why a narrowing restamps a key whose value it did not move
/// (`PriorityIndex::rekey_exact`): under EDF-Wait `X` charges `q`, then
/// `p` joins unsafe w.r.t. `X`, and `X` narrows away from `q`. `X`'s
/// priority reads as it did before `p` joined, yet it now charges `p`, so
/// `p`'s clear lifts it above that value: a key left at its pre-join
/// stamp would miss the raise.
#[test]
fn a_narrowing_can_swap_the_charged_partial_without_moving_the_priority() {
    let mk = |id, might: &[u32], accessed: &[u32]| Transaction {
        id: TxnId(id),
        deadline: SimTime::from_ms(100.0),
        resource_time: SimDuration::from_ms(80.0),
        items: might.iter().map(|&i| ItemId(i)).collect(),
        update_time: SimDuration::from_ms(4.0),
        might_access: might.iter().map(|&i| ItemId(i)).collect(),
        accessed: accessed.iter().map(|&i| ItemId(i)).collect(),
        ..Default::default()
    };
    let (now, abort_cost) = (SimTime::from_ms(10.0), SimDuration::from_ms(1.0));
    let x_priority = |txns: &[Transaction]| {
        EdfWait
            .priority(&txns[0], &SystemView::new(now, txns, abort_cost))
            .0
    };
    // `X` might write items 1 and 2; `q` holds item 1; `p` holds nothing.
    let mut txns = vec![mk(0, &[1, 2], &[]), mk(1, &[1], &[1]), mk(2, &[2], &[])];
    let keyed = x_priority(&txns);
    txns[2].accessed.insert(ItemId(2));
    txns[0].might_access = DataSet::from_items([ItemId(2)]);
    assert_eq!(x_priority(&txns).to_bits(), keyed.to_bits());
    txns[2].state = TxnState::Committed;
    assert!(
        x_priority(&txns) > keyed,
        "p's clear lifts X above its pre-join value"
    );
}

/// Check the contract for one policy on one system state: the engine's
/// repair formula applied to every pre-clear priority must bound the
/// post-clear priority, bit-compared.
fn check_policy(
    policy: &dyn Policy,
    txns: &[Transaction],
    cleared: usize,
    now: SimTime,
    abort_cost: SimDuration,
) -> Result<(), TestCaseError> {
    let before_view = SystemView::new(now, txns, abort_cost);
    let raise = policy.conflict_clear_raise(&txns[cleared], &before_view);
    prop_assert!(
        raise.is_finite() && raise >= 0.0,
        "{}: raise bound must be finite and nonnegative, got {raise}",
        policy.name()
    );
    let before: Vec<_> = txns
        .iter()
        .map(|t| policy.priority(t, &before_view))
        .collect();
    // The clear: the transaction leaves the P-list (commit and abort are
    // equivalent from every other transaction's point of view — the
    // penalty term vanishes either way).
    let mut after_txns = txns.to_vec();
    after_txns[cleared].state = TxnState::Committed;
    let after_view = SystemView::new(now, &after_txns, abort_cost);
    for (i, t) in after_txns.iter().enumerate() {
        if i == cleared {
            continue;
        }
        let after = policy.priority(t, &after_view);
        let repaired = nudge_up(before[i].0 + raise, before[i].0.abs().max(raise));
        prop_assert!(
            repaired >= after.0,
            "{}: clear of txn {cleared} raised txn {i} past the declared bound:\n  \
             before {}  raise {raise}  repaired {repaired}  after {}",
            policy.name(),
            before[i].0,
            after.0
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `conflict_clear_raise` soundness across arbitrary system states,
    /// for every ConflictState policy, with and without the Criticality
    /// wrapper.
    #[test]
    fn clear_raise_bounds_every_rise(
        specs in proptest::collection::vec(state_spec(), 2..10),
        cleared_pick in 0usize..16,
        runner_pick in proptest::option::of(0usize..16),
        now_ms in 10.0f64..500.0,
        abort_ms in 0.0f64..10.0,
        weight in 0.0f64..8.0,
    ) {
        let now = SimTime::from_ms(now_ms);
        let runner = runner_pick.map(|idx| idx % specs.len());
        let mut txns = build(&specs, runner, now);
        // Force the cleared transaction to be partially executed — a
        // clear of a lock-free transaction never reaches the repair walk.
        let cleared = cleared_pick % txns.len();
        if txns[cleared].accessed.is_empty() {
            let item = txns[cleared].items[0];
            txns[cleared].accessed = DataSet::from_items([item]);
        }
        let abort_cost = SimDuration::from_ms(abort_ms);
        for p in &conflict_state_policies(weight) {
            check_policy(p.as_ref(), &txns, cleared, now, abort_cost)?;
        }
    }

    /// The join-stamp rule: `X`'s priority evaluated before a partial `p`
    /// joined the P-list bounds `X`'s priority after `p` clears. In
    /// between, `p` joins unsafe w.r.t. `X` and accrues service, other
    /// transactions (`X` too) grow their access sets and service, and the
    /// clock advances. Compared with plain `<=` on the raw f64s — no
    /// tolerance.
    #[test]
    fn a_clear_never_lifts_a_priority_evaluated_before_the_join(
        specs in proptest::collection::vec(state_spec(), 2..10),
        x_pick in 0usize..16,
        p_pick in 0usize..16,
        runner_pick in proptest::option::of(0usize..16),
        p_service_ms in 0.0f64..50.0,
        growth in proptest::collection::vec((0usize..16, 0usize..8, 0.0f64..20.0), 0..12),
        now_ms in 10.0f64..500.0,
        later_ms in 0.0f64..50.0,
        abort_ms in 0.0f64..10.0,
        weight in 0.0f64..8.0,
    ) {
        let now = SimTime::from_ms(now_ms);
        let runner = runner_pick.map(|idx| idx % specs.len());
        let mut txns = build(&specs, runner, now);
        let n = txns.len();
        let x = x_pick % n;
        let p = (x + 1 + p_pick % (n - 1)) % n;
        txns[p].accessed.clear();
        let abort_cost = SimDuration::from_ms(abort_ms);
        let policies = conflict_state_policies(weight);
        let view = SystemView::new(now, &txns, abort_cost);
        let before: Vec<f64> = policies.iter().map(|pol| pol.priority(&txns[x], &view).0).collect();
        // `p` joins unsafe w.r.t. `X`: it locks an item `X` might write.
        let item = txns[x].items[0];
        txns[p].might_access.insert(item);
        txns[p].accessed.insert(item);
        txns[p].service += SimDuration::from_ms(p_service_ms);
        prop_assert!(rtx::policies::is_unsafe_with(&txns[p], &txns[x]));
        for (pick, of_might, ms) in growth {
            let i = pick % n;
            if i == p {
                continue;
            }
            let t = &mut txns[i];
            let grown = t.items[of_might % t.items.len()];
            t.accessed.insert(grown);
            t.service += SimDuration::from_ms(ms);
        }
        // `p` clears.
        txns[p].state = TxnState::Committed;
        let later = SimTime::from_ms(now_ms + later_ms);
        let view = SystemView::new(later, &txns, abort_cost);
        for (pol, before) in policies.iter().zip(before) {
            let after = pol.priority(&txns[x], &view).0;
            prop_assert!(
                after <= before,
                "{}: clear of {p} lifted {x} from {before} (before the join) to {after}",
                pol.name()
            );
        }
    }

    /// For CCA the bound is *tight* on victims: a transaction that was
    /// unsafe against the cleared one rises by exactly the bound (up to
    /// the rounding the nudge covers), and a non-victim does not move.
    #[test]
    fn cca_raise_is_tight_on_victims(
        specs in proptest::collection::vec(state_spec(), 2..10),
        cleared_pick in 0usize..16,
        now_ms in 10.0f64..500.0,
        abort_ms in 0.0f64..10.0,
        weight in 0.1f64..8.0,
    ) {
        let now = SimTime::from_ms(now_ms);
        let mut txns = build(&specs, None, now);
        let cleared = cleared_pick % txns.len();
        if txns[cleared].accessed.is_empty() {
            let item = txns[cleared].items[0];
            txns[cleared].accessed = DataSet::from_items([item]);
        }
        let abort_cost = SimDuration::from_ms(abort_ms);
        let cca = Cca::new(weight);
        let before_view = SystemView::new(now, &txns, abort_cost);
        let raise = cca.conflict_clear_raise(&txns[cleared], &before_view);
        let before: Vec<_> = txns.iter().map(|t| cca.priority(t, &before_view)).collect();
        let victims: Vec<bool> = txns
            .iter()
            .map(|t| {
                t.id != txns[cleared].id
                    && rtx::policies::is_unsafe_with(&txns[cleared], t)
            })
            .collect();
        let mut after_txns = txns.clone();
        after_txns[cleared].state = TxnState::Committed;
        let after_view = SystemView::new(now, &after_txns, abort_cost);
        for (i, t) in after_txns.iter().enumerate() {
            if i == cleared {
                continue;
            }
            let after = cca.priority(t, &after_view);
            let rise = after.0 - before[i].0;
            if victims[i] {
                // Exactly the cleared transaction's term, up to rounding
                // at the magnitudes involved.
                let tol = (before[i].0.abs().max(raise)) * 32.0 * f64::EPSILON;
                prop_assert!(
                    (rise - raise).abs() <= tol,
                    "victim {i}: rise {rise} vs declared {raise}"
                );
            } else {
                prop_assert_eq!(rise, 0.0, "non-victim {} moved", i);
            }
        }
    }
}
