//! Property-based tests for the simulation kernel: the event calendar must
//! behave exactly like a sorted list with tombstones under arbitrary
//! interleavings of schedule/cancel/pop, and the statistics accumulators
//! must agree with naive recomputation.

use proptest::prelude::*;
use rtx_sim::calendar::{Calendar, EventHandle};
use rtx_sim::stats::{Accumulator, Replications, TimeWeighted};
use rtx_sim::time::SimTime;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `delta_us` after the latest scheduled time so far.
    Schedule(u64),
    /// Cancel the i-th handle issued (mod handles issued so far).
    Cancel(usize),
    /// Pop one event.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..5_000).prop_map(Op::Schedule),
        (0usize..64).prop_map(Op::Cancel),
        Just(Op::Pop),
    ]
}

/// Reference model: a vector of (time, seq, alive) triples.
#[derive(Default)]
struct Model {
    entries: Vec<(u64, u64, bool)>, // (time, seq, alive)
    now: u64,
}

impl Model {
    fn schedule(&mut self, time: u64, seq: u64) {
        self.entries.push((time, seq, true));
    }

    fn cancel(&mut self, seq: u64) -> bool {
        for e in &mut self.entries {
            if e.1 == seq && e.2 {
                e.2 = false;
                return true;
            }
        }
        false
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.2)
            .min_by_key(|(_, e)| (e.0, e.1))
            .map(|(i, _)| i)?;
        let (time, seq, _) = self.entries.remove(best);
        self.now = time;
        Some((time, seq))
    }

    fn live(&self) -> usize {
        self.entries.iter().filter(|e| e.2).count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The calendar and the naive sorted-list model produce identical
    /// event sequences under arbitrary operation interleavings.
    #[test]
    fn calendar_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut cal: Calendar<u64> = Calendar::new();
        let mut model = Model::default();
        let mut handles: Vec<(EventHandle, u64)> = Vec::new(); // (handle, seq)
        let mut next_seq = 0u64;

        for op in ops {
            match op {
                Op::Schedule(delta) => {
                    // Always schedule at or after `now` so it is legal.
                    let at = cal.now().as_micros() + delta;
                    let h = cal.schedule(SimTime::from_micros(at), next_seq);
                    model.schedule(at, next_seq);
                    handles.push((h, next_seq));
                    next_seq += 1;
                }
                Op::Cancel(i) => {
                    if handles.is_empty() { continue; }
                    let (h, seq) = handles[i % handles.len()];
                    let did = cal.cancel(h);
                    let did_model = model.cancel(seq);
                    prop_assert_eq!(did, did_model, "cancel outcome diverged");
                }
                Op::Pop => {
                    let fired = cal.pop();
                    let expected = model.pop();
                    match (fired, expected) {
                        (None, None) => {}
                        (Some(f), Some((t, seq))) => {
                            prop_assert_eq!(f.time.as_micros(), t);
                            prop_assert_eq!(f.payload, seq);
                            // Once fired, the model entry is gone; mark it
                            // dead in our handle map via model state only.
                        }
                        (a, b) => prop_assert!(false, "pop diverged: {a:?} vs {b:?}"),
                    }
                }
            }
            prop_assert_eq!(cal.len(), model.live(), "live count diverged");
        }

        // Drain both and compare orderings exactly.
        loop {
            match (cal.pop(), model.pop()) {
                (None, None) => break,
                (Some(f), Some((t, seq))) => {
                    prop_assert_eq!(f.time.as_micros(), t);
                    prop_assert_eq!(f.payload, seq);
                }
                (a, b) => prop_assert!(false, "drain diverged: {a:?} vs {b:?}"),
            }
        }
    }

    /// Welford accumulator agrees with two-pass mean/variance.
    #[test]
    fn accumulator_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut acc = Accumulator::new();
        for &x in &xs {
            acc.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert!((acc.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
            prop_assert!((acc.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()),
                "welford {} vs two-pass {}", acc.variance(), var);
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(acc.min(), Some(min));
        prop_assert_eq!(acc.max(), Some(max));
    }

    /// Time-weighted mean equals the explicit integral of the step function.
    #[test]
    fn time_weighted_matches_integral(
        steps in proptest::collection::vec((0.0f64..100.0, -50.0f64..50.0), 1..50),
        tail in 0.0f64..100.0,
    ) {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        let mut t = 0.0;
        let mut value = 0.0;
        let mut integral = 0.0;
        for (dt, v) in steps {
            integral += value * dt;
            t += dt;
            value = v;
            tw.set(t, v);
        }
        let end = t + tail;
        integral += value * tail;
        let expected = if end > 0.0 { integral / end } else { value };
        prop_assert!((tw.mean_until(end) - expected).abs() < 1e-6,
            "tw {} vs integral {}", tw.mean_until(end), expected);
    }

    /// The CI half-width shrinks (weakly) as identical batches of data are
    /// appended, and the mean stays put.
    #[test]
    fn replication_ci_sane(base in proptest::collection::vec(0.0f64..100.0, 2..20)) {
        let mut r = Replications::new();
        for &v in &base { r.record(v); }
        let e1 = r.estimate();
        prop_assert!(e1.half_width >= 0.0);
        // Mean lies within [min, max].
        let min = base.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = base.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(e1.mean >= min - 1e-9 && e1.mean <= max + 1e-9);
    }
}
