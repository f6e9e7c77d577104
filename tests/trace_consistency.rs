//! The decision trace must be consistent with the run summary: counts of
//! commits/aborts/waits derived from the event log equal the metrics the
//! engine reports, and per-transaction event sequences are well-formed.

use rtx::policies::{Cca, EdfHp};
use rtx::rtdb::{run_simulation_traced, SimConfig, TraceEvent, TxnId};

fn mm(seed: u64, rate: f64, n: usize) -> SimConfig {
    let mut cfg = SimConfig::mm_base();
    cfg.run.seed = seed;
    cfg.run.arrival_rate_tps = rate;
    cfg.run.num_transactions = n;
    cfg
}

fn disk(seed: u64, rate: f64, n: usize) -> SimConfig {
    let mut cfg = SimConfig::disk_base();
    cfg.run.seed = seed;
    cfg.run.arrival_rate_tps = rate;
    cfg.run.num_transactions = n;
    cfg
}

#[test]
fn trace_counts_match_summary_mm() {
    let cfg = mm(1, 9.0, 200);
    let (summary, trace) = run_simulation_traced(&cfg, &EdfHp);
    assert_eq!(trace.commits() as u64, summary.committed);
    assert_eq!(trace.aborts() as u64, summary.restarts_total);
    assert_eq!(
        trace.count(|e| matches!(e, TraceEvent::LockWait { .. })) as u64,
        summary.lock_waits
    );
    assert_eq!(
        trace.count(|e| matches!(e, TraceEvent::Arrival { .. })),
        200
    );
}

#[test]
fn trace_counts_match_summary_disk() {
    let cfg = disk(2, 5.0, 120);
    let (summary, trace) = run_simulation_traced(&cfg, &Cca::base());
    assert_eq!(trace.commits() as u64, summary.committed);
    assert_eq!(trace.aborts() as u64, summary.restarts_total);
    assert_eq!(
        trace.count(|e| matches!(e, TraceEvent::LockWait { .. })),
        0,
        "Theorem 1 visible in the trace"
    );
    // Every issued IO eventually completes.
    let issued = trace.count(|e| matches!(e, TraceEvent::IoIssued { .. }));
    let done = trace.count(|e| matches!(e, TraceEvent::IoDone { .. }));
    assert_eq!(issued, done);
    assert!(issued > 0, "disk workload actually used the disk");
}

#[test]
fn per_transaction_sequences_well_formed() {
    let cfg = mm(4, 8.0, 100);
    let (_, trace) = run_simulation_traced(&cfg, &EdfHp);
    for id in 0..100u32 {
        let events: Vec<_> = trace.for_txn(TxnId(id)).collect();
        // First event is the arrival, last is the commit (abort events of
        // other txns it caused can be interleaved).
        assert!(
            matches!(
                events.first().map(|r| &r.event),
                Some(TraceEvent::Arrival { .. })
            ),
            "T{id} must start with its arrival"
        );
        let commits = events
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Commit { txn, .. } if txn == TxnId(id)))
            .count();
        assert_eq!(commits, 1, "T{id} commits exactly once");
        // Timestamps are non-decreasing.
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        // Dispatches ≥ 1 (it ran at least once to commit).
        let dispatches = events
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Dispatch { txn, .. } if txn == TxnId(id)))
            .count();
        assert!(dispatches >= 1);
    }
}

#[test]
fn secondary_dispatches_only_on_disk() {
    let (_, mm_trace) = run_simulation_traced(&mm(5, 9.0, 100), &Cca::base());
    assert_eq!(
        mm_trace.count(|e| matches!(
            e,
            TraceEvent::Dispatch {
                secondary: true,
                ..
            }
        )),
        0,
        "no IO waits on main memory, so no secondaries"
    );
    // EDF-HP fills every IO wait greedily, so its disk runs must show
    // secondary dispatches. (CCA's restricted filter may legitimately find
    // no compatible transaction on the db=30 hell-workload.)
    let (_, disk_trace) = run_simulation_traced(&disk(5, 5.0, 100), &EdfHp);
    assert!(
        disk_trace.count(|e| matches!(
            e,
            TraceEvent::Dispatch {
                secondary: true,
                ..
            }
        )) > 0,
        "disk runs must exercise IO-wait scheduling"
    );
}
