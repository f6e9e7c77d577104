//! The wall-clock serving workload: `serve_trading_day`.
//!
//! One benchmark thread replays a trading-day trace open loop against a
//! live `rtx_serve::Server`: each request is submitted at its due time
//! (its scaled trace arrival) whether or not earlier ones have finished,
//! and between submissions the same thread watches the tickets, stamping
//! the wall instant at which it first sees each resolved. A request's
//! latency runs from its due time to that instant, so a stalled submitter
//! or a full queue is charged to every request it delayed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rtx_core::Cca;
use rtx_rtdb::{
    AdmissionConfig, CompletionKind, SchedStats, SimConfig, StepEngine, Transaction, TxnId,
    TxnSource,
};
use rtx_serve::{
    Outcome, ServeConfig, ServeReport, Server, SubmitError, Ticket, TraceSpec, TxnRequest,
};
use rtx_sim::rng::splitmix64;
use rtx_sim::SimTime;

use crate::batch::add_sched;
use crate::calib::Calibrator;
use crate::probe::{SharedPolicy, TimedPolicy};
use crate::report::{ratio, EndToEnd, Layers, Report};
use crate::stats::{median, quantile, quantile_in_place};
use crate::Args;

/// Sim microseconds per wall microsecond: the day replays this many
/// times faster than real time. 150× keeps the load outside the bursts
/// (about 5k requests per wall second) well under what the engine
/// sustains, so every run measures the same regime. At 300× the engine
/// sometimes failed to catch up after a burst, and that day's median
/// latency went from 0.2 ms to 12 ms.
const SCALE: f64 = 150.0;
/// The engine's intake throttle (`ServeConfig::max_in_engine`, 1024 by
/// default). A burst fills the engine up to this many live transactions,
/// where CCA's conflict upkeep slows every event. At 256 the engine
/// drains each burst quickly, and the backlog waits in the queue and at
/// the submitter instead.
const MAX_IN_ENGINE: usize = 256;
/// Average arrival rate of the compressed day, sim transactions per
/// second. At `SCALE` the open and close bursts (4× average) exceed
/// what the engine sustains on a 2-core host and the midday lull does
/// not.
const AVG_TPS: f64 = 40.0;
/// Wall seconds of one served day. A run serves several days back to
/// back, each on a fresh server, so the engine (which keeps every
/// transaction it has seen) stays near 220 MiB whatever the run length,
/// and the tail latency averages over more open and close bursts.
const DAY_SECONDS: f64 = 10.0;
/// Set-up repetitions per day; `setup_s` is the median over all days.
const SETUP_SAMPLES: usize = 3;

/// The engine configuration: the main-memory resource model over the
/// trace's 10 000-record table, with lenient admission at the door.
fn serve_cfg() -> SimConfig {
    let mut cfg = SimConfig::mm_base();
    cfg.workload.db_size = 10_000;
    cfg.system.abort_cost_ms = 2.0;
    cfg.system.admission = Some(AdmissionConfig::lenient());
    cfg
}

/// How many days a run serves: one per `DAY_SECONDS` of the run, each
/// lasting `seconds / days` of wall time.
fn days(args: &Args) -> usize {
    ((args.seconds / DAY_SECONDS).round() as usize).max(1)
}

/// Day `day` of the run, sized so its paced replay lasts its share of
/// `seconds`; each day draws its own trace from the workload seed.
fn spec(args: &Args, day: usize) -> TraceSpec {
    let wall = args.seconds / days(args) as f64;
    let txns = ((AVG_TPS * SCALE * wall * args.size) as usize).max(200);
    let mut state = args.seed;
    let seed = (0..=day)
        .map(|_| splitmix64(&mut state))
        .last()
        .expect("day >= 0");
    let mut spec = TraceSpec::trading_day(txns, seed);
    spec.day_secs = txns as f64 / AVG_TPS;
    spec
}

/// Materialize the trace, timing the generator per request.
fn generate(spec: &TraceSpec) -> (Vec<TxnRequest>, u64) {
    let mut trace = spec.clone().stream();
    let mut reqs = Vec::with_capacity(spec.txns);
    let mut ns = 0u64;
    loop {
        let t0 = Instant::now();
        let next = trace.next();
        ns += t0.elapsed().as_nanos() as u64;
        match next {
            Some(r) => reqs.push(r),
            None => break,
        }
    }
    (reqs, ns)
}

/// The outstanding tickets and what has been seen of them.
struct Observer {
    outstanding: Vec<(usize, Ticket)>,
    /// Per request: when its ticket was first seen resolved, and to what.
    seen: Vec<Option<(Instant, Outcome)>>,
    /// For each pass that found a ticket resolved: the gap since the
    /// previous pass, the most its stamps can be late.
    pass_gaps_ms: Vec<f64>,
    last_pass: Instant,
}

impl Observer {
    fn new(n: usize) -> Self {
        Observer {
            outstanding: Vec::new(),
            seen: vec![None; n],
            pass_gaps_ms: Vec::new(),
            last_pass: Instant::now(),
        }
    }

    /// Check every outstanding ticket, because tickets resolve out of
    /// submission order, and stamp each newly resolved one right after
    /// the check that finds it.
    fn pass(&mut self) {
        let start = Instant::now();
        let before = self.outstanding.len();
        let seen = &mut self.seen;
        self.outstanding
            .retain(|(i, ticket)| match ticket.try_get() {
                Some(outcome) => {
                    seen[*i] = Some((Instant::now(), outcome));
                    false
                }
                None => true,
            });
        if self.outstanding.len() < before {
            let gap = start.duration_since(self.last_pass);
            self.pass_gaps_ms.push(gap.as_secs_f64() * 1e3);
        }
        self.last_pass = start;
    }
}

/// One served day and everything measured about it.
struct Served {
    report: ServeReport,
    /// First due instant to `shutdown` returning.
    wall_s: f64,
    drain_s: f64,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    block_ms: Vec<f64>,
    door_ms: Vec<f64>,
    sim_ms: Vec<f64>,
    delivery_ms: Vec<f64>,
    pass_gaps_ms: Vec<f64>,
    submitted: u64,
    committed: u64,
    on_time: u64,
    rejected: u64,
    shed: u64,
    poisoned: u64,
    unresolved: u64,
    /// Requests whose latency parts do not sum to their latency.
    ledger_breaks: u64,
}

/// Replay `reqs` open loop against `server` (whose clock started at
/// about `clock_zero`). One thread both submits and observes: while the
/// next request is not yet due, or the queue is full, it keeps making
/// observer passes. It never sleeps, because the host is a VM: a core
/// left idle halts, and waking it again costs up to milliseconds when
/// the host is busy, which would be charged to the server. The engine
/// thread has the other core.
fn serve_day(server: Server, clock_zero: Instant, reqs: Vec<TxnRequest>) -> Served {
    let n = reqs.len();
    let dues: Vec<f64> = reqs
        .iter()
        .map(|r| r.arrival.since(SimTime::ZERO).as_secs() / SCALE)
        .collect();
    let mut lag_ms = Vec::with_capacity(n);
    let mut block_ms = Vec::with_capacity(n);
    let mut obs = Observer::new(n);
    let origin = Instant::now();
    for (i, mut req) in reqs.into_iter().enumerate() {
        let due = origin + Duration::from_secs_f64(dues[i]);
        while Instant::now() < due {
            obs.pass();
        }
        let sent = Instant::now();
        lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        // Back-pressure: a full queue holds this request, and every later
        // one, until the engine makes room.
        let ticket = loop {
            match server.try_submit(req) {
                Ok(ticket) => break ticket,
                Err(SubmitError::Full(back)) => {
                    req = back;
                    obs.pass();
                }
                Err(SubmitError::Closed(_)) => panic!("the server closed before shutdown"),
            }
        };
        block_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        obs.outstanding.push((i, ticket));
    }
    // Shut down on a second thread so this one keeps observing the drain.
    let (report, drain_s) = std::thread::scope(|s| {
        let closer = s.spawn(|| {
            let t0 = Instant::now();
            let report = server.shutdown();
            (report, t0.elapsed().as_secs_f64())
        });
        while !closer.is_finished() || !obs.outstanding.is_empty() {
            obs.pass();
        }
        closer.join().expect("shutdown thread panicked")
    });
    let wall_s = origin.elapsed().as_secs_f64();

    // Server sim time → this thread's timeline, in ms after `origin`.
    let zero_ms = -(origin.saturating_duration_since(clock_zero).as_secs_f64() * 1e3);
    let sim_to_ms = |t: SimTime| zero_ms + t.since(SimTime::ZERO).as_secs() * 1e3 / SCALE;
    let mut out = Served {
        report,
        wall_s,
        drain_s,
        latency_ms: Vec::with_capacity(n),
        lag_ms,
        block_ms,
        door_ms: Vec::new(),
        sim_ms: Vec::new(),
        delivery_ms: Vec::new(),
        pass_gaps_ms: obs.pass_gaps_ms,
        submitted: n as u64,
        committed: 0,
        on_time: 0,
        rejected: 0,
        shed: 0,
        poisoned: 0,
        unresolved: 0,
        ledger_breaks: 0,
    };
    for (i, seen) in obs.seen.into_iter().enumerate() {
        let Some((at, outcome)) = seen else {
            out.unresolved += 1;
            continue;
        };
        let due_ms = dues[i] * 1e3;
        let observed_ms = at.duration_since(origin).as_secs_f64() * 1e3;
        let latency = observed_ms - due_ms;
        out.latency_ms.push(latency);
        match outcome {
            Outcome::Finished { completion: c, .. } => {
                match c.kind {
                    CompletionKind::Committed { missed } => {
                        out.committed += 1;
                        out.on_time += u64::from(!missed);
                    }
                    CompletionKind::Rejected => out.rejected += 1,
                }
                let door = sim_to_ms(c.arrival) - due_ms;
                let sim = c.response().as_secs() * 1e3 / SCALE;
                let delivery = observed_ms - sim_to_ms(c.finish);
                if (door + sim + delivery - latency).abs() > 1e-6 {
                    out.ledger_breaks += 1;
                }
                out.door_ms.push(door);
                out.sim_ms.push(sim);
                out.delivery_ms.push(delivery);
            }
            Outcome::Shed { .. } => out.shed += 1,
            Outcome::Poisoned => out.poisoned += 1,
        }
    }
    out
}

/// Check a served day's bookkeeping; returns the failed requests.
fn check(day: &Served, r: &mut Report) -> u64 {
    let m = &day.report.metrics;
    let s = &day.report.summary;
    let resolved = day.committed + day.rejected + day.shed + day.poisoned;
    if resolved != day.submitted {
        r.fail_check(format!(
            "outcomes {resolved} != submitted {} ({} unresolved)",
            day.submitted, day.unresolved
        ));
    }
    if (s.committed, s.rejected, m.shed, m.poisoned)
        != (day.committed, day.rejected, day.shed, day.poisoned)
    {
        r.fail_check("server's own tallies disagree with the tickets");
    }
    if day.ledger_breaks > 0 {
        r.fail_check(format!(
            "{} requests' latency parts do not sum to their latency",
            day.ledger_breaks
        ));
    }
    if day.report.crashes > 0 {
        r.fail_check(format!("engine crashed {} times", day.report.crashes));
    }
    day.poisoned + day.unresolved
}

/// A started server with its day's requests, and the set-up samples.
struct SetUp {
    server: Server,
    clock_zero: Instant,
    reqs: Vec<TxnRequest>,
    /// Set-up times in reference seconds (see `calib`).
    setup_s: Vec<f64>,
    gen_ns_per_txn: f64,
    kernel_ms: Vec<f64>,
}

/// Set up one server: generate the day and start the server. Repeated
/// `SETUP_SAMPLES` times; all but the last server are shut down unused.
fn set_up(spec: &TraceSpec, policy: SharedPolicy) -> SetUp {
    let mut cal = Calibrator::new();
    let (mut samples, mut gen) = (Vec::new(), Vec::new());
    let mut last: Option<(Server, Instant, Vec<TxnRequest>)> = None;
    for _ in 0..SETUP_SAMPLES {
        if let Some((server, _, _)) = last.take() {
            server.shutdown();
        }
        cal.begin();
        let t0 = Instant::now();
        let (reqs, gen_ns) = generate(spec);
        let server = Server::start(
            ServeConfig {
                max_in_engine: MAX_IN_ENGINE,
                ..ServeConfig::wall(SCALE)
            },
            Arc::new(serve_cfg()),
            Arc::clone(&policy),
        )
        .expect("serve config is valid");
        let clock_zero = Instant::now();
        samples.push(clock_zero.duration_since(t0).as_secs_f64() * cal.factor());
        gen.push(gen_ns as f64 / reqs.len() as f64);
        last = Some((server, clock_zero, reqs));
    }
    let (server, clock_zero, reqs) = last.expect("at least one set-up sample");
    SetUp {
        server,
        clock_zero,
        reqs,
        setup_s: samples,
        gen_ns_per_txn: median(&gen),
        kernel_ms: cal.samples_ms,
    }
}

/// The day's requests as engine transactions, built one at a time in
/// trace order with their trace arrival stamps, exactly as the virtual
/// server builds them.
struct RequestSource<'a> {
    reqs: std::slice::Iter<'a, TxnRequest>,
    next_id: u32,
}

impl<'a> RequestSource<'a> {
    fn new(reqs: &'a [TxnRequest]) -> Self {
        RequestSource {
            reqs: reqs.iter(),
            next_id: 0,
        }
    }
}

impl TxnSource for RequestSource<'_> {
    fn next_transaction(&mut self) -> Option<Transaction> {
        let req = self.reqs.next()?.clone();
        let id = TxnId(self.next_id);
        self.next_id += 1;
        let arrival = req.arrival;
        Some(req.into_transaction(id, arrival))
    }
}

/// Every day of one run, served back to back.
struct Days {
    days: Vec<Served>,
    setup_s: Vec<f64>,
    gen_ns_per_txn: Vec<f64>,
    kernel_ms: Vec<f64>,
    /// Each day's requests, kept only for the traced replay.
    reqs: Vec<Vec<TxnRequest>>,
    /// Peak RSS once the first day is over. Later days run on fresh
    /// servers and need no more, but glibc strands part of each finished
    /// engine thread's memory in that thread's arena, so the process's
    /// high-water mark after several days drifts by a third between runs.
    first_day_rss_mb: f64,
}

impl Days {
    /// Serve the run's first `n_days` days under `policy`.
    fn serve(
        args: &Args,
        n_days: usize,
        policy: &SharedPolicy,
        keep_reqs: bool,
        r: &mut Report,
    ) -> Days {
        let mut out = Days {
            days: Vec::new(),
            setup_s: Vec::new(),
            gen_ns_per_txn: Vec::new(),
            kernel_ms: Vec::new(),
            reqs: Vec::new(),
            first_day_rss_mb: 0.0,
        };
        for d in 0..n_days {
            let set = set_up(&spec(args, d), Arc::clone(policy));
            out.setup_s.extend(&set.setup_s);
            out.gen_ns_per_txn.push(set.gen_ns_per_txn);
            out.kernel_ms.extend(&set.kernel_ms);
            if keep_reqs {
                out.reqs.push(set.reqs.clone());
            }
            let day = serve_day(set.server, set.clock_zero, set.reqs);
            r.attempted += day.submitted;
            r.failed += check(&day, r);
            eprintln!(
                "perfbench: day {d}: {} requests in {:.3} s, p50 {:.3} ms, miss {:.2}%, \
                 observer pass gap p99 {:.3} ms",
                day.submitted,
                day.wall_s,
                quantile(&day.latency_ms, 0.5),
                100.0 - 100.0 * ratio(day.on_time as f64, day.submitted as f64),
                quantile(&day.pass_gaps_ms, 0.99)
            );
            out.days.push(day);
            if d == 0 {
                out.first_day_rss_mb = crate::stats::peak_rss_mb();
            }
        }
        out
    }

    fn sum(&self, f: impl Fn(&Served) -> u64) -> u64 {
        self.days.iter().map(f).sum()
    }

    fn sum_f(&self, f: impl Fn(&Served) -> f64) -> f64 {
        self.days.iter().map(f).sum()
    }

    /// The 99th percentile of a per-request series over every day.
    fn p99(&self, f: impl Fn(&Served) -> &Vec<f64>) -> f64 {
        let mut all: Vec<f64> = self
            .days
            .iter()
            .flat_map(|d| f(d).iter().copied())
            .collect();
        quantile_in_place(&mut all, 0.99)
    }
}

pub fn run(args: &Args, traced: bool) -> Report {
    let mut r = Report::new();
    let cca: SharedPolicy = Arc::new(Cca::base());
    // A traced run splits its time between a plain and a probed pass over
    // the same days, so each pass serves half of them.
    let n_days = if traced {
        (days(args) / 2).max(1)
    } else {
        days(args)
    };
    let plain = Days::serve(args, n_days, &cca, traced, &mut r);
    let submitted = plain.sum(|d| d.submitted);
    if !traced {
        let mut latency: Vec<f64> = plain
            .days
            .iter()
            .flat_map(|d| d.latency_ms.iter().copied())
            .collect();
        eprintln!("perfbench: {} latency samples", latency.len());
        let resolved = plain.sum(|d| d.committed + d.rejected + d.shed + d.poisoned);
        EndToEnd {
            txn_per_s: ratio(resolved as f64, plain.sum_f(|d| d.wall_s)),
            miss_pct: 100.0 - 100.0 * ratio(plain.sum(|d| d.on_time) as f64, submitted as f64),
            committed_pct: 100.0 * ratio(plain.sum(|d| d.committed) as f64, submitted as f64),
            p50_ms: quantile_in_place(&mut latency, 0.5),
            p99_ms: quantile_in_place(&mut latency, 0.99),
            setup_s: median(&plain.setup_s),
            peak_rss_mb: plain.first_day_rss_mb,
        }
        .push_into(&mut r);
        return r;
    }

    // Traced: the same days again with the policy behind the timing
    // wrapper, then a virtual-time replay of each day through
    // `StepEngine` timing every step (the server's own steps are not
    // reachable from outside).
    let timed = Arc::new(TimedPolicy::new(Arc::clone(&cca)));
    let shared: SharedPolicy = timed.clone();
    let probed = Days::serve(args, n_days, &shared, false, &mut r);
    let tally = timed.tally();

    let cfg = serve_cfg();
    let (mut steps, mut step_ns, mut txns) = (Vec::new(), 0u64, 0usize);
    let mut sched = SchedStats::default();
    for reqs in &plain.reqs {
        let n = reqs.len();
        txns += n;
        let mut eng = StepEngine::new(&cfg, &*cca).expect("serve config is valid");
        let mut src = RequestSource::new(reqs);
        while eng.terminated() < n as u64 {
            // Keep the next arrival queued behind the pending one, as the
            // virtual server does: that pins the batch event order.
            while eng.queued() == 0 {
                match src.next_transaction() {
                    Some(t) => eng.submit(t),
                    None => break,
                }
            }
            let t0 = Instant::now();
            let stepped = eng.step();
            let dt = t0.elapsed().as_nanos() as u64;
            if !stepped {
                break;
            }
            step_ns += dt;
            steps.push(dt as f64);
        }
        let replayed = eng.finish();
        if replayed.committed + replayed.rejected != n as u64 {
            r.fail_check("virtual replay left transactions unresolved");
        }
        add_sched(&mut sched, &replayed.sched);
    }
    let s = &sched;
    let events = steps.len() as f64;
    let summaries = || probed.days.iter().map(|d| &d.report.summary);
    let committed: u64 = summaries().map(|s| s.committed).sum();
    Layers {
        gen_ns_per_txn: median(&plain.gen_ns_per_txn),
        events,
        events_per_txn: ratio(events, txns as f64),
        step_ns_total: step_ns as f64,
        step_p50_ns: quantile_in_place(&mut steps, 0.5),
        step_p99_ns: quantile_in_place(&mut steps, 0.99),
        step_max_ns: steps.last().copied().unwrap_or(0.0),
        pick_calls: s.pick_next_calls as f64,
        priority_hit_ratio: ratio(
            s.priority_cache_hits as f64,
            (s.priority_cache_hits + s.priority_evals) as f64,
        ),
        pair_hit_ratio: ratio(s.pair_cache_hits as f64, s.pair_checks as f64),
        pair_checks: s.pair_checks as f64,
        heap_stale_pops: s.heap_stale_pops as f64,
        clear_repair_visits: s.clear_repair_visits as f64,
        index_migrations: s.index_migrations as f64,
        pair_cache_evictions: s.pair_cache_evictions as f64,
        policy_priority_calls: tally.priority_calls as f64,
        policy_priority_ns: tally.priority_ns as f64,
        policy_clear_raise_ns: tally.clear_raise_ns as f64,
        restarts_total: summaries().map(|s| s.restarts_total).sum::<u64>() as f64,
        lock_waits: summaries().map(|s| s.lock_waits).sum::<u64>() as f64,
        committed: committed as f64,
        disk_utilization: median(&summaries().map(|s| s.disk_utilization).collect::<Vec<_>>()),
        admission_rejected: summaries().map(|s| s.rejected).sum::<u64>() as f64,
        gen_lag_p99_ms: probed.p99(|d| &d.lag_ms),
        submit_block_p99_ms: probed.p99(|d| &d.block_ms),
        submit_block_total_s: probed.sum_f(|d| d.block_ms.iter().sum::<f64>()) / 1e3,
        door_wait_p99_ms: probed.p99(|d| &d.door_ms),
        sim_response_p99_ms: probed.p99(|d| &d.sim_ms),
        delivery_lag_p99_ms: probed.p99(|d| &d.delivery_ms),
        drain_s: probed.sum_f(|d| d.drain_s),
        observe_pass_p99_ms: probed.p99(|d| &d.pass_gaps_ms),
        host_kernel_ms: median(&plain.kernel_ms),
        trace_overhead_pct: 100.0 * (probed.sum_f(|d| d.wall_s) / plain.sum_f(|d| d.wall_s) - 1.0),
        ..Layers::default()
    }
    .push_into(&mut r);
    r
}
