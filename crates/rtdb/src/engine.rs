//! The single-CPU real-time database engine (§3.3, §4, §5).
//!
//! Execution model, following the paper's procedures exactly:
//!
//! * the scheduler is invoked on **arrival**, **transaction finish**,
//!   **IO block** and **IO completion** ("whenever a new transaction
//!   arrives, a running transaction finishes, IO wait occurs the scheduler
//!   is invoked immediately");
//! * the CPU always runs the highest-priority transaction `TH` when it is
//!   runnable (`tr-arrival-schedule` / `tr-finish-schedule`); when `TH` is
//!   blocked on IO, `IOwait-schedule` picks the best ready transaction —
//!   restricted to ones that neither conflict nor conditionally conflict
//!   with any partially executed transaction if the policy requests it;
//! * **HP conflict resolution (wound-wait)**: when the running
//!   transaction's lock request hits lower-priority holders, they are
//!   aborted (release their locks, reset, restart from scratch) and the
//!   CPU is busy for the abort cost before the runner proceeds; this
//!   never inverts priorities (Lemma 1). A lower-priority requester — an
//!   IO-wait secondary under EDF-HP — waits for the lock instead. Under
//!   CCA nothing ever waits (Theorem 1). When the calendar drains while
//!   transactions wait, they form a lock-wait cycle (LSF's priorities
//!   reorder over time), a deadlock that `resolve_deadlock` breaks;
//! * a transaction aborted while queued for the disk leaves the queue
//!   immediately; one aborted mid-transfer holds the disk until the
//!   transfer completes (§5).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};

use rtx_preanalysis::sets::ItemId;
use rtx_sim::calendar::{Calendar, EventHandle};
use rtx_sim::fault::{FaultInjector, Resource};
use rtx_sim::rng::StreamSeeder;
use rtx_sim::time::{SimDuration, SimTime};

use crate::config::{AdmissionConfig, SimConfig};
use crate::disk::Disk;
use crate::error::RunError;
use crate::index::PriorityIndex;
use crate::locks::{LockMode, LockOutcome, LockTable};
use crate::metrics::{MetricsCollector, RunSummary, SchedStats};
use crate::policy::{Policy, Priority, SystemView};
use crate::sched::{CacheMode, ConflictAccel};
use crate::source::TxnSource;
use crate::trace::{Trace, TraceEvent};
use crate::txn::{Stage, Transaction, TxnId, TxnState};
use crate::workload::{ArrivalGenerator, TypeTable};

pub use crate::index::nudge_up;

/// Calendar payloads.
enum Event {
    /// A new transaction enters the system.
    Arrival(Box<Transaction>),
    /// The running transaction's current CPU burst completes.
    CpuDone(TxnId),
    /// The disk's active transfer completes.
    IoDone(TxnId),
    /// A transaction's backoff after a failed attempt expired: retry the
    /// transfer or the compute burst. The token guards against the
    /// transaction having been aborted and restarted while this event was
    /// in flight.
    Retry(TxnId, u64),
}

enum Started {
    /// A CPU burst was scheduled; the CPU is occupied.
    Scheduled,
    /// The transaction immediately blocked on IO; pick someone else.
    WentToIo,
    /// The transaction hit a lock held by a higher-priority transaction
    /// and must wait (HP wound-wait); pick someone else.
    Blocked,
}

struct EngineState<'p> {
    cfg: &'p SimConfig,
    policy: &'p dyn Policy,
    calendar: Calendar<Event>,
    /// The record store: each live transaction's record at its
    /// [`crate::sched::TxnSlot`] (found through
    /// [`ConflictAccel::slot_of`]). A commit retires the record in place
    /// and frees the slot, and the next arrival to take the slot over
    /// overwrites it; a rejected arrival is never stored. Its length is
    /// at most the slot high-water mark — the peak live population, not
    /// the run's transaction count.
    txns: Vec<Transaction>,
    /// Ids of transactions still in the system, in arrival (= id) order.
    active: Vec<TxnId>,
    locks: LockTable,
    disk: Option<Disk>,
    running: Option<TxnId>,
    cpu_event: EventHandle,
    metrics: MetricsCollector,
    /// Per slot, beside the record store: was the slot's transaction last
    /// dispatched via IOwait-schedule? Classifies noncontributing
    /// executions.
    secondary: Vec<bool>,
    /// Optional decision log (None in normal runs — zero overhead beyond
    /// the branch).
    trace: Option<Trace>,
    /// Optional terminal-outcome sink (None in batch runs — the serving
    /// front-end enables it to observe per-transaction completions
    /// without touching the metrics pipeline). Purely observational: it
    /// never influences scheduling, RNG draws or metrics.
    completions: Option<Vec<Completion>>,
    /// Fault injectors indexed by [`Resource`], each present iff its
    /// section of the config's [`rtx_sim::fault::FaultPlan`] can inject
    /// anything. `None` takes the exact pre-fault code path and consumes
    /// no randomness; the two draw from separate streams, so disk and CPU
    /// injection never perturb each other.
    faults: [Option<FaultInjector>; 2],
    /// Whether each resource's current attempt — the disk's active
    /// transfer, the CPU's compute burst — was drawn to fail, indexed by
    /// [`Resource`]. Taken when the attempt completes; preemption voids
    /// the CPU's (the verdict belonged to the full burst, and the resumed
    /// burst draws afresh).
    attempt_failed: [bool; 2],
    /// The admission safety factor currently in force. Pinned for
    /// [`AdmissionConfig::Static`]; moved by the windowed miss-ratio
    /// feedback controller for [`AdmissionConfig::Adaptive`].
    admission_factor: f64,
    /// Start of the adaptive controller's current tally window.
    adm_window_started: SimTime,
    /// Commits tallied in the current controller window.
    adm_win_committed: u64,
    /// Deadline misses tallied in the current controller window.
    adm_win_missed: u64,
    /// How priorities and conflict relations are evaluated (incremental
    /// indexes, always-recompute oracle, or verify-both).
    mode: CacheMode,
    /// Measure wall time in `pick_next`? Off in normal runs so summaries
    /// stay comparable across machines.
    profile: bool,
    /// Incrementally maintained conflict state: the P-list and the
    /// per-item slot rows. Kept up to date in every mode
    /// (it is the ground truth `Verify` checks the scans against); only
    /// *consulted* outside `AlwaysRecompute`.
    accel: ConflictAccel,
    /// Number of active transactions in `TxnState::Ready`, maintained by
    /// [`Self::set_state`] — replaces the per-event ready-queue scan.
    ready_count: usize,
    /// Number of active transactions in `TxnState::LockWait`, maintained
    /// by [`Self::set_state`]. While it is 0 — always, under CCA
    /// (Theorem 1) — a lock release skips the scan for waiters.
    lock_wait_count: usize,
    /// The priority index over active transactions: the one place a
    /// priority is stored. Its key kind is fixed at construction, from the
    /// cache mode and the policy's [`crate::policy::PriorityDeps`]; see
    /// [`crate::index`].
    index: RefCell<PriorityIndex>,
    /// Scratch buffer for the clear-repair walk's victims.
    walk_buf: Vec<TxnId>,
    /// Scratch slot set for the set-at-a-time conflict relations.
    row_buf: RefCell<Vec<u64>>,
    // Scheduler-overhead tallies (Cells: bumped from &self paths).
    pick_next_calls: Cell<u64>,
    priority_evals: Cell<u64>,
    sched_wall_ns: Cell<u64>,
    verify_checks: Cell<u64>,
    /// Clear-repair walks performed and the victims they took from the
    /// slot rows.
    clear_repair_clears: Cell<u64>,
    clear_repair_visits: Cell<u64>,
}

impl<'p> EngineState<'p> {
    fn new(cfg: &'p SimConfig, policy: &'p dyn Policy, mode: CacheMode) -> Self {
        // The injectors' streams derive from the same master seed as the
        // workload streams but are labelled independently, so enabling
        // faults never perturbs the workload draws (and disk and CPU
        // injection never perturb each other).
        let seeder = StreamSeeder::new(cfg.run.seed);
        let plan = &cfg.system.faults;
        let faults = [
            (!plan.disk_is_none()).then(|| FaultInjector::disk(plan, &seeder)),
            plan.cpu
                .as_ref()
                .filter(|_| !plan.cpu_is_none())
                .map(|cpu| FaultInjector::cpu(cpu, &seeder)),
        ];
        EngineState {
            cfg,
            policy,
            calendar: Calendar::new(),
            txns: Vec::new(),
            active: Vec::new(),
            locks: LockTable::new(cfg.workload.db_size),
            disk: cfg
                .system
                .disk
                .as_ref()
                .map(|d| Disk::with_discipline(d.access_time(), d.discipline)),
            running: None,
            cpu_event: EventHandle::NULL,
            metrics: MetricsCollector::new(),
            secondary: Vec::new(),
            trace: None,
            completions: None,
            faults,
            attempt_failed: [false; 2],
            admission_factor: cfg
                .system
                .admission
                .map(|a| a.initial_factor())
                .unwrap_or(1.0),
            adm_window_started: SimTime::ZERO,
            adm_win_committed: 0,
            adm_win_missed: 0,
            mode,
            profile: false,
            accel: ConflictAccel::new(cfg.run.num_transactions, cfg.workload.db_size as usize),
            ready_count: 0,
            lock_wait_count: 0,
            index: RefCell::new(PriorityIndex::new(mode, policy.depends_on())),
            walk_buf: Vec::new(),
            row_buf: RefCell::new(Vec::new()),
            pick_next_calls: Cell::new(0),
            priority_evals: Cell::new(0),
            sched_wall_ns: Cell::new(0),
            verify_checks: Cell::new(0),
            clear_repair_clears: Cell::new(0),
            clear_repair_visits: Cell::new(0),
        }
    }

    /// Re-key `id` after an own-state change (admission, progress,
    /// restart): a time-invariant `K` follows it. A priority key stays
    /// put: of a transaction's own state, only a narrowing can raise such
    /// a priority, and [`Self::rekey`] refreshes that.
    fn own_state_rekey(&self, id: TxnId) {
        self.index.borrow_mut().rekey_own(self.txn(id), self.policy);
    }

    /// Seed or refresh `id`'s key from its current state: its exact
    /// priority when keys are priorities, its `K` when they are
    /// time-invariant. Arrival seeds it; a decision-point narrowing, the
    /// one own-state event that can *raise* a `ConflictState` priority,
    /// refreshes it.
    fn rekey(&self, id: TxnId) {
        if self.index.borrow().keys_are_priorities() {
            self.priority_rekeyed(id);
        }
        self.own_state_rekey(id);
    }

    /// Record a trace event if tracing is enabled.
    fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(trace) = &mut self.trace {
            let at = self.calendar.now();
            trace.push(at, event());
        }
    }

    fn now(&self) -> SimTime {
        self.calendar.now()
    }

    /// The live record of `id`, through the slot map. A departed `id`
    /// has no record: debug builds panic, release builds index out of
    /// bounds.
    fn txn(&self, id: TxnId) -> &Transaction {
        &self.txns[self.accel.slot_of(id).0 as usize]
    }

    fn txn_mut(&mut self, id: TxnId) -> &mut Transaction {
        &mut self.txns[self.accel.slot_of(id).0 as usize]
    }

    /// (Re)index `id` in the slot rows under its current `might_access`.
    fn reindex(&mut self, id: TxnId) {
        let slot = self.accel.slot_of(id);
        self.accel.reindex(&self.txns[slot.0 as usize]);
    }

    /// The one place an *active* transaction's scheduling state changes:
    /// maintains the ready and lock-wait counters that replace per-event
    /// scans of `active`. (A rejected arrival never becomes active and
    /// bypasses this.)
    fn set_state(&mut self, id: TxnId, new: TxnState) {
        let old = self.txn(id).state;
        if old == new {
            return;
        }
        match old {
            TxnState::Ready => self.ready_count -= 1,
            TxnState::LockWait => self.lock_wait_count -= 1,
            _ => {}
        }
        match new {
            TxnState::Ready => self.ready_count += 1,
            TxnState::LockWait => self.lock_wait_count += 1,
            _ => {}
        }
        self.txn_mut(id).state = new;
    }

    /// `id` was granted `item` in `mode`: add it to the access sets and,
    /// when they grew, record the growth with the accelerator; nothing
    /// else.
    ///
    /// Deliberately **no** walk over the other transactions and no index
    /// maintenance: growth can only *add* nonnegative penalty terms, i.e.
    /// only *lower* other `ConflictState` priorities (see
    /// `PriorityDeps::ConflictState`'s fall-monotonicity clause), and
    /// `id`'s own priority never reads its own access sets. Index keys
    /// become stale-high upper bounds, which the peek-and-revalidate pick
    /// tolerates — the O(active) per-grant walk is traded for an
    /// occasional demotion at the next pick.
    fn lock_granted(&mut self, id: TxnId, item: ItemId, mode: LockMode) {
        let t = self.txn_mut(id);
        let was_partial = t.is_partially_executed();
        // Non-short-circuiting |= — the written insert must execute even
        // when accessed already held the item (shared→exclusive re-lock).
        let mut grew = t.accessed.insert(item);
        if mode == LockMode::Exclusive {
            grew |= t.written.insert(item);
        }
        if grew {
            self.accel.note_access_growth(id, was_partial);
        }
    }

    /// `id`'s access sets are about to be cleared (abort/restart or
    /// commit): raise the index keys that charged `id`'s penalty term —
    /// the walk runs *before* the clearing, while `id`'s sets still
    /// describe the contribution being removed — then record the
    /// clearing.
    ///
    /// This is the **one** conflict event that keeps an eager walk: a
    /// clear removes penalty terms, i.e. *raises* the affected
    /// `ConflictState` priorities, and a risen priority hiding under a
    /// low index key would make a peek-ordered pick unsound. Falls
    /// (growth, clock advance) need no walk — see [`Self::lock_granted`].
    fn conflict_cleared(&mut self, id: TxnId) {
        if self.index.get_mut().clear_raises() {
            self.repair_unsafe_against(id);
        }
        self.accel.note_sets_cleared(id);
    }

    /// The repair walk on a clear: every active transaction `X` with
    /// `is_unsafe(c, X)` — exactly those whose penalty is about to lose
    /// `c`'s term — whose key was evaluated after `c` joined the P-list
    /// has its key raised in place by the policy-supplied
    /// [`Policy::conflict_clear_raise`] bound (for CCA,
    /// `w · (effective_service(c) + abort_cost)`, the exact term every
    /// victim loses), with no exact recomputation
    /// ([`PriorityIndex::raise_all`]). Recomputing and re-pushing every
    /// victim instead costs O(victims) full evaluations per clear, which
    /// dominates high-contention runs. A key evaluated before `c` joined
    /// never charged `c`'s term, so it already bounds the post-clear
    /// priority and stays put; when no key was stamped since `c` joined,
    /// the walk returns before it enumerates a victim, and counts nothing.
    ///
    /// The victims come set-at-a-time from the slot rows
    /// ([`ConflictAccel::unsafe_set`]): the OR of one row per item of
    /// `c.accessed`, MPL/64 words each, paid only on clears (the rare,
    /// priority-raising event). The other active transactions keep their
    /// keys untouched. `Verify` enumerates every clear's victims, skipped
    /// or not, and asserts them against the active scan.
    fn repair_unsafe_against(&mut self, c: TxnId) {
        let joined = self.accel.joined(c);
        let raises = self.index.get_mut().keyed_since(joined);
        if !raises && self.mode != CacheMode::Verify {
            return;
        }
        let mut affected = std::mem::take(&mut self.walk_buf);
        let mut row = std::mem::take(self.row_buf.get_mut());
        let ct = self.txn(c);
        self.accel.unsafe_set(ct, &mut row);
        self.accel.ids(&row, &mut affected);
        if self.mode == CacheMode::Verify {
            // Oracle: the full active walk. Both enumerate ascending by
            // id (= arrival order), so the affected lists must match
            // exactly, order included.
            let full: Vec<TxnId> = self
                .active
                .iter()
                .copied()
                .filter(|&x| x != c && crate::txn::is_unsafe_with(ct, self.txn(x)))
                .collect();
            assert_eq!(
                affected, full,
                "slot-row repair walk diverged from the active-scan oracle"
            );
            self.verify_checks.set(self.verify_checks.get() + 1);
        }
        if raises {
            self.clear_repair_clears
                .set(self.clear_repair_clears.get() + 1);
            self.clear_repair_visits
                .set(self.clear_repair_visits.get() + affected.len() as u64);
            let raise = self.policy.conflict_clear_raise(self.txn(c), &self.view());
            self.index.get_mut().raise_all(&affected, raise, joined);
        }
        affected.clear();
        self.walk_buf = affected;
        *self.row_buf.get_mut() = row;
    }

    /// The view handed to policies: accel-backed unless the engine is the
    /// always-recompute oracle.
    fn view(&self) -> SystemView<'_> {
        let abort_cost = self.cfg.system.abort_cost();
        match self.mode {
            CacheMode::AlwaysRecompute => SystemView::new(self.now(), &self.txns, abort_cost),
            _ => SystemView::with_accel(self.now(), &self.txns, abort_cost, &self.accel),
        }
    }

    /// A scan-based, accel-free view — what `Verify` recomputes against.
    fn fresh_view(&self) -> SystemView<'_> {
        SystemView::new(self.now(), &self.txns, self.cfg.system.abort_cost())
    }

    /// The exact priority of `id`: one [`Policy::priority`] evaluation
    /// against [`Self::view`]. In `Verify` mode it is asserted
    /// bit-identical to an evaluation against the scan-based
    /// [`Self::fresh_view`].
    fn priority_of(&self, id: TxnId) -> Priority {
        self.priority_evals.set(self.priority_evals.get() + 1);
        let value = self.policy.priority(self.txn(id), &self.view());
        if self.mode == CacheMode::Verify {
            let fresh = self.policy.priority(self.txn(id), &self.fresh_view());
            self.verify_checks.set(self.verify_checks.get() + 1);
            assert_eq!(
                value.0.to_bits(),
                fresh.0.to_bits(),
                "{id}: priority {} != fresh {} (accel view diverged)",
                value.0,
                fresh.0
            );
        }
        value
    }

    /// The exact priority of `id`, with its index key moved to it when the
    /// two differ (or inserted when `id` has none yet). Three events need
    /// a key set to the exact value: the arrival seed, the refresh after
    /// a decision-point narrowing (the one own-state event that can
    /// *raise* a `ConflictState` priority), and a wound/wait comparison,
    /// which demotes the stale-high key it has already paid to evaluate.
    /// Each stamps the key with the P-list joins so far. Wound/wait calls
    /// this under every policy; only priority keys move, and a
    /// time-invariant `K` key is left alone.
    fn priority_rekeyed(&self, id: TxnId) -> Priority {
        let value = self.priority_of(id);
        self.index
            .borrow_mut()
            .rekey_exact(id, value, self.accel.joins());
        value
    }

    // ---- event handlers -------------------------------------------------

    fn on_arrival(&mut self, txn: Transaction) {
        let id = txn.id;
        let deadline = txn.deadline;
        // Register with the acceleration layer before anything can look at
        // the new id — rejected transactions too, so the id-indexed slot
        // map stays dense. Arrival changes no conflict state (a fresh
        // transaction holds nothing), so nothing else is walked.
        let slot = self.accel.register(id).0 as usize;
        if self.cfg.system.admission.is_some() {
            self.adm_maybe_roll();
            if !self.feasible(&txn) {
                // Reject at the door: the transaction never enters the
                // active set, acquires no locks and consumes no resources.
                // Its record is dropped here, never stored, and its slot
                // goes straight back to the free list.
                let (arrival, restarts) = (txn.arrival, txn.restarts);
                self.accel.release(id);
                self.metrics.record_rejection();
                self.emit(|| TraceEvent::Rejected { txn: id, deadline });
                if let Some(sink) = &mut self.completions {
                    sink.push(Completion {
                        id,
                        arrival,
                        deadline,
                        finish: arrival,
                        restarts,
                        kind: CompletionKind::Rejected,
                    });
                }
                return;
            }
        }
        debug_assert_eq!(txn.state, TxnState::Ready);
        // Store the record at its slot, over the retired record of the
        // slot's last owner. Only a rejection leaves a slot unstored, and
        // it is the free list's top, so a slot past the store's end is
        // its next one.
        if slot == self.txns.len() {
            self.txns.push(txn);
            self.secondary.push(false);
        } else {
            self.txns[slot] = txn;
            self.secondary[slot] = false;
        }
        self.active.push(id);
        self.ready_count += 1;
        // Enter the slot rows under the admitted footprint (only
        // admitted transactions are ever indexed — repairs must not
        // touch rejected slots, which have no heap entry).
        self.reindex(id);
        // Seed the newcomer's index key eagerly: the index must hold
        // exactly one entry per active transaction before the next pick
        // can trust its peek.
        self.rekey(id);
        self.emit(|| TraceEvent::Arrival { txn: id, deadline });
        self.update_queue_metrics();
        self.reschedule(); // tr-arrival-schedule
    }

    /// Advance the adaptive admission controller to the current
    /// simulation time: close every elapsed tally window, adjusting the
    /// safety factor per window verdict. A no-op under static admission.
    ///
    /// Hooked at deterministic event points only (arrival and commit),
    /// so the factor trajectory is a pure function of the event sequence
    /// — virtual-clock serving replays it bit-identically.
    fn adm_maybe_roll(&mut self) {
        let Some(AdmissionConfig::Adaptive(a)) = self.cfg.system.admission else {
            return;
        };
        let window = SimDuration::from_ms(a.window_ms);
        let now = self.now();
        while now.since(self.adm_window_started) >= window {
            let miss_percent = if self.adm_win_committed == 0 {
                0.0
            } else {
                100.0 * self.adm_win_missed as f64 / self.adm_win_committed as f64
            };
            if miss_percent > a.target_miss_percent {
                self.admission_factor = (self.admission_factor * a.tighten).min(a.max_factor);
            } else if miss_percent < a.hysteresis * a.target_miss_percent {
                self.admission_factor = (self.admission_factor * a.relax).max(a.base_factor);
            }
            self.adm_win_committed = 0;
            self.adm_win_missed = 0;
            self.adm_window_started += window;
            if self.admission_factor == a.base_factor {
                // Every remaining catch-up window is empty (its tallies
                // were just consumed), and an empty window at the base
                // factor is a fixed point: fast-forward over the idle gap
                // instead of looping one window at a time.
                while now.since(self.adm_window_started) >= window {
                    self.adm_window_started += window;
                }
            }
        }
    }

    /// The admission feasibility test: can `txn` possibly finish by its
    /// deadline? The estimate charges its isolated resource time plus one
    /// abort cost per partially-executed transaction it conflicts with —
    /// the penalty of conflict it would have to pay (or inflict) to run —
    /// inflated by the safety factor currently in force
    /// (`admission_factor`: the configured static factor, or wherever the
    /// adaptive controller has steered it).
    fn feasible(&self, txn: &Transaction) -> bool {
        let scan = || {
            self.plist_scan()
                .filter(|&p| txn.conflicts_with(self.txn(p)))
                .count()
        };
        let conflicts = match self.mode {
            CacheMode::AlwaysRecompute => scan(),
            mode => {
                // The maintained P-list *is* the set the scan filters
                // `active` down to: count the newcomer's conflicts within
                // it set-at-a-time from the slot rows.
                let n = self
                    .accel
                    .partial_conflicts(txn, &mut self.row_buf.borrow_mut());
                if mode == CacheMode::Verify {
                    self.verify_checks.set(self.verify_checks.get() + 1);
                    assert_eq!(n, scan(), "admission conflict count diverged");
                }
                n
            }
        } as u64;
        let penalty = self.cfg.system.abort_cost() * conflicts;
        let demand = (txn.resource_time + penalty).scale(self.admission_factor);
        self.now() + demand <= txn.deadline
    }

    fn on_cpu_done(&mut self, id: TxnId) {
        assert_eq!(
            self.running,
            Some(id),
            "CpuDone for a transaction that is not running"
        );
        let stage = self.txn(id).stage;
        let burst = self.txn(id).cpu_left;
        self.metrics.add_cpu_busy(burst);
        match stage {
            Stage::Recover => {
                // Recovery work done; the lock was already transferred.
                self.txn_mut(id).cpu_left = SimDuration::ZERO;
                self.after_lock(id);
            }
            Stage::Compute => {
                if std::mem::take(&mut self.attempt_failed[Resource::Cpu as usize]) {
                    // Injected transient CPU stall: the burst ran its full
                    // (possibly inflated) length and its result is
                    // discarded. The effective service still banks — it
                    // accrued continuously while the burst ran, and
                    // priority keys must stay upper bounds —
                    // but no progress is made; the work is counted wasted
                    // instead, and the update's burst is re-armed at its
                    // nominal length (the retry draws a fresh attempt) or
                    // the transaction restarts. As at commit, `burst_start`
                    // moves to now once the burst is banked: a restart's
                    // clear raise reads the effective service while the
                    // transaction is still `Running`, and must not count
                    // the burst twice.
                    let now = self.now();
                    let t = self.txn_mut(id);
                    t.service += burst;
                    t.burst_start = now;
                    t.cpu_left = t.update_time;
                    self.metrics.add_wasted(Resource::Cpu, burst);
                    self.own_state_rekey(id);
                    self.running = None;
                    self.handle_failed_attempt(id, Resource::Cpu);
                    self.update_queue_metrics();
                    self.reschedule();
                    return;
                }
                let narrowed = {
                    let t = self.txn_mut(id);
                    t.service += burst;
                    t.cpu_left = SimDuration::ZERO;
                    t.io_retries = 0;
                    t.progress += 1;
                    // Branching workloads: the decision point executes with
                    // its update, narrowing the analytic mightaccess.
                    t.maybe_execute_decision()
                };
                // Progress/service moved: the `K` key (LSF) follows;
                // under `ConflictState` deps own service never raises the
                // owner's priority, so the stale index key stays an upper
                // bound. A narrowing additionally changes how the
                // partials relate to *this* transaction — and only this
                // one (`is_unsafe` never reads a partial's
                // `might_access`) — and can *raise* its priority, so
                // refresh its key eagerly and exactly.
                if narrowed {
                    self.reindex(id);
                    self.rekey(id);
                } else {
                    self.own_state_rekey(id);
                }
                if self.txn(id).progress == self.txn(id).total_updates() {
                    return self.commit(id);
                }
                self.txn_mut(id).stage = Stage::Lock;
            }
            Stage::Lock | Stage::Io => {
                unreachable!("CPU burst completed in non-CPU stage {stage:?}")
            }
        }
        match self.proceed(id) {
            Started::Scheduled => {}
            Started::WentToIo | Started::Blocked => self.reschedule(),
        }
    }

    fn on_io_done(&mut self, id: TxnId) {
        let now = self.now();
        let disk = self.disk.as_mut().expect("IoDone without a disk");
        let done = disk.complete(now);
        assert_eq!(done, id, "disk completion out of order");
        // The failure flag belongs to the transfer that just completed;
        // take it before starting the next transfer, which re-arms it.
        let failed = std::mem::take(&mut self.attempt_failed[Resource::Disk as usize]);
        if let Some(next_id) = self.disk.as_mut().expect("disk above").pop_next() {
            self.start_transfer(next_id);
        }
        debug_assert_eq!(self.txn(id).state, TxnState::IoActive);
        if self.txn(id).doomed {
            // Aborted during the transfer: it now releases the disk and
            // re-enters the ready queue from scratch. Everything the
            // transfer did since the abort was wasted disk time.
            self.txn_mut(id).doomed = false;
            self.set_state(id, TxnState::Ready);
            let wasted = now.since(self.txn(id).doomed_at);
            self.metrics.add_wasted(Resource::Disk, wasted);
            self.emit(|| TraceEvent::IoDone { txn: id });
        } else if failed {
            // The transfer occupied the disk and then failed with an
            // injected transient error: back off and retry, or give up.
            self.handle_failed_attempt(id, Resource::Disk);
        } else {
            // The IO of the current update finished; the CPU burst remains.
            self.set_state(id, TxnState::Ready);
            let t = self.txn_mut(id);
            t.stage = Stage::Compute;
            t.cpu_left = t.update_time;
            t.io_retries = 0;
            self.emit(|| TraceEvent::IoDone { txn: id });
        }
        self.update_queue_metrics();
        self.reschedule(); // IO completion is a scheduling point
    }

    /// Put `id`'s transfer to the disk: started at once on an idle disk,
    /// queued otherwise.
    fn enqueue_io(&mut self, id: TxnId) {
        self.set_state(id, TxnState::IoQueued);
        let deadline_key = self.txn(id).deadline.as_micros();
        let disk = self.disk.as_mut().expect("IO without a disk");
        let queued = !disk.enqueue(id, deadline_key);
        if !queued {
            self.start_transfer(id);
        }
        self.emit(|| TraceEvent::IoIssued { txn: id, queued });
    }

    /// Begin a transfer on the (idle) disk for `id`, drawing the attempt's
    /// fate from the fault injector when one is configured.
    fn start_transfer(&mut self, id: TxnId) {
        let now = self.now();
        let nominal = self
            .disk
            .as_ref()
            .expect("transfer without a disk")
            .access_time();
        let service = self.draw_attempt(Resource::Disk, nominal);
        let at = self
            .disk
            .as_mut()
            .expect("transfer without a disk")
            .start(id, now, service);
        self.set_state(id, TxnState::IoActive);
        self.calendar.schedule(at, Event::IoDone(id));
    }

    /// One attempt on `r` — a transfer or a compute burst — of nominal
    /// length `nominal`: with an injector for `r`, draw and count its
    /// verdict and arm its failure flag. Returns the attempt's length.
    fn draw_attempt(&mut self, r: Resource, nominal: SimDuration) -> SimDuration {
        let now = self.now();
        let Some(inj) = &mut self.faults[r as usize] else {
            return nominal;
        };
        let a = inj.attempt(now, nominal);
        self.metrics.record_attempt(r, &a);
        self.attempt_failed[r as usize] = a.failed;
        a.service
    }

    /// The attempt of `id` that just finished on `r` was drawn to fail.
    /// Within the retry budget: back off in [`TxnState::IoBackoff`] —
    /// locks held — and retry when [`Event::Retry`] fires. Budget spent:
    /// restart like an HP victim.
    ///
    /// The retry counter and staleness token (`io_retries` /
    /// `retry_token`) and the backoff state serve both resources: an
    /// update retries either its transfer or its burst, never both at
    /// once, and `abort`'s backoff arm covers both identically.
    fn handle_failed_attempt(&mut self, id: TxnId, r: Resource) {
        let retries = self.txn(id).io_retries;
        let backoff = self.faults[r as usize]
            .as_ref()
            .expect("a failed attempt without an injector")
            .backoff(retries);
        let Some(backoff) = backoff else {
            if r == Resource::Disk {
                self.emit(|| TraceEvent::IoGaveUp { txn: id });
            }
            self.metrics.record_exhausted_abort(r);
            self.restart(id);
            self.set_state(id, TxnState::Ready);
            return;
        };
        if r == Resource::Disk {
            self.emit(|| TraceEvent::IoFault { txn: id, retries });
        }
        self.metrics.record_retry(r, backoff);
        let at = self.now() + backoff;
        self.set_state(id, TxnState::IoBackoff);
        let t = self.txn_mut(id);
        t.io_retries += 1;
        t.retry_token += 1;
        let token = t.retry_token;
        self.calendar.schedule(at, Event::Retry(id, token));
    }

    /// A backoff expired: re-queue the failed transfer (`Stage::Io`) or
    /// make the transaction ready so the scheduler re-places its stalled
    /// burst (`Stage::Compute`), unless the event is stale (the
    /// transaction was aborted while the retry was in flight — the
    /// abort's backoff arm already reset it and bumped the token).
    fn on_retry(&mut self, id: TxnId, token: u64) {
        // A transaction that restarted and committed while the retry was
        // in flight has released its slot, which a later arrival may own.
        if !self.accel.is_live(id) {
            return;
        }
        let t = self.txn(id);
        if t.state != TxnState::IoBackoff || t.retry_token != token {
            return;
        }
        if t.stage == Stage::Io {
            self.enqueue_io(id);
        } else {
            self.set_state(id, TxnState::Ready);
        }
        self.update_queue_metrics();
        self.reschedule();
    }

    // ---- transaction driving --------------------------------------------

    /// After the current update's lock is held: move to IO or compute.
    fn after_lock(&mut self, id: TxnId) {
        let t = self.txn_mut(id);
        if t.current_needs_io() {
            t.stage = Stage::Io;
        } else {
            t.stage = Stage::Compute;
            t.cpu_left = t.update_time;
        }
    }

    /// Drive the running transaction until it schedules a CPU burst or
    /// blocks on IO. Lock acquisition is instantaneous; a conflicting
    /// holder is aborted and charged as a recovery burst.
    fn proceed(&mut self, id: TxnId) -> Started {
        debug_assert_eq!(self.running, Some(id));
        loop {
            match self.txn(id).stage {
                Stage::Lock => {
                    let item = self.txn(id).current_item();
                    let mode = self.txn(id).current_mode();
                    match self.locks.request(id, item, mode) {
                        LockOutcome::Granted => {
                            self.lock_granted(id, item, mode);
                            self.after_lock(id);
                        }
                        LockOutcome::HeldBy(holders) => {
                            debug_assert!(!holders.contains(&id));
                            let all_beaten = holders.iter().all(|&h| self.beats(id, h));
                            if all_beaten {
                                // HP: "whenever a data conflict occurs, the
                                // running transaction aborts the conflicting
                                // transactions." The runner outranks every
                                // holder whenever it was dispatched as TH
                                // (Lemma 1), and always under CCA. With
                                // shared locks a write request may have to
                                // abort several readers at once.
                                let mut recovery = rtx_sim::time::SimDuration::ZERO;
                                for &h in &holders {
                                    recovery += self.recovery_cost(h);
                                    self.emit(|| TraceEvent::Abort {
                                        victim: h,
                                        by: id,
                                        item,
                                    });
                                    self.abort(h);
                                }
                                self.locks.grant_after_abort(id, item, mode);
                                self.lock_granted(id, item, mode);
                                let t = self.txn_mut(id);
                                t.stage = Stage::Recover;
                                t.cpu_left = recovery;
                                self.update_queue_metrics();
                                return self.schedule_burst(id);
                            } else {
                                // Wound-wait: a lower-priority requester (an
                                // IO-wait secondary under EDF-HP) blocks
                                // until the holder releases the lock. A wait
                                // edge points to a higher priority when it
                                // is made; a cycle needs priorities that
                                // reorder later (`resolve_deadlock`). Under
                                // CCA this branch is unreachable (Theorem
                                // 1's "no lock wait").
                                self.metrics.record_lock_wait();
                                self.emit(|| TraceEvent::LockWait { txn: id, item });
                                self.set_state(id, TxnState::LockWait);
                                self.txn_mut(id).waiting_for = Some(item);
                                self.running = None;
                                self.update_queue_metrics();
                                return Started::Blocked;
                            }
                        }
                    }
                }
                Stage::Io => {
                    self.running = None;
                    self.enqueue_io(id);
                    self.update_queue_metrics();
                    return Started::WentToIo;
                }
                Stage::Compute | Stage::Recover => {
                    return self.schedule_burst(id);
                }
            }
        }
    }

    fn schedule_burst(&mut self, id: TxnId) -> Started {
        let now = self.now();
        let stage = self.txn(id).stage;
        // Every placement of a Compute burst on the CPU is one attempt
        // against the CPU fault plan: a slowdown inflates the burst
        // in-place (so service accounting, busy time and preemption math
        // all see the inflated figure), a stall marks the burst doomed —
        // it runs to its end and is then discovered wasted in
        // `on_cpu_done`, mirroring how a failed transfer occupies the
        // disk. A burst resumed after preemption draws a fresh attempt;
        // slowdowns can compound across resumptions.
        if stage == Stage::Compute {
            let service = self.draw_attempt(Resource::Cpu, self.txn(id).cpu_left);
            self.txn_mut(id).cpu_left = service;
        }
        let t = self.txn_mut(id);
        t.burst_start = now;
        let at = now + t.cpu_left;
        self.cpu_event = self.calendar.schedule(at, Event::CpuDone(id));
        Started::Scheduled
    }

    /// Livelock escalation in [`Self::beats`]: once either side of a
    /// wound/wait decision has been aborted this many times, the decision
    /// goes by age instead of priority. 100 is far above anything the
    /// paper's policies produce (CCA and EDF-HP runs never shield), and
    /// far below livelock's thousands.
    const STARVATION_THRESHOLD: u32 = 100;

    /// Wound-wait decision for one (requester, holder) pair: `true` means
    /// abort the holder, `false` means the requester waits.
    ///
    /// Normally this is the policy's priority order ([`Self::outranks`]).
    /// Livelock escalation overrides it: once either side has been aborted
    /// [`Self::STARVATION_THRESHOLD`] times, the comparison switches to pure
    /// **age** (the smaller id, which is arrival order — classic timestamp
    /// wound-wait). Age is abort-invariant, so the order is stable: the
    /// oldest escalated transaction can never lose again and runs to
    /// commit, then the next, and so on. Continuous-evaluation policies
    /// like LSF need this: a freshly restarted transaction always has the
    /// least slack, so without escalation two victims abort each other
    /// forever (any restart-count-based order re-livelocks, because the
    /// counts change as a result of the comparison). The paper's policies
    /// never reach the threshold (asserted in tests).
    fn beats(&mut self, requester: TxnId, holder: TxnId) -> bool {
        let escalated = |id| self.txn(id).restarts >= Self::STARVATION_THRESHOLD;
        if escalated(requester) || escalated(holder) {
            self.metrics.record_starvation_shield();
            return requester < holder; // older wins
        }
        self.outranks(requester, holder)
    }

    /// Does `requester` strictly outrank `holder` in the current priority
    /// order (priority, then smaller id, which is arrival order)?
    ///
    /// A wound/wait decision is a scheduling decision: it must see
    /// **exact** priorities, not the stale-high upper bounds a
    /// `ConflictState` index key may hold under lazy falls.
    fn outranks(&self, requester: TxnId, holder: TxnId) -> bool {
        use std::cmp::Reverse;
        let pr = self.priority_rekeyed(requester);
        let ph = self.priority_rekeyed(holder);
        (pr, Reverse(requester)) > (ph, Reverse(holder))
    }

    /// Release every lock `id` holds — exactly its `accessed` items, which
    /// `Verify` checks against a scan of the whole table — and wake the
    /// transactions waiting on them: "all transactions blocked by the
    /// resources that currently running transaction hold wake up and move
    /// to ready queue." The scan for waiters runs only while some
    /// transaction is lock-waiting. Returns how many locks were released.
    fn release_locks(&mut self, id: TxnId) -> usize {
        let slot = self.accel.slot_of(id).0 as usize;
        let accessed = &self.txns[slot].accessed;
        if self.mode == CacheMode::Verify {
            assert_eq!(
                self.locks.held_by(id),
                accessed.iter().collect::<Vec<_>>(),
                "{id}: accessed set diverged from the lock table"
            );
            self.verify_checks.set(self.verify_checks.get() + 1);
        }
        let released = self.locks.release(id, accessed);
        if self.lock_wait_count == 0 {
            return released;
        }
        for idx in 0..self.active.len() {
            let w = self.active[idx];
            let t = self.txn(w);
            if t.state == TxnState::LockWait
                && t.waiting_for
                    .is_some_and(|i| self.txns[slot].accessed.contains(i))
            {
                self.set_state(w, TxnState::Ready);
                self.txn_mut(w).waiting_for = None;
            }
        }
        released
    }

    /// CPU time the runner spends rolling back `victim`.
    fn recovery_cost(&self, victim: TxnId) -> SimDuration {
        let base = self.cfg.system.abort_cost();
        if self.cfg.system.proportional_recovery {
            // §6 ablation: cost grows with the victim's performed work —
            // one abort-cost unit per completed update, plus one for the
            // in-progress update.
            base * (self.txn(victim).progress as u64 + 1)
        } else {
            base
        }
    }

    /// The shared work of every abort — an HP wound, a deadlock victim, an
    /// exhausted retry budget: release `id`'s locks and wake their
    /// waiters, count the restart, and reset `id` to re-execute from
    /// scratch. It keeps its deadline (soft real time). The caller settles
    /// its scheduling state.
    fn restart(&mut self, id: TxnId) {
        let released = self.release_locks(id);
        debug_assert!(released > 0, "a restarted transaction holds a lock");
        let slot = self.accel.slot_of(id).0 as usize;
        let was_secondary = std::mem::take(&mut self.secondary[slot]);
        self.metrics.record_restart(was_secondary);
        // It holds locks (asserted above), so it is on the P-list and
        // leaves it now; its access sets clear and a narrowed mightaccess
        // re-widens.
        self.conflict_cleared(id);
        self.txn_mut(id).reset_for_restart();
        // `reset_for_restart` re-widens `might_access` and zeroes
        // progress: refresh the slot rows and the `K` key.
        self.reindex(id);
        self.own_state_rekey(id);
    }

    /// Abort `victim` and restart it; the state it was caught in decides
    /// how it leaves.
    fn abort(&mut self, victim: TxnId) {
        assert_ne!(self.running, Some(victim), "the runner cannot be aborted");
        self.restart(victim);
        let state = self.txn(victim).state;
        match state {
            TxnState::Ready => {}
            TxnState::LockWait => {
                // The victim was itself waiting for a lock; it re-enters
                // the ready queue.
                self.set_state(victim, TxnState::Ready);
            }
            TxnState::IoQueued => {
                // "deleted from the disk queue immediately"
                let removed = self
                    .disk
                    .as_mut()
                    .expect("IoQueued without a disk")
                    .remove_queued(victim);
                debug_assert!(removed);
                self.set_state(victim, TxnState::Ready);
            }
            TxnState::IoActive => {
                // "not deleted until it releases the disk" — hold time
                // from here on is wasted and attributed when it releases.
                let now = self.now();
                let t = self.txn_mut(victim);
                t.doomed = true;
                t.doomed_at = now;
            }
            TxnState::IoBackoff => {
                // Waiting out a retry backoff: off the disk and the CPU,
                // so it can restart immediately. Bumping the token
                // invalidates the pending retry.
                self.txn_mut(victim).retry_token += 1;
                self.set_state(victim, TxnState::Ready);
            }
            TxnState::Running | TxnState::Committed => {
                unreachable!("abort of a {state:?} transaction")
            }
        }
    }

    fn commit(&mut self, id: TxnId) {
        debug_assert_eq!(self.running, Some(id));
        let now = self.now();
        // The final burst is already banked in `service` (`on_cpu_done`
        // ran first), but `burst_start` still points at the burst's
        // start, so `effective_service` would double-charge it. Nothing
        // observes the committer's effective service between here and
        // the `Committed` state — except the clear-repair bound below,
        // which the correction keeps tight.
        self.txn_mut(id).burst_start = now;
        self.release_locks(id);
        // The committer leaves the P-list (a zero-update transaction was
        // never on it) and stops being anyone's rollback victim.
        if self.txn(id).is_partially_executed() {
            self.conflict_cleared(id);
        }
        self.set_state(id, TxnState::Committed);
        let t = self.txn(id);
        let (arrival, deadline, class, restarts) =
            (t.arrival, t.deadline, t.criticality, t.restarts);
        self.emit(|| TraceEvent::Commit {
            txn: id,
            lateness_ms: now.signed_ms_since(deadline),
        });
        self.metrics
            .record_commit_in_class(class, arrival, deadline, now);
        if self.cfg.system.admission.is_some() {
            self.adm_win_committed += 1;
            if now.signed_ms_since(deadline) > 0.0 {
                self.adm_win_missed += 1;
            }
            self.adm_maybe_roll();
        }
        if let Some(sink) = &mut self.completions {
            sink.push(Completion {
                id,
                arrival,
                deadline,
                finish: now,
                restarts,
                kind: CompletionKind::Committed {
                    missed: now.signed_ms_since(deadline) > 0.0,
                },
            });
        }
        self.running = None;
        let pos = self
            .active
            .binary_search(&id)
            .expect("the committer is active");
        self.active.remove(pos);
        self.accel.drop_index(id);
        self.index.borrow_mut().remove(id);
        // Departed for good: its metrics and completion are taken, so
        // the record retires and its slot is recycled. Nothing reads the
        // record again: it becomes the default record with its id and
        // `Committed`, so a drained burst does not pin its sets' and
        // vectors' memory, and the slot's next owner overwrites it.
        *self.txn_mut(id) = Transaction {
            id,
            state: TxnState::Committed,
            ..Default::default()
        };
        self.accel.release(id);
        self.update_queue_metrics();
        self.reschedule(); // tr-finish-schedule
    }

    // ---- the scheduler ---------------------------------------------------

    /// The continuous-evaluation dispatcher. Assigns new priorities to
    /// every active transaction and puts the right one on the CPU. When
    /// tracing, also logs this pass's scheduler-overhead deltas.
    fn reschedule(&mut self) {
        if self.trace.is_none() {
            return self.reschedule_inner();
        }
        let evals0 = self.priority_evals.get();
        let pairs0 = self.accel.pair_checks();
        self.reschedule_inner();
        let evals = self.priority_evals.get() - evals0;
        let pair_checks = self.accel.pair_checks() - pairs0;
        self.emit(|| TraceEvent::SchedulerPass { evals, pair_checks });
    }

    fn reschedule_inner(&mut self) {
        loop {
            match self.pick_next() {
                None => {
                    debug_assert!(
                        self.running.is_none(),
                        "pick_next must select the running transaction if any"
                    );
                    return; // CPU idles
                }
                Some((id, _)) if self.running == Some(id) => return,
                Some((id, secondary)) => {
                    self.preempt_running();
                    self.secondary[self.accel.slot_of(id).0 as usize] = secondary;
                    self.set_state(id, TxnState::Running);
                    self.running = Some(id);
                    self.emit(|| TraceEvent::Dispatch { txn: id, secondary });
                    match self.proceed(id) {
                        Started::Scheduled => {
                            self.update_queue_metrics();
                            return;
                        }
                        Started::WentToIo | Started::Blocked => continue,
                    }
                }
            }
        }
    }

    /// Select the transaction to run: `TH` if runnable, else the
    /// IOwait-schedule choice. Returns `(id, chosen_via_iowait)`.
    /// Wall-clock-timed in profiled runs.
    fn pick_next(&self) -> Option<(TxnId, bool)> {
        self.pick_next_calls.set(self.pick_next_calls.get() + 1);
        if self.profile {
            let t0 = std::time::Instant::now();
            let r = self.pick_next_inner();
            self.sched_wall_ns
                .set(self.sched_wall_ns.get() + t0.elapsed().as_nanos() as u64);
            r
        } else {
            self.pick_next_inner()
        }
    }

    /// `TH` and the IOwait-schedule pick both come from one argmax: the
    /// validated index argmax ([`PriorityIndex::best`]) when the index is
    /// the pick path, the scan ([`Self::scan_best`]) otherwise. Both
    /// evaluate through [`Self::priority_of`]. `Verify` checks every index
    /// key ([`Self::check_index`]) and asserts each indexed pick against a
    /// fresh scan.
    fn pick_next_inner(&self) -> Option<(TxnId, bool)> {
        let indexed = self.index.borrow().in_use(self.active.len());
        let verify = indexed && self.mode == CacheMode::Verify;
        if verify {
            let checks = self.check_index();
            self.verify_checks.set(self.verify_checks.get() + checks);
        }
        let best = |accept: &dyn Fn(TxnId) -> bool| {
            if indexed {
                let exact = |id| self.priority_of(id);
                let joins = self.accel.joins();
                self.index
                    .borrow_mut()
                    .best(self.now(), joins, accept, exact)
            } else {
                self.scan_best(|id| self.priority_of(id), accept)
            }
        };
        let oracle = |accept: &dyn Fn(TxnId) -> bool| {
            self.verify_checks.set(self.verify_checks.get() + 1);
            let view = self.fresh_view();
            self.scan_best(|id| self.policy.priority(self.txn(id), &view), accept)
        };
        let th = best(&|_| true);
        if verify {
            assert_eq!(
                th,
                oracle(&|_| true),
                "indexed TH pick diverged from the fresh scan"
            );
        }
        let Some(th) = th else {
            debug_assert!(self.active.is_empty(), "index lost an active entry");
            return None;
        };
        if self.txn(th).is_runnable() {
            return Some((th, false));
        }
        // TH is blocked on IO: IOwait-schedule. With nothing Ready and
        // nothing Running there is no candidate — skip the filtered
        // argmax (pure short-circuit; it would also find nobody).
        if self.mode != CacheMode::AlwaysRecompute
            && self.ready_count == 0
            && self.running.is_none()
        {
            return None;
        }
        let restrict = self.policy.iowait_restrict();
        let pick =
            best(&|id| self.txn(id).is_runnable() && (!restrict || self.compatible_with_plist(id)));
        if verify {
            let fresh = oracle(&|id| {
                self.txn(id).is_runnable() && (!restrict || self.fresh_compatible(id))
            });
            assert_eq!(
                pick, fresh,
                "indexed IOwait pick diverged from the fresh scan"
            );
        }
        pick.map(|id| (id, true))
    }

    /// The scan argmax: the highest `priority` among the `accept`ed
    /// active transactions, ties broken by smaller id, which is arrival
    /// order (deterministic). It is the pick path wherever the index is not —
    /// `Volatile` policies and the `AlwaysRecompute` oracle, evaluating
    /// through [`Self::priority_of`] — and the fresh oracle `Verify`
    /// asserts the indexed picks against.
    fn scan_best(
        &self,
        priority: impl Fn(TxnId) -> Priority,
        accept: impl Fn(TxnId) -> bool,
    ) -> Option<TxnId> {
        use std::cmp::Reverse;
        let mut best = None;
        for &id in self.active.iter().filter(|&&id| accept(id)) {
            let candidate = (priority(id), Reverse(id));
            if Some(candidate) > best {
                best = Some(candidate);
            }
        }
        best.map(|(_, Reverse(id))| id)
    }

    /// Accel-free IOwait compatibility (the `Verify` oracle's filter).
    fn fresh_compatible(&self, id: TxnId) -> bool {
        let candidate = self.txn(id);
        self.plist_scan()
            .filter(|&p| p != id)
            .all(|p| !candidate.conflicts_with(self.txn(p)))
    }

    /// The index's one key check against fresh priorities
    /// ([`PriorityIndex::check`]): at every `Verify` pick, and in
    /// [`Self::validate_state`]. Returns the number of comparisons made.
    fn check_index(&self) -> u64 {
        self.index.borrow().check(
            self.now(),
            &self.active,
            |id| self.txn(id),
            self.policy,
            &self.fresh_view(),
        )
    }

    /// §3.3.3 `IOwait-schedule` filter: true iff `id` neither conflicts nor
    /// conditionally conflicts with **any** partially executed transaction.
    /// For the paper's straight-line write-only workload this is the
    /// oracle test `mightaccess(candidate) ∩ mightaccess(partial) = ∅`;
    /// with shared locks only write-involved overlaps count.
    ///
    /// Incrementally: iterate the maintained P-list (same transactions,
    /// same ascending-id order as the `active` scan); `Verify` asserts
    /// the answer against that scan.
    fn compatible_with_plist(&self, id: TxnId) -> bool {
        if self.mode == CacheMode::AlwaysRecompute {
            return self.fresh_compatible(id);
        }
        let candidate = self.txn(id);
        let compatible = self
            .accel
            .plist()
            .iter()
            .filter(|&&p| p != id)
            .all(|&p| !self.accel.conflicts(candidate, self.txn(p)));
        if self.mode == CacheMode::Verify {
            self.verify_checks.set(self.verify_checks.get() + 1);
            assert_eq!(
                compatible,
                self.fresh_compatible(id),
                "{id}: P-list IOwait compatibility diverged from the active scan"
            );
        }
        compatible
    }

    fn preempt_running(&mut self) {
        if let Some(r) = self.running.take() {
            self.emit(|| TraceEvent::Preempt { txn: r });
            let cancelled = self.calendar.cancel(self.cpu_event);
            debug_assert!(cancelled, "running transaction must have a pending burst");
            self.cpu_event = EventHandle::NULL;
            let now = self.now();
            let t = self.txn_mut(r);
            let consumed = now.since(t.burst_start);
            t.cpu_left = t.cpu_left.saturating_sub(consumed);
            if t.stage == Stage::Compute {
                // No key moves: at this fixed instant the transaction's
                // *effective* service is unchanged — the in-flight part
                // of the burst was already accruing continuously (see
                // `Transaction::effective_service`), it merely moves from
                // implicit to banked. Priorities that read effective
                // service (CCA's penalty term) see the same value.
                t.service += consumed;
            }
            self.set_state(r, TxnState::Ready);
            self.metrics.add_cpu_busy(consumed);
            // A pending stall verdict belonged to the burst as placed;
            // the resumed remainder draws its own attempt.
            self.attempt_failed[Resource::Cpu as usize] = false;
        }
    }

    fn update_queue_metrics(&mut self) {
        let now = self.now();
        let (plist, ready) = match self.mode {
            CacheMode::AlwaysRecompute => {
                (self.plist_scan().count(), self.state_scan(TxnState::Ready))
            }
            mode => {
                if mode == CacheMode::Verify {
                    self.verify_checks.set(self.verify_checks.get() + 3);
                    assert_eq!(
                        self.accel.plist_len(),
                        self.plist_scan().count(),
                        "P-list count diverged"
                    );
                    assert_eq!(
                        self.ready_count,
                        self.state_scan(TxnState::Ready),
                        "ready count diverged"
                    );
                    assert_eq!(
                        self.lock_wait_count,
                        self.state_scan(TxnState::LockWait),
                        "lock-wait count diverged"
                    );
                }
                (self.accel.plist_len(), self.ready_count)
            }
        };
        self.metrics.set_plist_len(now, plist);
        self.metrics.set_ready_len(now, ready);
    }

    /// The partially executed active transactions, ascending by id, by a
    /// scan of `active` — the oracle for the maintained P-list.
    fn plist_scan(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.active
            .iter()
            .copied()
            .filter(|&id| self.txn(id).is_partially_executed())
    }

    /// Active transactions in `state`, by a scan of `active` — the oracle
    /// for `ready_count` and `lock_wait_count`.
    fn state_scan(&self, state: TxnState) -> usize {
        self.active
            .iter()
            .filter(|&&id| self.txn(id).state == state)
            .count()
    }

    /// Deadlock resolution: invoked when the event calendar drains while
    /// transactions remain. At that point every active transaction is
    /// lock-waiting (anything runnable would have been dispatched and
    /// anything on the disk would have a pending completion), so the
    /// wait-for graph — waiter → holder of its awaited item — is a
    /// function on the waiters and must contain a cycle. The
    /// lowest-priority member of one such cycle is aborted, releasing its
    /// locks and waking its waiters.
    ///
    /// # Panics
    /// Panics if no lock-wait cycle exists — then the drained calendar is
    /// an engine bug, not a deadlock.
    fn resolve_deadlock(&mut self) {
        assert!(self.running.is_none(), "calendar drained while CPU busy");
        let waiters: Vec<TxnId> = self
            .active
            .iter()
            .copied()
            .filter(|&id| self.txn(id).state == TxnState::LockWait)
            .collect();
        assert!(
            !waiters.is_empty(),
            "event calendar empty with uncommitted transactions (starvation bug)"
        );
        // Walk waiter → holder edges until a node repeats: that suffix is
        // a cycle. The visited map makes the repeat test O(1) instead of
        // rescanning the walk prefix; the walk order itself is unchanged.
        let mut seen: Vec<TxnId> = Vec::new();
        let mut visited: HashMap<TxnId, usize> = HashMap::new();
        let mut cur = waiters[0];
        let cycle_start = loop {
            if let Some(&pos) = visited.get(&cur) {
                break pos;
            }
            visited.insert(cur, seen.len());
            seen.push(cur);
            let item = self
                .txn(cur)
                .waiting_for
                .expect("LockWait transaction without an awaited item");
            let (holders, _) = self.locks.holders(item);
            // In the wedge every holder is itself lock-waiting; follow any
            // one of them (shared locks can have several).
            cur = holders
                .iter()
                .copied()
                .find(|&h| self.txn(h).state == TxnState::LockWait)
                .expect("awaited lock has no lock-waiting holder");
        };
        let cycle = &seen[cycle_start..];
        // Abort the *youngest* cycle member, the largest id. This must agree
        // with the starvation escalation's age order: the oldest transaction never
        // loses a conflict (there and here), so it monotonically advances
        // to commit and the population drains — choosing the victim by
        // policy priority instead can re-select the same starved victim
        // forever under continuous-evaluation policies.
        let victim = *cycle.iter().max().expect("cycle is non-empty");
        self.metrics.record_deadlock_resolution();
        self.emit(|| TraceEvent::DeadlockResolved { victim });
        self.abort(victim);
        self.update_queue_metrics();
        self.reschedule();
    }

    /// Expensive cross-structure consistency check, used by tests.
    fn validate_state(&self) {
        self.locks.check_invariants().expect("lock table corrupt");
        // Every active transaction's record sits at its slot, and its
        // accessed set matches its held locks.
        for &id in &self.active {
            let t = self.txn(id);
            assert_eq!(t.id, id, "{id}: its slot holds another record");
            let held = self.locks.held_by(id);
            assert_eq!(
                held.len(),
                t.accessed.len(),
                "{id}: accessed set and lock table disagree"
            );
            for item in held {
                assert!(t.accessed.contains(item));
            }
            // A `Running` record is the one the CPU runs.
            if t.state == TxnState::Running {
                assert_eq!(self.running, Some(id));
            }
        }
        // Departed transactions hold nothing: the active ones account
        // for every lock in the table.
        let active_held: usize = self
            .active
            .iter()
            .map(|&id| self.txn(id).accessed.len())
            .sum();
        assert_eq!(
            self.locks.held_count(),
            active_held,
            "a departed transaction holds a lock"
        );
        // Departure retires the record: the store holds the active
        // records plus retired ones awaiting reuse, within the slot
        // high-water mark, and every departed id released its slot.
        let (_, high_water) = self.accel.slot_occupancy();
        assert!(
            self.txns.len() <= high_water,
            "record store ({}) outgrew the slot high-water mark ({high_water})",
            self.txns.len()
        );
        let live_records = self.txns.iter().filter(|t| t.is_active()).count();
        assert_eq!(live_records, self.active.len(), "a retired record is live");
        let released = (0..self.accel.registered() as u32)
            .filter(|&i| !self.accel.is_live(TxnId(i)))
            .count();
        assert_eq!(
            released + self.active.len(),
            self.accel.registered(),
            "a departed transaction kept its slot"
        );
        // The maintained P-list and counters (kept in every cache mode)
        // agree with full scans.
        assert!(
            self.accel.plist().iter().copied().eq(self.plist_scan()),
            "maintained P-list diverged from scan"
        );
        assert!(
            self.accel.plist().windows(2).all(|w| w[0] < w[1]),
            "P-list not strictly id-sorted"
        );
        assert_eq!(
            self.ready_count,
            self.state_scan(TxnState::Ready),
            "ready counter diverged"
        );
        assert_eq!(
            self.lock_wait_count,
            self.state_scan(TxnState::LockWait),
            "lock-wait counter diverged"
        );
        // The index's key check, while it is the pick path.
        self.check_index();
    }
}

/// Run one simulation to completion and return its summary.
///
/// Deterministic: the same `(cfg, policy)` pair always produces the same
/// summary.
///
/// # Panics
/// Panics if the configuration is invalid.
pub fn run_simulation(cfg: &SimConfig, policy: &dyn Policy) -> RunSummary {
    run_simulation_with_mode(cfg, policy, CacheMode::Incremental)
}

/// As [`run_simulation`] under an explicit [`CacheMode`].
///
/// The simulated outcome is bit-identical across modes (that is the
/// incremental core's contract; `CacheMode::Verify` asserts it at every
/// decision) — only the scheduler-overhead counters in
/// [`RunSummary::sched`] differ.
pub fn run_simulation_with_mode(
    cfg: &SimConfig,
    policy: &dyn Policy,
    mode: CacheMode,
) -> RunSummary {
    expect_run(run(cfg, policy, mode, |_| {}, |_| {})).0
}

/// As [`run_simulation`], additionally measuring wall-clock time spent in
/// the scheduler (`RunSummary::sched.sched_wall_ns`). Kept out of the
/// default path so normal summaries never carry machine-dependent values.
pub fn run_simulation_profiled(cfg: &SimConfig, policy: &dyn Policy) -> RunSummary {
    run_simulation_profiled_with_mode(cfg, policy, CacheMode::Incremental)
}

/// As [`run_simulation_profiled`] under an explicit [`CacheMode`] — the
/// benchmark harness runs this once incrementally and once with
/// [`CacheMode::AlwaysRecompute`] to report the speedup.
pub fn run_simulation_profiled_with_mode(
    cfg: &SimConfig,
    policy: &dyn Policy,
    mode: CacheMode,
) -> RunSummary {
    expect_run(run(cfg, policy, mode, |st| st.profile = true, |_| {})).0
}

/// Run a simulation over a custom [`TxnSource`] instead of the built-in
/// workload generator. `expected` is the number of transactions the source
/// will produce (the run ends once all of them terminate — commit or are
/// rejected at admission); the source must yield dense ids in
/// non-decreasing arrival order.
pub fn run_simulation_from(
    cfg: &SimConfig,
    policy: &dyn Policy,
    source: &mut dyn TxnSource,
    expected: usize,
) -> RunSummary {
    run_simulation_from_mode(cfg, policy, source, expected, CacheMode::Incremental)
}

/// As [`run_simulation_from`] under an explicit [`CacheMode`] — how the
/// oracle-equivalence tests replay one recorded workload through the
/// incremental, always-recompute and verifying engines.
pub fn run_simulation_from_mode(
    cfg: &SimConfig,
    policy: &dyn Policy,
    source: &mut dyn TxnSource,
    expected: usize,
    mode: CacheMode,
) -> RunSummary {
    cfg.validate().expect("invalid simulation configuration");
    assert!(expected > 0, "expected transaction count must be positive");
    let mut st = EngineState::new(cfg, policy, mode);
    drive(&mut st, source, expected, |_| {}).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`run_simulation`], but with every failure mode typed instead of
/// panicking: an invalid configuration and a tripped watchdog both come
/// back as a [`RunError`].
pub fn run_simulation_checked(
    cfg: &SimConfig,
    policy: &dyn Policy,
) -> Result<RunSummary, RunError> {
    run(cfg, policy, CacheMode::Incremental, |_| {}, |_| {}).map(|(summary, _)| summary)
}

/// The one generator-driven batch run behind every `run_simulation*`
/// entry but the `_from` pair: validate `cfg`, build its workload from
/// `cfg.run.seed`, let `prepare` switch profiling or tracing on before the
/// first event, and [`drive`] the run to its end, calling `inspect` with
/// the engine state after every event. Returns the trace, if `prepare`
/// switched it on.
fn run(
    cfg: &SimConfig,
    policy: &dyn Policy,
    mode: CacheMode,
    prepare: impl FnOnce(&mut EngineState<'_>),
    inspect: impl FnMut(&EngineState<'_>),
) -> Result<(RunSummary, Option<Trace>), RunError> {
    cfg.validate()?;
    let seeder = StreamSeeder::new(cfg.run.seed);
    let table = TypeTable::generate(cfg, &seeder);
    let mut generator = ArrivalGenerator::new(cfg, &table, &seeder);
    let mut st = EngineState::new(cfg, policy, mode);
    prepare(&mut st);
    let summary = drive(&mut st, &mut generator, cfg.run.num_transactions, inspect)?;
    Ok((summary, st.trace.take()))
}

/// The panicking entries' view of [`run`]: an invalid configuration
/// panics with the same message as [`run_simulation_from_mode`], and a
/// tripped watchdog with its [`RunError`].
fn expect_run<T>(result: Result<T, RunError>) -> T {
    match result {
        Ok(out) => out,
        Err(RunError::Config(e)) => panic!("invalid simulation configuration: {e:?}"),
        Err(e) => panic!("{e}"),
    }
}

/// The batch event loop: step until all `expected` transactions
/// terminate (commit, or are rejected at admission). The configured
/// watchdog limits, if any, are enforced here.
fn drive(
    st: &mut EngineState<'_>,
    source: &mut dyn TxnSource,
    expected: usize,
    mut inspect: impl FnMut(&EngineState<'_>),
) -> Result<RunSummary, RunError> {
    st.pull_arrival(source);
    let watchdog = st.cfg.run.watchdog;
    let mut events: u64 = 0;
    while st.metrics.committed() + st.metrics.rejected() < expected as u64 {
        if let Some(w) = watchdog {
            if events >= w.max_events {
                return Err(RunError::WatchdogEvents {
                    limit: w.max_events,
                });
            }
            let now_ms = st.now().as_ms();
            if now_ms > w.max_sim_ms {
                return Err(RunError::WatchdogSimTime {
                    limit_ms: w.max_sim_ms,
                    reached_ms: now_ms,
                });
            }
        }
        events += 1;
        if !st.step(source) {
            panic!("the source ran dry before {expected} transactions terminated");
        }
        inspect(st);
    }

    Ok(st.finish_summary())
}

impl EngineState<'_> {
    /// Schedule the next arrival `source` yields, if any. At most one
    /// arrival is ever pending in the calendar: the next one is pulled
    /// when the previous one fires, so a batch source and a serving
    /// queue schedule arrivals at the same point of the event order.
    fn pull_arrival(&mut self, source: &mut dyn TxnSource) {
        if let Some(next) = source.next_transaction() {
            self.calendar
                .schedule(next.arrival, Event::Arrival(Box::new(next)));
        }
    }

    /// Process one event, pulling the following arrival from `source`
    /// when an arrival fires. Returns `false` iff there was nothing to do
    /// — no pending events and no active transactions. When the calendar
    /// drains while admitted transactions remain, they are wedged in a
    /// lock-wait cycle (possible under dynamic continuously-evaluated
    /// priorities like LSF — §2's "they still have deadlock problems";
    /// never under CCA, Theorem 1): the step resolves it.
    ///
    /// Popping an event advances the simulation clock. A partially
    /// executed Compute-stage runner accrues effective service, which can
    /// only *lower* ConflictState priorities computed against it —
    /// stale-high heap keys the pick path's pop-and-revalidate already
    /// tolerates, so nothing is walked here.
    fn step(&mut self, source: &mut dyn TxnSource) -> bool {
        let Some(fired) = self.calendar.pop() else {
            if self.active.is_empty() {
                return false;
            }
            self.resolve_deadlock();
            return true;
        };
        match fired.payload {
            Event::Arrival(txn) => {
                self.pull_arrival(source);
                self.on_arrival(*txn);
            }
            Event::CpuDone(id) => self.on_cpu_done(id),
            Event::IoDone(id) => self.on_io_done(id),
            Event::Retry(id, token) => self.on_retry(id, token),
        }
        true
    }

    /// Finalize the run: install the scheduler-overhead tallies and fold
    /// the metrics into a [`RunSummary`] at the current simulation time.
    /// Shared by the batch `drive` loop and [`StepEngine::finish`].
    fn finish_summary(&mut self) -> RunSummary {
        let end = self.now();
        let disk_busy = self
            .disk
            .as_ref()
            .map(|d| d.busy_until(end))
            .unwrap_or(SimDuration::ZERO);
        let index = self.index.get_mut();
        self.metrics.set_sched_stats(SchedStats {
            pick_next_calls: self.pick_next_calls.get(),
            priority_evals: self.priority_evals.get(),
            priority_cache_hits: 0,
            pair_checks: self.accel.pair_checks(),
            pair_cache_hits: 0,
            heap_pushes: index.pushes,
            heap_stale_pops: index.stale_pops,
            heap_validated_picks: index.validated_picks,
            pair_cache_evictions: 0,
            clear_repair_clears: self.clear_repair_clears.get(),
            clear_repair_visits: self.clear_repair_visits.get(),
            index_migrations: 0,
            verify_checks: self.verify_checks.get(),
            sched_wall_ns: self.sched_wall_ns.get(),
        });
        self.metrics.finish(end, disk_busy)
    }
}

/// How a transaction left the system, as reported through
/// [`StepEngine::drain_completions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// Ran to commit. `missed` is true iff it committed after its
    /// deadline (the deadline is soft — late transactions still commit).
    Committed {
        /// Commit happened strictly after the deadline.
        missed: bool,
    },
    /// Rejected at the door by admission control; never executed.
    Rejected,
}

/// One terminal transaction outcome, observed by the serving layer.
///
/// All times are simulation times; a wall-clock front-end converts them
/// to real time through its [`rtx_sim::clock::Clock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The transaction.
    pub id: TxnId,
    /// Its arrival (= submission) time.
    pub arrival: SimTime,
    /// Its absolute deadline.
    pub deadline: SimTime,
    /// When it terminated (commit time; for rejections, the arrival
    /// instant — rejection is immediate).
    pub finish: SimTime,
    /// How many times it was aborted and restarted before terminating.
    pub restarts: u32,
    /// Commit-vs-reject, and whether the deadline was met.
    pub kind: CompletionKind,
}

impl Completion {
    /// Response time (finish − arrival) as a sim-time span.
    pub fn response(&self) -> SimDuration {
        self.finish.since(self.arrival)
    }
}

/// An incrementally driven engine: the same event machinery as
/// [`run_simulation`], exposed one event at a time so a serving loop can
/// interleave event processing with externally submitted arrivals and
/// pace both against a wall clock.
///
/// Stepping *is* the batch loop's step: the submission queue is the
/// `TxnSource` it pulls the next arrival from when one fires, with at
/// most one `Arrival` event in the calendar at a time. Feeding a recorded
/// trace through a `StepEngine` therefore replays the identical event
/// sequence (and produces a bit-identical [`RunSummary`]) as
/// [`run_simulation_from`] over the same transactions; the serving
/// bit-identity test in `tests/serving.rs` pins this.
///
/// Unlike the batch entry points, a `StepEngine` has no preset
/// transaction budget and no watchdog: the caller decides when to stop
/// submitting and when to [`StepEngine::finish`].
pub struct StepEngine<'p> {
    st: EngineState<'p>,
    /// Submitted transactions not yet scheduled into the calendar (the
    /// batch loop's source, materialized).
    queue: VecDeque<Transaction>,
    /// Total transactions ever submitted.
    submitted: u64,
    /// Arrival stamp of the last submission (stamps are non-decreasing).
    last_arrival: SimTime,
}

impl<'p> StepEngine<'p> {
    /// A fresh engine under `cfg` and `policy` (incremental cache mode).
    ///
    /// `cfg.run.num_transactions` is only a capacity hint here; the run
    /// ends when the caller stops, not when a budget is reached.
    ///
    /// # Errors
    /// Returns the configuration's validation error, if any.
    pub fn new(cfg: &'p SimConfig, policy: &'p dyn Policy) -> Result<Self, RunError> {
        cfg.validate()?;
        let mut st = EngineState::new(cfg, policy, CacheMode::Incremental);
        st.completions = Some(Vec::new());
        Ok(StepEngine {
            st,
            queue: VecDeque::new(),
            submitted: 0,
            last_arrival: SimTime::ZERO,
        })
    }

    /// Current simulation time (the firing time of the last processed
    /// event).
    pub fn now(&self) -> SimTime {
        self.st.now()
    }

    /// The dense id the next submitted transaction must carry.
    pub fn next_txn_id(&self) -> TxnId {
        TxnId(self.submitted as u32)
    }

    /// Submit a transaction. Ids must be dense in submission order
    /// ([`StepEngine::next_txn_id`]) and arrival stamps non-decreasing
    /// and not in the engine's past — a wall-clock front-end stamps
    /// submissions with `max(clock now, engine now, last stamp)`, which
    /// satisfies both by construction.
    ///
    /// # Panics
    /// Panics if the id is not the next dense id or the arrival stamp
    /// regresses.
    pub fn submit(&mut self, txn: Transaction) {
        assert_eq!(txn.id, self.next_txn_id(), "transaction ids must be dense");
        assert!(
            txn.arrival >= self.last_arrival,
            "arrival stamps must be non-decreasing"
        );
        assert!(
            txn.arrival >= self.st.now(),
            "arrival stamp {} is in the engine's past (now {})",
            txn.arrival,
            self.st.now()
        );
        self.last_arrival = txn.arrival;
        self.queue.push_back(txn);
        if self.submitted == self.arrivals_fired() {
            // Every earlier submission has fired, so none is pending in
            // the calendar: schedule this one now, as the batch loop
            // schedules its first arrival. Otherwise it waits in the
            // queue until its predecessor fires.
            self.st.pull_arrival(&mut self.queue);
        }
        self.submitted += 1;
    }

    /// The firing time of the next pending event, if any.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.st.calendar.peek_time()
    }

    /// Submitted arrivals still buffered *behind* the one pending in the
    /// calendar. A deterministic (virtual-clock) serving loop steps only
    /// while this is ≥ 1 or the stream is closed: it guarantees that when
    /// the pending arrival fires, its successor is scheduled at the same
    /// point in event-sequence order as the batch loop would have — the
    /// invariant behind bit-identical replay.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Total `Arrival` events processed so far. Deterministic across
    /// replays of the same submission sequence (unlike drain timing), so
    /// a chaos harness can cut the engine at "the Nth arrival" and land
    /// at the same event-sequence position every run.
    pub fn arrivals_fired(&self) -> u64 {
        // Every fired arrival, admitted or rejected, registers its id in
        // the slot map; records are recycled, so they do not count
        // arrivals.
        self.st.accel.registered() as u64
    }

    /// Process one event. Returns `false` iff there was nothing to do —
    /// no pending events and no stuck transactions. (When the calendar
    /// drains while admitted transactions remain blocked, the engine
    /// breaks the lock-wait cycle exactly as the batch loop does and
    /// returns `true`.)
    pub fn step(&mut self) -> bool {
        self.st.step(&mut self.queue)
    }

    /// Take the completions recorded since the last drain, in
    /// termination order.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        self.st
            .completions
            .replace(Vec::new())
            .expect("StepEngine always installs a completion sink")
    }

    /// Terminated transactions so far (committed + rejected).
    pub fn terminated(&self) -> u64 {
        self.st.metrics.committed() + self.st.metrics.rejected()
    }

    /// Submitted transactions that have not yet reached a terminal
    /// state (includes ones still queued behind a pending arrival).
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.terminated()
    }

    /// Finalize: fold the metrics into a [`RunSummary`] at the current
    /// simulation time, exactly as the batch loop does at end of run.
    pub fn finish(mut self) -> RunSummary {
        self.st.finish_summary()
    }
}

/// Run with full state validation after every event (slow; tests only).
pub fn run_simulation_validated(cfg: &SimConfig, policy: &dyn Policy) -> RunSummary {
    let validate = |st: &EngineState<'_>| st.validate_state();
    expect_run(run(cfg, policy, CacheMode::Incremental, |_| {}, validate)).0
}

/// Run one simulation while recording every scheduling decision.
/// Costs memory proportional to the event count; intended for analysis
/// and small runs, not sweeps.
pub fn run_simulation_traced(cfg: &SimConfig, policy: &dyn Policy) -> (RunSummary, Trace) {
    let trace_on = |st: &mut EngineState<'_>| st.trace = Some(Trace::new());
    let (summary, trace) = expect_run(run(cfg, policy, CacheMode::Incremental, trace_on, |_| {}));
    (summary, trace.expect("tracing switched on above"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, Priority, SystemView};

    /// Earliest Deadline First with HP conflict resolution: the paper's
    /// baseline, used here to exercise the engine.
    struct Edf;
    impl Policy for Edf {
        fn name(&self) -> &str {
            "EDF-HP(test)"
        }
        fn priority(&self, txn: &Transaction, _view: &SystemView<'_>) -> Priority {
            Priority(-txn.deadline.as_ms())
        }
    }

    /// EDF with the CCA IOwait-schedule restriction but no penalty term.
    struct EdfRestricted;
    impl Policy for EdfRestricted {
        fn name(&self) -> &str {
            "EDF+iowait"
        }
        fn priority(&self, txn: &Transaction, _view: &SystemView<'_>) -> Priority {
            Priority(-txn.deadline.as_ms())
        }
        fn iowait_restrict(&self) -> bool {
            true
        }
    }

    fn small_mm(seed: u64, rate: f64, n: usize) -> SimConfig {
        let mut cfg = SimConfig::mm_base();
        cfg.run.seed = seed;
        cfg.run.arrival_rate_tps = rate;
        cfg.run.num_transactions = n;
        cfg
    }

    fn small_disk(seed: u64, rate: f64, n: usize) -> SimConfig {
        let mut cfg = SimConfig::disk_base();
        cfg.run.seed = seed;
        cfg.run.arrival_rate_tps = rate;
        cfg.run.num_transactions = n;
        cfg
    }

    #[test]
    fn all_transactions_commit_mm() {
        let cfg = small_mm(1, 5.0, 200);
        let s = run_simulation(&cfg, &Edf);
        assert_eq!(s.committed, 200, "soft deadlines: nothing is dropped");
        assert!(s.makespan_ms > 0.0);
    }

    #[test]
    fn all_transactions_commit_disk() {
        let cfg = small_disk(1, 3.0, 100);
        let s = run_simulation(&cfg, &Edf);
        assert_eq!(s.committed, 100);
        assert!(s.disk_utilization > 0.0, "disk was used");
        assert!(s.disk_utilization < 1.0);
    }

    #[test]
    fn determinism_same_seed() {
        let cfg = small_mm(7, 8.0, 150);
        let a = run_simulation(&cfg, &Edf);
        let b = run_simulation(&cfg, &Edf);
        assert_eq!(a, b, "same seed must give identical results");
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_simulation(&small_mm(1, 8.0, 150), &Edf);
        let b = run_simulation(&small_mm(2, 8.0, 150), &Edf);
        assert_ne!(a, b);
    }

    #[test]
    fn state_invariants_hold_throughout_mm() {
        let cfg = small_mm(3, 9.0, 120);
        let s = run_simulation_validated(&cfg, &Edf);
        assert_eq!(s.committed, 120);
    }

    #[test]
    fn state_invariants_hold_throughout_disk() {
        let cfg = small_disk(3, 4.0, 80);
        let s = run_simulation_validated(&cfg, &Edf);
        assert_eq!(s.committed, 80);
        let s2 = run_simulation_validated(&cfg, &EdfRestricted);
        assert_eq!(s2.committed, 80);
    }

    #[test]
    fn light_load_no_misses() {
        // At 0.5 tps on a 12.5 tps system, nearly everything makes its
        // deadline and restarts are rare.
        let cfg = small_mm(4, 0.5, 100);
        let s = run_simulation(&cfg, &Edf);
        assert!(s.miss_percent < 5.0, "miss {} too high", s.miss_percent);
        assert!(s.restarts_per_txn < 0.2, "restarts {}", s.restarts_per_txn);
    }

    #[test]
    fn heavy_load_causes_misses_and_restarts() {
        let cfg = small_mm(5, 10.0, 300);
        let s = run_simulation(&cfg, &Edf);
        assert!(
            s.miss_percent > 1.0,
            "expected misses, got {}",
            s.miss_percent
        );
        assert!(s.restarts_total > 0, "expected aborts under contention");
        assert!(s.cpu_utilization > 0.5);
    }

    #[test]
    fn miss_rate_increases_with_load() {
        let lo = run_simulation(&small_mm(6, 2.0, 300), &Edf);
        let hi = run_simulation(&small_mm(6, 10.0, 300), &Edf);
        assert!(
            hi.miss_percent >= lo.miss_percent,
            "load response inverted: {} vs {}",
            lo.miss_percent,
            hi.miss_percent
        );
        assert!(hi.mean_lateness_ms >= lo.mean_lateness_ms);
    }

    #[test]
    fn plist_stays_small() {
        // §4.1: "The average number of partially executed transactions …
        // is 1 to 2".
        let cfg = small_mm(8, 8.0, 300);
        let s = run_simulation(&cfg, &Edf);
        assert!(
            s.mean_plist_len < 4.0,
            "mean P-list length {} unexpectedly large",
            s.mean_plist_len
        );
    }

    #[test]
    fn iowait_restriction_reduces_noncontributing_aborts() {
        let cfg = small_disk(9, 5.0, 150);
        let plain = run_simulation(&cfg, &Edf);
        let restricted = run_simulation(&cfg, &EdfRestricted);
        // A compatible secondary is never rolled back by the returning
        // primary (it can still be aborted by a later conflicting arrival,
        // so the count need not be exactly zero).
        assert!(
            restricted.noncontributing_aborts <= plain.noncontributing_aborts,
            "restriction should reduce noncontributing aborts: {} vs {}",
            restricted.noncontributing_aborts,
            plain.noncontributing_aborts
        );
        // A compatible secondary also never has to lock-wait.
        assert!(restricted.lock_waits <= plain.lock_waits);
    }

    #[test]
    fn disk_utilization_below_paper_bound() {
        // §5: utilization stays below 62.5% for arrival rates ≤ 7 tps
        // (that bound is for 12.5 tps, so any admissible rate is below it).
        for rate in [2.0, 5.0, 7.0] {
            let cfg = small_disk(10, rate, 120);
            let s = run_simulation(&cfg, &Edf);
            let expected = cfg.disk_utilization_at(rate);
            // Aborted work re-executes, so measured utilization may exceed
            // the no-abort estimate, but not the physical bound.
            assert!(s.disk_utilization <= 1.0);
            assert!(
                s.disk_utilization > 0.3 * expected,
                "rate {rate}: utilization {} far below expectation {expected}",
                s.disk_utilization
            );
        }
    }

    #[test]
    fn zero_abort_cost_supported() {
        let mut cfg = small_mm(11, 9.0, 100);
        cfg.system.abort_cost_ms = 0.0;
        let s = run_simulation(&cfg, &Edf);
        assert_eq!(s.committed, 100);
    }

    #[test]
    fn proportional_recovery_increases_cost() {
        let mut base = small_mm(12, 10.0, 200);
        let flat = run_simulation(&base, &Edf);
        base.system.proportional_recovery = true;
        let prop = run_simulation(&base, &Edf);
        // More expensive recovery can only lengthen the run.
        assert!(prop.makespan_ms >= flat.makespan_ms);
    }

    #[test]
    #[should_panic(expected = "invalid simulation configuration")]
    fn invalid_config_panics() {
        let mut cfg = SimConfig::mm_base();
        cfg.workload.db_size = 0;
        run_simulation(&cfg, &Edf);
    }

    #[test]
    fn single_transaction_runs_in_isolation() {
        let cfg = small_mm(13, 1.0, 1);
        let s = run_simulation(&cfg, &Edf);
        assert_eq!(s.committed, 1);
        assert_eq!(s.restarts_total, 0);
        assert_eq!(s.miss_percent, 0.0, "an isolated txn meets any deadline");
        assert_eq!(s.mean_lateness_ms, 0.0);
    }

    /// A commit retires its record and a rejection never stores one: over
    /// a few thousand transactions with a small live population, the
    /// record store never outgrows the slot high-water mark after any
    /// event, and that mark stays near the peak live population, far
    /// below the transaction count — a deterministic stand-in for
    /// resident memory. A retired record is the default record with its
    /// id and `Committed`: it keeps no set, vector or counter.
    #[test]
    fn departed_records_are_retired() {
        let mut cfg = small_mm(15, 11.0, 3_000);
        cfg.system.admission = Some(AdmissionConfig::Static { safety_factor: 1.0 });
        let mut peak = 0;
        let check = |st: &EngineState<'_>| {
            for t in st.txns.iter().filter(|t| !t.is_active()) {
                let retired = Transaction {
                    id: t.id,
                    state: TxnState::Committed,
                    ..Default::default()
                };
                assert_eq!(format!("{t:?}"), format!("{retired:?}"));
            }
            let (live, high_water) = st.accel.slot_occupancy();
            assert_eq!(
                live,
                st.active.len(),
                "a departed transaction kept its slot"
            );
            assert!(
                st.txns.len() <= high_water,
                "record store ({}) outgrew the slot high-water mark ({high_water})",
                st.txns.len()
            );
            peak = peak.max(high_water);
        };
        let (s, _) = run(&cfg, &Edf, CacheMode::Incremental, |_| {}, check).unwrap();
        assert_eq!(s.committed + s.rejected, 3_000);
        assert!(s.rejected > 0, "admission must reject some arrivals");
        assert!(
            peak < 64,
            "slot high-water mark {peak} tracks the run length"
        );
    }

    #[test]
    fn response_time_at_least_resource_time() {
        // The mean response must exceed the isolated service time of the
        // shortest transaction; sanity for the pipeline accounting.
        let cfg = small_mm(14, 6.0, 100);
        let s = run_simulation(&cfg, &Edf);
        assert!(s.mean_response_ms >= 4.0, "response {}", s.mean_response_ms);
    }
}
