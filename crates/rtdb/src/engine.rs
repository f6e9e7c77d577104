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
//! * **HP conflict resolution with no lock wait**: when the running
//!   transaction's lock request hits a holder, the holder is aborted
//!   (releases its locks, resets, restarts from scratch) and the CPU is
//!   busy for the abort cost before the runner proceeds. Because the
//!   runner is the highest-priority transaction, this never inverts
//!   priorities (Lemma 1), and because nothing ever waits for a lock the
//!   schedule is deadlock-free (Theorem 1);
//! * a transaction aborted while queued for the disk leaves the queue
//!   immediately; one aborted mid-transfer holds the disk until the
//!   transfer completes (§5).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};

use rtx_sim::calendar::{Calendar, EventHandle};
use rtx_sim::fault::{CpuFaultInjector, FaultInjector};
use rtx_sim::rng::StreamSeeder;
use rtx_sim::time::{SimDuration, SimTime};

use crate::config::{AdmissionConfig, SimConfig};
use crate::disk::Disk;
use crate::error::RunError;
use crate::locks::{LockMode, LockOutcome, LockTable};
use crate::metrics::{MetricsCollector, RunSummary, SchedStats};
use crate::policy::{Policy, Priority, PriorityDeps, SystemView};
use crate::sched::{CacheMode, ConflictAccel};
use crate::source::TxnSource;
use crate::trace::{Trace, TraceEvent};
use crate::txn::{Stage, Transaction, TxnId, TxnState};
use crate::workload::{ArrivalGenerator, TypeTable};

/// Calendar payloads.
enum Event {
    /// A new transaction enters the system.
    Arrival(Box<Transaction>),
    /// The running transaction's current CPU burst completes.
    CpuDone(TxnId),
    /// The disk's active transfer completes.
    IoDone(TxnId),
    /// A transaction's IO backoff expired: retry the failed transfer. The
    /// token guards against the transaction having been aborted and
    /// restarted while this event was in flight.
    IoRetry(TxnId, u64),
    /// A transaction's CPU-stall backoff expired: re-queue the stalled
    /// compute burst. Token-guarded like [`Event::IoRetry`].
    CpuRetry(TxnId, u64),
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

/// One lazy priority-index entry. Ordered exactly like the scan's
/// tie-break — `(Priority, Reverse(arrival), Reverse(id))` — so the index
/// maximum is the scan winner bit-for-bit. The key (`pri`) is an **upper
/// bound** on the transaction's exact priority; the pick path revalidates
/// the top against an exact recomputation before dispatching.
#[derive(Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    pri: Priority,
    arrival: SimTime,
    id: TxnId,
}

impl HeapEntry {
    fn key(
        &self,
    ) -> (
        Priority,
        std::cmp::Reverse<SimTime>,
        std::cmp::Reverse<TxnId>,
    ) {
        (
            self.pri,
            std::cmp::Reverse(self.arrival),
            std::cmp::Reverse(self.id),
        )
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The lazy max-heap priority index: a position-tracked binary heap with
/// exactly one entry per indexed transaction.
///
/// Position tracking (`pos`) is what makes conflict-epoch invalidation
/// O(log n) *in place*: a clear repairs each affected transaction's key
/// with [`PriorityIndex::set_key`] (a sift, no duplicate entry, no
/// rebuild), and a lazy-fall demotion during pick validation is the same
/// operation downwards. The old duplicate-entry design paid an eval +
/// push + eventual stale pop per repaired transaction; this pays a few
/// swaps.
#[derive(Default)]
struct PriorityIndex {
    /// The heap slots (max-heap by [`HeapEntry::cmp`]).
    slots: Vec<HeapEntry>,
    /// Transaction id → slot position + 1; 0 = not in the index. Grown
    /// on demand at insert (bands only ever see a subset of ids).
    pos: Vec<u32>,
}

impl PriorityIndex {
    fn contains(&self, id: TxnId) -> bool {
        self.pos.get(id.0 as usize).is_some_and(|&p| p != 0)
    }

    /// The maximum entry, if any. O(1).
    fn peek(&self) -> Option<HeapEntry> {
        self.slots.first().copied()
    }

    /// `id`'s current key, if indexed. O(1); used by consistency checks.
    fn key_of(&self, id: TxnId) -> Option<Priority> {
        match self.pos.get(id.0 as usize).copied().unwrap_or(0) {
            0 => None,
            p => Some(self.slots[(p - 1) as usize].pri),
        }
    }

    /// Insert an entry for a transaction not currently indexed. Grows
    /// the position vector on demand — indexes created after ids were
    /// issued (the lazily-materialized slack bands) never saw a
    /// [`PriorityIndex::register`] for them.
    fn insert(&mut self, e: HeapEntry) {
        debug_assert!(!self.contains(e.id), "{} already indexed", e.id);
        let slot = e.id.0 as usize;
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, 0);
        }
        let i = self.slots.len();
        self.slots.push(e);
        self.pos[slot] = i as u32 + 1;
        self.sift_up(i);
    }

    /// Remove `id`'s entry (a departed transaction). Returns whether it
    /// was present.
    fn remove(&mut self, id: TxnId) -> bool {
        let p = self.pos.get(id.0 as usize).copied().unwrap_or(0);
        if p == 0 {
            return false;
        }
        let i = (p - 1) as usize;
        self.pos[id.0 as usize] = 0;
        let last = self.slots.len() - 1;
        if i != last {
            self.slots.swap(i, last);
            self.pos[self.slots[i].id.0 as usize] = i as u32 + 1;
        }
        self.slots.pop();
        if i < self.slots.len() {
            // The displaced entry can need to move either way.
            self.sift_up(i);
            self.sift_down(i);
        }
        true
    }

    /// Reposition `id` under a new key (raise or lower). Returns whether
    /// it was present.
    fn set_key(&mut self, id: TxnId, pri: Priority) -> bool {
        let p = self.pos.get(id.0 as usize).copied().unwrap_or(0);
        if p == 0 {
            return false;
        }
        let i = (p - 1) as usize;
        self.slots[i].pri = pri;
        self.sift_up(i);
        self.sift_down(i);
        true
    }

    // The sifts move the displaced entry as a "hole": parents/children
    // shift into place one write each, and the entry lands once at the
    // end — half the slot and `pos` writes of swap-based sifting.

    fn sift_up(&mut self, mut i: usize) {
        let e = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if e <= self.slots[parent] {
                break;
            }
            self.slots[i] = self.slots[parent];
            self.pos[self.slots[i].id.0 as usize] = i as u32 + 1;
            i = parent;
        }
        self.slots[i] = e;
        self.pos[e.id.0 as usize] = i as u32 + 1;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.slots[i];
        loop {
            let l = 2 * i + 1;
            if l >= self.slots.len() {
                break;
            }
            let r = l + 1;
            let child = if r < self.slots.len() && self.slots[r] > self.slots[l] {
                r
            } else {
                l
            };
            if self.slots[child] <= e {
                break;
            }
            self.slots[i] = self.slots[child];
            self.pos[self.slots[i].id.0 as usize] = i as u32 + 1;
            i = child;
        }
        self.slots[i] = e;
        self.pos[e.id.0 as usize] = i as u32 + 1;
    }

    /// All current entries, heap order (used to enumerate a half during
    /// anchor migration; order does not matter to callers).
    fn entries(&self) -> &[HeapEntry] {
        &self.slots
    }
}

/// One deadline band of the slack index (see [`SlackBands`]).
#[derive(Default)]
struct SlackBand {
    index: PriorityIndex,
    /// Largest |K| ever stored in this band and largest member deadline
    /// (ms): together with the clock, every magnitude its members'
    /// priority-rounding chains touch. Never shrinks — the scale backs
    /// soundness, not tightness.
    key_scale: Cell<f64>,
}

impl SlackBand {
    /// The nudge scale for this band's effective bounds at clock
    /// `now_ms`: 32 ulp of it dominates the few-ulp difference between
    /// `now_ms + K` and the policy's actually-rounded priority for any
    /// member — all of a member's own magnitudes (its deadline, its key,
    /// the clock) are covered.
    fn eff_scale(&self, now_ms: f64) -> f64 {
        self.key_scale.get().max(now_ms).max(1.0)
    }
}

/// The slack index, partitioned by deadline band: each band is a heap
/// over time-invariant keys `K` with its *own* magnitude scale for the
/// validation nudge, so one far-future deadline (a huge `|K|`) no longer
/// loosens the effective bound of every entry in the run — only of its
/// own band. Entries never migrate: a transaction's band is a pure
/// function of its (immutable) deadline.
#[derive(Default)]
struct SlackBands {
    /// Lazily materialized; a band is created the first time an entry
    /// lands in it.
    bands: Vec<SlackBand>,
    /// Total entries across bands (O(1) coverage check for
    /// `slack_in_use`).
    len: usize,
}

impl SlackBands {
    /// The band for a transaction: the log2 bucket of its absolute
    /// deadline in ms. Integer bit-ops only — no libm calls — so band
    /// assignment is bit-deterministic across platforms. (Banding never
    /// affects *results* either way — picks validate exact priorities —
    /// only which band's scale a bound is nudged by.)
    fn band_of(deadline: SimTime) -> usize {
        let ms = (deadline.as_ms() as u64).max(1);
        (63 - ms.leading_zeros()) as usize
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The band, materializing it (and any gap below) on first use.
    fn band_mut(&mut self, b: usize) -> &mut SlackBand {
        if self.bands.len() <= b {
            self.bands.resize_with(b + 1, SlackBand::default);
        }
        &mut self.bands[b]
    }

    /// (Re)key `e.id` in band `b`; inserts if absent.
    fn upsert(&mut self, b: usize, e: HeapEntry) {
        let band = self.band_mut(b);
        if !band.index.set_key(e.id, e.pri) {
            band.index.insert(e);
            self.len += 1;
        }
    }

    /// Remove `id` from band `b` (a departed transaction). Returns
    /// whether it was present.
    fn remove(&mut self, b: usize, id: TxnId) -> bool {
        let Some(band) = self.bands.get_mut(b) else {
            return false;
        };
        let removed = band.index.remove(id);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// `id`'s current key in band `b`, if indexed.
    fn key_of(&self, b: usize, id: TxnId) -> Option<Priority> {
        self.bands.get(b)?.index.key_of(id)
    }
}

/// Which half of the [`SplitIndex`] an entry lives in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Half {
    /// Keys are bit-identical to the cached value (or a repaired bound)
    /// and hold still between structural events.
    Free,
    /// Keys store `bound + A(t_write)` where `A` is the engine's global
    /// fall accumulator, so the *effective* bound `key − A(now)` falls
    /// with the anchored runner's accruing service while the stored key
    /// never moves. Holds exactly the entries whose true priority is
    /// falling: those unsafe w.r.t. the anchored runner (plus entries
    /// frozen in place after the anchor ended, whose folded bounds are
    /// then simply constant and still sound).
    Timed,
}

/// The split lazy priority index.
///
/// PR 4's single index demoted every runner-conflicting key at every
/// pick while the runner's service accrued — O(conflicting) evals per
/// scheduling point at high MPL. Splitting the index by *how* a key
/// decays turns that into O(1): runner-free keys don't move at all, and
/// runner-conflicting keys all fall at the same policy-declared rate
/// ([`crate::policy::PriorityDeps::ConflictState::runner_fall_rate`]),
/// so one shared offset `A(now)` stands in for all of their falls. Keys
/// migrate between halves only at structural events (anchor changes,
/// cache writes), each migration O(log n) and counted.
/// Tag bit marking a timed-half position in [`SplitIndex::pos`].
const TIMED_TAG: u32 = 1 << 31;

#[derive(Default)]
struct SplitIndex {
    /// Free-half heap slots (max-heap by [`HeapEntry::cmp`]).
    free: Vec<HeapEntry>,
    /// Timed-half heap slots.
    timed: Vec<HeapEntry>,
    /// id → tagged slot position: 0 = absent, else `pos + 1` with
    /// [`TIMED_TAG`] set for the timed half. One dense lane answers
    /// presence, half, and position in a single lookup — the old
    /// two-`PriorityIndex` layout paid a miss in one `pos` vector
    /// before hitting the other on every cross-half question.
    pos: Vec<u32>,
}

// Hole-based heap sifts over one half's slots and the shared tagged
// position lane: parents/children shift into place one write each, and
// the displaced entry lands once at the end.

fn split_sift_up(slots: &mut [HeapEntry], pos: &mut [u32], tag: u32, mut i: usize) {
    let e = slots[i];
    while i > 0 {
        let parent = (i - 1) / 2;
        if e <= slots[parent] {
            break;
        }
        slots[i] = slots[parent];
        pos[slots[i].id.0 as usize] = (i as u32 + 1) | tag;
        i = parent;
    }
    slots[i] = e;
    pos[e.id.0 as usize] = (i as u32 + 1) | tag;
}

fn split_sift_down(slots: &mut [HeapEntry], pos: &mut [u32], tag: u32, mut i: usize) {
    let e = slots[i];
    loop {
        let l = 2 * i + 1;
        if l >= slots.len() {
            break;
        }
        let r = l + 1;
        let child = if r < slots.len() && slots[r] > slots[l] {
            r
        } else {
            l
        };
        if slots[child] <= e {
            break;
        }
        slots[i] = slots[child];
        pos[slots[i].id.0 as usize] = (i as u32 + 1) | tag;
        i = child;
    }
    slots[i] = e;
    pos[e.id.0 as usize] = (i as u32 + 1) | tag;
}

impl SplitIndex {
    fn register(&mut self) {
        self.pos.push(0);
    }

    fn len(&self) -> usize {
        self.free.len() + self.timed.len()
    }

    fn half_len(&self, h: Half) -> usize {
        self.slots(h).len()
    }

    fn slots(&self, h: Half) -> &[HeapEntry] {
        match h {
            Half::Free => &self.free,
            Half::Timed => &self.timed,
        }
    }

    /// One half's slots, the shared position lane, and the half's
    /// position tag — the disjoint borrows every mutation needs.
    fn parts(&mut self, h: Half) -> (&mut Vec<HeapEntry>, &mut Vec<u32>, u32) {
        match h {
            Half::Free => (&mut self.free, &mut self.pos, 0),
            Half::Timed => (&mut self.timed, &mut self.pos, TIMED_TAG),
        }
    }

    fn half_of(&self, id: TxnId) -> Option<Half> {
        match self.pos[id.0 as usize] {
            0 => None,
            p if p & TIMED_TAG != 0 => Some(Half::Timed),
            _ => Some(Half::Free),
        }
    }

    /// The maximum entry of one half, if any. O(1).
    fn peek(&self, h: Half) -> Option<HeapEntry> {
        self.slots(h).first().copied()
    }

    /// All current entries of one half, heap order (used to enumerate a
    /// half during anchor migration; order does not matter to callers).
    fn entries(&self, h: Half) -> &[HeapEntry] {
        self.slots(h)
    }

    /// `id`'s stored key and half, if indexed. One lookup.
    fn key_of(&self, id: TxnId) -> Option<(Priority, Half)> {
        let p = self.pos[id.0 as usize];
        if p == 0 {
            return None;
        }
        let h = if p & TIMED_TAG != 0 {
            Half::Timed
        } else {
            Half::Free
        };
        let i = ((p & !TIMED_TAG) - 1) as usize;
        Some((self.slots(h)[i].pri, h))
    }

    /// `id`'s key if it lives in half `h` (migration walks enumerate a
    /// half and then operate on its members).
    fn key_in(&self, h: Half, id: TxnId) -> Option<Priority> {
        match self.key_of(id) {
            Some((k, half)) if half == h => Some(k),
            _ => None,
        }
    }

    /// Insert an entry for a transaction not currently indexed.
    fn insert(&mut self, h: Half, e: HeapEntry) {
        debug_assert!(self.half_of(e.id).is_none(), "{} already indexed", e.id);
        let (slots, pos, tag) = self.parts(h);
        let i = slots.len();
        slots.push(e);
        pos[e.id.0 as usize] = (i as u32 + 1) | tag;
        split_sift_up(slots, pos, tag, i);
    }

    /// Remove `id`'s entry from whichever half holds it. Returns whether
    /// it was present.
    fn remove(&mut self, id: TxnId) -> bool {
        let p = self.pos[id.0 as usize];
        if p == 0 {
            return false;
        }
        let h = if p & TIMED_TAG != 0 {
            Half::Timed
        } else {
            Half::Free
        };
        let i = ((p & !TIMED_TAG) - 1) as usize;
        self.pos[id.0 as usize] = 0;
        let (slots, pos, tag) = self.parts(h);
        let last = slots.len() - 1;
        if i != last {
            slots.swap(i, last);
            pos[slots[i].id.0 as usize] = (i as u32 + 1) | tag;
        }
        slots.pop();
        if i < slots.len() {
            // The displaced entry can need to move either way.
            split_sift_up(slots, pos, tag, i);
            split_sift_down(slots, pos, tag, i);
        }
        true
    }

    /// Reposition `id` under a new key within its current half (raise or
    /// lower). Returns whether it was present.
    fn set_key(&mut self, id: TxnId, pri: Priority) -> bool {
        let p = self.pos[id.0 as usize];
        if p == 0 {
            return false;
        }
        let h = if p & TIMED_TAG != 0 {
            Half::Timed
        } else {
            Half::Free
        };
        let i = ((p & !TIMED_TAG) - 1) as usize;
        let (slots, pos, tag) = self.parts(h);
        slots[i].pri = pri;
        split_sift_up(slots, pos, tag, i);
        split_sift_down(slots, pos, tag, i);
        true
    }
}

struct EngineState<'p> {
    cfg: &'p SimConfig,
    policy: &'p dyn Policy,
    calendar: Calendar<Event>,
    txns: Vec<Transaction>,
    /// Ids of transactions still in the system, in arrival order.
    active: Vec<TxnId>,
    locks: LockTable,
    disk: Option<Disk>,
    running: Option<TxnId>,
    cpu_event: EventHandle,
    metrics: MetricsCollector,
    /// Per-transaction "was last dispatched via IOwait-schedule" flags,
    /// used to classify noncontributing executions.
    secondary: Vec<bool>,
    /// Optional decision log (None in normal runs — zero overhead beyond
    /// the branch).
    trace: Option<Trace>,
    /// Optional terminal-outcome sink (None in batch runs — the serving
    /// front-end enables it to observe per-transaction completions
    /// without touching the metrics pipeline). Purely observational: it
    /// never influences scheduling, RNG draws or metrics.
    completions: Option<Vec<Completion>>,
    /// Disk fault injector, present iff the config's
    /// [`rtx_sim::fault::FaultPlan`] disk section can inject anything.
    /// `None` takes the exact pre-fault code path and consumes no
    /// randomness.
    faults: Option<FaultInjector>,
    /// Whether the disk's *active* transfer was drawn to fail. Taken (and
    /// reset) when the transfer completes.
    active_io_failed: bool,
    /// CPU fault injector, present iff the plan's CPU section can inject
    /// anything. Draws from its own `"cpu-faults"` stream, so disk and
    /// CPU injection never perturb each other.
    cpu_faults: Option<CpuFaultInjector>,
    /// Whether the *current* compute burst was drawn to stall. Taken
    /// when the burst completes; voided by preemption (the verdict
    /// belonged to the full burst, and the resumed burst draws afresh).
    active_cpu_failed: bool,
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
    /// caches, always-recompute oracle, or verify-both).
    mode: CacheMode,
    /// Measure wall time in `pick_next`? Off in normal runs so summaries
    /// stay comparable across machines.
    profile: bool,
    /// Incrementally maintained conflict state: the P-list, per-txn
    /// version counters, the pairwise conflict memo and the epoch. Kept
    /// up to date in every mode (it is the ground truth `Verify` checks
    /// the scans against); only *consulted* outside `AlwaysRecompute`.
    accel: ConflictAccel,
    /// Number of active transactions in `TxnState::Ready`, maintained by
    /// [`Self::set_state`] — replaces the per-event ready-queue scan.
    ready_count: usize,
    /// Dense copy of every transaction's scheduling state (indexed by
    /// id), written wherever the authoritative `Transaction::state`
    /// changes. The pick loops' runnability filters read this 1-byte
    /// tag instead of dereferencing the full `Transaction` record —
    /// at MPL ≥ 1024 the tag vector stays resident in a few cache lines
    /// while the transaction structs span megabytes.
    state_tags: Vec<TxnState>,
    /// The split lazy priority index over active transactions (used for
    /// `Static` and `ConflictState` policies outside `AlwaysRecompute`).
    /// Exactly one entry per active transaction across the two halves —
    /// seeded at arrival, repositioned in place whenever the cache is
    /// written, and removed at commit. Invariant: an active
    /// transaction's *free*-half key is bit-identical to its cached
    /// priority in the accelerator's slot arena; a *timed*-half key
    /// folded back by the fall accumulator (`key − A(now)`, with float
    /// slack) is an upper bound on it.
    index: RefCell<SplitIndex>,
    /// Slack-ordered pick index for `TimeAndSelf` policies exposing a
    /// time-invariant key (`Policy::time_invariant_key`; LSF): keys hold
    /// `K` with `priority ≈ now + K`, so the order is the priority order
    /// at every instant and picks validate the top instead of rescanning
    /// the active set. Partitioned into per-deadline bands, each with
    /// its own validation-nudge scale ([`SlackBands`]).
    slack: RefCell<SlackBands>,
    /// The policy's declared runner fall rate (`ConflictState` policies;
    /// 0 elsewhere): priority units per ms of runner compute time.
    fall_rate: f64,
    /// Fall accumulated over *completed* anchored compute spans, in
    /// priority units. `A(now) = offset_base + fall_rate · (now − t0)`
    /// while anchored at `t0`, else `offset_base`.
    offset_base: Cell<f64>,
    /// `Some((runner, t0))` while the runner's compute burst accrues
    /// service: the timed half's effective bounds fall at `fall_rate`
    /// from `t0` until the anchor is released.
    anchor: Cell<Option<(TxnId, SimTime)>>,
    /// The runner whose unsafe set the timed half currently mirrors
    /// (set by the migration walks at [`Self::anchor_timed`]). When the
    /// next anchored runner is the same transaction and no conflict
    /// clear or decision narrowing intervened, the walks are skipped
    /// wholesale — the timed membership is still a subset of the
    /// runner's unsafe set, which is all soundness needs (the counter
    /// `migrations_batched` tallies these reuses). Any event that can
    /// *remove* an unsafe pair (a clear's repair walk, a narrowing)
    /// resets this to `None`, forcing a fresh walk at the next anchor.
    walked: Cell<Option<TxnId>>,
    /// Consecutive anchor releases that left frozen entries lingering in
    /// the timed half; at [`FROZEN_COMPACT_SPANS`] the half is scanned
    /// and non-members folded out ([`Self::maybe_compact_frozen`]).
    frozen_spans: Cell<u32>,
    /// Scratch buffer for filtered picks (IOwait-schedule): entries of
    /// unacceptable transactions are lifted out while scanning and
    /// re-inserted afterwards; reused to avoid per-pick allocation.
    scratch: RefCell<Vec<(HeapEntry, Half)>>,
    /// Scratch for slack-band picks: popped entries tagged with their
    /// band, re-inserted after the argmax settles.
    slack_scratch: RefCell<Vec<(HeapEntry, usize)>>,
    /// Scratch buffer for the targeted pair-stamp walks.
    walk_buf: Vec<TxnId>,
    /// Scratch buffer for the anchor-arming and compaction walks, which
    /// run from `&self` pick paths and so cannot take `walk_buf`.
    arm_buf: RefCell<Vec<TxnId>>,
    /// Scratch buffer for reverse-index sharer enumeration.
    sharer_buf: RefCell<Vec<TxnId>>,
    // Scheduler-overhead tallies (Cells: bumped from &self paths).
    pick_next_calls: Cell<u64>,
    priority_evals: Cell<u64>,
    priority_cache_hits: Cell<u64>,
    sched_wall_ns: Cell<u64>,
    heap_pushes: Cell<u64>,
    heap_stale_pops: Cell<u64>,
    heap_validated_picks: Cell<u64>,
    verify_checks: Cell<u64>,
    /// Clear-repair walks performed and candidates visited by them: the
    /// visit count scales with the cleared transaction's sharer set, not
    /// with MPL, which is the reverse index's point.
    clear_repair_clears: Cell<u64>,
    clear_repair_visits: Cell<u64>,
    /// Entries moved between split-index halves (anchor changes and
    /// cross-half cache writes).
    index_migrations: Cell<u64>,
    /// Compute bursts that reused the previous walk's timed-half
    /// membership — their migration walks were skipped entirely.
    migrations_batched: Cell<u64>,
    /// Timed-half drains performed by [`Self::maybe_compact_frozen`].
    frozen_compactions: Cell<u64>,
}

/// How many consecutive anchor releases may pass before
/// [`EngineState::maybe_compact_frozen`] scans the frozen timed half and
/// folds out entries that are no longer members of the mirrored unsafe
/// set. Bounds how long a leftover can linger (and with it the offset's
/// monotone growth) in long mostly-idle runs where a handful of frozen
/// entries would otherwise sit across thousands of spans.
const FROZEN_COMPACT_SPANS: u32 = 256;

/// `v` plus a floating-point safety margin: used when repairing a cached
/// upper bound by an exact real-arithmetic delta, so the repaired key
/// stays an upper bound even after the roundings the fresh evaluation and
/// the repair perform differently.
///
/// The margin scales with `scale` — the largest magnitude appearing in
/// *either* computation — not with `v` itself: a repair can cancel (an
/// EDF-Wait entry at `-(d + 10¹²)` raised by `10¹²` lands near `-d`),
/// and the bits of `d` lost to rounding at magnitude `10¹²` are an
/// *absolute* error of order `ulp(10¹²)`, invisible at the result's own
/// magnitude. Looseness is harmless — the pick path revalidates the top
/// bit-exactly before dispatching — only a key *below* the true priority
/// would be unsound.
pub fn nudge_up(v: f64, scale: f64) -> f64 {
    if v.is_infinite() {
        return v;
    }
    v + (scale * (32.0 * f64::EPSILON)).max(f64::MIN_POSITIVE)
}

impl<'p> EngineState<'p> {
    fn new(cfg: &'p SimConfig, policy: &'p dyn Policy) -> Self {
        // The injectors' streams derive from the same master seed as the
        // workload streams but are labelled independently, so enabling
        // faults never perturbs the workload draws (and disk and CPU
        // injection never perturb each other).
        let seeder = StreamSeeder::new(cfg.run.seed);
        let faults = if cfg.system.faults.disk_is_none() {
            None
        } else {
            Some(FaultInjector::new(cfg.system.faults.clone(), &seeder))
        };
        let cpu_faults = if cfg.system.faults.cpu_is_none() {
            None
        } else {
            let plan = cfg.system.faults.cpu.clone().expect("cpu_is_none checked");
            Some(CpuFaultInjector::new(plan, &seeder))
        };
        EngineState {
            cfg,
            policy,
            calendar: Calendar::new(),
            txns: Vec::with_capacity(cfg.run.num_transactions),
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
            secondary: Vec::with_capacity(cfg.run.num_transactions),
            trace: None,
            completions: None,
            faults,
            active_io_failed: false,
            cpu_faults,
            active_cpu_failed: false,
            admission_factor: cfg
                .system
                .admission
                .map(|a| a.initial_factor())
                .unwrap_or(1.0),
            adm_window_started: SimTime::ZERO,
            adm_win_committed: 0,
            adm_win_missed: 0,
            mode: CacheMode::Incremental,
            profile: false,
            accel: ConflictAccel::new(cfg.run.num_transactions, cfg.workload.db_size as usize),
            ready_count: 0,
            state_tags: Vec::with_capacity(cfg.run.num_transactions),
            index: RefCell::new(SplitIndex::default()),
            slack: RefCell::new(SlackBands::default()),
            fall_rate: match policy.depends_on() {
                PriorityDeps::ConflictState { runner_fall_rate } => {
                    assert!(
                        runner_fall_rate.is_finite() && runner_fall_rate >= 0.0,
                        "runner fall rate must be finite and non-negative"
                    );
                    runner_fall_rate
                }
                _ => 0.0,
            },
            offset_base: Cell::new(0.0),
            anchor: Cell::new(None),
            walked: Cell::new(None),
            frozen_spans: Cell::new(0),
            scratch: RefCell::new(Vec::new()),
            slack_scratch: RefCell::new(Vec::new()),
            walk_buf: Vec::new(),
            arm_buf: RefCell::new(Vec::new()),
            sharer_buf: RefCell::new(Vec::new()),
            pick_next_calls: Cell::new(0),
            priority_evals: Cell::new(0),
            priority_cache_hits: Cell::new(0),
            sched_wall_ns: Cell::new(0),
            heap_pushes: Cell::new(0),
            heap_stale_pops: Cell::new(0),
            heap_validated_picks: Cell::new(0),
            verify_checks: Cell::new(0),
            clear_repair_clears: Cell::new(0),
            clear_repair_visits: Cell::new(0),
            index_migrations: Cell::new(0),
            migrations_batched: Cell::new(0),
            frozen_compactions: Cell::new(0),
        }
    }

    /// Is the lazy priority heap the pick path for this run? True for
    /// policies whose cached priorities survive across scheduling points
    /// (`Static`, and `ConflictState` under per-pair stamps).
    /// `TimeAndSelf` and `Volatile` priorities move with every clock
    /// advance, so a heap over them would be rebuilt per pick — the scan
    /// is strictly cheaper. `AlwaysRecompute` keeps the verbatim pre-heap
    /// scan as the oracle.
    fn heap_in_use(&self) -> bool {
        self.mode != CacheMode::AlwaysRecompute
            && matches!(
                self.policy.depends_on(),
                PriorityDeps::Static | PriorityDeps::ConflictState { .. }
            )
    }

    /// Is the slack-ordered index the pick path for this run? True for
    /// `TimeAndSelf` policies that expose a time-invariant key
    /// ([`Policy::time_invariant_key`]): their priorities all advance
    /// with the clock at the same unit rate, so the *order* of cached
    /// keys survives clock advances even though the values don't. The
    /// index is maintained per transaction (a policy returning `None`
    /// simply never populates it), so requiring full coverage of the
    /// active set makes the gate safe for any policy; the
    /// `AlwaysRecompute` oracle keeps the verbatim scan.
    fn slack_in_use(&self) -> bool {
        self.mode != CacheMode::AlwaysRecompute
            && self.policy.depends_on() == PriorityDeps::TimeAndSelf
            && self.slack.borrow().len() == self.active.len()
    }

    /// (Re)key `id` in the slack index after an own-state change
    /// (admission, progress, restart). No-op unless a `TimeAndSelf`
    /// policy exposes a time-invariant key for it.
    fn slack_upsert(&self, id: TxnId) {
        if self.mode == CacheMode::AlwaysRecompute
            || self.policy.depends_on() != PriorityDeps::TimeAndSelf
        {
            return;
        }
        let t = self.txn(id);
        let Some(k) = self.policy.time_invariant_key(t) else {
            return;
        };
        let b = SlackBands::band_of(t.deadline);
        let mut slack = self.slack.borrow_mut();
        let band = slack.band_mut(b);
        band.key_scale
            .set(band.key_scale.get().max(k.abs()).max(t.deadline.as_ms()));
        slack.upsert(
            b,
            HeapEntry {
                pri: Priority(k),
                arrival: t.arrival,
                id,
            },
        );
        self.heap_pushes.set(self.heap_pushes.get() + 1);
    }

    /// The fall accumulator `A(now)`: total priority fall every
    /// runner-unsafe key has accrued since the run started. Monotone
    /// nondecreasing; grows only while a compute burst is anchored.
    fn fall_offset_now(&self) -> f64 {
        let base = self.offset_base.get();
        match self.anchor.get() {
            Some((_, t0)) => base + self.fall_rate * self.now().since(t0).as_ms(),
            None => base,
        }
    }

    /// The runner whose unsafe set the timed half currently tracks: the
    /// anchored runner while a burst is on the CPU, else the last-walked
    /// runner whose membership the half still mirrors (the half stays
    /// frozen — but valid — between the bursts of a runner's streak).
    /// `None` disables timed enrollment.
    #[inline]
    fn timed_target(&self) -> Option<TxnId> {
        self.anchor
            .get()
            .map(|(r, _)| r)
            .or_else(|| self.walked.get())
    }

    /// The key and half for `id`'s index entry given its cached bound
    /// `value`: timed iff `id` is unsafe w.r.t. the timed half's target
    /// runner (exactly the keys that fall at `fall_rate` while that
    /// runner computes), with the fall offset folded in so the stored
    /// key holds still while the effective bound falls. Enrolling while
    /// the half is frozen (between a streak's bursts) is sound — the
    /// effective bound equals `value` until the next anchor resumes the
    /// fall — and is what lets boundary-pick re-parks rejoin the falling
    /// band instead of going stale in the free half.
    fn entry_key_for(&self, id: TxnId, value: Priority) -> (Priority, Half) {
        if self.fall_rate > 0.0 {
            if let Some(r) = self.timed_target() {
                if r != id && self.accel.is_unsafe(self.txn(r), self.txn(id)) {
                    let a = self.fall_offset_now();
                    let key = Priority(nudge_up(value.0 + a, value.0.abs().max(a)));
                    return (key, Half::Timed);
                }
            }
        }
        (value, Half::Free)
    }

    /// The effective upper bound a timed-half key stands for right now.
    fn timed_effective(&self, key: Priority, a: f64) -> Priority {
        Priority(nudge_up(key.0 - a, key.0.abs().max(a)))
    }

    /// [`Self::entry_key_for`] for *cache-write* upserts: an entry not
    /// already in the timed half enrolls only if the falling band can
    /// still reach its bound — the band's top effective bound falls at
    /// most `fall_rate ×` the target's remaining compute before the
    /// streak ends and the next walk re-decides membership, so a write
    /// that lands deeper than that would migrate an entry no pick can
    /// observe in the band. Leaving it in the free half is sound (its
    /// exact key holds still while the member priorities fall — stale
    /// *high*), and cheap: most such writes are conflict-raise repairs of
    /// far-from-the-top blocked transactions that get re-keyed again long
    /// before they matter. Entries already enrolled keep their
    /// membership, so the walks' mirror stays complete. The depth test is
    /// a performance heuristic only — either outcome keeps every key an
    /// upper bound.
    fn entry_key_for_write(&self, id: TxnId, value: Priority) -> (Priority, Half) {
        if self.fall_rate > 0.0 {
            if let Some(r) = self.timed_target() {
                if r != id && self.accel.is_unsafe(self.txn(r), self.txn(id)) {
                    let enroll = {
                        let index = self.index.borrow();
                        match index.half_of(id) {
                            Some(Half::Timed) => true,
                            _ => match index.peek(Half::Timed) {
                                None => true,
                                Some(top) => {
                                    let t = self.txn(r);
                                    let rem = self.fall_rate
                                        * (t.resource_time.as_ms() - t.service.as_ms()).max(0.0);
                                    let band =
                                        self.timed_effective(top.pri, self.fall_offset_now());
                                    value.0 >= band.0 - rem
                                }
                            },
                        }
                    };
                    if enroll {
                        let a = self.fall_offset_now();
                        let key = Priority(nudge_up(value.0 + a, value.0.abs().max(a)));
                        return (key, Half::Timed);
                    }
                }
            }
        }
        (value, Half::Free)
    }

    /// Anchor runner `r`'s starting compute burst: from now until the
    /// burst ends, the fall accumulator accrues and exactly the
    /// priorities unsafe w.r.t. `r` fall at `fall_rate`. The migration
    /// walks that (re)populate the timed half run only when the half does
    /// not already mirror `r`'s unsafe set — same runner as the last
    /// walk, and no conflict-set clear or narrowing since (tracked by
    /// `walked`). A runner committing or being preempted and re-granted
    /// repeatedly — the high-MPL steady state — pays the walks once per
    /// streak, not once per burst (`migrations_batched` counts the
    /// skips). Reuse is sound: between walks `r`'s sets only grow
    /// (missing pairs leave keys stale-*high*, which the validated pick
    /// tolerates) and members only stop being unsafe on clears or
    /// narrowings, which invalidate `walked`.
    ///
    /// `cfg.system.eager_migrations` disables reuse — every burst walks,
    /// for the batched-vs-eager equivalence ablation.
    fn anchor_timed(&mut self, r: TxnId) {
        if self.fall_rate == 0.0 || !self.heap_in_use() {
            return;
        }
        debug_assert!(self.anchor.get().is_none(), "anchoring while anchored");
        debug_assert!(
            self.txn(r).is_partially_executed(),
            "compute bursts only run after a lock grant"
        );
        self.anchor.set(Some((r, self.now())));
        if !self.cfg.system.eager_migrations && self.walked.get() == Some(r) {
            self.migrations_batched
                .set(self.migrations_batched.get() + 1);
            return;
        }
        self.run_migration_walks(r);
        self.walked.set(Some(r));
    }

    /// The anchor's migration walks. O(affected), not O(active): timed
    /// entries that are not unsafe w.r.t. `r` fold back to the free half
    /// (their effective bound is constant again), and the free entries to
    /// pull in are enumerated through the item→transaction reverse index
    /// — any transaction unsafe w.r.t. `r` shares an item with
    /// `r.accessed`.
    fn run_migration_walks(&self, r: TxnId) {
        let a = self.offset_base.get();
        let mut movers = self.arm_buf.borrow_mut();
        movers.clear();
        {
            let index = self.index.borrow();
            let rt = self.txn(r);
            for e in index.entries(Half::Timed) {
                if e.id == r || !self.accel.is_unsafe(rt, self.txn(e.id)) {
                    movers.push(e.id);
                }
            }
        }
        self.fold_out_timed(&movers, a);
        movers.clear();
        {
            let mut sharers = self.sharer_buf.borrow_mut();
            self.accel.sharers(&self.txn(r).accessed, &mut sharers);
            let index = self.index.borrow();
            let rt = self.txn(r);
            for &x in sharers.iter() {
                if x != r
                    && index.half_of(x) == Some(Half::Free)
                    && self.accel.is_unsafe(rt, self.txn(x))
                {
                    movers.push(x);
                }
            }
        }
        for &x in movers.iter() {
            let mut index = self.index.borrow_mut();
            let bound = index
                .key_in(Half::Free, x)
                .expect("enumerated from free half");
            index.remove(x);
            let key = Priority(nudge_up(bound.0 + a, bound.0.abs().max(a)));
            index.insert(
                Half::Timed,
                HeapEntry {
                    pri: key,
                    arrival: self.txn(x).arrival,
                    id: x,
                },
            );
            self.index_migrations.set(self.index_migrations.get() + 1);
        }
        movers.clear();
    }

    /// Fold the listed timed-half entries back to the free half at fall
    /// offset `a`, rewriting each cache entry to the folded bound so the
    /// cache stays bit-identical to the free-half key (both stay upper
    /// bounds — the write only loosens by the fold's ULP slack).
    fn fold_out_timed(&self, ids: &[TxnId], a: f64) {
        for &x in ids {
            let mut index = self.index.borrow_mut();
            let key = index
                .key_in(Half::Timed, x)
                .expect("enumerated from timed half");
            index.remove(x);
            let bound = self.timed_effective(key, a);
            debug_assert!(
                self.accel.slot(x).pri_valid(),
                "{x}: indexed transaction without cache entry"
            );
            self.accel.write_pri(x, bound, self.now());
            index.insert(
                Half::Free,
                HeapEntry {
                    pri: bound,
                    arrival: self.txn(x).arrival,
                    id: x,
                },
            );
            self.index_migrations.set(self.index_migrations.get() + 1);
        }
    }

    /// End the anchored compute span (burst completion or preemption):
    /// fold the span's fall into `offset_base`. Timed entries stay where
    /// they are — their effective bounds simply stop falling, which keeps
    /// them sound and lets the next burst by the same runner reuse them —
    /// and drain back to the free half lazily at the next walk or cache
    /// write, with [`Self::maybe_compact_frozen`] as the backstop against
    /// unbounded lingering.
    fn freeze_timed(&self) {
        if let Some((_, t0)) = self.anchor.take() {
            self.offset_base
                .set(self.offset_base.get() + self.fall_rate * self.now().since(t0).as_ms());
            self.maybe_compact_frozen();
        }
    }

    /// Bound stale-offset accumulation from lazily-drained frozen
    /// entries. Called at each anchor release: with the timed half empty
    /// no key encodes the accumulated offset, so it re-zeroes for free;
    /// otherwise every [`FROZEN_COMPACT_SPANS`] releases the half is
    /// scanned and entries that are no longer members of the mirrored
    /// unsafe set — all of them, when no target is mirrored — fold back
    /// to the free half. The walks keep the live mirror exact, so the
    /// scan normally moves nothing; it is the backstop against lingering
    /// should an enrollment path ever outpace the walks. Membership and
    /// the offset survive a scan that leaves entries behind, so a
    /// runner's batching streak is not interrupted; the offset re-zeroes
    /// only when the half drains empty. All of this is invisible to
    /// results — folds and effective-bound reads always pair a key with
    /// the offset it was written under.
    fn maybe_compact_frozen(&self) {
        if self.index.borrow().half_len(Half::Timed) == 0 {
            self.offset_base.set(0.0);
            self.frozen_spans.set(0);
            self.walked.set(None);
            return;
        }
        let spans = self.frozen_spans.get() + 1;
        if spans < FROZEN_COMPACT_SPANS {
            self.frozen_spans.set(spans);
            return;
        }
        self.frozen_spans.set(0);
        let a = self.offset_base.get();
        let mut movers = self.arm_buf.borrow_mut();
        movers.clear();
        match self.timed_target() {
            // No target: the half mirrors nobody, so every frozen entry
            // is a leftover.
            None => {
                movers.extend(
                    self.index
                        .borrow()
                        .entries(Half::Timed)
                        .iter()
                        .map(|e| e.id),
                );
            }
            // Live mirror: fold out only entries that stopped being
            // members (the walks keep this set empty in the common case,
            // so the scan is a cheap amortized verification).
            Some(r) => {
                let index = self.index.borrow();
                let rt = self.txn(r);
                for e in index.entries(Half::Timed) {
                    if e.id == r || !self.accel.is_unsafe(rt, self.txn(e.id)) {
                        movers.push(e.id);
                    }
                }
            }
        }
        self.fold_out_timed(&movers, a);
        movers.clear();
        drop(movers);
        if self.index.borrow().half_len(Half::Timed) == 0 {
            self.offset_base.set(0.0);
            self.walked.set(None);
        }
        self.frozen_compactions
            .set(self.frozen_compactions.get() + 1);
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

    fn txn(&self, id: TxnId) -> &Transaction {
        &self.txns[id.0 as usize]
    }

    fn txn_mut(&mut self, id: TxnId) -> &mut Transaction {
        &mut self.txns[id.0 as usize]
    }

    /// The one place an *active* transaction's scheduling state changes:
    /// maintains the ready counter that replaces the per-event ready-queue
    /// scan. (Terminal states set on not-yet-pushed slots — admission
    /// rejection — bypass this; they are never Ready-counted.)
    fn set_state(&mut self, id: TxnId, new: TxnState) {
        let old = self.txn(id).state;
        if old == new {
            return;
        }
        if old == TxnState::Ready {
            self.ready_count -= 1;
        }
        if new == TxnState::Ready {
            self.ready_count += 1;
        }
        self.txn_mut(id).state = new;
        self.state_tags[id.0 as usize] = new;
    }

    /// Runnability from the dense tag vector — one byte instead of a
    /// `Transaction` dereference in the pick loops' accept closures.
    #[inline]
    fn runnable_tag(&self, id: TxnId) -> bool {
        let r = self.state_tags[id.0 as usize].is_runnable();
        debug_assert_eq!(
            r,
            self.txn(id).is_runnable(),
            "{id}: state tag diverged from the transaction record"
        );
        r
    }

    /// Do conflict events perform targeted per-pair invalidation? Only
    /// worth the walk when a `ConflictState` policy actually reads the
    /// stamps; the `AlwaysRecompute` oracle never consults any cache.
    fn targeted_invalidation_active(&self) -> bool {
        self.mode != CacheMode::AlwaysRecompute
            && matches!(self.policy.depends_on(), PriorityDeps::ConflictState { .. })
    }

    /// A lock grant grew `id`'s access sets: record it with the
    /// accelerator; nothing else.
    ///
    /// Deliberately **no** walk over the other transactions and no index
    /// maintenance: growth can only *add* nonnegative penalty terms, i.e.
    /// only *lower* other `ConflictState` priorities (see
    /// `PriorityDeps::ConflictState`'s fall-monotonicity clause), and
    /// `id`'s own priority never reads its own access sets. Cached values
    /// and index keys become stale-high upper bounds, which the
    /// peek-and-revalidate pick tolerates — the O(active) per-grant walk
    /// is traded for an occasional demotion at the next pick.
    fn conflict_grew(&mut self, id: TxnId, was_partial: bool) {
        self.accel.note_access_growth(id, was_partial);
    }

    /// `id`'s access sets are about to be cleared (abort/restart or
    /// commit): repair the cached priorities of the transactions whose
    /// penalty currently includes `id` — the walk runs *before* the
    /// clearing so the still-valid memo describes the contribution being
    /// removed — then record the clearing.
    ///
    /// This is the **one** conflict event that keeps an eager walk: a
    /// clear removes penalty terms, i.e. *raises* the affected
    /// `ConflictState` priorities, and a risen priority hiding under a
    /// low index key would make a peek-ordered pick unsound. Falls
    /// (growth, clock advance) need no walk — see [`Self::conflict_grew`].
    fn conflict_cleared(&mut self, id: TxnId) {
        if self.targeted_invalidation_active() {
            self.repair_unsafe_against(id);
        }
        self.accel.note_sets_cleared(id);
        // A clear shrinks only the unsafe pairs in which the cleared
        // transaction is the *partial* — `is_unsafe(r, x)` reads `r`'s
        // accessed/written sets but only `x`'s `might_access`, which a
        // clear leaves alone. So the walked timed-half membership (pairs
        // with the last-walked runner as partial) stays valid unless the
        // cleared transaction *is* that runner.
        if self.walked.get() == Some(id) {
            self.walked.set(None);
        }
    }

    /// The targeted per-pair walk on a clear: for every active
    /// transaction `X` with `is_unsafe(c, X)` — exactly those whose
    /// penalty is about to lose `c`'s term — bump `X`'s pair stamp (its
    /// conflict epoch moved) and *repair* its cached priority and index
    /// key in place, in O(1) per victim, with no exact recomputation:
    ///
    /// Removing `c`'s term raises a victim's priority by at most the
    /// policy-supplied [`Policy::conflict_clear_raise`] bound (for CCA,
    /// `w · (effective_service(c) + abort_cost)` — the exact term every
    /// victim loses). Adding that bound (plus a few ULPs of rounding
    /// slack) to the victim's cached value, itself an upper bound,
    /// yields a new upper bound on the post-clear priority; the pick
    /// path's revalidation tightens it exactly when (and only when) the
    /// victim surfaces at the top. The old design recomputed and
    /// re-pushed every victim here — O(victims) full evaluations per
    /// clear, which dominated high-contention runs.
    ///
    /// O(sharers) memoized pair tests, paid only on clears (the rare,
    /// priority-raising event): instead of probing every active
    /// transaction, the walk enumerates through the item→transaction
    /// reverse index only the transactions whose `might_access` shares
    /// an item with `c.accessed` — a sound superset of the unsafe set,
    /// since either direction of `is_unsafe_with(c, x)` requires such a
    /// shared item (`written ⊆ accessed ⊆ might_access`). The other
    /// active transactions keep their cached priorities untouched, and
    /// the walk's cost scales with `c`'s conflicting set, not with MPL
    /// (`clear_repair_visits` evidences this).
    fn repair_unsafe_against(&mut self, c: TxnId) {
        let raise = self.policy.conflict_clear_raise(self.txn(c), &self.view());
        let mut affected = std::mem::take(&mut self.walk_buf);
        affected.clear();
        {
            let ct = self.txn(c);
            let mut sharers = self.sharer_buf.borrow_mut();
            self.accel.sharers(&ct.accessed, &mut sharers);
            self.clear_repair_clears
                .set(self.clear_repair_clears.get() + 1);
            self.clear_repair_visits
                .set(self.clear_repair_visits.get() + sharers.len() as u64);
            for &x in sharers.iter() {
                if x != c && self.accel.is_unsafe(ct, self.txn(x)) {
                    affected.push(x);
                }
            }
            if self.mode == CacheMode::Verify {
                // Oracle: the pre-reverse-index full active walk. Both
                // enumerate ascending by id (= arrival order), so the
                // affected lists must match exactly, order included.
                let full: Vec<TxnId> = self
                    .active
                    .iter()
                    .copied()
                    .filter(|&x| x != c && crate::txn::is_unsafe_with(ct, self.txn(x)))
                    .collect();
                assert_eq!(
                    affected, full,
                    "reverse-index repair walk diverged from the active-scan oracle"
                );
                self.verify_checks.set(self.verify_checks.get() + 1);
            }
        }
        let a = self.fall_offset_now();
        for &x in &affected {
            self.accel.bump_pair_stamp(x);
            // Raise from the *tightest* bound available: a timed-half
            // entry's effective key has been falling with the runner's
            // service while the cached value stood still, so repairing
            // from the cache would silently discard every fall the timed
            // half tracked (and hand the pick loop the stale-high key
            // back). Both are upper bounds; take the smaller.
            let folded = match self.index.borrow().key_of(x) {
                Some((key, Half::Timed)) => Some(self.timed_effective(key, a)),
                _ => None,
            };
            let bound = {
                let s = self.accel.slot(x);
                debug_assert!(
                    s.pri_valid() && s.pri_value.0.is_finite(),
                    "{x}: active ConflictState transaction without a seeded cache entry"
                );
                debug_assert!(raise >= 0.0, "clear-raise bound must be nonnegative");
                let mut value = s.pri_value;
                if let Some(f) = folded {
                    if f < value {
                        value = f;
                    }
                }
                Priority(nudge_up(value.0 + raise, value.0.abs().max(raise)))
            };
            self.accel.write_pri(x, bound, self.now());
            self.index_upsert(x, bound);
        }
        affected.clear();
        self.walk_buf = affected;
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

    /// A scan-based, memo-free view — what `Verify` recomputes against.
    fn fresh_view(&self) -> SystemView<'_> {
        SystemView::new(self.now(), &self.txns, self.cfg.system.abort_cost())
    }

    /// The cached priority of `id` under the active cache mode.
    ///
    /// Cache validity is what the policy's [`PriorityDeps`] declares:
    /// `Static` entries never expire, `TimeAndSelf` entries expire when
    /// time advances or the transaction's own state changes,
    /// `ConflictState` entries expire when the transaction's own state or
    /// its per-pair conflict stamp moves. `Volatile` (and the
    /// `AlwaysRecompute` oracle) bypass the cache entirely.
    ///
    /// **Exactness.** For every dependency class but `ConflictState` a
    /// hit is bit-exact. A surviving `ConflictState` entry is only an
    /// **upper bound** on the fresh value: the engine deliberately does
    /// not bump stamps on priority *falls* (another transaction's access
    /// growth, effective service accruing with the clock) — only on
    /// *raises* (clears; see [`Self::conflict_cleared`]). Decision points
    /// that need the exact value go through [`Self::priority_exact`];
    /// this path feeds the heap keys and the non-`ConflictState` scans.
    /// In `Verify` mode the returned value is asserted against a fresh
    /// scan-based recomputation — bit-identical where the path claims
    /// exactness, `>=` where it claims an upper bound.
    ///
    /// When the priority index is in use, every cache *write* also moves
    /// the transaction's index key to the new value in place — the
    /// paired-writes invariant (an active transaction's index key is
    /// bit-identical to its cached value at all times).
    fn priority_of(&self, id: TxnId) -> Priority {
        let mut upper_bound_hit = false;
        let result = if self.mode == CacheMode::AlwaysRecompute {
            self.priority_evals.set(self.priority_evals.get() + 1);
            self.policy.priority(self.txn(id), &self.view())
        } else {
            let deps = self.policy.depends_on();
            if deps == PriorityDeps::Volatile {
                self.priority_evals.set(self.priority_evals.get() + 1);
                self.policy.priority(self.txn(id), &self.view())
            } else {
                let now = self.now();
                // One cache-line read covers both the cached priority
                // and the live versions it is keyed against.
                let s = self.accel.slot(id);
                let hit = s.pri_valid()
                    && match deps {
                        PriorityDeps::Static => true,
                        PriorityDeps::TimeAndSelf => s.pri_at == now && s.pri_own == s.own_version,
                        PriorityDeps::ConflictState { .. } => {
                            s.pri_stamp == s.pair_stamp && s.pri_own == s.own_version
                        }
                        PriorityDeps::Volatile => unreachable!("handled above"),
                    };
                if hit {
                    upper_bound_hit = matches!(deps, PriorityDeps::ConflictState { .. });
                    self.priority_cache_hits
                        .set(self.priority_cache_hits.get() + 1);
                    s.pri_value
                } else {
                    self.priority_evals.set(self.priority_evals.get() + 1);
                    let value = self.policy.priority(self.txn(id), &self.view());
                    self.accel.write_pri(id, value, now);
                    if self.heap_in_use() {
                        self.index_upsert(id, value);
                    }
                    value
                }
            }
        };
        if self.mode == CacheMode::Verify {
            let fresh = self.policy.priority(self.txn(id), &self.fresh_view());
            self.verify_checks.set(self.verify_checks.get() + 1);
            if upper_bound_hit {
                assert!(
                    result >= fresh,
                    "{id}: surviving ConflictState entry {} < fresh {} \
                     (a priority rise escaped the clear walk)",
                    result.0,
                    fresh.0
                );
            } else {
                assert_eq!(
                    result.0.to_bits(),
                    fresh.0.to_bits(),
                    "{id}: cached priority {} != fresh {} (stale invalidation?)",
                    result.0,
                    fresh.0
                );
            }
        }
        result
    }

    /// The **exact** priority of `id` — what scheduling decisions (heap
    /// pick validation, wound/HP lock-conflict comparisons) consume.
    ///
    /// For every dependency class but `ConflictState` the cached path is
    /// already exact and this delegates to [`Self::priority_of`]. For
    /// `ConflictState` under lazy falls a surviving entry may be
    /// stale-high, so the value is recomputed against the accel-backed
    /// view (memoized pair verdicts keep this O(P-list), and the P-list
    /// stays near-empty in exactly the high-contention regimes that made
    /// the old per-event walks explode). A recompute that *confirms* the
    /// surviving entry counts as a cache hit and leaves cache and index
    /// untouched; a fall rewrites the entry and demotes the index key in
    /// place — which is exactly how the pick loop retires a stale top.
    fn priority_exact(&self, id: TxnId) -> Priority {
        self.priority_exact_impl(id, true)
    }

    /// [`Self::priority_exact`] minus the index write: for pick loops
    /// that have lifted `id`'s entry out of the index and will reinsert
    /// it themselves (an upsert here would create a duplicate). Cache
    /// write, counters and `Verify` assertions are identical.
    fn priority_exact_detached(&self, id: TxnId) -> Priority {
        self.priority_exact_impl(id, false)
    }

    fn priority_exact_impl(&self, id: TxnId, write_index: bool) -> Priority {
        if self.mode == CacheMode::AlwaysRecompute
            || !matches!(self.policy.depends_on(), PriorityDeps::ConflictState { .. })
        {
            // The delegate is exact for these classes. It only touches
            // the index on a `ConflictState` miss, so a detached caller
            // (`Static`: hits after the arrival seed; `TimeAndSelf`/
            // `Volatile`: no index at all) is never double-inserted.
            return self.priority_of(id);
        }
        let value = self.policy.priority(self.txn(id), &self.view());
        let now = self.now();
        let s = self.accel.slot(id);
        let confirmed = s.pri_valid()
            && s.pri_stamp == s.pair_stamp
            && s.pri_own == s.own_version
            && s.pri_value.0.to_bits() == value.0.to_bits();
        if confirmed {
            self.priority_cache_hits
                .set(self.priority_cache_hits.get() + 1);
        } else {
            self.priority_evals.set(self.priority_evals.get() + 1);
            self.accel.write_pri(id, value, now);
            if write_index && self.heap_in_use() {
                self.index_upsert(id, value);
            }
        }
        if self.mode == CacheMode::Verify {
            let fresh = self.policy.priority(self.txn(id), &self.fresh_view());
            self.verify_checks.set(self.verify_checks.get() + 1);
            assert_eq!(
                value.0.to_bits(),
                fresh.0.to_bits(),
                "{id}: exact priority {} != fresh {} (accel view diverged)",
                value.0,
                fresh.0
            );
        }
        value
    }

    /// Move `id`'s index key to `value` in place (or insert it if `id`
    /// has no entry yet) — the index half of every priority-cache write.
    /// Recomputes which half the entry belongs in (the write may race a
    /// runner anchor that flipped its membership) and migrates if
    /// needed. O(log n) sift; never creates a duplicate entry.
    fn index_upsert(&self, id: TxnId, value: Priority) {
        let (key, half) = self.entry_key_for_write(id, value);
        let mut index = self.index.borrow_mut();
        match index.half_of(id) {
            Some(h) if h == half => {
                index.set_key(id, key);
            }
            Some(_) => {
                index.remove(id);
                index.insert(
                    half,
                    HeapEntry {
                        pri: key,
                        arrival: self.txn(id).arrival,
                        id,
                    },
                );
                self.index_migrations.set(self.index_migrations.get() + 1);
            }
            None => {
                index.insert(
                    half,
                    HeapEntry {
                        pri: key,
                        arrival: self.txn(id).arrival,
                        id,
                    },
                );
            }
        }
        self.heap_pushes.set(self.heap_pushes.get() + 1);
    }

    // ---- event handlers -------------------------------------------------

    fn on_arrival(&mut self, mut txn: Transaction) {
        debug_assert_eq!(txn.id.0 as usize, self.txns.len());
        let id = txn.id;
        let deadline = txn.deadline;
        // Register with the acceleration layer before anything can look at
        // the new id — rejected transactions too, so the id-indexed
        // version/cache vectors stay dense. Arrival changes no conflict
        // state (a fresh transaction holds nothing), so no epoch bump.
        self.accel.register(id);
        self.index.borrow_mut().register();
        if self.cfg.system.admission.is_some() {
            self.adm_maybe_roll();
            if !self.feasible(&txn) {
                // Reject at the door: the transaction never enters the
                // active set, acquires no locks and consumes no resources.
                txn.state = TxnState::Rejected;
                let (arrival, restarts) = (txn.arrival, txn.restarts);
                self.txns.push(txn);
                self.secondary.push(false);
                self.state_tags.push(TxnState::Rejected);
                // A rejected transaction never becomes active, so its
                // arena slot goes straight back to the free list.
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
        self.txns.push(txn);
        self.secondary.push(false);
        self.state_tags.push(TxnState::Ready);
        self.active.push(id);
        self.ready_count += 1;
        // Enter the reverse index under the admitted footprint (only
        // admitted transactions are ever indexed — repairs must not
        // touch rejected slots' unseeded caches).
        self.accel
            .reindex(id, &self.txns[id.0 as usize].might_access);
        // Seed the newcomer's cache entry and index key eagerly: the
        // index must hold exactly one entry per active transaction before
        // the next pick can trust its peek.
        if self.heap_in_use() {
            self.priority_exact(id);
        }
        self.slack_upsert(id);
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
        let conflicts = match self.mode {
            CacheMode::AlwaysRecompute => self
                .active
                .iter()
                .map(|&p| self.txn(p))
                .filter(|p| p.is_partially_executed() && txn.conflicts_with(p))
                .count(),
            _ => {
                // The maintained P-list *is* the set the scan above
                // filters `active` down to, and the pair memo returns the
                // same verdicts as `conflicts_with`. Only sharers of the
                // newcomer's footprint can conflict at all, so the probe
                // set is their intersection with the P-list — same
                // count, O(sharers ∩ P) instead of O(P) pair tests.
                let mut sharers = self.sharer_buf.borrow_mut();
                self.accel.sharers(&txn.might_access, &mut sharers);
                let n = sharers
                    .iter()
                    .filter(|&&p| {
                        self.accel.plist().binary_search(&p).is_ok()
                            && self.accel.conflicts(txn, self.txn(p))
                    })
                    .count();
                if self.mode == CacheMode::Verify {
                    let scanned = self
                        .active
                        .iter()
                        .map(|&p| self.txn(p))
                        .filter(|p| p.is_partially_executed() && txn.conflicts_with(p))
                        .count();
                    self.verify_checks.set(self.verify_checks.get() + 1);
                    assert_eq!(n, scanned, "admission conflict count diverged");
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
                let t = self.txn_mut(id);
                t.cpu_left = SimDuration::ZERO;
                self.after_lock(id);
                match self.proceed(id) {
                    Started::Scheduled => {}
                    Started::WentToIo | Started::Blocked => self.reschedule(),
                }
            }
            Stage::Compute => {
                // The anchored span ends exactly where the service it
                // mirrors stops accruing.
                self.freeze_timed();
                if std::mem::take(&mut self.active_cpu_failed) {
                    // Injected transient CPU stall: the burst ran its full
                    // (possibly inflated) length and its result is
                    // discarded. The effective service still banks — the
                    // timed index accrued it continuously while the burst
                    // ran, and cached priority keys must stay upper
                    // bounds — but no progress is made; the work is
                    // counted wasted instead, and the update's burst will
                    // be re-run from scratch (or the transaction
                    // restarted) by the stall handler.
                    {
                        let t = self.txn_mut(id);
                        t.service += burst;
                        t.cpu_left = SimDuration::ZERO;
                    }
                    self.metrics.add_wasted_cpu(burst);
                    self.accel.bump_own(id);
                    self.slack_upsert(id);
                    self.running = None;
                    self.handle_cpu_stall(id);
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
                // Progress/service moved: own-state-dependent priorities
                // (LSF) must recompute — lazily; under `ConflictState`
                // deps own service never raises the owner's priority, so
                // the stale index key stays an upper bound. A narrowing
                // additionally changes how the partials relate to *this*
                // transaction — and only this one (`is_unsafe` never
                // reads a partial's `might_access`) — and can *raise* its
                // priority, so refresh its key eagerly and exactly.
                self.accel.bump_own(id);
                if narrowed {
                    self.accel.note_narrowed(id);
                    self.accel
                        .reindex(id, &self.txns[id.0 as usize].might_access);
                    if self.heap_in_use() {
                        self.priority_exact(id);
                    }
                    // The narrowed might-access set can drop this
                    // transaction out of a runner's unsafe set — timed
                    // membership may no longer be reusable.
                    self.walked.set(None);
                }
                self.slack_upsert(id);
                if self.txn(id).progress == self.txn(id).total_updates() {
                    self.commit(id);
                } else {
                    self.txn_mut(id).stage = Stage::Lock;
                    match self.proceed(id) {
                        Started::Scheduled => {}
                        Started::WentToIo | Started::Blocked => self.reschedule(),
                    }
                }
            }
            Stage::Lock | Stage::Io => {
                unreachable!("CPU burst completed in non-CPU stage {stage:?}")
            }
        }
    }

    fn on_io_done(&mut self, id: TxnId) {
        let now = self.now();
        let disk = self.disk.as_mut().expect("IoDone without a disk");
        let done = disk.complete(now);
        assert_eq!(done, id, "disk completion out of order");
        // The failure flag belongs to the transfer that just completed;
        // take it before starting the next transfer, which re-arms it.
        let failed = std::mem::take(&mut self.active_io_failed);
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
            self.metrics.add_wasted_disk_hold(wasted);
            self.emit(|| TraceEvent::IoDone { txn: id });
        } else if failed {
            // The transfer occupied the disk and then failed with an
            // injected transient error: back off and retry, or give up.
            self.handle_io_failure(id);
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

    /// Begin a transfer on the (idle) disk for `id`, drawing the attempt's
    /// fate from the fault injector when one is configured.
    fn start_transfer(&mut self, id: TxnId) {
        let now = self.now();
        let nominal = self
            .disk
            .as_ref()
            .expect("transfer without a disk")
            .access_time();
        let (service, failed) = match &mut self.faults {
            Some(inj) => {
                let a = inj.attempt(now, nominal);
                if a.failed {
                    self.metrics.record_injected_fault();
                }
                if a.spiked {
                    self.metrics.record_latency_spike();
                }
                (a.service, a.failed)
            }
            None => (nominal, false),
        };
        self.active_io_failed = failed;
        let at = self
            .disk
            .as_mut()
            .expect("transfer without a disk")
            .start(id, now, service);
        self.set_state(id, TxnState::IoActive);
        self.calendar.schedule(at, Event::IoDone(id));
    }

    /// The active transfer of `id` failed with an injected error. Within
    /// the retry budget: arm an exponential backoff and re-queue when it
    /// expires. Budget exhausted: abort-and-restart like an HP victim
    /// (locks released, waiters woken, restart counted).
    fn handle_io_failure(&mut self, id: TxnId) {
        let plan = self
            .faults
            .as_ref()
            .expect("injected failure without an injector")
            .plan()
            .clone();
        let retries = self.txn(id).io_retries;
        if retries >= plan.retry_budget {
            self.emit(|| TraceEvent::IoGaveUp { txn: id });
            self.metrics.record_io_exhausted_abort();
            let held = self.locks.held_by(id);
            let released = self.locks.release_all(id);
            debug_assert!(released > 0, "an IO-stage transaction holds its lock");
            self.wake_waiters(&held);
            let was_secondary = self.secondary[id.0 as usize];
            self.metrics.record_restart(was_secondary);
            self.secondary[id.0 as usize] = false;
            // The restart clears the access sets (and re-widens a
            // narrowed mightaccess): leave the P-list, invalidate pairs.
            self.conflict_cleared(id);
            self.txn_mut(id).reset_for_restart();
            self.accel
                .reindex(id, &self.txns[id.0 as usize].might_access);
            self.slack_upsert(id);
            self.set_state(id, TxnState::Ready);
        } else {
            self.emit(|| TraceEvent::IoFault { txn: id, retries });
            let backoff = plan.backoff_after(retries);
            self.metrics.record_io_retry(backoff);
            let at = self.now() + backoff;
            self.set_state(id, TxnState::IoBackoff);
            let t = self.txn_mut(id);
            t.io_retries += 1;
            t.retry_token += 1;
            let token = t.retry_token;
            self.calendar.schedule(at, Event::IoRetry(id, token));
        }
    }

    /// The just-finished Compute burst of `id` carried an injected CPU
    /// stall verdict: its work was discarded. Within the retry budget:
    /// arm an exponential backoff and re-run the full burst when it
    /// expires. Budget exhausted: abort-and-restart like an HP victim
    /// (locks released, waiters woken, restart counted).
    ///
    /// Mirrors [`Self::handle_io_failure`]. The retry counter and
    /// staleness token (`io_retries` / `retry_token`) and the backoff
    /// state ([`TxnState::IoBackoff`]) are shared with the disk path —
    /// an update retries either its transfer or its burst, never both at
    /// once, and `abort`'s backoff arm covers both identically.
    fn handle_cpu_stall(&mut self, id: TxnId) {
        let plan = self
            .cpu_faults
            .as_ref()
            .expect("injected stall without an injector")
            .plan()
            .clone();
        let retries = self.txn(id).io_retries;
        if retries >= plan.retry_budget {
            self.metrics.record_cpu_exhausted_abort();
            let held = self.locks.held_by(id);
            let released = self.locks.release_all(id);
            debug_assert!(released > 0, "a Compute-stage transaction holds its lock");
            self.wake_waiters(&held);
            let was_secondary = self.secondary[id.0 as usize];
            self.metrics.record_restart(was_secondary);
            self.secondary[id.0 as usize] = false;
            // The restart clears the access sets (and re-widens a
            // narrowed mightaccess): leave the P-list, invalidate pairs.
            self.conflict_cleared(id);
            self.txn_mut(id).reset_for_restart();
            self.accel
                .reindex(id, &self.txns[id.0 as usize].might_access);
            self.slack_upsert(id);
            self.set_state(id, TxnState::Ready);
        } else {
            let backoff = plan.backoff_after(retries);
            self.metrics.record_cpu_retry(backoff);
            let at = self.now() + backoff;
            self.set_state(id, TxnState::IoBackoff);
            let t = self.txn_mut(id);
            t.io_retries += 1;
            t.retry_token += 1;
            // Re-arm the nominal burst; the retry draws a fresh attempt
            // (and a fresh inflation) when it is next placed on the CPU.
            t.cpu_left = t.update_time;
            let token = t.retry_token;
            self.calendar.schedule(at, Event::CpuRetry(id, token));
        }
    }

    /// A CPU-stall backoff expired: make the transaction ready so the
    /// scheduler can re-place its burst, unless the event is stale (the
    /// transaction was aborted while the retry was in flight — the
    /// abort's backoff arm already reset it and bumped the token).
    fn on_cpu_retry(&mut self, id: TxnId, token: u64) {
        {
            let t = self.txn(id);
            if t.state != TxnState::IoBackoff || t.retry_token != token {
                return;
            }
        }
        self.set_state(id, TxnState::Ready);
        self.update_queue_metrics();
        self.reschedule();
    }

    /// A backoff expired: re-queue the failed transfer, unless the event
    /// is stale (the transaction was aborted — and possibly already
    /// progressed elsewhere — while the retry was in flight).
    fn on_io_retry(&mut self, id: TxnId, token: u64) {
        {
            let t = self.txn(id);
            if t.state != TxnState::IoBackoff || t.retry_token != token {
                return;
            }
        }
        let deadline_key = self.txn(id).deadline.as_micros();
        self.set_state(id, TxnState::IoQueued);
        let disk = self.disk.as_mut().expect("IoRetry without a disk");
        if disk.enqueue(id, deadline_key) {
            self.start_transfer(id);
            self.emit(|| TraceEvent::IoIssued {
                txn: id,
                queued: false,
            });
        } else {
            self.emit(|| TraceEvent::IoIssued {
                txn: id,
                queued: true,
            });
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
                            let was_partial = self.txn(id).is_partially_executed();
                            let t = self.txn_mut(id);
                            // Non-short-circuiting |= — the written insert
                            // must execute even when accessed already held
                            // the item (shared→exclusive re-lock).
                            let mut grew = t.accessed.insert(item);
                            if mode == LockMode::Exclusive {
                                grew |= t.written.insert(item);
                            }
                            if grew {
                                self.conflict_grew(id, was_partial);
                            }
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
                                let was_partial = self.txn(id).is_partially_executed();
                                let t = self.txn_mut(id);
                                let mut grew = t.accessed.insert(item);
                                if mode == LockMode::Exclusive {
                                    grew |= t.written.insert(item);
                                }
                                if grew {
                                    self.conflict_grew(id, was_partial);
                                }
                                let t = self.txn_mut(id);
                                t.stage = Stage::Recover;
                                t.cpu_left = recovery;
                                self.update_queue_metrics();
                                return self.schedule_burst(id);
                            } else {
                                // Wound-wait: a lower-priority requester (an
                                // IO-wait secondary under EDF-HP) blocks
                                // until the holder releases the lock. Wait
                                // edges always point to higher priorities,
                                // so no cycle — and under CCA this branch is
                                // unreachable (Theorem 1's "no lock wait").
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
                    self.set_state(id, TxnState::IoQueued);
                    self.running = None;
                    let deadline_key = self.txn(id).deadline.as_micros();
                    let disk = self.disk.as_mut().expect("Io stage without a disk");
                    if disk.enqueue(id, deadline_key) {
                        self.start_transfer(id);
                        self.emit(|| TraceEvent::IoIssued {
                            txn: id,
                            queued: false,
                        });
                    } else {
                        self.emit(|| TraceEvent::IoIssued {
                            txn: id,
                            queued: true,
                        });
                    }
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
            if let Some(inj) = &mut self.cpu_faults {
                let nominal = self.txns[id.0 as usize].cpu_left;
                let a = inj.attempt(now, nominal);
                if a.failed {
                    self.metrics.record_cpu_stall();
                }
                if a.spiked {
                    self.metrics.record_cpu_slowdown();
                }
                self.txns[id.0 as usize].cpu_left = a.service;
                self.active_cpu_failed = a.failed;
            }
        }
        let t = self.txn_mut(id);
        t.burst_start = now;
        let at = now + t.cpu_left;
        self.cpu_event = self.calendar.schedule(at, Event::CpuDone(id));
        if stage == Stage::Compute {
            // Only a Compute burst accrues effective service (the quantity
            // whose growth makes runner-unsafe priorities fall); Recover
            // bursts leave every cached priority still.
            self.anchor_timed(id);
        }
        Started::Scheduled
    }

    /// Wound-wait decision for one (requester, holder) pair: `true` means
    /// abort the holder, `false` means the requester waits.
    ///
    /// Normally this is the policy's priority order ([`Self::outranks`]).
    /// Livelock escalation overrides it: once either side has been aborted
    /// `starvation_threshold` times, the comparison switches to pure
    /// **age** (arrival time, then id — classic timestamp wound-wait).
    /// Age is abort-invariant, so the order is stable: the oldest
    /// escalated transaction can never lose again and runs to commit,
    /// then the next, and so on. Continuous-evaluation policies like LSF
    /// need this: a freshly restarted transaction always has the least
    /// slack, so without escalation two victims abort each other forever
    /// (any restart-count-based order re-livelocks, because the counts
    /// change as a result of the comparison). The paper's policies never
    /// reach the threshold (asserted in tests).
    fn beats(&mut self, requester: TxnId, holder: TxnId) -> bool {
        let threshold = self.cfg.system.starvation_threshold;
        let (r_restarts, r_age) = {
            let r = self.txn(requester);
            (r.restarts, (r.arrival, r.id))
        };
        let (h_restarts, h_age) = {
            let h = self.txn(holder);
            (h.restarts, (h.arrival, h.id))
        };
        if r_restarts >= threshold || h_restarts >= threshold {
            self.metrics.record_starvation_shield();
            return r_age < h_age; // older wins
        }
        self.outranks(requester, holder)
    }

    /// Does `requester` strictly outrank `holder` in the current priority
    /// order (priority, then earlier arrival, then smaller id)?
    ///
    /// A wound/wait decision is a scheduling decision: it must see
    /// **exact** priorities, not the stale-high upper bounds a surviving
    /// `ConflictState` cache entry may hold under lazy falls.
    fn outranks(&self, requester: TxnId, holder: TxnId) -> bool {
        let pr = self.priority_exact(requester);
        let ph = self.priority_exact(holder);
        let (r, h) = (self.txn(requester), self.txn(holder));
        (pr, std::cmp::Reverse(r.arrival), std::cmp::Reverse(r.id))
            > (ph, std::cmp::Reverse(h.arrival), std::cmp::Reverse(h.id))
    }

    /// Wake every transaction lock-waiting on one of `items` (released by a
    /// commit or an abort): "all transactions blocked by the resources that
    /// currently running transaction hold wake up and move to ready queue."
    fn wake_waiters(&mut self, items: &[rtx_preanalysis::sets::ItemId]) {
        if items.is_empty() {
            return;
        }
        for idx in 0..self.active.len() {
            let id = self.active[idx];
            let t = self.txn(id);
            if t.state == TxnState::LockWait && t.waiting_for.is_some_and(|w| items.contains(&w)) {
                self.set_state(id, TxnState::Ready);
                self.txn_mut(id).waiting_for = None;
            }
        }
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

    /// Abort `victim`: release locks, reset execution, restart from
    /// scratch. The victim keeps its deadline (soft real time).
    fn abort(&mut self, victim: TxnId) {
        assert_ne!(self.running, Some(victim), "the runner cannot be aborted");
        let held = self.locks.held_by(victim);
        let released = self.locks.release_all(victim);
        debug_assert!(released > 0, "victims always hold at least one lock");
        self.wake_waiters(&held);
        let was_secondary = self.secondary[victim.0 as usize];
        self.metrics.record_restart(was_secondary);
        self.secondary[victim.0 as usize] = false;
        // Victims always hold locks (asserted above), so the victim is on
        // the P-list and leaves it now; its access sets clear and a
        // narrowed mightaccess re-widens.
        self.conflict_cleared(victim);
        let state = self.txn(victim).state;
        match state {
            TxnState::Ready => {
                self.txn_mut(victim).reset_for_restart();
            }
            TxnState::LockWait => {
                // The victim was itself waiting for a lock; it restarts
                // from scratch and re-enters the ready queue.
                self.txn_mut(victim).reset_for_restart();
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
                self.txn_mut(victim).reset_for_restart();
                self.set_state(victim, TxnState::Ready);
            }
            TxnState::IoActive => {
                // "not deleted until it releases the disk" — hold time
                // from here on is wasted and attributed when it releases.
                let now = self.now();
                let t = self.txn_mut(victim);
                t.reset_for_restart();
                t.doomed = true;
                t.doomed_at = now;
            }
            TxnState::IoBackoff => {
                // Waiting out a retry backoff: off the disk, so it can
                // restart immediately. Bumping the token invalidates the
                // pending IoRetry event.
                let t = self.txn_mut(victim);
                t.reset_for_restart();
                t.retry_token += 1;
                self.set_state(victim, TxnState::Ready);
            }
            TxnState::Running | TxnState::Committed | TxnState::Rejected => {
                unreachable!("abort of a {state:?} transaction")
            }
        }
        // `reset_for_restart` (every arm above) re-widens `might_access`
        // and zeroes progress: refresh the reverse index and the slack key.
        self.accel
            .reindex(victim, &self.txns[victim.0 as usize].might_access);
        self.slack_upsert(victim);
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
        let held = self.locks.held_by(id);
        self.locks.release_all(id);
        self.wake_waiters(&held);
        // The committer leaves the P-list (a zero-update transaction was
        // never on it) and stops being anyone's rollback victim.
        if self.txn(id).is_partially_executed() {
            self.conflict_cleared(id);
        }
        self.set_state(id, TxnState::Committed);
        let t = self.txn_mut(id);
        t.finish = Some(now);
        t.accessed.clear();
        let (arrival, deadline, class) = (t.arrival, t.deadline, t.criticality);
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
        let restarts = self.txn(id).restarts;
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
        self.active.retain(|&a| a != id);
        self.accel.drop_index(id);
        if self.heap_in_use() {
            self.index.borrow_mut().remove(id);
        }
        let band = SlackBands::band_of(self.txn(id).deadline);
        self.slack.borrow_mut().remove(band, id);
        // Departed for good: recycle the committed transaction's arena
        // slot (its id-keyed cache entries die of unreachability).
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
        let hits0 = self.priority_cache_hits.get();
        let pairs0 = self.accel.pair_checks();
        let invalidations0 = self.accel.pair_invalidations();
        self.reschedule_inner();
        let evals = self.priority_evals.get() - evals0;
        let cache_hits = self.priority_cache_hits.get() - hits0;
        let pair_checks = self.accel.pair_checks() - pairs0;
        let invalidations = self.accel.pair_invalidations() - invalidations0;
        self.emit(|| TraceEvent::SchedulerPass {
            evals,
            cache_hits,
            pair_checks,
            invalidations,
        });
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
                    self.secondary[id.0 as usize] = secondary;
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

    fn pick_next_inner(&self) -> Option<(TxnId, bool)> {
        if self.mode == CacheMode::Verify {
            self.verify_surviving_entries();
        }
        if self.heap_in_use() {
            return self.pick_next_heap();
        }
        if self.slack_in_use() {
            return self.pick_next_slack();
        }
        let th = self.best_by_priority(self.active.iter().copied())?;
        if self.txn(th).is_runnable() {
            return Some((th, false));
        }
        // TH is blocked on IO: IOwait-schedule. With nothing Ready and
        // nothing Running there is no candidate — skip the filtered scan
        // (pure short-circuit; the scan below would also find nobody).
        if self.mode != CacheMode::AlwaysRecompute
            && self.ready_count == 0
            && self.running.is_none()
        {
            return None;
        }
        let candidates = self
            .active
            .iter()
            .copied()
            .filter(|&id| self.txn(id).is_runnable())
            .filter(|&id| !self.policy.iowait_restrict() || self.compatible_with_plist(id));
        self.best_by_priority(candidates).map(|id| (id, true))
    }

    /// The split-index pick: TH from the validated argmax over both
    /// halves, then the IOwait-schedule fallback through the same argmax
    /// restricted to runnable (and, when the policy asks, P-list-
    /// compatible) transactions.
    fn pick_next_heap(&self) -> Option<(TxnId, bool)> {
        let th = self.split_best(|_| true);
        if self.mode == CacheMode::Verify {
            self.verify_checks.set(self.verify_checks.get() + 1);
            let oracle = self.fresh_best(|_| true);
            assert_eq!(
                th, oracle,
                "split-index TH pick diverged from the fresh scan"
            );
        }
        let Some(th) = th else {
            debug_assert!(self.active.is_empty(), "index lost an active entry");
            return None;
        };
        if self.runnable_tag(th) {
            return Some((th, false));
        }
        // TH blocked on IO: IOwait-schedule (same short-circuit as the
        // scan path — with nothing Ready and nothing Running the filtered
        // argmax would also find nobody).
        if self.ready_count == 0 && self.running.is_none() {
            return None;
        }
        let restrict = self.policy.iowait_restrict();
        let pick = self.split_best(|id| {
            self.runnable_tag(id) && (!restrict || self.compatible_with_plist(id))
        });
        if self.mode == CacheMode::Verify {
            self.verify_checks.set(self.verify_checks.get() + 1);
            let oracle = self.fresh_best(|id| {
                self.txn(id).is_runnable() && (!restrict || self.fresh_compatible(id))
            });
            assert_eq!(
                pick, oracle,
                "split-index IOwait pick diverged from the fresh scan"
            );
        }
        pick.map(|id| (id, true))
    }

    /// The validated argmax over both index halves.
    ///
    /// Every stored key is an **upper bound** on its transaction's exact
    /// priority — a free key directly (it is bit-identical to the cached
    /// value), a timed key through the falling effective bound
    /// [`Self::timed_effective`]. Each round peeks the two half-maxima,
    /// takes the larger *effective* tuple, pops it, and validates it by
    /// exact recomputation ([`Self::priority_exact_detached`] — the entry
    /// is out of the index, so the loop re-parks it itself under its
    /// refreshed key and half). The moment the best validated exact tuple
    /// beats the top effective tuple, no un-popped entry can win (its
    /// exact sits at or below its own effective bound, which sits at or
    /// below the top's), and the argmax is settled; the composite
    /// `(Priority, Reverse(arrival), Reverse(id))` tuple ends in the id,
    /// so cross-transaction ties cannot occur. Entries `accept` rejects
    /// are parked unchanged — acceptability does not read priorities.
    ///
    /// Each entry pops at most once per pick, so a pick costs
    /// O(validations · log n); `heap_stale_pops` counts the validations
    /// that did *not* settle the pick (validations − 1).
    fn split_best(&self, accept: impl Fn(TxnId) -> bool) -> Option<TxnId> {
        use std::cmp::Reverse;
        let a = self.fall_offset_now();
        // Fast path: a free-half combined top that validates bit-exactly
        // settles the argmax with zero heap mutation — every other
        // entry's effective bound sits at or below the top's, and the
        // composite tuple already broke ties. This is the steady-state
        // common case (fresh keys, one peek + one validation per pick);
        // a timed top never bit-confirms (its bound carries a nudge), so
        // it takes the general loop below.
        {
            let top = {
                let index = self.index.borrow();
                let free = index.peek(Half::Free).map(|e| (e.pri, e.arrival, e.id));
                let timed = index
                    .peek(Half::Timed)
                    .map(|e| (self.timed_effective(e.pri, a), e.arrival, e.id));
                match (free, timed) {
                    (Some(f), None) => Some(f),
                    (Some(f), Some(t)) => {
                        if (f.0, Reverse(f.1), Reverse(f.2)) > (t.0, Reverse(t.1), Reverse(t.2)) {
                            Some(f)
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            };
            if let Some((eff, _, id)) = top {
                if accept(id) {
                    let exact = self.priority_exact_detached(id);
                    if exact.0.to_bits() == eff.0.to_bits() {
                        self.heap_validated_picks
                            .set(self.heap_validated_picks.get() + 1);
                        return Some(id);
                    }
                    // Stale: the cache now holds the exact value while
                    // the key still holds the old bound — the loop below
                    // re-pops this same top (a cache-confirmed
                    // revalidation) and re-parks it under its exact key,
                    // restoring the paired-writes invariant before the
                    // pick returns.
                }
            }
        }
        let mut scratch = self.scratch.borrow_mut();
        debug_assert!(scratch.is_empty());
        let mut best: Option<(Priority, SimTime, TxnId)> = None;
        let mut validations: u64 = 0;
        loop {
            let top = {
                let index = self.index.borrow();
                let free = index.peek(Half::Free).map(|e| (e.pri, e, Half::Free));
                let timed = index
                    .peek(Half::Timed)
                    .map(|e| (self.timed_effective(e.pri, a), e, Half::Timed));
                match (free, timed) {
                    (None, None) => None,
                    (Some(x), None) | (None, Some(x)) => Some(x),
                    (Some(f), Some(t)) => {
                        let ft = (f.0, Reverse(f.1.arrival), Reverse(f.1.id));
                        let tt = (t.0, Reverse(t.1.arrival), Reverse(t.1.id));
                        Some(if ft > tt { f } else { t })
                    }
                }
            };
            let Some((eff, entry, half)) = top else {
                break;
            };
            if let Some((bp, ba, bi)) = best {
                if (bp, Reverse(ba), Reverse(bi)) > (eff, Reverse(entry.arrival), Reverse(entry.id))
                {
                    break;
                }
            }
            let id = entry.id;
            self.index.borrow_mut().remove(id);
            if !accept(id) {
                // A lifted free-half conflicter re-parks into the timed
                // half (bound carried over, now falling): frozen at its
                // stale key it would stick above the falling band and be
                // lifted again at every subsequent pick.
                let parked = if half == Half::Free && self.fall_rate > 0.0 {
                    match self.timed_target() {
                        Some(r) if r != id && self.accel.is_unsafe(self.txn(r), self.txn(id)) => {
                            let key = Priority(nudge_up(entry.pri.0 + a, entry.pri.0.abs().max(a)));
                            (HeapEntry { pri: key, ..entry }, Half::Timed)
                        }
                        _ => (entry, half),
                    }
                } else {
                    (entry, half)
                };
                scratch.push(parked);
                continue;
            }
            let exact = self.priority_exact_detached(id);
            validations += 1;
            debug_assert!(
                exact <= eff,
                "{id}: index key was not an upper bound ({} half, eff {} < exact {})",
                if half == Half::Timed { "timed" } else { "free" },
                eff.0,
                exact.0
            );
            let (key, new_half) = self.entry_key_for(id, exact);
            scratch.push((
                HeapEntry {
                    pri: key,
                    arrival: entry.arrival,
                    id,
                },
                new_half,
            ));
            self.heap_pushes.set(self.heap_pushes.get() + 1);
            let better = match best {
                None => true,
                Some((bp, ba, bi)) => {
                    (exact, Reverse(entry.arrival), Reverse(id)) > (bp, Reverse(ba), Reverse(bi))
                }
            };
            if better {
                best = Some((exact, entry.arrival, id));
            }
        }
        {
            let mut index = self.index.borrow_mut();
            for (e, h) in scratch.drain(..) {
                index.insert(h, e);
            }
        }
        if best.is_some() {
            self.heap_validated_picks
                .set(self.heap_validated_picks.get() + 1);
            self.heap_stale_pops
                .set(self.heap_stale_pops.get() + validations.saturating_sub(1));
        }
        best.map(|(_, _, id)| id)
    }

    /// The slack-index pick for `TimeAndSelf` policies: every priority
    /// advances with the clock at the same unit rate (`priority ≈
    /// now_ms + K`, with `K` the policy's time-invariant key), so ordering the
    /// stored keys orders the priorities at any instant. The validated-
    /// argmax protocol of [`Self::split_best`] applies with the effective
    /// bound `nudge_up(now_ms + K, S_b)` — each deadline band's scale
    /// `S_b` is shared by all its entries, keeping the bounds monotone
    /// in `K` *within* the band, and the pick takes the max effective
    /// tuple across band tops, so the break condition stays sound.
    fn pick_next_slack(&self) -> Option<(TxnId, bool)> {
        let th = self.slack_best(|_| true);
        if self.mode == CacheMode::Verify {
            self.verify_checks.set(self.verify_checks.get() + 1);
            let oracle = self.fresh_best(|_| true);
            assert_eq!(
                th, oracle,
                "slack-index TH pick diverged from the fresh scan"
            );
        }
        let Some(th) = th else {
            debug_assert!(self.active.is_empty(), "slack index lost an active entry");
            return None;
        };
        if self.runnable_tag(th) {
            return Some((th, false));
        }
        if self.ready_count == 0 && self.running.is_none() {
            return None;
        }
        let restrict = self.policy.iowait_restrict();
        let pick = self.slack_best(|id| {
            self.runnable_tag(id) && (!restrict || self.compatible_with_plist(id))
        });
        if self.mode == CacheMode::Verify {
            self.verify_checks.set(self.verify_checks.get() + 1);
            let oracle = self.fresh_best(|id| {
                self.txn(id).is_runnable() && (!restrict || self.fresh_compatible(id))
            });
            assert_eq!(
                pick, oracle,
                "slack-index IOwait pick diverged from the fresh scan"
            );
        }
        pick.map(|id| (id, true))
    }

    /// [`Self::split_best`]'s protocol over the banded slack index.
    /// Each round takes the max *effective* tuple over the band tops —
    /// every unpopped entry is dominated by its own band's top under
    /// that band's scale — pops it, and validates it by exact
    /// recomputation. Validated entries re-park under their *unchanged*
    /// key — `K` moves only on own-state events, never inside a pick —
    /// and validation itself is a [`Self::priority_of`] call, which is
    /// exact (and cached at this instant) for `TimeAndSelf` policies.
    fn slack_best(&self, accept: impl Fn(TxnId) -> bool) -> Option<TxnId> {
        use std::cmp::Reverse;
        let now_ms = self.now().as_ms();
        let mut scratch = self.slack_scratch.borrow_mut();
        debug_assert!(scratch.is_empty());
        let mut best: Option<(Priority, SimTime, TxnId)> = None;
        let mut validations: u64 = 0;
        loop {
            let top = {
                let slack = self.slack.borrow();
                let mut top: Option<(Priority, HeapEntry, usize)> = None;
                for (b, band) in slack.bands.iter().enumerate() {
                    let Some(e) = band.index.peek() else {
                        continue;
                    };
                    let eff = Priority(nudge_up(now_ms + e.pri.0, band.eff_scale(now_ms)));
                    let better = match &top {
                        None => true,
                        Some((teff, te, _)) => {
                            (eff, Reverse(e.arrival), Reverse(e.id))
                                > (*teff, Reverse(te.arrival), Reverse(te.id))
                        }
                    };
                    if better {
                        top = Some((eff, e, b));
                    }
                }
                top
            };
            let Some((eff, entry, band)) = top else {
                break;
            };
            if let Some((bp, ba, bi)) = best {
                if (bp, Reverse(ba), Reverse(bi)) > (eff, Reverse(entry.arrival), Reverse(entry.id))
                {
                    break;
                }
            }
            let id = entry.id;
            self.slack.borrow_mut().remove(band, id);
            scratch.push((entry, band));
            if !accept(id) {
                continue;
            }
            let exact = self.priority_of(id);
            validations += 1;
            debug_assert!(
                exact <= eff,
                "{id}: slack key was not an upper bound (eff {} < exact {})",
                eff.0,
                exact.0
            );
            let better = match best {
                None => true,
                Some((bp, ba, bi)) => {
                    (exact, Reverse(entry.arrival), Reverse(id)) > (bp, Reverse(ba), Reverse(bi))
                }
            };
            if better {
                best = Some((exact, entry.arrival, id));
            }
        }
        {
            let mut slack = self.slack.borrow_mut();
            for (e, b) in scratch.drain(..) {
                slack.upsert(b, e);
            }
        }
        if best.is_some() {
            self.heap_validated_picks
                .set(self.heap_validated_picks.get() + 1);
            self.heap_stale_pops
                .set(self.heap_stale_pops.get() + validations.saturating_sub(1));
        }
        best.map(|(_, _, id)| id)
    }

    /// The scan the `Verify` heap asserts against: fresh (memo-free)
    /// priorities over `active` with the scan tie-break, restricted by
    /// `filter`.
    fn fresh_best(&self, filter: impl Fn(TxnId) -> bool) -> Option<TxnId> {
        let view = self.fresh_view();
        let mut best: Option<(Priority, SimTime, TxnId)> = None;
        for &id in &self.active {
            if !filter(id) {
                continue;
            }
            let t = self.txn(id);
            let pri = self.policy.priority(t, &view);
            let better = match &best {
                None => true,
                Some((bp, ba, bi)) => {
                    (pri, std::cmp::Reverse(t.arrival), std::cmp::Reverse(t.id))
                        > (*bp, std::cmp::Reverse(*ba), std::cmp::Reverse(*bi))
                }
            };
            if better {
                best = Some((pri, t.arrival, id));
            }
        }
        best.map(|(_, _, id)| id)
    }

    /// Memo-free IOwait compatibility (the `Verify` oracle's filter).
    fn fresh_compatible(&self, id: TxnId) -> bool {
        let candidate = self.txn(id);
        self.active
            .iter()
            .filter(|&&p| p != id)
            .map(|&p| self.txn(p))
            .filter(|p| p.is_partially_executed())
            .all(|p| !candidate.conflicts_with(p))
    }

    /// `Verify`: every cache entry that *survived* invalidation (would be
    /// a hit under the policy's declared deps) must still satisfy what the
    /// cache claims for it — bit-identity for `Static`/`TimeAndSelf`, the
    /// upper-bound invariant for `ConflictState` (lazy falls leave
    /// stale-high survivors by design; a survivor *below* the fresh value
    /// means a priority rise escaped the clear walk, which would make the
    /// heap's pop order unsound). Checked at every pick rather than at
    /// the entry's next (possibly much later) use.
    fn verify_surviving_entries(&self) {
        let deps = self.policy.depends_on();
        if deps == PriorityDeps::Volatile {
            return;
        }
        let view = self.fresh_view();
        let now = self.now();
        for &id in &self.active {
            let s = self.accel.slot(id);
            let hit = s.pri_valid()
                && match deps {
                    PriorityDeps::Static => true,
                    PriorityDeps::TimeAndSelf => s.pri_at == now && s.pri_own == s.own_version,
                    PriorityDeps::ConflictState { .. } => {
                        s.pri_stamp == s.pair_stamp && s.pri_own == s.own_version
                    }
                    PriorityDeps::Volatile => unreachable!("handled above"),
                };
            if hit {
                let fresh = self.policy.priority(self.txn(id), &view);
                self.verify_checks.set(self.verify_checks.get() + 1);
                if matches!(deps, PriorityDeps::ConflictState { .. }) {
                    assert!(
                        s.pri_value >= fresh,
                        "{id}: surviving cache entry {} < fresh {} \
                         (a priority rise escaped the clear walk)",
                        s.pri_value.0,
                        fresh.0
                    );
                } else {
                    assert_eq!(
                        s.pri_value.0.to_bits(),
                        fresh.0.to_bits(),
                        "{id}: surviving cache entry {} != fresh {} (invalidation too narrow)",
                        s.pri_value.0,
                        fresh.0
                    );
                }
            }
        }
        // Index-soundness oracles. Free-half keys must be bit-identical
        // to their cache entries; every timed-half *effective* bound and
        // every slack-index effective bound must dominate the fresh
        // priority — exactly what the validated-argmax picks rely on.
        if self.heap_in_use() {
            let a = self.fall_offset_now();
            let index = self.index.borrow();
            for e in index.entries(Half::Free) {
                self.verify_checks.set(self.verify_checks.get() + 1);
                assert_eq!(
                    e.pri.0.to_bits(),
                    self.accel.slot(e.id).pri_value.0.to_bits(),
                    "{}: free-half key and cached priority disagree",
                    e.id
                );
            }
            for e in index.entries(Half::Timed) {
                let fresh = self.policy.priority(self.txn(e.id), &view);
                self.verify_checks.set(self.verify_checks.get() + 1);
                assert!(
                    self.timed_effective(e.pri, a) >= fresh,
                    "{}: timed-half effective bound {} < fresh {}",
                    e.id,
                    self.timed_effective(e.pri, a).0,
                    fresh.0
                );
            }
        }
        if self.slack_in_use() {
            let now_ms = now.as_ms();
            let slack = self.slack.borrow();
            for (b, band) in slack.bands.iter().enumerate() {
                let scale = band.eff_scale(now_ms);
                for e in band.index.entries() {
                    let t = self.txn(e.id);
                    debug_assert_eq!(
                        b,
                        SlackBands::band_of(t.deadline),
                        "{}: slack entry in the wrong deadline band",
                        e.id
                    );
                    let k = self
                        .policy
                        .time_invariant_key(t)
                        .expect("slack-indexed policy stopped exposing keys");
                    let fresh = self.policy.priority(t, &view);
                    self.verify_checks.set(self.verify_checks.get() + 2);
                    assert_eq!(
                        e.pri.0.to_bits(),
                        k.to_bits(),
                        "{}: slack key diverged from the policy's current key",
                        e.id
                    );
                    assert!(
                        Priority(nudge_up(now_ms + e.pri.0, scale)) >= fresh,
                        "{}: slack effective bound {} < fresh {}",
                        e.id,
                        nudge_up(now_ms + e.pri.0, scale),
                        fresh.0
                    );
                }
            }
        }
    }

    /// Highest-priority transaction among `ids` (priorities via the
    /// cache-mode-aware [`Self::priority_of`]); ties broken by earlier
    /// arrival, then smaller id (deterministic).
    fn best_by_priority(&self, ids: impl Iterator<Item = TxnId>) -> Option<TxnId> {
        let mut best: Option<(Priority, SimTime, TxnId)> = None;
        for id in ids {
            let t = self.txn(id);
            debug_assert!(t.is_active());
            let pri = self.priority_of(id);
            let better = match &best {
                None => true,
                Some((bp, ba, bi)) => {
                    (pri, std::cmp::Reverse(t.arrival), std::cmp::Reverse(t.id))
                        > (*bp, std::cmp::Reverse(*ba), std::cmp::Reverse(*bi))
                }
            };
            if better {
                best = Some((pri, t.arrival, id));
            }
        }
        best.map(|(_, _, id)| id)
    }

    /// §3.3.3 `IOwait-schedule` filter: true iff `id` neither conflicts nor
    /// conditionally conflicts with **any** partially executed transaction.
    /// For the paper's straight-line write-only workload this is the
    /// oracle test `mightaccess(candidate) ∩ mightaccess(partial) = ∅`;
    /// with shared locks only write-involved overlaps count.
    ///
    /// Incrementally: iterate the maintained P-list (same transactions,
    /// same ascending-id order as the `active` scan) with memoized pair
    /// verdicts.
    fn compatible_with_plist(&self, id: TxnId) -> bool {
        let candidate = self.txn(id);
        match self.mode {
            CacheMode::AlwaysRecompute => self
                .active
                .iter()
                .filter(|&&p| p != id)
                .map(|&p| self.txn(p))
                .filter(|p| p.is_partially_executed())
                .all(|p| !candidate.conflicts_with(p)),
            CacheMode::Verify => {
                // One pass over `active` yields both answers: filtering it
                // by `is_partially_executed` visits exactly the maintained
                // P-list in the same ascending-id order (that identity is
                // itself asserted in `update_queue_metrics` and
                // `validate_state`), so each pair can be checked memoized
                // vs fresh as it streams by instead of scanning twice.
                let mut compatible = true;
                for &p in &self.active {
                    if p == id {
                        continue;
                    }
                    let partial = self.txn(p);
                    if !partial.is_partially_executed() {
                        continue;
                    }
                    let memoized = self.accel.conflicts(candidate, partial);
                    let fresh = candidate.conflicts_with(partial);
                    self.verify_checks.set(self.verify_checks.get() + 1);
                    assert_eq!(
                        memoized, fresh,
                        "{id}: memoized pair verdict against {p} diverged"
                    );
                    compatible &= !memoized;
                }
                compatible
            }
            CacheMode::Incremental => self
                .accel
                .plist()
                .iter()
                .filter(|&&p| p != id)
                .all(|&p| !self.accel.conflicts(candidate, self.txn(p))),
        }
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
                // No own-version bump: at this fixed instant the
                // transaction's *effective* service is unchanged — the
                // in-flight part of the burst was already accruing
                // continuously (see `Transaction::effective_service`), it
                // merely moves from implicit to banked. Priorities that
                // read effective service (CCA's penalty term) see the
                // same value, so cached entries stay bit-valid.
                t.service += consumed;
                // The anchored span ends with the burst it mirrors.
                self.freeze_timed();
            }
            self.set_state(r, TxnState::Ready);
            self.metrics.add_cpu_busy(consumed);
            // A pending stall verdict belonged to the burst as placed;
            // the resumed remainder draws its own attempt.
            self.active_cpu_failed = false;
        }
    }

    fn update_queue_metrics(&mut self) {
        let now = self.now();
        let (plist, ready) = match self.mode {
            CacheMode::AlwaysRecompute => {
                let plist = self
                    .active
                    .iter()
                    .filter(|&&id| self.txn(id).is_partially_executed())
                    .count();
                let ready = self
                    .active
                    .iter()
                    .filter(|&&id| self.txn(id).state == TxnState::Ready)
                    .count();
                (plist, ready)
            }
            _ => {
                if self.mode == CacheMode::Verify {
                    let plist_scan = self
                        .active
                        .iter()
                        .filter(|&&id| self.txn(id).is_partially_executed())
                        .count();
                    let ready_scan = self
                        .active
                        .iter()
                        .filter(|&&id| self.txn(id).state == TxnState::Ready)
                        .count();
                    self.verify_checks.set(self.verify_checks.get() + 2);
                    assert_eq!(self.accel.plist_len(), plist_scan, "P-list count diverged");
                    assert_eq!(self.ready_count, ready_scan, "ready count diverged");
                }
                (self.accel.plist_len(), self.ready_count)
            }
        };
        self.metrics.set_plist_len(now, plist);
        self.metrics.set_ready_len(now, ready);
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
        // Abort the *youngest* cycle member. This must agree with the
        // starvation escalation's age order: the oldest transaction never
        // loses a conflict (there and here), so it monotonically advances
        // to commit and the population drains — choosing the victim by
        // policy priority instead can re-select the same starved victim
        // forever under continuous-evaluation policies.
        let victim = cycle
            .iter()
            .copied()
            .max_by_key(|&id| {
                let t = self.txn(id);
                (t.arrival, t.id)
            })
            .expect("cycle is non-empty");
        self.metrics.record_deadlock_resolution();
        self.emit(|| TraceEvent::DeadlockResolved { victim });
        self.abort(victim);
        self.update_queue_metrics();
        self.reschedule();
    }

    /// Expensive cross-structure consistency check, used by tests.
    fn validate_state(&self) {
        self.locks.check_invariants().expect("lock table corrupt");
        // Every active transaction's accessed set matches its held locks.
        for &id in &self.active {
            let t = self.txn(id);
            let held = self.locks.held_by(id);
            assert_eq!(
                held.len(),
                t.accessed.len(),
                "{id}: accessed set and lock table disagree"
            );
            for item in held {
                assert!(t.accessed.contains(item));
            }
            // No transaction waits for a lock: HP has no lock wait, so a
            // Ready transaction is always immediately dispatchable.
            if t.state == TxnState::Running {
                assert_eq!(self.running, Some(id));
            }
        }
        // Committed and rejected transactions hold nothing.
        for t in &self.txns {
            if matches!(t.state, TxnState::Committed | TxnState::Rejected) {
                assert!(self.locks.held_by(t.id).is_empty());
            }
        }
        // The maintained P-list and ready counter (kept in every cache
        // mode) agree with full scans.
        let plist_scan: Vec<TxnId> = self
            .active
            .iter()
            .copied()
            .filter(|&id| self.txn(id).is_partially_executed())
            .collect();
        assert_eq!(
            self.accel.plist(),
            plist_scan.as_slice(),
            "maintained P-list diverged from scan"
        );
        assert!(
            self.accel.plist().windows(2).all(|w| w[0] < w[1]),
            "P-list not strictly id-sorted"
        );
        let ready_scan = self
            .active
            .iter()
            .filter(|&&id| self.txn(id).state == TxnState::Ready)
            .count();
        assert_eq!(self.ready_count, ready_scan, "ready counter diverged");
        // The dense state-tag vector mirrors the authoritative per-
        // transaction state exactly (every id, not just active ones).
        assert_eq!(self.state_tags.len(), self.txns.len(), "tag vector size");
        for (i, t) in self.txns.iter().enumerate() {
            assert_eq!(self.state_tags[i], t.state, "state tag diverged at txn {i}");
        }
        // The priority index holds exactly one entry per active
        // transaction, keyed bit-identically to its cached value.
        if self.heap_in_use() {
            let index = self.index.borrow();
            assert_eq!(index.len(), self.active.len(), "index size diverged");
            let a = self.fall_offset_now();
            let view = self.fresh_view();
            for &id in &self.active {
                let (key, half) = index.key_of(id).expect("active but not indexed");
                match half {
                    Half::Free => assert_eq!(
                        key.0.to_bits(),
                        self.accel.slot(id).pri_value.0.to_bits(),
                        "{id}: free-half key and cached priority disagree"
                    ),
                    Half::Timed => {
                        // Timed keys exist only under a positive fall
                        // rate, and their effective bound must dominate
                        // the exact priority at all times.
                        assert!(
                            self.fall_rate > 0.0,
                            "{id}: timed entry with zero fall rate"
                        );
                        let fresh = self.policy.priority(self.txn(id), &view);
                        assert!(
                            self.timed_effective(key, a) >= fresh,
                            "{id}: timed-half effective bound {} < fresh {}",
                            self.timed_effective(key, a).0,
                            fresh.0
                        );
                    }
                }
            }
        }
        // The slack index, when it is the pick path, covers the active
        // set exactly and every key matches the policy's current value.
        if self.slack_in_use() {
            let slack = self.slack.borrow();
            for &id in &self.active {
                let b = SlackBands::band_of(self.txn(id).deadline);
                let key = slack.key_of(b, id).expect("active but not slack-indexed");
                let k = self
                    .policy
                    .time_invariant_key(self.txn(id))
                    .expect("slack-indexed policy stopped exposing keys");
                assert_eq!(
                    key.0.to_bits(),
                    k.to_bits(),
                    "{id}: slack key diverged from the policy's current key"
                );
            }
        }
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
    run_simulation_with(cfg, policy, |_| {})
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
    run_simulation_opts(cfg, policy, mode, false, |_| {})
}

/// As [`run_simulation`], additionally measuring wall-clock time spent in
/// the scheduler (`RunSummary::sched.sched_wall_ns`). Kept out of the
/// default path so normal summaries never carry machine-dependent values.
pub fn run_simulation_profiled(cfg: &SimConfig, policy: &dyn Policy) -> RunSummary {
    run_simulation_opts(cfg, policy, CacheMode::Incremental, true, |_| {})
}

/// As [`run_simulation_profiled`] under an explicit [`CacheMode`] — the
/// benchmark harness runs this once incrementally and once with
/// [`CacheMode::AlwaysRecompute`] to report the speedup.
pub fn run_simulation_profiled_with_mode(
    cfg: &SimConfig,
    policy: &dyn Policy,
    mode: CacheMode,
) -> RunSummary {
    run_simulation_opts(cfg, policy, mode, true, |_| {})
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
    let mut st = EngineState::new(cfg, policy);
    st.mode = mode;
    drive(&mut st, source, expected, |_| {}).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`run_simulation`], but with every failure mode typed instead of
/// panicking: an invalid configuration and a tripped watchdog both come
/// back as a [`RunError`]. This is what the hardened replication runner
/// calls per seed.
pub fn run_simulation_checked(
    cfg: &SimConfig,
    policy: &dyn Policy,
) -> Result<RunSummary, RunError> {
    run_simulation_checked_mode(cfg, policy, CacheMode::Incremental)
}

/// As [`run_simulation_checked`] under an explicit [`CacheMode`] — the
/// replication runner's whole-suite equivalence sweeps thread the mode
/// override through here.
pub fn run_simulation_checked_mode(
    cfg: &SimConfig,
    policy: &dyn Policy,
    mode: CacheMode,
) -> Result<RunSummary, RunError> {
    cfg.validate()?;
    poison_check(cfg);
    let seeder = StreamSeeder::new(cfg.run.seed);
    let table = TypeTable::generate(cfg, &seeder);
    let mut generator = ArrivalGenerator::new(cfg, &table, &seeder);
    let mut st = EngineState::new(cfg, policy);
    st.mode = mode;
    let expected = cfg.run.num_transactions;
    drive(&mut st, &mut generator, expected, |_| {})
}

/// The `poison_seed` test hook: force a panic for one specific seed so the
/// runner-hardening tests can verify panic isolation.
fn poison_check(cfg: &SimConfig) {
    if cfg.run.poison_seed == Some(cfg.run.seed) {
        panic!("poisoned seed {} (test hook)", cfg.run.seed);
    }
}

/// As [`run_simulation`], additionally invoking `inspect` with the engine
/// state after every event — used by tests to assert run-time invariants.
fn run_simulation_with(
    cfg: &SimConfig,
    policy: &dyn Policy,
    inspect: impl FnMut(&EngineState<'_>),
) -> RunSummary {
    run_simulation_opts(cfg, policy, CacheMode::Incremental, false, inspect)
}

/// The common generator-driven entry point: cache mode, profiling and an
/// inspection hook.
fn run_simulation_opts(
    cfg: &SimConfig,
    policy: &dyn Policy,
    mode: CacheMode,
    profile: bool,
    inspect: impl FnMut(&EngineState<'_>),
) -> RunSummary {
    cfg.validate().expect("invalid simulation configuration");
    poison_check(cfg);
    let seeder = StreamSeeder::new(cfg.run.seed);
    let table = TypeTable::generate(cfg, &seeder);
    let mut generator = ArrivalGenerator::new(cfg, &table, &seeder);
    let mut st = EngineState::new(cfg, policy);
    st.mode = mode;
    st.profile = profile;
    let expected = cfg.run.num_transactions;
    drive(&mut st, &mut generator, expected, inspect).unwrap_or_else(|e| panic!("{e}"))
}

/// The shared event loop: pump events until all `expected` transactions
/// terminate (commit, or are rejected at admission). The configured
/// watchdog limits, if any, are enforced here.
fn drive(
    st: &mut EngineState<'_>,
    source: &mut dyn TxnSource,
    expected: usize,
    mut inspect: impl FnMut(&EngineState<'_>),
) -> Result<RunSummary, RunError> {
    if let Some(first) = source.next_transaction() {
        st.calendar
            .schedule(first.arrival, Event::Arrival(Box::new(first)));
    }

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
        let fired = match st.calendar.pop() {
            Some(f) => f,
            None => {
                // No future events but uncommitted transactions remain:
                // the system is wedged in a lock-wait cycle (possible
                // under dynamic continuously-evaluated priorities like
                // LSF — §2's "they still have deadlock problems"; never
                // under CCA, Theorem 1). Resolve it and continue.
                st.resolve_deadlock();
                continue;
            }
        };
        // Popping an event advances the simulation clock. A partially
        // executed Compute-stage runner accrues effective service, which
        // can only *lower* ConflictState priorities computed against it —
        // stale-high cache entries and heap keys the pick path's
        // pop-and-revalidate already tolerates, so no invalidation here.
        match fired.payload {
            Event::Arrival(txn) => {
                if let Some(next) = source.next_transaction() {
                    st.calendar
                        .schedule(next.arrival, Event::Arrival(Box::new(next)));
                }
                st.on_arrival(*txn);
            }
            Event::CpuDone(id) => st.on_cpu_done(id),
            Event::IoDone(id) => st.on_io_done(id),
            Event::IoRetry(id, token) => st.on_io_retry(id, token),
            Event::CpuRetry(id, token) => st.on_cpu_retry(id, token),
        }
        inspect(st);
    }

    Ok(st.finish_summary())
}

impl EngineState<'_> {
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
        self.metrics.set_sched_stats(SchedStats {
            pick_next_calls: self.pick_next_calls.get(),
            priority_evals: self.priority_evals.get(),
            priority_cache_hits: self.priority_cache_hits.get(),
            pair_checks: self.accel.pair_checks(),
            pair_cache_hits: self.accel.pair_cache_hits(),
            heap_pushes: self.heap_pushes.get(),
            heap_stale_pops: self.heap_stale_pops.get(),
            heap_validated_picks: self.heap_validated_picks.get(),
            pair_invalidations: self.accel.pair_invalidations(),
            pair_cache_evictions: self.accel.pair_cache_evictions(),
            clear_repair_clears: self.clear_repair_clears.get(),
            clear_repair_visits: self.clear_repair_visits.get(),
            index_migrations: self.index_migrations.get(),
            migrations_batched: self.migrations_batched.get(),
            pair_cache_probes: self.accel.pair_cache_probes(),
            frozen_compactions: self.frozen_compactions.get(),
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
/// The stepping discipline reproduces the batch loop **exactly**: at
/// most one `Arrival` event is in the calendar at a time, and the next
/// queued arrival is scheduled at the moment the previous one fires —
/// the same point in the event-sequence order at which the batch loop
/// pulls its `TxnSource`. Feeding a recorded trace through a
/// `StepEngine` therefore replays the identical event sequence (and
/// produces a bit-identical [`RunSummary`]) as
/// [`run_simulation_from`] over the same transactions; the serving
/// bit-identity test in `tests/serving.rs` pins this.
///
/// Unlike the batch entry points, a `StepEngine` has no preset
/// transaction budget and no watchdog: the caller decides when to stop
/// submitting and when to [`StepEngine::finish`].
pub struct StepEngine<'p> {
    st: EngineState<'p>,
    /// Submitted transactions not yet scheduled into the calendar (the
    /// batch loop's "source", materialized).
    queue: VecDeque<Transaction>,
    /// True while an `Arrival` event sits in the calendar.
    arrival_pending: bool,
    /// Total transactions ever submitted.
    submitted: u64,
    /// Total `Arrival` events processed (≤ `submitted`). A deterministic
    /// position in the event sequence: fault-injection harnesses key
    /// "crash after the Nth arrival" off this counter.
    fired: u64,
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
        Self::with_mode(cfg, policy, CacheMode::Incremental)
    }

    /// As [`StepEngine::new`] under an explicit [`CacheMode`].
    ///
    /// # Errors
    /// Returns the configuration's validation error, if any.
    pub fn with_mode(
        cfg: &'p SimConfig,
        policy: &'p dyn Policy,
        mode: CacheMode,
    ) -> Result<Self, RunError> {
        cfg.validate()?;
        let mut st = EngineState::new(cfg, policy);
        st.mode = mode;
        st.completions = Some(Vec::new());
        Ok(StepEngine {
            st,
            queue: VecDeque::new(),
            arrival_pending: false,
            submitted: 0,
            fired: 0,
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
        self.submitted += 1;
        self.queue.push_back(txn);
        self.pump_arrival();
    }

    /// Schedule the next queued arrival if none is pending — the
    /// stepping analogue of the batch loop pulling its source.
    fn pump_arrival(&mut self) {
        if !self.arrival_pending {
            if let Some(next) = self.queue.pop_front() {
                self.st
                    .calendar
                    .schedule(next.arrival, Event::Arrival(Box::new(next)));
                self.arrival_pending = true;
            }
        }
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
        self.fired
    }

    /// Process one event. Returns `false` iff there was nothing to do —
    /// no pending events and no stuck transactions. (When the calendar
    /// drains while admitted transactions remain blocked, the engine
    /// breaks the lock-wait cycle exactly as the batch loop does and
    /// returns `true`.)
    pub fn step(&mut self) -> bool {
        let fired = match self.st.calendar.pop() {
            Some(f) => f,
            None => {
                if self.st.active.is_empty() {
                    return false;
                }
                // Wedged lock-wait cycle (possible under LSF, never
                // under CCA — Theorem 1): same resolution as `drive`.
                self.st.resolve_deadlock();
                return true;
            }
        };
        match fired.payload {
            Event::Arrival(txn) => {
                self.arrival_pending = false;
                self.fired += 1;
                self.pump_arrival();
                self.st.on_arrival(*txn);
            }
            Event::CpuDone(id) => self.st.on_cpu_done(id),
            Event::IoDone(id) => self.st.on_io_done(id),
            Event::IoRetry(id, token) => self.st.on_io_retry(id, token),
            Event::CpuRetry(id, token) => self.st.on_cpu_retry(id, token),
        }
        true
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
    run_simulation_with(cfg, policy, |st| st.validate_state())
}

/// Run one simulation while recording every scheduling decision.
/// Costs memory proportional to the event count; intended for analysis
/// and small runs, not sweeps.
pub fn run_simulation_traced(cfg: &SimConfig, policy: &dyn Policy) -> (RunSummary, Trace) {
    cfg.validate().expect("invalid simulation configuration");
    poison_check(cfg);
    let seeder = StreamSeeder::new(cfg.run.seed);
    let table = TypeTable::generate(cfg, &seeder);
    let mut generator = ArrivalGenerator::new(cfg, &table, &seeder);
    let mut st = EngineState::new(cfg, policy);
    st.trace = Some(Trace::new());
    let expected = cfg.run.num_transactions;
    let summary =
        drive(&mut st, &mut generator, expected, |_| {}).unwrap_or_else(|e| panic!("{e}"));
    (summary, st.trace.take().expect("trace enabled above"))
}

/// A frozen-system harness for `best_by_priority` micro-benchmarks:
/// builds an engine whose active set is exactly the supplied
/// transactions and exposes the pick path — heap-indexed under
/// [`CacheMode::Incremental`], the verbatim full scan under
/// [`CacheMode::AlwaysRecompute`] — without running any events.
///
/// Bench/test support only. The harness never dispatches the picked
/// transaction, so repeated [`PickHarness::pick`] calls measure the
/// steady-state (warm-cache) cost; call
/// [`PickHarness::invalidate_conflict_caches`] between picks to measure
/// the cold path for `ConflictState` policies (for `Static` policies a
/// valid entry is definitionally never stale, so there is no cold case
/// to measure).
pub struct PickHarness<'p> {
    st: EngineState<'p>,
}

impl<'p> PickHarness<'p> {
    /// Assemble a harness over `txns`, which must carry dense ids
    /// `0..n` in order. Transactions with non-empty `accessed` sets are
    /// registered as P-list members, exactly as if they had grown their
    /// sets inside a run.
    ///
    /// # Panics
    /// Panics if ids are not dense or a transaction is not active.
    pub fn new(
        cfg: &'p SimConfig,
        policy: &'p dyn Policy,
        txns: Vec<Transaction>,
        mode: CacheMode,
    ) -> Self {
        let mut st = EngineState::new(cfg, policy);
        st.mode = mode;
        for txn in txns {
            let id = txn.id;
            assert_eq!(
                id.0 as usize,
                st.txns.len(),
                "transaction ids must be dense"
            );
            assert!(txn.is_active(), "harness transactions must be active");
            st.accel.register(id);
            st.index.borrow_mut().register();
            let partial = txn.is_partially_executed();
            if txn.state == TxnState::Ready {
                st.ready_count += 1;
            }
            st.state_tags.push(txn.state);
            st.txns.push(txn);
            st.secondary.push(false);
            st.active.push(id);
            st.accel.reindex(id, &st.txns[id.0 as usize].might_access);
            if partial {
                st.accel.note_access_growth(id, false);
            }
        }
        // Seed every cache entry and index key, as arrivals do in a run.
        if st.heap_in_use() {
            for i in 0..st.active.len() {
                st.priority_exact(st.active[i]);
            }
        }
        for i in 0..st.active.len() {
            st.slack_upsert(st.active[i]);
        }
        PickHarness { st }
    }

    /// One scheduling decision over the frozen system (see
    /// `pick_next`): the best runnable transaction, or the best
    /// IOwait-compatible one when the policy restricts. Counted in
    /// [`Self::stats`] like any in-run pick.
    pub fn pick(&self) -> Option<(TxnId, bool)> {
        self.st.pick_next()
    }

    /// Invalidate every cached `ConflictState` priority by bumping each
    /// transaction's pair stamp — the cold-cache case. Index keys keep
    /// their (still-correct) values, so the next pick pays exact
    /// revalidation of the entries it actually inspects rather than a
    /// full-system recompute: that asymmetry against the scan oracle is
    /// precisely what the cold benchmark now measures.
    pub fn invalidate_conflict_caches(&mut self) {
        for i in 0..self.st.active.len() {
            let id = self.st.active[i];
            self.st.accel.bump_pair_stamp(id);
        }
    }

    /// The scheduler counters accumulated by this harness's picks
    /// (wall time stays 0: harness runs are never profiled).
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            pick_next_calls: self.st.pick_next_calls.get(),
            priority_evals: self.st.priority_evals.get(),
            priority_cache_hits: self.st.priority_cache_hits.get(),
            pair_checks: self.st.accel.pair_checks(),
            pair_cache_hits: self.st.accel.pair_cache_hits(),
            heap_pushes: self.st.heap_pushes.get(),
            heap_stale_pops: self.st.heap_stale_pops.get(),
            heap_validated_picks: self.st.heap_validated_picks.get(),
            pair_invalidations: self.st.accel.pair_invalidations(),
            pair_cache_evictions: self.st.accel.pair_cache_evictions(),
            clear_repair_clears: self.st.clear_repair_clears.get(),
            clear_repair_visits: self.st.clear_repair_visits.get(),
            index_migrations: self.st.index_migrations.get(),
            migrations_batched: self.st.migrations_batched.get(),
            pair_cache_probes: self.st.accel.pair_cache_probes(),
            frozen_compactions: self.st.frozen_compactions.get(),
            verify_checks: self.st.verify_checks.get(),
            sched_wall_ns: self.st.sched_wall_ns.get(),
        }
    }
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

    #[test]
    fn response_time_at_least_resource_time() {
        // The mean response must exceed the isolated service time of the
        // shortest transaction; sanity for the pipeline accounting.
        let cfg = small_mm(14, 6.0, 100);
        let s = run_simulation(&cfg, &Edf);
        assert!(s.mean_response_ms >= 4.0, "response {}", s.mean_response_ms);
    }
}
