//! The future event list (event calendar).
//!
//! This is the core of the discrete-event kernel — the equivalent of
//! SIMPACK's event list used by the paper's simulator. Events are opaque
//! payloads of type `E` ordered by `(time, sequence)`: simultaneous events
//! fire in the order they were scheduled, which keeps runs deterministic.
//!
//! Cancellation is first-class because the RTDB engine must revoke pending
//! completions whenever a transaction is preempted or aborted: `schedule`
//! returns an [`EventHandle`] and `cancel` lazily tombstones the entry, so
//! both operations stay `O(log n)` amortized. Every event's lifecycle
//! (pending → fired | cancelled) is tracked explicitly, so cancelling an
//! already-fired or already-cancelled handle is a detectable no-op.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Identifies a scheduled event so it can be cancelled later.
///
/// Handles are unique for the lifetime of a [`Calendar`]; cancelling a
/// handle that already fired or was already cancelled is a harmless no-op
/// (and reports `false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    /// A handle that never corresponds to a live event. Useful as an
    /// initializer before the first real schedule.
    pub const NULL: EventHandle = EventHandle(u64::MAX);

    /// True iff this is the null sentinel.
    pub fn is_null(self) -> bool {
        self.0 == u64::MAX
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventState {
    Pending,
    Cancelled,
    Fired,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop earliest first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A fired event, as returned by [`Calendar::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fired<E> {
    /// The simulation time at which the event fires.
    pub time: SimTime,
    /// The handle it was scheduled under.
    pub handle: EventHandle,
    /// The event payload.
    pub payload: E,
}

/// The future event list.
///
/// ```
/// use rtx_sim::calendar::Calendar;
/// use rtx_sim::time::SimTime;
///
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule(SimTime::from_ms(5.0), "b");
/// let h = cal.schedule(SimTime::from_ms(1.0), "a");
/// cal.schedule(SimTime::from_ms(1.0), "a2");
/// assert!(cal.cancel(h));
/// assert_eq!(cal.pop().unwrap().payload, "a2"); // "a" was cancelled
/// assert_eq!(cal.pop().unwrap().payload, "b");
/// assert!(cal.pop().is_none());
/// ```
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Lifecycle state of sequence numbers `base..`, which makes every
    /// state query O(1). The front is trimmed while it is fired or
    /// cancelled, so this spans the oldest pending event to the newest
    /// scheduled one, however many events a long-lived engine has
    /// fired. A sequence number below `base` is done: fired, or cancelled
    /// and at most a tombstone in the heap.
    states: VecDeque<EventState>,
    /// The sequence number of `states[0]`.
    base: u64,
    live: usize,
    now: SimTime,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            states: VecDeque::new(),
            base: 0,
            live: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time: the firing time of the last popped
    /// event (zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current simulation time — scheduling
    /// into the past is always an engine bug.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.base + self.states.len() as u64;
        self.states.push_back(EventState::Pending);
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
        self.live += 1;
        EventHandle(seq)
    }

    /// The state of sequence number `seq`; `None` below `base` (done) and
    /// past the newest event.
    fn state(&self, seq: u64) -> Option<EventState> {
        let offset = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.states.get(offset).copied()
    }

    /// Mark pending event `seq` done as `state`, then drop the done states
    /// from the front.
    fn retire(&mut self, seq: u64, state: EventState) {
        self.states[(seq - self.base) as usize] = state;
        self.live -= 1;
        while self
            .states
            .front()
            .is_some_and(|&s| s != EventState::Pending)
        {
            self.states.pop_front();
            self.base += 1;
        }
    }

    /// Cancel a previously scheduled event. Returns `true` iff the event
    /// was still pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if self.state(handle.0) != Some(EventState::Pending) {
            return false;
        }
        self.retire(handle.0, EventState::Cancelled);
        true
    }

    /// Pop the earliest pending event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<Fired<E>> {
        while let Some(entry) = self.heap.pop() {
            // Below `base` only a cancelled event's tombstone is left.
            match self.state(entry.seq) {
                None | Some(EventState::Cancelled) => continue, // tombstoned
                Some(EventState::Fired) => unreachable!("event fired twice"),
                Some(EventState::Pending) => {
                    self.retire(entry.seq, EventState::Fired);
                    debug_assert!(entry.time >= self.now, "event calendar went backwards");
                    self.now = entry.time;
                    return Some(Fired {
                        time: entry.time,
                        handle: EventHandle(entry.seq),
                        payload: entry.payload,
                    });
                }
            }
        }
        debug_assert!(self.live == 0);
        None
    }

    /// Peek at the time of the next pending event without firing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain tombstoned entries from the top so peek is accurate.
        while let Some(entry) = self.heap.peek() {
            if self.state(entry.seq) == Some(EventState::Pending) {
                return Some(entry.time);
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn ms(x: f64) -> SimTime {
        SimTime::from_ms(x)
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(ms(3.0), 3);
        cal.schedule(ms(1.0), 1);
        cal.schedule(ms(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|f| f.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut cal = Calendar::new();
        for i in 0..10 {
            cal.schedule(ms(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|f| f.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut cal = Calendar::new();
        cal.schedule(ms(4.0), ());
        cal.schedule(ms(4.0), ());
        cal.schedule(ms(9.0), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), ms(4.0));
        cal.pop();
        assert_eq!(cal.now(), ms(4.0));
        cal.pop();
        assert_eq!(cal.now(), ms(9.0));
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut cal = Calendar::new();
        let a = cal.schedule(ms(1.0), "a");
        cal.schedule(ms(2.0), "b");
        assert_eq!(cal.len(), 2);
        assert!(cal.cancel(a));
        assert_eq!(cal.len(), 1);
        assert!(!cal.cancel(a), "double cancel is a no-op");
        assert_eq!(cal.pop().unwrap().payload, "b");
        assert!(cal.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut cal = Calendar::new();
        let a = cal.schedule(ms(1.0), "a");
        assert_eq!(cal.pop().unwrap().payload, "a");
        assert!(!cal.cancel(a));
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn null_handle_cancel_is_noop() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(!cal.cancel(EventHandle::NULL));
        assert!(EventHandle::NULL.is_null());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(ms(5.0), ());
        cal.pop();
        cal.schedule(ms(1.0), ());
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut cal = Calendar::new();
        cal.schedule(ms(5.0), 1);
        cal.pop();
        cal.schedule(cal.now(), 2);
        assert_eq!(cal.pop().unwrap().time, ms(5.0));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut cal = Calendar::new();
        let a = cal.schedule(ms(1.0), "a");
        cal.schedule(ms(2.0), "b");
        cal.cancel(a);
        assert_eq!(cal.peek_time(), Some(ms(2.0)));
        assert_eq!(cal.pop().unwrap().payload, "b");
        assert_eq!(cal.peek_time(), None);
    }

    #[test]
    fn relative_scheduling_pattern() {
        // The typical engine pattern: schedule "now + burst".
        let mut cal = Calendar::new();
        cal.schedule(ms(10.0), "start");
        let fired = cal.pop().unwrap();
        cal.schedule(fired.time + SimDuration::from_ms(4.0), "done");
        let next = cal.pop().unwrap();
        assert_eq!(next.time, ms(14.0));
    }

    /// A long rolling schedule / cancel / pop loop: the state storage
    /// is exactly the pending span (oldest pending to newest scheduled
    /// event), not one state per event ever scheduled, and a cancelled
    /// event whose state was trimmed still never fires.
    #[test]
    fn state_storage_follows_the_pending_span() {
        let mut cal = Calendar::new();
        let mut pending = std::collections::BTreeSet::new();
        let mut doomed = Vec::new();
        let mut newest = 0;
        for i in 0..100_000u64 {
            let now = cal.now();
            let h = cal.schedule(now + SimDuration::from_micros(1 + i % 7), i);
            pending.insert(h.0);
            newest = h.0;
            if i % 5 == 0 {
                let h = cal.schedule(now + SimDuration::from_micros(3), u64::MAX);
                newest = h.0;
                if i % 10 == 0 {
                    assert!(cal.cancel(h));
                    doomed.push(h);
                } else {
                    pending.insert(h.0);
                }
            }
            while cal.len() > 4 {
                // Only pending events fire; a cancelled one is not in the set.
                let fired = cal.pop().expect("an event is pending");
                assert!(pending.remove(&fired.handle.0));
            }
            let span = pending.first().map_or(0, |&oldest| newest + 1 - oldest);
            assert_eq!(cal.states.len() as u64, span, "step {i}");
            assert!(span <= 64, "pending span {span} at step {i}");
        }
        while let Some(fired) = cal.pop() {
            assert!(pending.remove(&fired.handle.0));
        }
        assert!(pending.is_empty() && cal.states.is_empty());
        assert_eq!(cal.base, newest + 1, "every sequence number was retired");
        for h in doomed {
            assert!(!cal.cancel(h), "a retired handle cancels nothing");
        }
    }

    #[test]
    fn stress_interleaved_schedule_cancel() {
        let mut cal = Calendar::new();
        let mut handles = Vec::new();
        for i in 0..1000u64 {
            handles.push(cal.schedule(SimTime::from_micros(i * 7 % 500 + 1000), i));
        }
        // Cancel every third.
        let mut cancelled = 0;
        for (i, &h) in handles.iter().enumerate() {
            if i % 3 == 0 {
                assert!(cal.cancel(h));
                cancelled += 1;
            }
        }
        assert_eq!(cal.len(), 1000 - cancelled);
        let mut popped = 0;
        let mut last = SimTime::ZERO;
        while let Some(f) = cal.pop() {
            assert!(f.time >= last);
            last = f.time;
            assert!(f.payload % 3 != 0, "cancelled event fired: {}", f.payload);
            popped += 1;
        }
        assert_eq!(popped, 1000 - cancelled);
    }
}
