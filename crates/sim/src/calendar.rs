//! The future event list (event calendar).
//!
//! This is the core of the discrete-event kernel — the equivalent of
//! SIMPACK's event list used by the paper's simulator. Events are opaque
//! payloads of type `E` ordered by `(time, sequence)`: simultaneous events
//! fire in the order they were scheduled, which keeps runs deterministic.
//!
//! The list is one vector sorted by `(time, sequence)` in descending
//! order, so the next event is its last element. `schedule` inserts by
//! binary search in front of the events due at the same time, `pop` takes
//! the last element, and `cancel` removes the entry its [`EventHandle`]
//! names — the RTDB engine revokes a pending CPU completion whenever a
//! transaction is preempted or aborted. A fired or cancelled event is
//! simply gone, so cancelling its handle again is a detectable no-op.
//!
//! `schedule` and `cancel` cost O(pending events), which the engine's
//! structure bounds: at most one arrival (the next one is pulled when the
//! previous one fires), one CPU completion, one disk completion and one
//! retry per transaction backing off from a fault. Over all 26 experiment
//! ids the calendar holds at most 6 events (the chaos sweep; 4 under
//! faults, 3 in every other figure), over a 1M-transaction serving day at
//! most 2, and about 2 when one fires, so a short shift beats a heap's
//! bookkeeping.

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

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
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
    /// The pending events, latest first: descending `(time, seq)`.
    pending: Vec<Entry<E>>,
    /// The sequence number the next scheduled event takes.
    next_seq: u64,
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
            pending: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time: the firing time of the last popped
    /// event (zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True iff no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
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
        let seq = self.next_seq;
        self.next_seq += 1;
        // Every pending event at `at` has a smaller sequence number, so
        // this one fires after them: it goes in front of them.
        let slot = self.pending.partition_point(|e| e.time > at);
        self.pending.insert(
            slot,
            Entry {
                time: at,
                seq,
                payload,
            },
        );
        EventHandle(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` iff the event
    /// was still pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.pending.iter().rposition(|e| e.seq == handle.0) {
            Some(slot) => {
                self.pending.remove(slot);
                true
            }
            None => false,
        }
    }

    /// Pop the earliest pending event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<Fired<E>> {
        let entry = self.pending.pop()?;
        debug_assert!(entry.time >= self.now, "event calendar went backwards");
        self.now = entry.time;
        Some(Fired {
            time: entry.time,
            handle: EventHandle(entry.seq),
            payload: entry.payload,
        })
    }

    /// Peek at the time of the next pending event without firing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.last().map(|e| e.time)
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
