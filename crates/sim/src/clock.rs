//! Virtual vs wall-clock time sources.
//!
//! The simulation kernel keeps all of its own time in [`SimTime`]
//! (integer microseconds) and advances it by popping calendar events —
//! *virtual* time, decoupled from the machine. A serving front-end wants
//! the opposite: events may only fire once the real world has caught up
//! with them. [`Clock`] abstracts over the two regimes so one event loop
//! can drive both:
//!
//! * [`Clock::virtual_clock`] — time is wherever the calendar says it is.
//!   [`Clock::due`] is always `true` and [`Clock::wall_wait`] never asks
//!   for a sleep, so a virtual-clock loop degenerates to the classic
//!   pop-and-process loop, **bit-identical** to the batch simulator.
//! * [`Clock::wall`] — anchors `SimTime::ZERO` to the construction
//!   [`Instant`] and maps sim time to real time through a configurable
//!   `scale` (sim microseconds per wall microsecond). `scale = 1.0` runs
//!   the simulation in real time; `scale = 1000.0` runs it 1000× faster
//!   than real time (one wall millisecond ticks one sim second).
//!
//! The mapping is the whole abstraction: everything else (sleeping,
//! waking on submissions) belongs to the serving loop, which only needs
//! "what sim time is it now" ([`Clock::now`]) and "how long until this
//! sim instant" ([`Clock::wall_wait`]).
//!
//! # Examples
//!
//! Constructing the two clock modes:
//!
//! ```
//! use rtx_sim::clock::Clock;
//! use rtx_sim::time::SimTime;
//!
//! // Virtual: time never advances on its own; events are always due.
//! let virt = Clock::virtual_clock();
//! assert!(virt.is_virtual());
//! assert!(virt.due(SimTime::from_ms(1e12)));
//!
//! // Wall, 1000x: a sim instant 1000 ms out is ~1 wall ms away.
//! let wall = Clock::wall(1000.0);
//! assert!(!wall.is_virtual());
//! let wait = wall.wall_wait(SimTime::from_ms(1000.0)).unwrap();
//! assert!(wait.as_millis() <= 1);
//! ```

use std::time::{Duration, Instant};

use crate::time::{SimDuration, SimTime};

/// A time source for the serving event loop: virtual (calendar-driven,
/// deterministic) or wall (anchored to a real [`Instant`] through a rate
/// scale).
#[derive(Debug, Clone)]
pub enum Clock {
    /// Calendar time *is* the time. Deterministic; the batch simulator's
    /// regime.
    Virtual,
    /// Real time, scaled: `sim_micros = wall_micros × scale` since the
    /// anchor.
    Wall {
        /// The wall instant that corresponds to `SimTime::ZERO`.
        start: Instant,
        /// Sim microseconds per wall microsecond (`> 0`).
        scale: f64,
    },
}

impl Clock {
    /// The virtual (deterministic, calendar-driven) clock.
    pub fn virtual_clock() -> Self {
        Clock::Virtual
    }

    /// A wall clock anchored at *now*, running `scale` sim microseconds
    /// per wall microsecond. `scale = 1.0` is real time.
    ///
    /// # Panics
    /// Panics unless `scale` is positive and finite.
    pub fn wall(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "clock scale must be positive and finite"
        );
        Clock::Wall {
            start: Instant::now(),
            scale,
        }
    }

    /// True iff this is the virtual clock.
    pub fn is_virtual(&self) -> bool {
        matches!(self, Clock::Virtual)
    }

    /// The current sim time. The virtual clock has no intrinsic "now" —
    /// time lives in the calendar — so callers pass the calendar's time
    /// as `sim_now` and get it back unchanged; the wall clock reports
    /// scaled elapsed real time (never earlier than `sim_now`, so a loop
    /// that already popped an event at `sim_now` cannot observe time
    /// running backwards).
    pub fn now(&self, sim_now: SimTime) -> SimTime {
        match self {
            Clock::Virtual => sim_now,
            Clock::Wall { start, scale } => {
                let wall_us = start.elapsed().as_micros() as f64;
                let sim_us = (wall_us * scale) as u64;
                SimTime::from_micros(sim_us.max(sim_now.as_micros()))
            }
        }
    }

    /// Is an event scheduled at sim time `at` allowed to fire yet?
    /// Virtual: always. Wall: once scaled real time has reached `at`.
    pub fn due(&self, at: SimTime) -> bool {
        match self {
            Clock::Virtual => true,
            Clock::Wall { .. } => self.now(SimTime::ZERO) >= at,
        }
    }

    /// How long to sleep (in real time) before an event at sim time `at`
    /// becomes due. `None` means "no waiting in this regime" (virtual
    /// clock); `Some(Duration::ZERO)` means it is already due.
    pub fn wall_wait(&self, at: SimTime) -> Option<Duration> {
        match self {
            Clock::Virtual => None,
            Clock::Wall { start, scale } => {
                let target_wall_us = at.as_micros() as f64 / scale;
                let elapsed_us = start.elapsed().as_micros() as f64;
                let remaining = target_wall_us - elapsed_us;
                if remaining <= 0.0 {
                    Some(Duration::ZERO)
                } else {
                    Some(Duration::from_micros(remaining.ceil() as u64))
                }
            }
        }
    }

    /// Convert a sim-time span to real milliseconds under this clock's
    /// rate: identity for the virtual clock (sim milliseconds *are* the
    /// reporting unit there), divided by `scale` for the wall clock.
    ///
    /// This is how serving metrics report latencies: the engine measures
    /// response times in sim time, and the clock says what that cost in
    /// the real world.
    pub fn to_wall_ms(&self, span: SimDuration) -> f64 {
        match self {
            Clock::Virtual => span.as_ms(),
            Clock::Wall { scale, .. } => span.as_ms() / scale,
        }
    }

    /// The sim-time rate of this clock: sim microseconds per wall
    /// microsecond (1.0 for the virtual clock, where the distinction is
    /// vacuous).
    pub fn scale(&self) -> f64 {
        match self {
            Clock::Virtual => 1.0,
            Clock::Wall { scale, .. } => *scale,
        }
    }

    /// Real seconds elapsed since the clock's anchor (0 for the virtual
    /// clock, which has no anchor).
    pub fn elapsed_wall_secs(&self) -> f64 {
        match self {
            Clock::Virtual => 0.0,
            Clock::Wall { start, .. } => start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_transparent() {
        let c = Clock::virtual_clock();
        assert!(c.is_virtual());
        let t = SimTime::from_ms(123.0);
        assert_eq!(c.now(t), t);
        assert!(c.due(SimTime::MAX));
        assert_eq!(c.wall_wait(SimTime::from_ms(5.0)), None);
        assert_eq!(c.to_wall_ms(SimDuration::from_ms(7.5)), 7.5);
        assert_eq!(c.scale(), 1.0);
        assert_eq!(c.elapsed_wall_secs(), 0.0);
    }

    #[test]
    fn wall_clock_advances_with_real_time() {
        let c = Clock::wall(1_000_000.0); // 1 wall µs = 1 sim s
        std::thread::sleep(Duration::from_millis(2));
        let now = c.now(SimTime::ZERO);
        assert!(now > SimTime::from_secs(1.0), "scaled time advanced: {now}");
        assert!(c.due(SimTime::from_ms(1.0)));
        assert!(c.elapsed_wall_secs() > 0.0);
    }

    #[test]
    fn wall_now_never_behind_sim_now() {
        let c = Clock::wall(1.0);
        let far = SimTime::from_secs(3600.0);
        assert_eq!(c.now(far), far, "clamped up to the calendar's time");
    }

    #[test]
    fn wall_wait_scales() {
        let c = Clock::wall(100.0);
        // An event 10 sim seconds out is ~100 wall ms away at 100x.
        let wait = c.wall_wait(SimTime::from_secs(10.0)).unwrap();
        assert!(wait <= Duration::from_millis(101), "wait {wait:?}");
        assert!(wait >= Duration::from_millis(50), "wait {wait:?}");
        // The past is immediately due.
        assert_eq!(c.wall_wait(SimTime::ZERO), Some(Duration::ZERO));
    }

    #[test]
    fn unit_conversions() {
        let c = Clock::wall(1000.0);
        assert!((c.to_wall_ms(SimDuration::from_ms(500.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_scale_rejected() {
        Clock::wall(0.0);
    }
}
