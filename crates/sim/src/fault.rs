//! Deterministic fault-injection plans for the disk and the CPU.
//!
//! The paper evaluates scheduling policies under clean overload only; a
//! robust reproduction must also survive *misbehaving* hardware. A
//! [`FaultPlan`] describes, per run, how the simulated disk misbehaves:
//!
//! * **transient IO errors** — an attempt occupies the disk for its full
//!   service time and then fails; the issuing transaction retries with
//!   exponential backoff until a retry budget is exhausted;
//! * **latency spikes** — an attempt takes `spike_factor ×` its nominal
//!   service time;
//! * **brownout windows** — recurring bounded windows of simulated time
//!   during which the error probability is elevated and every transfer is
//!   slowed by a latency factor.
//!
//! An optional [`CpuFaultPlan`] section gives the CPU the same three
//! misbehaviours: transient **stalls** (a compute burst runs to completion
//! and then must be retried with backoff), **slowdowns** (a burst takes
//! `slow_factor ×` its nominal time) and brownout windows.
//!
//! Both plans feed one model: a [`FaultInjector`] per [`Resource`], built
//! by [`FaultInjector::disk`] or [`FaultInjector::cpu`], draws the
//! per-attempt verdicts and owns the retry budget and the backoff formula.
//! Each draws from a dedicated RNG stream (label `"faults"` for the disk,
//! `"cpu-faults"` for the CPU), so enabling injection never perturbs the
//! workload streams and disk and CPU injection never perturb each other.
//! A plan of [`FaultPlan::none()`] performs **no draws at all**, keeping
//! fault-free runs byte-identical to runs built before this subsystem
//! existed.

use crate::dist::uniform_unit;
use crate::rng::{StreamSeeder, Xoshiro256};
use crate::time::{SimDuration, SimTime};

/// A recurring bounded window of degraded disk service ("brownout").
///
/// The window is active whenever `now mod period_ms < duration_ms`, so the
/// first window starts at time zero and recurs every `period_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// Window recurrence period, ms (must be positive).
    pub period_ms: f64,
    /// Length of each window, ms (`0 ≤ duration ≤ period`).
    pub duration_ms: f64,
    /// Transient-error probability inside the window (replaces the plan's
    /// base probability when larger).
    pub error_prob: f64,
    /// Service-time multiplier inside the window (`≥ 1`).
    pub latency_factor: f64,
}

impl Brownout {
    /// Is the brownout window active at `now`?
    pub fn active_at(&self, now: SimTime) -> bool {
        self.period_ms > 0.0 && now.as_ms() % self.period_ms < self.duration_ms
    }
}

/// The deterministic fault-injection plan for one run.
///
/// All probabilities are per disk-transfer *attempt*. The default plan is
/// [`FaultPlan::none()`]: no errors, no spikes, no brownouts.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base probability that an attempt fails with a transient error.
    pub error_prob: f64,
    /// Probability that an attempt suffers a latency spike.
    pub spike_prob: f64,
    /// Service-time multiplier of a spiked attempt (`≥ 1`).
    pub spike_factor: f64,
    /// Maximum number of *retries* after the first failed attempt before
    /// the transaction is aborted-and-restarted like an HP victim.
    pub retry_budget: u32,
    /// Backoff before the first retry, ms; doubles on every further retry.
    pub backoff_base_ms: f64,
    /// Upper bound on any single backoff delay, ms.
    pub backoff_cap_ms: f64,
    /// Optional recurring degraded-service window.
    pub brownout: Option<Brownout>,
    /// Optional CPU-side fault section. `None` means the CPU never
    /// misbehaves and no `"cpu-faults"` randomness is consumed.
    pub cpu: Option<CpuFaultPlan>,
}

impl FaultPlan {
    /// The empty plan: no faults are ever injected and no randomness is
    /// consumed. Runs under this plan are byte-identical to runs of a
    /// build without fault injection.
    pub fn none() -> Self {
        FaultPlan {
            error_prob: 0.0,
            spike_prob: 0.0,
            spike_factor: 1.0,
            retry_budget: 3,
            backoff_base_ms: 1.0,
            backoff_cap_ms: 8.0,
            brownout: None,
            cpu: None,
        }
    }

    /// True iff this plan can never inject any fault — disk or CPU (the
    /// engine skips both injectors entirely, consuming no randomness).
    pub fn is_none(&self) -> bool {
        self.disk_is_none() && self.cpu_is_none()
    }

    /// True iff the *disk* section can never inject a fault (the engine
    /// skips the disk injector, consuming no `"faults"` randomness).
    pub fn disk_is_none(&self) -> bool {
        self.error_prob == 0.0 && self.spike_prob == 0.0 && self.brownout.is_none()
    }

    /// True iff the *CPU* section can never inject a fault (the engine
    /// skips the CPU injector, consuming no `"cpu-faults"` randomness).
    pub fn cpu_is_none(&self) -> bool {
        match &self.cpu {
            None => true,
            Some(c) => c.stall_prob == 0.0 && c.slow_prob == 0.0 && c.brownout.is_none(),
        }
    }

    /// Validate parameter sanity; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.error_prob) {
            return Err(format!("error_prob {} outside [0,1]", self.error_prob));
        }
        if !(0.0..=1.0).contains(&self.spike_prob) {
            return Err(format!("spike_prob {} outside [0,1]", self.spike_prob));
        }
        if !self.spike_factor.is_finite() || self.spike_factor < 1.0 {
            return Err(format!("spike_factor {} must be ≥ 1", self.spike_factor));
        }
        if !self.backoff_base_ms.is_finite() || self.backoff_base_ms < 0.0 {
            return Err(format!(
                "backoff_base_ms {} must be ≥ 0",
                self.backoff_base_ms
            ));
        }
        if !self.backoff_cap_ms.is_finite() || self.backoff_cap_ms < self.backoff_base_ms {
            return Err(format!(
                "backoff_cap_ms {} must be ≥ backoff_base_ms {}",
                self.backoff_cap_ms, self.backoff_base_ms
            ));
        }
        if let Some(b) = &self.brownout {
            validate_brownout(b)?;
        }
        if let Some(c) = &self.cpu {
            c.validate()?;
        }
        Ok(())
    }
}

fn validate_brownout(b: &Brownout) -> Result<(), String> {
    if !b.period_ms.is_finite() || b.period_ms <= 0.0 {
        return Err(format!("brownout period {} must be positive", b.period_ms));
    }
    if !b.duration_ms.is_finite() || b.duration_ms < 0.0 || b.duration_ms > b.period_ms {
        return Err(format!(
            "brownout duration {} outside [0, period {}]",
            b.duration_ms, b.period_ms
        ));
    }
    if !(0.0..=1.0).contains(&b.error_prob) {
        return Err(format!(
            "brownout error_prob {} outside [0,1]",
            b.error_prob
        ));
    }
    if !b.latency_factor.is_finite() || b.latency_factor < 1.0 {
        return Err(format!(
            "brownout latency_factor {} must be ≥ 1",
            b.latency_factor
        ));
    }
    Ok(())
}

/// The CPU section of a [`FaultPlan`]: transient stalls and slowdowns of
/// compute bursts, mirroring the disk model attempt-for-attempt.
///
/// All probabilities are per compute-burst *attempt*. A stalled burst
/// occupies the CPU for its full (possibly slowed) service time and then
/// fails: the work is wasted and the transaction backs off and retries
/// the burst, aborting-and-restarting once the retry budget is spent.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuFaultPlan {
    /// Base probability that a compute burst stalls (completes without
    /// making progress and must be retried).
    pub stall_prob: f64,
    /// Probability that a burst runs slowed.
    pub slow_prob: f64,
    /// Service-time multiplier of a slowed burst (`≥ 1`).
    pub slow_factor: f64,
    /// Maximum number of *retries* after the first stalled burst before
    /// the transaction is aborted-and-restarted like an HP victim.
    pub retry_budget: u32,
    /// Backoff before the first retry, ms; doubles on every further retry.
    pub backoff_base_ms: f64,
    /// Upper bound on any single backoff delay, ms.
    pub backoff_cap_ms: f64,
    /// Optional recurring degraded-service window (`error_prob` is the
    /// in-window stall probability, `latency_factor` slows bursts).
    pub brownout: Option<Brownout>,
}

impl CpuFaultPlan {
    /// Validate parameter sanity; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.stall_prob) {
            return Err(format!("cpu stall_prob {} outside [0,1]", self.stall_prob));
        }
        if !(0.0..=1.0).contains(&self.slow_prob) {
            return Err(format!("cpu slow_prob {} outside [0,1]", self.slow_prob));
        }
        if !self.slow_factor.is_finite() || self.slow_factor < 1.0 {
            return Err(format!("cpu slow_factor {} must be ≥ 1", self.slow_factor));
        }
        if !self.backoff_base_ms.is_finite() || self.backoff_base_ms < 0.0 {
            return Err(format!(
                "cpu backoff_base_ms {} must be ≥ 0",
                self.backoff_base_ms
            ));
        }
        if !self.backoff_cap_ms.is_finite() || self.backoff_cap_ms < self.backoff_base_ms {
            return Err(format!(
                "cpu backoff_cap_ms {} must be ≥ backoff_base_ms {}",
                self.backoff_cap_ms, self.backoff_base_ms
            ));
        }
        if let Some(b) = &self.brownout {
            validate_brownout(b)?;
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// A resource the fault model covers. Indexes the engine's per-resource
/// fault state (`[T; 2]` arrays, `resource as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The disk: an attempt is one transfer.
    Disk = 0,
    /// The CPU: an attempt is one placement of a compute burst.
    Cpu = 1,
}

/// The injector's verdict on one attempt of a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    /// The attempt fails (a transient IO error, a CPU stall) after
    /// `service` elapses.
    pub failed: bool,
    /// The attempt runs slowed (a disk latency spike, a CPU slowdown).
    pub spiked: bool,
    /// The attempt started inside a brownout window.
    pub brownout: bool,
    /// Time the attempt occupies the resource (slowdowns and brownouts
    /// applied).
    pub service: SimDuration,
}

/// Draws per-attempt fault verdicts for one [`Resource`] from a
/// dedicated deterministic RNG stream, and rules on retries: the retry
/// budget and the backoff before each retry.
///
/// Exactly two uniform draws are consumed per attempt regardless of the
/// outcome, so the stream stays aligned across plan-parameter changes that
/// keep the attempt sequence identical.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Base probability that an attempt fails.
    fail_prob: f64,
    /// Probability that an attempt runs slowed.
    slow_prob: f64,
    /// Service-time multiplier of a slowed attempt.
    slow_factor: f64,
    /// Retries allowed after the first failed attempt.
    retry_budget: u32,
    /// Backoff before the first retry, ms.
    backoff_base_ms: f64,
    /// Upper bound on any single backoff, ms.
    backoff_cap_ms: f64,
    brownout: Option<Brownout>,
    rng: Xoshiro256,
}

impl FaultInjector {
    /// The disk injector of `plan`, drawing from the seeder's `"faults"`
    /// stream.
    pub fn disk(plan: &FaultPlan, seeder: &StreamSeeder) -> Self {
        FaultInjector {
            fail_prob: plan.error_prob,
            slow_prob: plan.spike_prob,
            slow_factor: plan.spike_factor,
            retry_budget: plan.retry_budget,
            backoff_base_ms: plan.backoff_base_ms,
            backoff_cap_ms: plan.backoff_cap_ms,
            brownout: plan.brownout,
            rng: seeder.stream("faults"),
        }
    }

    /// The CPU injector of `plan`, drawing from the seeder's
    /// `"cpu-faults"` stream.
    pub fn cpu(plan: &CpuFaultPlan, seeder: &StreamSeeder) -> Self {
        FaultInjector {
            fail_prob: plan.stall_prob,
            slow_prob: plan.slow_prob,
            slow_factor: plan.slow_factor,
            retry_budget: plan.retry_budget,
            backoff_base_ms: plan.backoff_base_ms,
            backoff_cap_ms: plan.backoff_cap_ms,
            brownout: plan.brownout,
            rng: seeder.stream("cpu-faults"),
        }
    }

    /// Decide the fate of one attempt starting at `now` whose nominal
    /// service time is `nominal`.
    pub fn attempt(&mut self, now: SimTime, nominal: SimDuration) -> Attempt {
        let u_fail = uniform_unit(&mut self.rng);
        let u_slow = uniform_unit(&mut self.rng);
        let brown = self.brownout.filter(|b| b.active_at(now));
        let fail_prob = match &brown {
            Some(b) => self.fail_prob.max(b.error_prob),
            None => self.fail_prob,
        };
        let failed = u_fail < fail_prob;
        let spiked = u_slow < self.slow_prob;
        let mut service = nominal;
        if spiked {
            service = service.scale(self.slow_factor);
        }
        if let Some(b) = &brown {
            service = service.scale(b.latency_factor);
        }
        Attempt {
            failed,
            spiked,
            brownout: brown.is_some(),
            service,
        }
    }

    /// The backoff before retry number `retries + 1`, i.e. after `retries`
    /// prior failures of the same attempt: `base × 2^retries`, capped.
    /// `None` once the retry budget is spent — the transaction then
    /// aborts and restarts like an HP victim.
    pub fn backoff(&self, retries: u32) -> Option<SimDuration> {
        if retries >= self.retry_budget {
            return None;
        }
        let exp = retries.min(20); // 2^20 × base already dwarfs any cap
        let raw = self.backoff_base_ms * f64::powi(2.0, exp as i32);
        Some(SimDuration::from_ms(raw.min(self.backoff_cap_ms)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(error: f64, spike: f64) -> FaultPlan {
        FaultPlan {
            error_prob: error,
            spike_prob: spike,
            spike_factor: 4.0,
            retry_budget: 3,
            backoff_base_ms: 2.0,
            backoff_cap_ms: 16.0,
            brownout: None,
            cpu: None,
        }
    }

    fn cpu_plan(stall: f64, slow: f64) -> CpuFaultPlan {
        CpuFaultPlan {
            stall_prob: stall,
            slow_prob: slow,
            slow_factor: 3.0,
            retry_budget: 2,
            backoff_base_ms: 1.0,
            backoff_cap_ms: 4.0,
            brownout: None,
        }
    }

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
        assert!(!plan(0.1, 0.0).is_none());
        assert!(!plan(0.0, 0.1).is_none());
        let mut p = FaultPlan::none();
        p.brownout = Some(Brownout {
            period_ms: 100.0,
            duration_ms: 10.0,
            error_prob: 0.5,
            latency_factor: 2.0,
        });
        assert!(!p.is_none());
    }

    #[test]
    fn disk_and_cpu_sections_gate_independently() {
        let mut p = FaultPlan::none();
        assert!(p.disk_is_none() && p.cpu_is_none());
        p.cpu = Some(cpu_plan(0.1, 0.0));
        assert!(p.disk_is_none(), "cpu faults leave the disk section empty");
        assert!(!p.cpu_is_none());
        assert!(!p.is_none());
        // A present-but-inert CPU section still counts as none: no draws.
        p.cpu = Some(cpu_plan(0.0, 0.0));
        assert!(p.cpu_is_none() && p.is_none());
        p = plan(0.1, 0.0);
        assert!(!p.disk_is_none());
        assert!(p.cpu_is_none());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut p = plan(0.1, 0.0);
        p.retry_budget = 50;
        let inj = FaultInjector::disk(&p, &StreamSeeder::new(0));
        let ms = |x| Some(SimDuration::from_ms(x));
        assert_eq!(inj.backoff(0), ms(2.0));
        assert_eq!(inj.backoff(1), ms(4.0));
        assert_eq!(inj.backoff(2), ms(8.0));
        assert_eq!(inj.backoff(3), ms(16.0));
        assert_eq!(inj.backoff(4), ms(16.0), "capped");
        assert_eq!(inj.backoff(40), ms(16.0), "no overflow");
    }

    #[test]
    fn retry_budget_ends_the_backoffs() {
        let seeder = StreamSeeder::new(0);
        let disk = FaultInjector::disk(&plan(0.1, 0.0), &seeder);
        assert!(disk.backoff(2).is_some());
        assert_eq!(disk.backoff(3), None, "budget of 3 retries spent");
        let cpu = FaultInjector::cpu(&cpu_plan(0.1, 0.0), &seeder);
        assert_eq!(cpu.backoff(1), Some(SimDuration::from_ms(2.0)));
        assert_eq!(cpu.backoff(2), None, "budget of 2 retries spent");
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(FaultPlan::none().validate().is_ok());
        let mut p = plan(1.5, 0.0);
        assert!(p.validate().is_err());
        p = plan(0.1, 0.0);
        p.spike_factor = 0.5;
        assert!(p.validate().is_err());
        p = plan(0.1, 0.0);
        p.backoff_cap_ms = 0.5; // below base
        assert!(p.validate().is_err());
        p = plan(0.1, 0.0);
        p.brownout = Some(Brownout {
            period_ms: 0.0,
            duration_ms: 0.0,
            error_prob: 0.1,
            latency_factor: 1.0,
        });
        assert!(p.validate().is_err());
        p = plan(0.1, 0.0);
        p.brownout = Some(Brownout {
            period_ms: 100.0,
            duration_ms: 200.0,
            error_prob: 0.1,
            latency_factor: 1.0,
        });
        assert!(p.validate().is_err(), "duration exceeds period");
        p = plan(0.0, 0.0);
        p.cpu = Some(cpu_plan(1.5, 0.0));
        assert!(p.validate().is_err(), "cpu section validated too");
        let mut c = cpu_plan(0.1, 0.0);
        c.slow_factor = 0.5;
        assert!(c.validate().is_err());
        c = cpu_plan(0.1, 0.0);
        c.backoff_cap_ms = 0.1; // below base
        assert!(c.validate().is_err());
    }

    #[test]
    fn brownout_window_schedule() {
        let b = Brownout {
            period_ms: 100.0,
            duration_ms: 10.0,
            error_prob: 1.0,
            latency_factor: 2.0,
        };
        assert!(b.active_at(SimTime::from_ms(0.0)));
        assert!(b.active_at(SimTime::from_ms(9.9)));
        assert!(!b.active_at(SimTime::from_ms(10.0)));
        assert!(!b.active_at(SimTime::from_ms(99.0)));
        assert!(b.active_at(SimTime::from_ms(105.0)));
    }

    #[test]
    fn injector_is_deterministic() {
        let seeder = StreamSeeder::new(7);
        let mut a = FaultInjector::disk(&plan(0.3, 0.3), &seeder);
        let mut b = FaultInjector::disk(&plan(0.3, 0.3), &seeder);
        for i in 0..200 {
            let now = SimTime::from_ms(i as f64 * 13.0);
            let nominal = SimDuration::from_ms(25.0);
            assert_eq!(a.attempt(now, nominal), b.attempt(now, nominal));
        }
    }

    #[test]
    fn certain_error_always_fails() {
        let seeder = StreamSeeder::new(1);
        let mut inj = FaultInjector::disk(&plan(1.0, 0.0), &seeder);
        for _ in 0..50 {
            let a = inj.attempt(SimTime::ZERO, SimDuration::from_ms(25.0));
            assert!(a.failed);
            assert!(!a.spiked);
            assert_eq!(a.service, SimDuration::from_ms(25.0));
        }
    }

    #[test]
    fn spike_scales_service() {
        let seeder = StreamSeeder::new(2);
        let mut inj = FaultInjector::disk(&plan(0.0, 1.0), &seeder);
        let a = inj.attempt(SimTime::ZERO, SimDuration::from_ms(25.0));
        assert!(a.spiked && !a.failed);
        assert_eq!(a.service, SimDuration::from_ms(100.0));
    }

    #[test]
    fn brownout_elevates_error_and_latency() {
        let mut p = plan(0.0, 0.0);
        p.brownout = Some(Brownout {
            period_ms: 1000.0,
            duration_ms: 100.0,
            error_prob: 1.0,
            latency_factor: 3.0,
        });
        let seeder = StreamSeeder::new(3);
        let mut inj = FaultInjector::disk(&p, &seeder);
        let inside = inj.attempt(SimTime::from_ms(50.0), SimDuration::from_ms(10.0));
        assert!(inside.failed && inside.brownout);
        assert_eq!(inside.service, SimDuration::from_ms(30.0));
        let outside = inj.attempt(SimTime::from_ms(500.0), SimDuration::from_ms(10.0));
        assert!(!outside.failed && !outside.brownout);
        assert_eq!(outside.service, SimDuration::from_ms(10.0));
    }

    #[test]
    fn cpu_injector_mirrors_disk_model() {
        let seeder = StreamSeeder::new(9);
        let mut a = FaultInjector::cpu(&cpu_plan(0.3, 0.3), &seeder);
        let mut b = FaultInjector::cpu(&cpu_plan(0.3, 0.3), &seeder);
        for i in 0..200 {
            let now = SimTime::from_ms(i as f64 * 7.0);
            let nominal = SimDuration::from_ms(2.0);
            assert_eq!(a.attempt(now, nominal), b.attempt(now, nominal));
        }
        // Certain stall, certain slowdown.
        let mut inj = FaultInjector::cpu(&cpu_plan(1.0, 1.0), &seeder);
        let att = inj.attempt(SimTime::ZERO, SimDuration::from_ms(2.0));
        assert!(att.failed && att.spiked);
        assert_eq!(att.service, SimDuration::from_ms(6.0));
        // Backoff doubles and caps like the disk plan's.
        let mut c = cpu_plan(0.1, 0.0);
        c.retry_budget = 10;
        let inj = FaultInjector::cpu(&c, &seeder);
        let ms = |x| Some(SimDuration::from_ms(x));
        assert_eq!(inj.backoff(0), ms(1.0));
        assert_eq!(inj.backoff(1), ms(2.0));
        assert_eq!(inj.backoff(2), ms(4.0));
        assert_eq!(inj.backoff(9), ms(4.0), "capped");
    }

    #[test]
    fn cpu_stream_is_independent_of_disk_stream() {
        // Disk and CPU injectors over the same seeder draw from different
        // labelled streams: interleaving draws on one never changes the
        // other's verdicts.
        let seeder = StreamSeeder::new(21);
        let mut cpu_alone = FaultInjector::cpu(&cpu_plan(0.5, 0.5), &seeder);
        let mut cpu_mixed = FaultInjector::cpu(&cpu_plan(0.5, 0.5), &seeder);
        let mut disk = FaultInjector::disk(&plan(0.5, 0.5), &seeder);
        for i in 0..100 {
            let now = SimTime::from_ms(i as f64);
            let d = SimDuration::from_ms(5.0);
            let _ = disk.attempt(now, d);
            assert_eq!(cpu_alone.attempt(now, d), cpu_mixed.attempt(now, d));
        }
    }

    #[test]
    fn fixed_draw_count_keeps_stream_aligned() {
        // Two injectors with different spike probabilities see the same
        // error draws: outcome of the error coin must not depend on
        // whether spikes are enabled.
        let seeder = StreamSeeder::new(11);
        let mut with_spikes = FaultInjector::disk(&plan(0.5, 0.9), &seeder);
        let mut without = FaultInjector::disk(&plan(0.5, 0.0), &seeder);
        for i in 0..100 {
            let now = SimTime::from_ms(i as f64);
            let d = SimDuration::from_ms(25.0);
            assert_eq!(
                with_spikes.attempt(now, d).failed,
                without.attempt(now, d).failed
            );
        }
    }
}
