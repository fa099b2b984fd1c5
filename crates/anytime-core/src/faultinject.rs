//! Deterministic, seeded fault injection for chaos testing.
//!
//! Only compiled with the `fault-inject` feature. A [`FaultPlan`] maps
//! stage names to [`StageFaults`] — panic at step *N*, stall for a
//! duration at step *N*, or a fixed per-step slowdown — and is applied to
//! a built [`crate::Pipeline`] before launch. Faults fire at the stage
//! driver's step boundaries, the same places the [`crate::ControlToken`]
//! checkpoints, so every injected failure lands at a point where the
//! published output is a complete, valid version (Property 3 is never
//! violated *by* the harness).
//!
//! Plans are **deterministic**: [`FaultPlan::seeded`] derives the whole
//! schedule from a single `u64` seed with a SplitMix64 generator, so a
//! failing chaos run reproduces exactly from its seed — same stages, same
//! fault kinds, same steps, same durations, byte-identical
//! [`FaultPlan::schedule`] rendering.
//!
//! Injected panics and stalls are **one-shot**: they fire the first time
//! the stage reaches the configured step and are disarmed afterwards, so a
//! stage restarted by [`crate::FailurePolicy::Restart`] models recovery
//! from a *transient* fault and can reach its precise output. Slowdowns
//! persist for the stage's lifetime.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

/// Faults injected into one stage, firing at step boundaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageFaults {
    /// Panic (with a recognizable message) just before executing this step.
    pub panic_at_step: Option<u64>,
    /// Sleep for the duration just before executing the given step.
    pub stall_at_step: Option<(u64, Duration)>,
    /// Extra delay added before every step.
    pub slowdown_per_step: Option<Duration>,
}

impl StageFaults {
    /// `true` if no fault is configured.
    pub fn is_empty(&self) -> bool {
        self.panic_at_step.is_none()
            && self.stall_at_step.is_none()
            && self.slowdown_per_step.is_none()
    }
}

/// Armed per-stage fault state carried by a stage driver.
///
/// Tracks which one-shot faults have fired so a restarted driver does not
/// re-fire a transient panic or stall.
#[derive(Debug, Default)]
pub(crate) struct ArmedFaults {
    faults: StageFaults,
    panic_fired: bool,
    stall_fired: bool,
}

impl ArmedFaults {
    pub(crate) fn new(faults: StageFaults) -> Self {
        Self {
            faults,
            panic_fired: false,
            stall_fired: false,
        }
    }

    /// Applies faults due at the given step boundary. Called by stage
    /// drivers just before executing `step`.
    ///
    /// # Panics
    ///
    /// Panics (once) when an injected panic is due.
    pub(crate) fn before_step(&mut self, stage: &str, step: u64) {
        if let Some(delay) = self.faults.slowdown_per_step {
            // lint: allow(l2-sleep) -- deliberate fault injection: the sleep IS the fault
            std::thread::sleep(delay);
        }
        if !self.stall_fired {
            if let Some((at, dur)) = self.faults.stall_at_step {
                if step >= at {
                    self.stall_fired = true;
                    // lint: allow(l2-sleep) -- deliberate fault injection: the stall IS the fault
                    std::thread::sleep(dur);
                }
            }
        }
        if !self.panic_fired {
            if let Some(at) = self.faults.panic_at_step {
                if step >= at {
                    self.panic_fired = true;
                    panic!("fault-inject: stage `{stage}` panicked at step {step}");
                }
            }
        }
    }
}

/// A deterministic per-stage fault schedule.
///
/// Build one explicitly with the builder methods, or derive one from a
/// seed with [`FaultPlan::seeded`]. Apply it with
/// [`crate::PipelineBuilder::with_faults`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: BTreeMap<String, StageFaults>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a panic in `stage` just before step `step`.
    pub fn panic_at(mut self, stage: impl Into<String>, step: u64) -> Self {
        self.entries.entry(stage.into()).or_default().panic_at_step = Some(step);
        self
    }

    /// Schedules a stall of `for_dur` in `stage` just before step `step`.
    pub fn stall_at(mut self, stage: impl Into<String>, step: u64, for_dur: Duration) -> Self {
        self.entries.entry(stage.into()).or_default().stall_at_step = Some((step, for_dur));
        self
    }

    /// Adds a fixed delay before every step of `stage`.
    pub fn slow_down(mut self, stage: impl Into<String>, per_step: Duration) -> Self {
        self.entries
            .entry(stage.into())
            .or_default()
            .slowdown_per_step = Some(per_step);
        self
    }

    /// Derives a random-looking but fully deterministic plan from `seed`.
    ///
    /// Each named stage independently draws one fault kind (or none): a
    /// panic or a stall at a step in `[1, max_step]`, a slowdown of
    /// 50–550 µs per step, or nothing. Stall durations are 1–32 ms. The
    /// same seed and stage list always produce an identical plan —
    /// [`FaultPlan::schedule`] renders byte-identically across runs.
    pub fn seeded(seed: u64, stages: &[&str], max_step: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let max_step = max_step.max(1);
        let mut plan = Self::new();
        for &stage in stages {
            let step = 1 + rng.next() % max_step;
            plan = match rng.next() % 4 {
                0 => plan.panic_at(stage, step),
                1 => plan.stall_at(stage, step, Duration::from_millis(1 + rng.next() % 32)),
                2 => plan.slow_down(stage, Duration::from_micros(50 + rng.next() % 500)),
                _ => plan, // this stage stays healthy
            };
        }
        plan
    }

    /// The faults scheduled for `stage`, if any.
    pub fn get(&self, stage: &str) -> Option<&StageFaults> {
        self.entries.get(stage)
    }

    /// Number of stages with at least one scheduled fault.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no stage has a scheduled fault.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A canonical one-line-per-stage rendering of the schedule.
    ///
    /// Stable across runs for the same plan: used to assert that seeded
    /// generation is byte-identical, and handy in failing-test output.
    pub fn schedule(&self) -> String {
        let mut out = String::new();
        for (stage, f) in &self.entries {
            out.push_str(stage);
            out.push(':');
            if let Some(at) = f.panic_at_step {
                out.push_str(&format!(" panic@{at}"));
            }
            if let Some((at, dur)) = f.stall_at_step {
                out.push_str(&format!(" stall@{at}/{}us", dur.as_micros()));
            }
            if let Some(delay) = f.slowdown_per_step {
                out.push_str(&format!(" slow/{}us", delay.as_micros()));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.schedule())
    }
}

/// A deterministic worker-kill schedule for serve-pool chaos testing.
///
/// Maps serve request ids to "kill the worker serving this request":
/// when a worker picks up a targeted request its serve path unwinds
/// mid-run (after marking itself busy), exactly as if serve code outside
/// the caller-closure fences had panicked. The worker's per-request fence
/// answers the request with `CoreError::ReplicaPanicked { context:
/// "serve", .. }` and the same thread serves on, so a killed request is
/// never re-dispatched and each kill fires once.
///
/// Like [`FaultPlan`], plans are fully deterministic:
/// [`WorkerKillPlan::seeded`] derives the targeted ids from a single
/// `u64` seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerKillPlan {
    requests: BTreeSet<u64>,
}

impl WorkerKillPlan {
    /// An empty plan (no kills).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a worker kill while serving request `id`.
    pub fn kill_request(mut self, id: u64) -> Self {
        self.requests.insert(id);
        self
    }

    /// Derives a deterministic plan from `seed` that kills the workers
    /// serving `kills` distinct request ids drawn from `[0, requests)`.
    pub fn seeded(seed: u64, requests: u64, kills: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Self::new();
        if requests == 0 {
            return plan;
        }
        let kills = kills.min(requests as usize);
        while plan.requests.len() < kills {
            plan.requests.insert(rng.next() % requests);
        }
        plan
    }

    /// Whether request `id` is scheduled to kill its worker.
    pub fn targets(&self, id: u64) -> bool {
        self.requests.contains(&id)
    }

    /// Number of targeted request ids.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` if no kill is scheduled.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// SplitMix64: tiny, seedable, and statistically fine for schedules.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_faults_per_stage() {
        let plan = FaultPlan::new()
            .panic_at("f", 5)
            .stall_at("f", 2, Duration::from_millis(3))
            .slow_down("g", Duration::from_micros(100));
        let f = plan.get("f").unwrap();
        assert_eq!(f.panic_at_step, Some(5));
        assert_eq!(f.stall_at_step, Some((2, Duration::from_millis(3))));
        assert!(f.slowdown_per_step.is_none());
        assert!(plan.get("g").unwrap().stall_at_step.is_none());
        assert!(plan.get("h").is_none());
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn seeded_plans_are_byte_identical() {
        let stages = ["f", "g", "h"];
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let a = FaultPlan::seeded(seed, &stages, 100);
            let b = FaultPlan::seeded(seed, &stages, 100);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a.schedule(), b.schedule(), "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_eventually_differ() {
        let stages = ["f", "g", "h"];
        let reference = FaultPlan::seeded(0, &stages, 100).schedule();
        assert!(
            (1..50u64).any(|s| FaultPlan::seeded(s, &stages, 100).schedule() != reference),
            "50 consecutive seeds produced identical schedules"
        );
    }

    #[test]
    fn armed_panic_is_one_shot() {
        let mut armed = ArmedFaults::new(StageFaults {
            panic_at_step: Some(3),
            ..Default::default()
        });
        armed.before_step("t", 0);
        armed.before_step("t", 2);
        let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            armed.before_step("t", 3);
        }));
        assert!(fired.is_err(), "panic must fire at its step");
        // Disarmed: reaching the step again (post-restart) is fine.
        armed.before_step("t", 3);
        armed.before_step("t", 4);
    }

    #[test]
    fn armed_stall_fires_once_and_delays() {
        let mut armed = ArmedFaults::new(StageFaults {
            stall_at_step: Some((1, Duration::from_millis(15))),
            ..Default::default()
        });
        let start = std::time::Instant::now();
        armed.before_step("t", 0);
        assert!(start.elapsed() < Duration::from_millis(10));
        let start = std::time::Instant::now();
        armed.before_step("t", 1);
        assert!(start.elapsed() >= Duration::from_millis(14));
        let start = std::time::Instant::now();
        armed.before_step("t", 1);
        assert!(
            start.elapsed() < Duration::from_millis(10),
            "stall re-fired"
        );
    }

    #[test]
    fn schedule_rendering_is_stable_and_sorted() {
        let plan = FaultPlan::new()
            .slow_down("zeta", Duration::from_micros(10))
            .panic_at("alpha", 7);
        assert_eq!(plan.schedule(), "alpha: panic@7\nzeta: slow/10us\n");
        assert_eq!(plan.to_string(), plan.schedule());
    }

    #[test]
    fn empty_faults_detected() {
        assert!(StageFaults::default().is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn worker_kill_plans_are_deterministic_and_bounded() {
        assert!(WorkerKillPlan::new().is_empty());
        let plan = WorkerKillPlan::new().kill_request(3).kill_request(3);
        assert_eq!(plan.len(), 1);
        assert!(plan.targets(3) && !plan.targets(4));
        for seed in [0u64, 7, 0xA17] {
            let a = WorkerKillPlan::seeded(seed, 40, 5);
            let b = WorkerKillPlan::seeded(seed, 40, 5);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a.len(), 5);
        }
        // More kills than requests clamps; zero requests stays empty.
        assert_eq!(WorkerKillPlan::seeded(1, 3, 10).len(), 3);
        assert!(WorkerKillPlan::seeded(1, 0, 10).is_empty());
    }
}
