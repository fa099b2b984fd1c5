//! Response-time analysis for serve admission control.
//!
//! The serving layer's original admission test was occupancy×EWMA
//! guesswork: multiply a smoothed service latency by the queue depth and
//! hope. This module replaces the guess with a small analytical model in
//! the style of real-time feasibility analysis: per-request **supply
//! curves** (how fast a replica run raises output quality, measured as the
//! first-crossing time of each quality threshold) and a **demand** term
//! (the backlog of admitted work ahead of a new request), combined into
//! two response-time bounds per `(floor, backlog)` pair:
//!
//! - a **certified lower bound** ([`Analysis::lower`]) — under the model
//!   *"no run reaches a quality threshold faster than
//!   [`RtaPolicy::optimism`] × the fastest crossing ever observed"*, no
//!   schedule can answer the request sooner. A deadline below this bound
//!   is **provably infeasible**: the pool rejects it instantly with
//!   [`crate::CoreError::Infeasible`] carrying the bound, instead of
//!   admitting work it has proven it cannot serve.
//! - a **calibrated worst-case bound** ([`Analysis::upper`]) — the slowest
//!   observed crossing inflated by [`RtaPolicy::margin`], plus the queued
//!   demand ahead and the control-plane wakeup overhead. The difference
//!   `deadline − upper` is the request's **slack**, and the serving
//!   layer's derived budgets all come from these bounds: retry backoff
//!   is capped so the final attempt still fits inside the bound, and a
//!   request admitted behind a queue with negative slack is shed: its run is capped at its floor's worst-case service bound
//!   ([`Analysis::service_upper`]) once it has met its floor.
//!
//! Calibration is **online**: every replica run feeds its quality
//! observations (the same publish events [`crate::trace::Recorder`]
//! records) through a [`RunTracker`], and the per-stage control-plane
//! overhead comes from the buffer's [`WaitStats`] — no offline profiling
//! pass. Until [`RtaPolicy::min_runs`] runs have been absorbed the gate
//! reports itself uncalibrated and admission falls back to the EWMA
//! heuristic, so a cold pool never "proves" anything from zero data.
//!
//! The model is falsifiable, and the repo's chaos/soak suites try: fault
//! plans inject stalls and slowdowns mid-run and assert that requests
//! admitted by the analytical gate still meet their quality floors (the
//! derived retry budget is the defense), while the
//! predicted-vs-actual bound error is exported as a Prometheus gauge
//! (`anytime_rta_bound_error_ratio`, see [`crate::metrics::RtaCounters`]).

use crate::error::{CoreError, Result};
use crate::metrics::{Counter, WaitStats};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Quality thresholds tracked per supply curve: bin `i` is the threshold
/// `i / (BINS - 1)` on the clamped `[0, 1]` quality scale, so bin 0 is
/// "any output at all" (first publish) and the last bin is full quality.
const BINS: usize = 32;

/// Configuration for the analytical admission gate.
///
/// Install on a pool through [`crate::ServeOptions`] (`rta` field /
/// builder). All factors are model knobs, not magic: `optimism` scales the
/// best observed crossing down before it is used to *prove* infeasibility
/// (smaller = harder to prove = fewer false rejections), `margin` scales
/// the worst observed crossing up before it is used as the worst-case
/// bound (larger = more conservative slack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtaPolicy {
    /// Completed calibration runs required before the gate activates;
    /// below this every admission falls back to the EWMA heuristic.
    pub min_runs: u64,
    /// Factor in `(0, 1]` applied to the fastest observed crossing when
    /// computing the certified lower bound.
    pub optimism: f64,
    /// Factor `≥ 1` applied to the slowest observed crossing when
    /// computing the calibrated worst-case bound.
    pub margin: f64,
    /// Per-threshold sample window: only the most recent `window` runs'
    /// crossings shape the curves, so a transient stall stops poisoning
    /// the bounds once enough healthy runs displace it.
    pub window: usize,
}

impl Default for RtaPolicy {
    fn default() -> Self {
        Self {
            min_runs: 8,
            optimism: 0.5,
            margin: 2.0,
            window: 64,
        }
    }
}

impl RtaPolicy {
    /// Validates the policy's factors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `optimism` is outside
    /// `(0, 1]`, `margin` is below 1 or non-finite, or `window` is zero.
    pub fn validate(&self) -> Result<()> {
        if !(self.optimism > 0.0 && self.optimism <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "rta optimism {} must lie in (0, 1]",
                self.optimism
            )));
        }
        if !(self.margin.is_finite() && self.margin >= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "rta margin {} must be finite and at least 1",
                self.margin
            )));
        }
        if self.window == 0 {
            return Err(CoreError::InvalidConfig(
                "rta window must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// Per-run supply-curve sampler: records the first time each quality
/// threshold was crossed during one replica run.
///
/// Create with [`AdmissionGate::tracker`], feed every quality observation
/// the run produces (the same points the trace recorder's observe events
/// capture), and hand it back through [`AdmissionGate::absorb`] when the
/// run ends. Quality is clamped to `[0, 1]`; times are run-relative.
#[derive(Debug, Clone)]
pub struct RunTracker {
    /// First-crossing time (nanos since run start) per threshold bin.
    crossings: [Option<u64>; BINS],
}

impl RunTracker {
    fn new() -> Self {
        Self {
            crossings: [None; BINS],
        }
    }

    /// Records one quality observation at `elapsed` since the run started.
    /// Only the *first* crossing of each threshold is kept; later (or
    /// lower-quality) observations are free no-ops.
    pub fn observe(&mut self, elapsed: Duration, quality: f64) {
        let q = if quality.is_nan() {
            return;
        } else {
            quality.clamp(0.0, 1.0)
        };
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        for bin in 0..BINS {
            if threshold(bin) > q {
                break;
            }
            if self.crossings[bin].is_none() {
                self.crossings[bin] = Some(ns);
            }
        }
    }

    /// `true` once the run crossed at least the first threshold (published
    /// anything); empty trackers are ignored at absorption.
    pub fn has_samples(&self) -> bool {
        self.crossings[0].is_some()
    }
}

/// The quality threshold of a curve bin.
fn threshold(bin: usize) -> f64 {
    bin as f64 / (BINS - 1) as f64
}

/// The bin whose threshold is the smallest one at or above `floor`: its
/// crossing times upper-bound the time to reach `floor` itself.
fn bin_above(floor: f64) -> usize {
    let f = floor.clamp(0.0, 1.0);
    (f * (BINS - 1) as f64).ceil() as usize
}

/// The bin whose threshold is the largest one at or below `floor`: a run
/// reaches `floor` no sooner than it crossed that threshold, so its
/// crossing times are sound lower-bound evidence.
fn bin_below(floor: f64) -> usize {
    let f = floor.clamp(0.0, 1.0);
    (f * (BINS - 1) as f64).floor() as usize
}

/// The backlog a request faces at admission: the demand side of the
/// analysis, computed by the pool from the same occupancy scan its EWMA
/// projection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backlog {
    /// Requests already queued (admitted, unstarted) ahead of this one.
    pub queued: usize,
    /// Replica workers taking new work (not draining after a resize).
    pub healthy: usize,
    /// Requests one run can serve at once (1 unless the pool batches).
    pub batch_size: usize,
    /// `true` when at least one of those replicas is idle right now.
    pub any_idle: bool,
    /// When every such replica is mid-run: the soonest replica's
    /// estimated remaining occupancy. An *estimate* (EWMA-derived), so it
    /// widens only the worst-case bound, never the certified lower one.
    pub soonest_free: Duration,
}

/// The two response-time bounds the gate computes for one
/// `(floor, backlog)` pair. All durations are from admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Analysis {
    /// Worst-case queue delay: full service runs for every wave of queued
    /// requests ahead, plus the busiest-case replica residual.
    pub queue_delay: Duration,
    /// Certified optimistic time for one run to reach the floor.
    pub service_lower: Duration,
    /// Calibrated worst-case time for one run to reach the floor,
    /// including the measured control-plane wakeup overhead.
    pub service_upper: Duration,
    /// Certified lower bound on time-to-floor including queued demand: a
    /// deadline below this is provably infeasible under the model.
    pub lower: Duration,
    /// Calibrated worst-case bound; `deadline − upper` is the slack every
    /// derived budget works from.
    pub upper: Duration,
}

impl Analysis {
    /// The request's slack against `budget`: how much later than the
    /// worst-case bound its deadline sits. `None` when the worst-case
    /// bound already misses the deadline (negative slack) — behind a
    /// queue, such a request is shed to its floor's service bound.
    pub fn slack(&self, budget: Duration) -> Option<Duration> {
        budget.checked_sub(self.upper)
    }
}

/// Caps a retry backoff so the attempt after the sleep still fits its
/// worst-case service bound inside the remaining budget, with the cap
/// halved to leave the same again for scheduling slop. Zero when the
/// bound already consumes the budget — retry immediately or not at all.
pub fn backoff_cap(remaining: Duration, service_upper: Duration) -> Duration {
    remaining.saturating_sub(service_upper) / 2
}

/// Per-threshold windowed crossing samples.
#[derive(Debug, Default)]
struct Curves {
    /// `rings[bin]` holds the most recent runs' first-crossing nanos.
    rings: Vec<VecDeque<u64>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The analytical admission gate: windowed supply curves calibrated
/// online from run observations, queried per admission for response-time
/// bounds.
///
/// Shared between submitters (admission-time [`AdmissionGate::analyze`])
/// and workers (run-end [`AdmissionGate::absorb`]); all state sits behind
/// one mutex held for microseconds, plus monotone counters.
#[derive(Debug)]
pub struct AdmissionGate {
    policy: RtaPolicy,
    curves: Mutex<Curves>,
    /// Completed calibration runs absorbed.
    runs: Counter,
    /// Summed publish→observe latency (nanos) from absorbed [`WaitStats`].
    control_ns: Counter,
    /// Observations behind `control_ns`.
    control_obs: Counter,
}

impl AdmissionGate {
    /// Creates a gate with the given policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid policy (see
    /// [`RtaPolicy::validate`]).
    pub fn new(policy: RtaPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(Self {
            policy,
            curves: Mutex::new(Curves {
                rings: vec![VecDeque::new(); BINS],
            }),
            runs: Counter::default(),
            control_ns: Counter::default(),
            control_obs: Counter::default(),
        })
    }

    /// The gate's policy.
    pub fn policy(&self) -> &RtaPolicy {
        &self.policy
    }

    /// A fresh per-run sampler for [`AdmissionGate::absorb`].
    pub fn tracker(&self) -> RunTracker {
        RunTracker::new()
    }

    /// Folds one finished run's crossings into the windowed curves. Runs
    /// that never published ([`RunTracker::has_samples`] false) are
    /// ignored — a run that died before its first output says nothing
    /// about how fast quality rises.
    pub fn absorb(&self, tracker: &RunTracker) {
        if !tracker.has_samples() {
            return;
        }
        {
            let mut curves = lock(&self.curves);
            for (bin, crossing) in tracker.crossings.iter().enumerate() {
                if let Some(ns) = crossing {
                    let ring = &mut curves.rings[bin];
                    if ring.len() == self.policy.window {
                        ring.pop_front();
                    }
                    ring.push_back(*ns);
                }
            }
        }
        self.runs.inc();
    }

    /// Absorbs a source's control-plane wait statistics: the mean
    /// publish→observe latency becomes the wakeup-overhead term added to
    /// every worst-case service bound (a published snapshot is not an
    /// *answered* snapshot until a waiter wakes and scores it).
    pub fn absorb_wait_stats(&self, stats: &WaitStats) {
        if stats.observations == 0 {
            return;
        }
        let ns = stats
            .total_publish_to_observe
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        self.control_ns.add(ns);
        self.control_obs.add(stats.observations);
    }

    /// Completed calibration runs absorbed so far.
    pub fn runs(&self) -> u64 {
        self.runs.get()
    }

    /// `true` once enough runs were absorbed for the gate to act
    /// ([`RtaPolicy::min_runs`]).
    pub fn calibrated(&self) -> bool {
        self.runs() >= self.policy.min_runs
    }

    /// Mean control-plane wakeup overhead observed so far.
    fn control_overhead(&self) -> Duration {
        let obs = self.control_obs.get();
        if obs == 0 {
            return Duration::ZERO;
        }
        let ns = self.control_ns.get();
        Duration::from_nanos(ns / obs)
    }

    /// Computes the response-time bounds for a request with quality floor
    /// `floor` arriving against `backlog`.
    ///
    /// `None` when the gate is not calibrated yet, or when no absorbed run
    /// has ever reached `floor` — a floor above everything observed cannot
    /// be bounded honestly in either direction, so the caller falls back
    /// to its heuristic instead of "proving" from missing data.
    pub fn analyze(&self, floor: f64, backlog: &Backlog) -> Option<Analysis> {
        if !self.calibrated() {
            return None;
        }
        let (service_lo, service_hi, run_lo, run_hi) = {
            let curves = lock(&self.curves);
            // Bracket the floor between its two neighbouring thresholds:
            // the lower one's fastest crossing is sound lower-bound
            // evidence, the upper one's slowest crossing is an honest
            // worst case for reaching the floor itself.
            let below = &curves.rings[bin_below(floor)];
            let above = &curves.rings[bin_above(floor)];
            let (&lo, &hi) = (below.iter().min()?, above.iter().max()?);
            // Demand term: a queued request ahead holds its replica for a
            // full run — time to the best quality any run achieves, i.e.
            // the highest threshold ever crossed.
            let full = curves.rings.iter().rev().find(|r| !r.is_empty())?;
            let (&flo, &fhi) = (full.iter().min()?, full.iter().max()?);
            (lo, hi, flo, fhi)
        };
        let scale = |ns: u64, f: f64| Duration::from_nanos((ns as f64 * f) as u64);
        let control = self.control_overhead();
        let service_lower = scale(service_lo, self.policy.optimism);
        let service_upper = scale(service_hi, self.policy.margin) + control;
        // Waves of queued work that must fully drain before this request
        // starts: `queued / slots` (the partial wave it rides in is not a
        // wait). Certified side: each wave takes at least the optimistic
        // first-publish time; worst side: a full pessimistic run, plus the
        // soonest-busy residual when nobody is idle (estimate-grade, so it
        // never tightens the proof).
        let slots = (backlog.healthy.max(1) * backlog.batch_size.max(1)) as u32;
        let waves = (backlog.queued as u64 / u64::from(slots)) as u32;
        let delay_lower = scale(run_lo, self.policy.optimism) * waves;
        let mut queue_delay = (scale(run_hi, self.policy.margin) + control) * waves;
        if !backlog.any_idle {
            queue_delay += backlog.soonest_free;
        }
        Some(Analysis {
            queue_delay,
            service_lower,
            service_upper,
            lower: delay_lower + service_lower,
            upper: queue_delay + service_upper,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RtaPolicy {
        RtaPolicy {
            min_runs: 2,
            optimism: 0.5,
            margin: 2.0,
            window: 4,
        }
    }

    /// Feeds one synthetic run whose quality ramps linearly to 1.0 over
    /// `total`.
    fn feed_linear_run(gate: &AdmissionGate, total: Duration) {
        let mut t = gate.tracker();
        for step in 1..=16u32 {
            t.observe(total * step / 16, f64::from(step) / 16.0);
        }
        gate.absorb(&t);
    }

    fn idle_backlog() -> Backlog {
        Backlog {
            queued: 0,
            healthy: 2,
            batch_size: 1,
            any_idle: true,
            soonest_free: Duration::ZERO,
        }
    }

    #[test]
    fn tracker_keeps_first_crossings_only() {
        let gate = AdmissionGate::new(policy()).unwrap();
        let mut t = gate.tracker();
        assert!(!t.has_samples());
        t.observe(Duration::from_millis(3), 0.5);
        t.observe(Duration::from_millis(1), 0.5); // later call, earlier time: ignored
        t.observe(Duration::from_millis(9), 1.0);
        assert!(t.has_samples());
        assert_eq!(
            t.crossings[0],
            Some(Duration::from_millis(3).as_nanos() as u64)
        );
        // The threshold just below 0.5 was crossed by the 3ms observation;
        // the one just above it only by the 9ms full-quality one.
        assert_eq!(
            t.crossings[bin_below(0.5)],
            Some(Duration::from_millis(3).as_nanos() as u64)
        );
        assert_eq!(
            t.crossings[bin_above(0.5)],
            Some(Duration::from_millis(9).as_nanos() as u64)
        );
        assert_eq!(
            t.crossings[BINS - 1],
            Some(Duration::from_millis(9).as_nanos() as u64)
        );
    }

    #[test]
    fn uncalibrated_gate_analyzes_nothing() {
        let gate = AdmissionGate::new(policy()).unwrap();
        assert!(!gate.calibrated());
        assert!(gate.analyze(0.0, &idle_backlog()).is_none());
        feed_linear_run(&gate, Duration::from_millis(8));
        // One run < min_runs = 2.
        assert!(gate.analyze(0.0, &idle_backlog()).is_none());
        feed_linear_run(&gate, Duration::from_millis(8));
        assert!(gate.calibrated());
        assert!(gate.analyze(0.0, &idle_backlog()).is_some());
    }

    #[test]
    fn empty_runs_do_not_count_toward_calibration() {
        let gate = AdmissionGate::new(policy()).unwrap();
        let t = gate.tracker();
        gate.absorb(&t);
        gate.absorb(&t);
        assert_eq!(gate.runs(), 0);
        assert!(!gate.calibrated());
    }

    #[test]
    fn bounds_bracket_the_observed_crossing() {
        let gate = AdmissionGate::new(policy()).unwrap();
        feed_linear_run(&gate, Duration::from_millis(8));
        feed_linear_run(&gate, Duration::from_millis(8));
        let a = gate.analyze(0.5, &idle_backlog()).unwrap();
        // The 16-observation linear 8ms ramp crosses the threshold just
        // below 0.5 (15/31) at 4ms and the one just above (16/31) at
        // 4.5ms; optimism halves the former, margin doubles the latter.
        assert_eq!(a.service_lower, Duration::from_millis(2));
        assert_eq!(a.service_upper, Duration::from_millis(9));
        assert!(a.lower <= a.upper);
        assert_eq!(a.queue_delay, Duration::ZERO);
        assert_eq!(a.lower, a.service_lower);
        // A deadline below the certified bound is the provably-infeasible
        // case; one above the worst case has nonnegative slack.
        assert!(a.lower > Duration::from_millis(1));
        assert_eq!(
            a.slack(Duration::from_millis(10)),
            Some(Duration::from_millis(1))
        );
        assert_eq!(a.slack(Duration::from_millis(7)), None);
    }

    #[test]
    fn queued_demand_raises_both_bounds() {
        let gate = AdmissionGate::new(policy()).unwrap();
        feed_linear_run(&gate, Duration::from_millis(8));
        feed_linear_run(&gate, Duration::from_millis(8));
        let empty = gate.analyze(0.5, &idle_backlog()).unwrap();
        let deep = gate
            .analyze(
                0.5,
                &Backlog {
                    queued: 6,
                    healthy: 2,
                    batch_size: 1,
                    any_idle: false,
                    soonest_free: Duration::from_millis(3),
                },
            )
            .unwrap();
        // 6 queued over 2 replicas = 3 full waves ahead.
        assert!(deep.lower > empty.lower, "{deep:?} vs {empty:?}");
        assert!(deep.upper > empty.upper);
        assert_eq!(deep.lower, empty.lower + Duration::from_millis(12)); // 3 × 4ms optimistic full run
                                                                         // The estimate-grade residual only widens the worst case.
        assert_eq!(deep.queue_delay, Duration::from_millis(3 * 16 + 3));
        // Batching divides the demand: 6 queued over 2 replicas × 4-batches
        // is zero full waves.
        let batched = gate
            .analyze(
                0.5,
                &Backlog {
                    queued: 6,
                    healthy: 2,
                    batch_size: 4,
                    any_idle: true,
                    soonest_free: Duration::ZERO,
                },
            )
            .unwrap();
        assert_eq!(batched.lower, empty.lower);
    }

    #[test]
    fn window_sheds_a_transient_stall() {
        let gate = AdmissionGate::new(policy()).unwrap();
        // One stalled run, then a full window of healthy ones.
        feed_linear_run(&gate, Duration::from_millis(400));
        for _ in 0..4 {
            feed_linear_run(&gate, Duration::from_millis(8));
        }
        let a = gate.analyze(0.5, &idle_backlog()).unwrap();
        assert_eq!(
            a.service_upper,
            Duration::from_millis(9),
            "stalled run still shaping the bound after the window passed"
        );
    }

    #[test]
    fn floors_above_observed_quality_are_not_bounded() {
        let gate = AdmissionGate::new(policy()).unwrap();
        // Runs peak at quality 0.5: nothing above it was ever observed.
        for _ in 0..2 {
            let mut t = gate.tracker();
            t.observe(Duration::from_millis(2), 0.25);
            t.observe(Duration::from_millis(4), 0.5);
            gate.absorb(&t);
        }
        assert!(gate.analyze(0.45, &idle_backlog()).is_some());
        assert!(
            gate.analyze(0.9, &idle_backlog()).is_none(),
            "an unobserved floor must not be 'provable'"
        );
    }

    #[test]
    fn wait_stats_widen_the_worst_case_only() {
        let gate = AdmissionGate::new(policy()).unwrap();
        feed_linear_run(&gate, Duration::from_millis(8));
        feed_linear_run(&gate, Duration::from_millis(8));
        let before = gate.analyze(0.5, &idle_backlog()).unwrap();
        gate.absorb_wait_stats(&WaitStats {
            observations: 4,
            total_publish_to_observe: Duration::from_millis(2),
            ..WaitStats::default()
        });
        let after = gate.analyze(0.5, &idle_backlog()).unwrap();
        assert_eq!(after.service_lower, before.service_lower);
        assert_eq!(
            after.service_upper,
            before.service_upper + Duration::from_micros(500)
        );
    }

    #[test]
    fn backoff_cap_fits_the_bound_in_the_remainder() {
        let cap = backoff_cap(Duration::from_millis(20), Duration::from_millis(8));
        assert_eq!(cap, Duration::from_millis(6));
        assert_eq!(
            backoff_cap(Duration::from_millis(5), Duration::from_millis(8)),
            Duration::ZERO
        );
    }

    #[test]
    fn bounds_bracket_a_run_at_full_quality() {
        // Floor 1.0 is crossed only by the last observation of a run, at
        // its full length: the certified lower bound sits at or below that
        // length and the calibrated upper bound at or above it.
        let run = Duration::from_micros(5_667);
        let gate = AdmissionGate::new(policy()).unwrap();
        for _ in 0..2 {
            feed_linear_run(&gate, run);
        }
        let a = gate.analyze(1.0, &idle_backlog()).unwrap();
        assert!(a.service_lower <= run);
        assert!(a.service_upper >= run);
    }

    #[test]
    fn invalid_policies_are_rejected() {
        for bad in [
            RtaPolicy {
                optimism: 0.0,
                ..RtaPolicy::default()
            },
            RtaPolicy {
                optimism: 1.5,
                ..RtaPolicy::default()
            },
            RtaPolicy {
                margin: 0.5,
                ..RtaPolicy::default()
            },
            RtaPolicy {
                margin: f64::NAN,
                ..RtaPolicy::default()
            },
            RtaPolicy {
                window: 0,
                ..RtaPolicy::default()
            },
        ] {
            assert!(
                AdmissionGate::new(bad).is_err(),
                "accepted invalid policy {bad:?}"
            );
        }
    }
}
