//! Closed-loop pool governance: the brownout policy and controller.
//!
//! The governor is the serving pool's overload control plane. When a
//! [`BrownoutPolicy`] is installed ([`crate::serve::ServeOptions::brownout`]),
//! [`crate::serve::ServePool`] spawns one standing thread (modeled on the
//! `anytime-supervisor` watchdog) that ticks every [`BrownoutPolicy::tick`]
//! and folds windowed overload signals (deadline miss rate, shed/clamp
//! activity, RTA bound violations, projected queue delay) into the
//! [`BrownoutState`] ladder. Each rung trades a little quality for
//! availability: hedging off, wider batch windows, clamped budgets for
//! low-floor work, and finally tightened admission. De-escalation uses a
//! separate (stricter) threshold and a longer streak so the ladder has
//! hysteresis and does not flap. Without a policy no governor thread
//! runs: replica threads cannot die (each request's serve path runs
//! behind a panic fence), so there is nothing else to watch.
//!
//! Everything in this module is deliberately free of generics and I/O so
//! the controller can be unit-tested as a pure state machine.

use std::time::Duration;

use crate::error::{CoreError, Result};
use crate::metrics::DeadlineHistogramStats;

/// Degradation rung the pool is currently operating at.
///
/// The ladder is ordered: each state implies every mitigation of the
/// states below it. `Normal < Hedgeless < Brownout < Shed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BrownoutState {
    /// Full service: hedging enabled, no clamping, normal admission.
    #[default]
    Normal,
    /// Hedging disabled — stop spending duplicate capacity first.
    Hedgeless,
    /// Plus: batch window widened and low-floor requests get a clamped
    /// budget (quality degrades, availability does not).
    Brownout,
    /// Plus: admission tightened so infeasible work is refused earlier.
    Shed,
}

impl BrownoutState {
    /// Stable numeric encoding, also used for the Prometheus gauge.
    pub fn as_u8(self) -> u8 {
        match self {
            BrownoutState::Normal => 0,
            BrownoutState::Hedgeless => 1,
            BrownoutState::Brownout => 2,
            BrownoutState::Shed => 3,
        }
    }

    /// Inverse of [`Self::as_u8`]; out-of-range values clamp to `Shed`.
    pub fn from_u8(raw: u8) -> Self {
        match raw {
            0 => BrownoutState::Normal,
            1 => BrownoutState::Hedgeless,
            2 => BrownoutState::Brownout,
            _ => BrownoutState::Shed,
        }
    }

    /// Lowercase name used in trace events and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            BrownoutState::Normal => "normal",
            BrownoutState::Hedgeless => "hedgeless",
            BrownoutState::Brownout => "brownout",
            BrownoutState::Shed => "shed",
        }
    }

    /// One rung up the ladder, or `None` at the top.
    pub fn escalated(self) -> Option<Self> {
        match self {
            BrownoutState::Normal => Some(BrownoutState::Hedgeless),
            BrownoutState::Hedgeless => Some(BrownoutState::Brownout),
            BrownoutState::Brownout => Some(BrownoutState::Shed),
            BrownoutState::Shed => None,
        }
    }

    /// One rung down the ladder, or `None` at the bottom.
    pub fn relaxed(self) -> Option<Self> {
        match self {
            BrownoutState::Normal => None,
            BrownoutState::Hedgeless => Some(BrownoutState::Normal),
            BrownoutState::Brownout => Some(BrownoutState::Hedgeless),
            BrownoutState::Shed => Some(BrownoutState::Brownout),
        }
    }
}

/// Knobs for the closed-loop brownout controller.
///
/// All thresholds are evaluated once per governor tick over the deltas
/// accumulated since the previous tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutPolicy {
    /// Interval between governor ticks. The governor sleeps
    /// interruptibly, so shutdown never waits out a full tick.
    pub tick: Duration,
    /// Windowed deadline-miss rate at or above which a tick counts as
    /// "hot" (pressure present). Must be in `(0, 1]` and strictly above
    /// [`Self::exit_miss_rate`].
    pub enter_miss_rate: f64,
    /// Miss rate at or below which a tick counts as "cool". The gap
    /// between enter and exit is the hysteresis band.
    pub exit_miss_rate: f64,
    /// Queue depth at or above which a tick counts as hot regardless of
    /// the miss rate.
    pub enter_queue: usize,
    /// Projected queue delay above which a tick counts as hot.
    pub max_queue_delay: Duration,
    /// Consecutive hot ticks required to escalate one rung.
    pub up_ticks: u32,
    /// Consecutive cool ticks required to de-escalate one rung. Usually
    /// larger than `up_ticks`: escalate fast, recover slowly.
    pub down_ticks: u32,
    /// Minimum responses in a tick window for the miss rate to be
    /// trusted; below this the miss-rate signal is ignored.
    pub min_window: u64,
    /// Requests with floors at or below this value are eligible for
    /// budget clamping in `Brownout` and `Shed`.
    pub clamp_floor: f64,
    /// Budget imposed on clamped requests (their deadline is kept, only
    /// the compute budget shrinks — quality degrades, never the answer).
    pub clamp_budget: Duration,
    /// Multiplier applied to the batch gather window in `Brownout` and
    /// above. Must be ≥ 1.
    pub batch_widen: f64,
    /// Multiplier applied to the minimum-service floor used by
    /// admission-side reachability checks in `Shed`. Must be ≥ 1.
    pub admission_tighten: f64,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            tick: Duration::from_millis(5),
            enter_miss_rate: 0.2,
            exit_miss_rate: 0.05,
            enter_queue: 8,
            max_queue_delay: Duration::from_millis(50),
            up_ticks: 2,
            down_ticks: 4,
            min_window: 8,
            clamp_floor: 0.3,
            clamp_budget: Duration::from_millis(10),
            batch_widen: 4.0,
            admission_tighten: 2.0,
        }
    }
}

impl BrownoutPolicy {
    /// Rejects self-contradictory knob combinations.
    pub fn validate(&self) -> Result<()> {
        if self.tick.is_zero() {
            return Err(CoreError::InvalidConfig(
                "brownout tick must be non-zero".into(),
            ));
        }
        if !(self.enter_miss_rate > 0.0 && self.enter_miss_rate <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "brownout enter_miss_rate must be in (0, 1], got {}",
                self.enter_miss_rate
            )));
        }
        if !(self.exit_miss_rate >= 0.0 && self.exit_miss_rate < self.enter_miss_rate) {
            return Err(CoreError::InvalidConfig(format!(
                "brownout exit_miss_rate must be in [0, enter_miss_rate), got {}",
                self.exit_miss_rate
            )));
        }
        if self.enter_queue == 0 {
            return Err(CoreError::InvalidConfig(
                "brownout enter_queue must be at least 1".into(),
            ));
        }
        if self.up_ticks == 0 || self.down_ticks == 0 {
            return Err(CoreError::InvalidConfig(
                "brownout up_ticks/down_ticks must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.clamp_floor) {
            return Err(CoreError::InvalidConfig(format!(
                "brownout clamp_floor must be in [0, 1], got {}",
                self.clamp_floor
            )));
        }
        if self.clamp_budget.is_zero() {
            return Err(CoreError::InvalidConfig(
                "brownout clamp_budget must be non-zero".into(),
            ));
        }
        if self.batch_widen < 1.0 || !self.batch_widen.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "brownout batch_widen must be a finite value >= 1, got {}",
                self.batch_widen
            )));
        }
        if self.admission_tighten < 1.0 || !self.admission_tighten.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "brownout admission_tighten must be a finite value >= 1, got {}",
                self.admission_tighten
            )));
        }
        Ok(())
    }
}

/// Per-tick overload signals, already reduced to deltas over the window
/// since the previous tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickSignals {
    /// Responses recorded in the window.
    pub responses: u64,
    /// Responses in the window that overshot their deadline.
    pub misses: u64,
    /// Current queue depth (instantaneous, not a delta).
    pub queue_depth: usize,
    /// Projected wait for a request admitted right now.
    pub queue_delay: Duration,
    /// Requests shed in the window.
    pub shed_delta: u64,
    /// RTA bound violations observed in the window.
    pub bound_violation_delta: u64,
}

impl TickSignals {
    /// Windowed deadline-miss rate; 0 when the window is empty.
    pub fn miss_rate(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.misses as f64 / self.responses as f64
        }
    }
}

/// The hysteresis state machine that walks [`BrownoutState`] up and down
/// the ladder one rung at a time.
#[derive(Debug)]
pub struct BrownoutControl {
    policy: BrownoutPolicy,
    state: BrownoutState,
    hot_streak: u32,
    cool_streak: u32,
}

impl BrownoutControl {
    /// A controller starting at `Normal`.
    pub fn new(policy: BrownoutPolicy) -> Self {
        BrownoutControl {
            policy,
            state: BrownoutState::Normal,
            hot_streak: 0,
            cool_streak: 0,
        }
    }

    /// Current rung.
    pub fn state(&self) -> BrownoutState {
        self.state
    }

    /// Folds one tick's signals into the controller. Returns the
    /// `(from, to)` pair when this tick crossed a rung boundary.
    pub fn observe(&mut self, s: TickSignals) -> Option<(BrownoutState, BrownoutState)> {
        let p = &self.policy;
        let miss_hot = s.responses >= p.min_window && s.miss_rate() >= p.enter_miss_rate;
        let hot = miss_hot
            || s.queue_depth >= p.enter_queue
            || s.shed_delta > 0
            || s.bound_violation_delta > 0
            || s.queue_delay > p.max_queue_delay;
        let cool = !hot
            && (s.responses == 0 || s.miss_rate() <= p.exit_miss_rate)
            && s.queue_depth <= p.enter_queue / 2
            && s.queue_delay <= p.max_queue_delay / 2;

        if hot {
            self.cool_streak = 0;
            self.hot_streak = self.hot_streak.saturating_add(1);
            if self.hot_streak >= p.up_ticks {
                if let Some(next) = self.state.escalated() {
                    let from = self.state;
                    self.state = next;
                    self.hot_streak = 0;
                    return Some((from, next));
                }
                self.hot_streak = 0;
            }
        } else if cool {
            self.hot_streak = 0;
            self.cool_streak = self.cool_streak.saturating_add(1);
            if self.cool_streak >= p.down_ticks {
                if let Some(next) = self.state.relaxed() {
                    let from = self.state;
                    self.state = next;
                    self.cool_streak = 0;
                    return Some((from, next));
                }
                self.cool_streak = 0;
            }
        } else {
            // Neither clearly hot nor clearly cool: hold the rung and
            // restart both streaks so a mixed window never flaps.
            self.hot_streak = 0;
            self.cool_streak = 0;
        }
        None
    }
}

/// Differ that turns cumulative pool counters into per-tick deltas for
/// [`BrownoutControl::observe`].
#[derive(Debug, Default)]
pub struct SignalWindow {
    prev_responses: u64,
    prev_misses: u64,
    prev_shed: u64,
    prev_violations: u64,
}

impl SignalWindow {
    /// A window with no history (the first tick sees all-zero deltas
    /// against the pool's state at construction).
    pub fn new() -> Self {
        SignalWindow::default()
    }

    /// Reduces cumulative counters to this tick's [`TickSignals`].
    ///
    /// `deadlines` is the pool's deadline histogram snapshot; the miss
    /// count is its unbounded overshoot bucket, matching
    /// [`DeadlineHistogramStats::hit_rate`]'s definition of a miss.
    pub fn tick(
        &mut self,
        deadlines: &DeadlineHistogramStats,
        shed: u64,
        bound_violations: u64,
        queue_depth: usize,
        queue_delay: Duration,
    ) -> TickSignals {
        let responses = deadlines.count();
        let misses = *deadlines.buckets.last().expect("histogram has buckets");
        let signals = TickSignals {
            responses: responses.saturating_sub(self.prev_responses),
            misses: misses.saturating_sub(self.prev_misses),
            queue_depth,
            queue_delay,
            shed_delta: shed.saturating_sub(self.prev_shed),
            bound_violation_delta: bound_violations.saturating_sub(self.prev_violations),
        };
        self.prev_responses = responses;
        self.prev_misses = misses;
        self.prev_shed = shed;
        self.prev_violations = bound_violations;
        signals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot() -> TickSignals {
        TickSignals {
            responses: 20,
            misses: 10,
            queue_depth: 0,
            queue_delay: Duration::ZERO,
            shed_delta: 0,
            bound_violation_delta: 0,
        }
    }

    fn cool() -> TickSignals {
        TickSignals::default()
    }

    fn policy() -> BrownoutPolicy {
        BrownoutPolicy {
            up_ticks: 2,
            down_ticks: 3,
            ..BrownoutPolicy::default()
        }
    }

    #[test]
    fn ladder_is_ordered_and_round_trips() {
        use BrownoutState::*;
        assert!(Normal < Hedgeless && Hedgeless < Brownout && Brownout < Shed);
        for s in [Normal, Hedgeless, Brownout, Shed] {
            assert_eq!(BrownoutState::from_u8(s.as_u8()), s);
            assert!(!s.as_str().is_empty());
        }
        assert_eq!(Normal.relaxed(), None);
        assert_eq!(Shed.escalated(), None);
        assert_eq!(Normal.escalated(), Some(Hedgeless));
        assert_eq!(Shed.relaxed(), Some(Brownout));
        assert_eq!(BrownoutState::from_u8(200), Shed);
    }

    #[test]
    fn default_policies_validate() {
        BrownoutPolicy::default().validate().expect("brownout");
    }

    #[test]
    fn invalid_policies_are_rejected() {
        let bad = |p: BrownoutPolicy| p.validate().expect_err("must reject");
        bad(BrownoutPolicy {
            enter_miss_rate: 0.0,
            ..BrownoutPolicy::default()
        });
        bad(BrownoutPolicy {
            exit_miss_rate: 0.5,
            enter_miss_rate: 0.4,
            ..BrownoutPolicy::default()
        });
        bad(BrownoutPolicy {
            enter_queue: 0,
            ..BrownoutPolicy::default()
        });
        bad(BrownoutPolicy {
            up_ticks: 0,
            ..BrownoutPolicy::default()
        });
        bad(BrownoutPolicy {
            clamp_floor: 1.5,
            ..BrownoutPolicy::default()
        });
        bad(BrownoutPolicy {
            clamp_budget: Duration::ZERO,
            ..BrownoutPolicy::default()
        });
        bad(BrownoutPolicy {
            batch_widen: 0.5,
            ..BrownoutPolicy::default()
        });
        bad(BrownoutPolicy {
            admission_tighten: f64::NAN,
            ..BrownoutPolicy::default()
        });
        bad(BrownoutPolicy {
            tick: Duration::ZERO,
            ..BrownoutPolicy::default()
        });
    }

    #[test]
    fn escalates_after_up_ticks_and_recovers_after_down_ticks() {
        let mut c = BrownoutControl::new(policy());
        assert_eq!(c.observe(hot()), None);
        assert_eq!(
            c.observe(hot()),
            Some((BrownoutState::Normal, BrownoutState::Hedgeless))
        );
        assert_eq!(c.state(), BrownoutState::Hedgeless);
        // Two more hot ticks climb the next rung.
        assert_eq!(c.observe(hot()), None);
        assert_eq!(
            c.observe(hot()),
            Some((BrownoutState::Hedgeless, BrownoutState::Brownout))
        );
        // Cooling takes down_ticks = 3 per rung.
        assert_eq!(c.observe(cool()), None);
        assert_eq!(c.observe(cool()), None);
        assert_eq!(
            c.observe(cool()),
            Some((BrownoutState::Brownout, BrownoutState::Hedgeless))
        );
        assert_eq!(c.observe(cool()), None);
        assert_eq!(c.observe(cool()), None);
        assert_eq!(
            c.observe(cool()),
            Some((BrownoutState::Hedgeless, BrownoutState::Normal))
        );
        // At the bottom further cool ticks are inert.
        for _ in 0..5 {
            assert_eq!(c.observe(cool()), None);
        }
        assert_eq!(c.state(), BrownoutState::Normal);
    }

    #[test]
    fn mixed_ticks_hold_the_current_rung() {
        let mut c = BrownoutControl::new(policy());
        c.observe(hot());
        c.observe(hot());
        assert_eq!(c.state(), BrownoutState::Hedgeless);
        // Not hot, but queue still half-full: neither hot nor cool.
        let mixed = TickSignals {
            queue_depth: 5,
            ..TickSignals::default()
        };
        for _ in 0..10 {
            assert_eq!(c.observe(mixed), None);
        }
        assert_eq!(c.state(), BrownoutState::Hedgeless);
        // A single hot tick after the hold must not escalate (streak
        // was reset by the mixed ticks).
        assert_eq!(c.observe(hot()), None);
    }

    #[test]
    fn queue_and_violation_signals_are_hot_without_misses() {
        let mut c = BrownoutControl::new(policy());
        let queue_hot = TickSignals {
            queue_depth: 8,
            ..TickSignals::default()
        };
        c.observe(queue_hot);
        assert_eq!(
            c.observe(queue_hot),
            Some((BrownoutState::Normal, BrownoutState::Hedgeless))
        );
        let mut c = BrownoutControl::new(policy());
        let viol = TickSignals {
            bound_violation_delta: 1,
            ..TickSignals::default()
        };
        c.observe(viol);
        assert!(c.observe(viol).is_some());
        let mut c = BrownoutControl::new(policy());
        let delay = TickSignals {
            queue_delay: Duration::from_secs(1),
            ..TickSignals::default()
        };
        c.observe(delay);
        assert!(c.observe(delay).is_some());
    }

    #[test]
    fn small_windows_do_not_trust_miss_rate() {
        let mut c = BrownoutControl::new(policy());
        // 100% miss rate but below min_window: not hot.
        let tiny = TickSignals {
            responses: 2,
            misses: 2,
            ..TickSignals::default()
        };
        for _ in 0..10 {
            assert_eq!(c.observe(tiny), None);
        }
        assert_eq!(c.state(), BrownoutState::Normal);
    }

    #[test]
    fn signal_window_produces_deltas() {
        let mut w = SignalWindow::new();
        let mut hist = DeadlineHistogramStats::default();
        hist.buckets[0] = 4;
        hist.buckets[6] = 1;
        let s = w.tick(&hist, 2, 1, 3, Duration::from_millis(7));
        assert_eq!(s.responses, 5);
        assert_eq!(s.misses, 1);
        assert_eq!(s.shed_delta, 2);
        assert_eq!(s.bound_violation_delta, 1);
        assert_eq!(s.queue_depth, 3);
        // Second tick with unchanged counters: all-zero deltas.
        let s = w.tick(&hist, 2, 1, 0, Duration::ZERO);
        assert_eq!(s.responses, 0);
        assert_eq!(s.misses, 0);
        assert_eq!(s.shed_delta, 0);
        assert_eq!(s.bound_violation_delta, 0);
        // Growth shows up as the difference.
        hist.buckets[6] = 3;
        let s = w.tick(&hist, 5, 1, 0, Duration::ZERO);
        assert_eq!(s.responses, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.shed_delta, 3);
    }
}
