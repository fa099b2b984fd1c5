//! Stage supervision: failure policies, graceful degradation, and the
//! progress watchdog.
//!
//! The automaton's defining guarantee (paper §III-A) is that every
//! published version is a valid whole-application output. Fail-stop error
//! handling squanders that guarantee: a single stage panic or stall
//! collapses the pipeline into an error, throwing away exactly the
//! approximate outputs the model exists to preserve. This module makes
//! failure handling a per-stage policy instead:
//!
//! - [`FailurePolicy::FailStop`] — the stage's first failure is permanent
//!   and propagates as an error (the historical behavior, still the
//!   default);
//! - [`FailurePolicy::Restart`] — a panicked stage driver is re-run on the
//!   same thread, up to `max_attempts` times with a fixed backoff.
//!   Diffusive stages resume from their own output buffer (the last
//!   published version *is* the working state) and iterative stages resume
//!   from the next unpublished level, so restarts do not repeat completed
//!   anytime steps;
//! - [`FailurePolicy::Degrade`] — on permanent producer death the stage's
//!   output buffer is *sealed degraded*: its last published approximate
//!   version is re-published with the degraded flag set, downstream
//!   `wait_final*` calls resolve to it instead of erroring, and dependent
//!   stages propagate the flag to the whole-application output.
//!
//! Orthogonally, a per-stage **progress watchdog** ([`Watchdog`]) detects
//! stalls: if a stage publishes no new version within its heartbeat, the
//! supervisor records a stall and escalates per [`StallAction`] — count it,
//! stop the automaton, or seal the stage degraded so the rest of the
//! pipeline completes around it. The watchdog is event-driven like
//! everything else in the control plane: it blocks on a wait set
//! subscribed to every watched buffer and wakes on publications, never
//! polling between heartbeat deadlines.

use crate::buffer::BufferControl;
use crate::control::ControlToken;
use crate::metrics::FaultCounters;
use crate::notify::WaitSet;
use crate::trace::{EventKind, Recorder, StageId};
use crate::version::Version;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the runtime does when a stage driver fails (panics or returns an
/// error other than a stop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// The first failure is permanent and propagates as an error from
    /// [`crate::Automaton::join`]. Dependent stages observe
    /// [`crate::CoreError::SourceClosed`]. The default.
    #[default]
    FailStop,
    /// Re-run a *panicked* stage driver on the same thread, up to
    /// `max_attempts` extra attempts with `backoff` between them.
    ///
    /// Restarts resume: a [`crate::Diffusive`] stage re-seeds its working
    /// output from its last published version and an [`crate::Iterative`]
    /// stage continues from the next unpublished level (see
    /// [`crate::AnytimeBody::resume`]), so completed anytime steps are not
    /// repeated. Non-panic failures (e.g. a closed upstream) are permanent
    /// immediately — restarting cannot help them. Exhausting the attempts
    /// makes the failure permanent and fail-stop.
    Restart {
        /// Maximum restart attempts after the initial run.
        max_attempts: u32,
        /// Delay before each restart (interrupted promptly by a stop).
        backoff: Duration,
    },
    /// On permanent death, seal the stage's output buffer *degraded*: the
    /// last published approximate version is re-published with
    /// [`crate::Snapshot::is_degraded`] set, downstream `wait_final*`
    /// resolves to it, and dependent stages propagate the flag. If the
    /// stage died before publishing anything there is nothing to degrade
    /// to, and the failure falls back to fail-stop.
    Degrade,
}

/// How the watchdog escalates a detected stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StallAction {
    /// Count the stall in [`crate::metrics::FaultStats`] and keep waiting.
    /// The stall re-arms if the stage publishes again.
    #[default]
    Log,
    /// Stop the whole automaton ([`ControlToken::stop`]): every stage's
    /// latest published output remains readable, per the anytime contract.
    Stop,
    /// Seal the stalled stage's buffer degraded so downstream stages and
    /// `wait_final*` callers complete with its last published version.
    /// Late publications from the stalled (but still running) producer are
    /// dropped and counted, never torn.
    Degrade,
}

/// Per-stage progress watchdog configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// A stall is declared when no new version is published for this long.
    pub heartbeat: Duration,
    /// Escalation on stall.
    pub on_stall: StallAction,
}

/// Per-stage supervision: failure policy plus optional watchdog.
///
/// Attached to a stage through [`crate::StageOptions::supervise`] (or the
/// [`crate::StageOptions::failure_policy`] / [`crate::StageOptions::watchdog`]
/// shorthands).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Supervision {
    /// What to do when the stage driver fails.
    pub policy: FailurePolicy,
    /// Optional publication-progress watchdog.
    pub watchdog: Option<Watchdog>,
}

impl Supervision {
    /// Fail-stop supervision (the default).
    pub fn fail_stop() -> Self {
        Self::default()
    }

    /// Restart supervision with the given attempt budget and backoff.
    pub fn restart(max_attempts: u32, backoff: Duration) -> Self {
        Self {
            policy: FailurePolicy::Restart {
                max_attempts,
                backoff,
            },
            watchdog: None,
        }
    }

    /// Degrade-on-death supervision.
    pub fn degrade() -> Self {
        Self {
            policy: FailurePolicy::Degrade,
            watchdog: None,
        }
    }

    /// Adds a progress watchdog to this supervision.
    pub fn with_watchdog(mut self, heartbeat: Duration, on_stall: StallAction) -> Self {
        self.watchdog = Some(Watchdog {
            heartbeat,
            on_stall,
        });
        self
    }
}

/// Computes the delay before retry `attempt` (0-based) of a failed
/// request: capped exponential backoff with deterministic jitter.
///
/// The raw delay doubles per attempt from `base` and saturates at `cap`;
/// the jittered delay is drawn from `[raw/2, raw]` by a SplitMix64-style
/// hash of `(salt, attempt)`, so the same request retries on the same
/// schedule every run (chaos tests reproduce from their seed) while
/// distinct requests decorrelate instead of retrying in lockstep.
pub(crate) fn retry_backoff(base: Duration, cap: Duration, attempt: u32, salt: u64) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let raw = base
        .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
        .min(cap);
    let half = raw / 2;
    let span = raw.saturating_sub(half);
    if span.is_zero() {
        return raw;
    }
    // SplitMix64 finalizer over (salt, attempt): deterministic, well-mixed.
    let mut z = salt
        .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    half + Duration::from_nanos(z % (span.as_nanos().max(1) as u64))
}

/// One stage under watchdog observation.
pub(crate) struct WatchedStage {
    pub(crate) control: Arc<dyn BufferControl>,
    pub(crate) cfg: Watchdog,
    /// The stage's interned trace id, for stall events.
    pub(crate) stage: StageId,
}

struct WatchState {
    stage: WatchedStage,
    last_version: Option<Version>,
    last_progress: Instant,
    /// Set while a stall stands; cleared when the stage publishes again
    /// (so a Log-policy stage can stall, recover, and stall again).
    stalled: bool,
    /// Set once the stall was escalated terminally (Stop/Degrade) or the
    /// buffer settled; the watchdog stops tracking the stage.
    retired: bool,
}

/// Spawns the supervisor (watchdog) thread for the given stages.
///
/// The thread blocks on a wait set subscribed to every watched buffer and
/// the control token; stage threads additionally bump it on exit. It wakes
/// only on publications, control transitions, stage exits, or the earliest
/// pending heartbeat deadline — no polling quantum.
pub(crate) fn spawn_watchdog(
    watched: Vec<WatchedStage>,
    ctl: ControlToken,
    counters: Arc<FaultCounters>,
    finished: Arc<AtomicUsize>,
    total_stages: usize,
    ws: WaitSet,
    recorder: Recorder,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("anytime-supervisor".into())
        // lint: allow(l6-no-raw-spawn) -- the watchdog observes stalled stages from outside the runtime; as a task it could be starved by the very stall it polices
        .spawn(move || {
            let now = Instant::now();
            let mut states: Vec<WatchState> = watched
                .into_iter()
                .map(|stage| WatchState {
                    last_version: stage.control.latest_version(),
                    last_progress: now,
                    stalled: false,
                    retired: false,
                    stage,
                })
                .collect();
            // Keep the buffer subscriptions alive for the thread's life.
            // The guards borrow from `controls` (not `states`) so the loop
            // below can still mutate the watch states.
            let controls: Vec<Arc<dyn BufferControl>> = states
                .iter()
                .map(|s| Arc::clone(&s.stage.control))
                .collect();
            let _guards: Vec<_> = controls.iter().map(|c| c.subscribe_watch(&ws)).collect();
            let _ctl_guard = ctl.subscribe(&ws);
            loop {
                let seen = ws.epoch();
                if ctl.is_stopped() || finished.load(Ordering::Acquire) == total_stages {
                    return;
                }
                let now = Instant::now();
                let mut next_deadline: Option<Instant> = None;
                for st in &mut states {
                    if st.retired {
                        continue;
                    }
                    if st.stage.control.is_terminal() || st.stage.control.is_closed() {
                        st.retired = true;
                        continue;
                    }
                    let v = st.stage.control.latest_version();
                    if v != st.last_version {
                        st.last_version = v;
                        st.last_progress = now;
                        st.stalled = false;
                    }
                    let deadline = st.last_progress + st.stage.cfg.heartbeat;
                    if now >= deadline {
                        if !st.stalled {
                            st.stalled = true;
                            counters.stalls.inc();
                            recorder.stage_event(EventKind::Stall, st.stage.stage);
                            match st.stage.cfg.on_stall {
                                StallAction::Log => {}
                                StallAction::Stop => {
                                    ctl.stop();
                                    return;
                                }
                                StallAction::Degrade => {
                                    // Count before sealing: the seal wakes
                                    // waiters, and one of them may read the
                                    // fault stats before this thread runs
                                    // again. The seal succeeds whenever a
                                    // version was published (it is idempotent
                                    // past terminal), so gate on that.
                                    if st.stage.control.latest_version().is_some() {
                                        counters.degradations.inc();
                                        st.stage.control.seal_degraded();
                                    }
                                    st.retired = true;
                                }
                            }
                        }
                        // A Log-policy stall stays declared until the next
                        // publication re-arms it; no deadline to track.
                    } else {
                        next_deadline = Some(match next_deadline {
                            Some(d) => d.min(deadline),
                            None => deadline,
                        });
                    }
                }
                if states.iter().all(|s| s.retired) {
                    return;
                }
                match next_deadline {
                    Some(d) => {
                        ws.wait_deadline(seen, d);
                    }
                    None => ws.wait(seen),
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_supervision_is_fail_stop() {
        let s = Supervision::default();
        assert_eq!(s.policy, FailurePolicy::FailStop);
        assert!(s.watchdog.is_none());
        assert_eq!(s, Supervision::fail_stop());
    }

    #[test]
    fn builders_compose() {
        let s = Supervision::restart(3, Duration::from_millis(5))
            .with_watchdog(Duration::from_millis(50), StallAction::Degrade);
        assert_eq!(
            s.policy,
            FailurePolicy::Restart {
                max_attempts: 3,
                backoff: Duration::from_millis(5)
            }
        );
        let wd = s.watchdog.unwrap();
        assert_eq!(wd.heartbeat, Duration::from_millis(50));
        assert_eq!(wd.on_stall, StallAction::Degrade);
        assert_eq!(Supervision::degrade().policy, FailurePolicy::Degrade);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        for attempt in 0..12 {
            for salt in [0u64, 1, 42, u64::MAX] {
                let d = retry_backoff(base, cap, attempt, salt);
                assert_eq!(d, retry_backoff(base, cap, attempt, salt));
                let raw = base
                    .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                    .min(cap);
                assert!(d >= raw / 2, "attempt {attempt} salt {salt}: {d:?}");
                assert!(d <= raw, "attempt {attempt} salt {salt}: {d:?}");
            }
        }
    }

    #[test]
    fn retry_backoff_grows_then_caps() {
        let base = Duration::from_millis(8);
        let cap = Duration::from_millis(64);
        // After enough doublings the raw delay is pinned at the cap.
        for attempt in 4..10 {
            let d = retry_backoff(base, cap, attempt, 7);
            assert!(d >= cap / 2 && d <= cap, "attempt {attempt}: {d:?}");
        }
        // Distinct salts decorrelate at least one attempt.
        assert!(
            (0..16u64).any(|s| retry_backoff(base, cap, 3, s) != retry_backoff(base, cap, 3, 99)),
            "jitter never varied across salts"
        );
    }

    #[test]
    fn retry_backoff_zero_base_is_zero() {
        assert_eq!(
            retry_backoff(Duration::ZERO, Duration::from_secs(1), 5, 3),
            Duration::ZERO
        );
    }
}
