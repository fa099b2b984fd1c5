use crate::buffer::BufferControl;
use crate::control::ControlToken;
use crate::error::{CoreError, Result};
use crate::metrics::{self, FaultCounters, FaultStats, WaitStats};
use crate::notify::{lock_unpoisoned, WaitSet, WakeTarget};
use crate::observe::MetricStats;
use crate::runtime::{RtTask, RuntimeHandle, TaskPoll};
use crate::stage::{PollCx, StageEnd, StagePoll, StageRunner};
use crate::supervisor::{self, FailurePolicy, Supervision, WatchedStage};
use crate::trace::{EventKind, Recorder, StageId, TraceLog};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a stage task deposits its outcome — how the stage ended (or
/// failed) plus the number of supervised restarts — before it signals
/// completion. The executor-side replacement for a driver thread's
/// join-handle return value.
type StageSlot = Arc<Mutex<Option<(Result<StageEnd>, u32)>>>;

/// One stage's lifecycle as a schedulable task: wraps the type-erased
/// [`StageRunner`] with the supervision loop a dedicated driver thread
/// used to host — panic fencing, restart accounting and backoff,
/// degraded sealing, fail-fast propagation, and result delivery.
///
/// The stage's *work* (stepping, publishing, yielding at publish points)
/// lives in [`StageRunner::poll`]; this wrapper only translates outcomes:
/// `StagePoll` verdicts map onto [`TaskPoll`], panics map onto the
/// configured [`FailurePolicy`], and restart backoff becomes a
/// [`TaskPoll::PendingUntil`] timer instead of a sleeping thread.
struct StageTask {
    name: String,
    /// `None` once finished: dropping the runner closes its output buffer
    /// *before* completion is signalled, so downstream readers observe
    /// the terminal version or a close, never a silent stall.
    runner: Option<Box<dyn StageRunner>>,
    supervision: Supervision,
    control: Option<Arc<dyn BufferControl>>,
    ctl: ControlToken,
    fail_fast: bool,
    counters: Arc<FaultCounters>,
    recorder: Recorder,
    stage: StageId,
    restarts: u32,
    slot: StageSlot,
    finished: Arc<AtomicUsize>,
    done_ws: WaitSet,
    /// The runtime this task is scheduled on, handed to every poll.
    runtime: RuntimeHandle,
}

impl StageTask {
    /// Permanent-failure handling per policy, then result delivery.
    /// Sealing happens before the runner is dropped (which closes the
    /// buffer) so downstream readers observe the degraded terminal
    /// version, never a bare close.
    fn finish(&mut self, result: Result<StageEnd>) -> TaskPoll {
        let result = match result {
            Err(e) => {
                // Count before sealing: the seal wakes waiters, and one of
                // them may read the fault stats before this task runs
                // again. The seal succeeds whenever a version was published
                // (it is idempotent past terminal), so gate on that.
                let sealable = self.supervision.policy == FailurePolicy::Degrade
                    && self
                        .control
                        .as_ref()
                        .is_some_and(|c| c.latest_version().is_some());
                if sealable {
                    self.counters.degradations.inc();
                    if let Some(c) = self.control.as_ref() {
                        c.seal_degraded();
                    }
                    Ok(StageEnd::Degraded)
                } else {
                    self.counters.permanent_failures.inc();
                    self.recorder
                        .stage_event(EventKind::PermanentFailure, self.stage);
                    if self.fail_fast {
                        self.ctl.stop();
                    }
                    Err(e)
                }
            }
            ok => ok,
        };
        // Dropping the runner closes its output buffer, so dependent
        // stages observe SourceClosed instead of blocking forever.
        self.runner = None;
        *lock_unpoisoned(&self.slot) = Some((result, self.restarts));
        self.finished.fetch_add(1, Ordering::Release);
        self.done_ws.wake();
        TaskPoll::Ready
    }
}

impl RtTask for StageTask {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, wake: &Arc<dyn WakeTarget>) -> TaskPoll {
        let Some(runner) = self.runner.as_mut() else {
            return TaskPoll::Ready;
        };
        let mut cx = PollCx {
            ctl: &self.ctl,
            wake,
            rt: &self.runtime,
        };
        match catch_unwind(AssertUnwindSafe(|| runner.poll(&mut cx))) {
            Ok(StagePoll::Yielded) => TaskPoll::Yielded,
            Ok(StagePoll::Pending) => TaskPoll::Pending,
            Ok(StagePoll::Ready(result)) => {
                // The watchdog may have sealed the buffer degraded while
                // the driver kept going; surface that in the outcome.
                let result = match (&result, &self.control) {
                    (Ok(StageEnd::Final), Some(c)) if c.is_degraded() => Ok(StageEnd::Degraded),
                    _ => result,
                };
                self.finish(result)
            }
            Err(payload) => {
                let err = CoreError::StagePanicked {
                    stage: self.name.clone(),
                    message: panic_message(payload.as_ref()),
                    steps_at_death: self.runner.as_ref().map_or(0, |r| r.steps_completed()),
                };
                if let FailurePolicy::Restart {
                    max_attempts,
                    backoff,
                } = self.supervision.policy
                {
                    if self.restarts < max_attempts {
                        self.restarts += 1;
                        self.counters.restarts.inc();
                        self.recorder.stage_event(EventKind::Restart, self.stage);
                        // The runner's dirty-run bookkeeping discards
                        // whatever the panic left half-mutated on the next
                        // poll; a stop during the backoff wakes the task
                        // early through its control subscription.
                        return if backoff.is_zero() {
                            TaskPoll::Yielded
                        } else {
                            TaskPoll::PendingUntil(Instant::now() + backoff)
                        };
                    }
                }
                // Driver errors (closed upstream, …) and exhausted restart
                // budgets are permanent: restarting cannot resurrect a
                // dead input.
                self.finish(Err(err))
            }
        }
    }
}

/// A running anytime automaton: every stage scheduled as a task on a
/// shared [`crate::runtime::Runtime`] worker pool, all sharing a
/// [`ControlToken`].
///
/// The automaton embodies the model's two key guarantees:
///
/// - **Early availability**: every stage's output buffer holds a complete
///   approximate output shortly after launch, improving with time.
/// - **Interruptibility**: [`Automaton::stop`] halts all stages at the next
///   step boundary, leaving the latest published outputs readable. If never
///   stopped, every stage eventually publishes its precise output and the
///   automaton finishes on its own.
///
/// "Hold-the-power-button computing" (paper §I): run the automaton while the
/// user holds the button, stop when they release it.
pub struct Automaton {
    ctl: ControlToken,
    /// Per-stage result slots, in stage-construction order; each is
    /// filled by its [`StageTask`] before `finished` is bumped.
    stages: Vec<(String, StageSlot)>,
    started: Instant,
    /// Stage tasks that have finished driving; woken through `done_ws`.
    finished: Arc<AtomicUsize>,
    /// Wait set bumped by every finishing stage task, so completion
    /// waits ([`Automaton::run_for`]) block instead of polling.
    done_ws: WaitSet,
    /// Fault-handling counters shared with stage tasks and the watchdog.
    counters: Arc<FaultCounters>,
    /// Control handles to every stage output buffer, for aggregating
    /// dropped-publish counts into the end-state report.
    controls: Vec<Arc<dyn BufferControl>>,
    /// The progress-watchdog thread, if any stage configured one.
    watchdog: Option<JoinHandle<()>>,
    /// The trace recorder shared with every stage task (no-op when
    /// tracing is disabled).
    recorder: Recorder,
    /// The runtime the stage tasks are scheduled on.
    runtime: RuntimeHandle,
}

impl Automaton {
    pub(crate) fn spawn(
        runners: Vec<Box<dyn StageRunner>>,
        ctl: ControlToken,
        fail_fast: bool,
        recorder: Recorder,
        runtime: RuntimeHandle,
    ) -> Result<Automaton> {
        let started = Instant::now();
        let finished = Arc::new(AtomicUsize::new(0));
        let done_ws = WaitSet::new();
        let counters = Arc::new(FaultCounters::default());
        let total_stages = runners.len();
        let mut controls = Vec::new();
        let mut watched = Vec::new();
        for runner in &runners {
            if let Some(control) = runner.output_control() {
                if let Some(cfg) = runner.supervision().watchdog {
                    watched.push(WatchedStage {
                        control: Arc::clone(&control),
                        cfg,
                        stage: recorder.stage(runner.name()),
                    });
                }
                controls.push(control);
            }
        }
        let mut stages = Vec::with_capacity(total_stages);
        for runner in runners {
            let name = runner.name().to_string();
            let slot: StageSlot = Arc::new(Mutex::new(None));
            let task = StageTask {
                supervision: runner.supervision(),
                control: runner.output_control(),
                stage: recorder.stage(&name),
                name: name.clone(),
                runner: Some(runner),
                ctl: ctl.clone(),
                fail_fast,
                counters: Arc::clone(&counters),
                recorder: recorder.clone(),
                restarts: 0,
                slot: Arc::clone(&slot),
                finished: Arc::clone(&finished),
                done_ws: done_ws.clone(),
                runtime: runtime.clone(),
            };
            runtime.spawn_task(Box::new(task));
            stages.push((name, slot));
        }
        let watchdog = if watched.is_empty() {
            None
        } else {
            Some(
                supervisor::spawn_watchdog(
                    watched,
                    ctl.clone(),
                    Arc::clone(&counters),
                    Arc::clone(&finished),
                    total_stages,
                    done_ws.clone(),
                    recorder.clone(),
                )
                .map_err(|e| {
                    CoreError::InvalidConfig(format!("failed to spawn supervisor thread: {e}"))
                })?,
            )
        };
        Ok(Automaton {
            ctl,
            stages,
            started,
            finished,
            done_ws,
            counters,
            controls,
            watchdog,
            recorder,
            runtime,
        })
    }

    /// Handle to the runtime this automaton's stage tasks run on, e.g.
    /// for reading [`crate::runtime::RuntimeStats`] scheduling counters.
    pub fn runtime(&self) -> &RuntimeHandle {
        &self.runtime
    }

    /// The trace recorder this automaton publishes events through. A no-op
    /// handle unless the pipeline was built with
    /// [`crate::PipelineBuilder::with_recorder`].
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Drains and returns the trace events accumulated so far (empty when
    /// tracing is disabled). Safe to call while the automaton runs; each
    /// call returns only events since the previous drain.
    pub fn trace(&self) -> TraceLog {
        self.recorder.drain()
    }

    /// A clone of the shared control token.
    pub fn control(&self) -> ControlToken {
        self.ctl.clone()
    }

    /// Requests all stages stop at their next step boundary.
    pub fn stop(&self) {
        self.ctl.stop();
    }

    /// Pauses all stages at their next step boundary.
    pub fn pause(&self) {
        self.ctl.pause();
    }

    /// Resumes a paused automaton.
    pub fn resume(&self) {
        self.ctl.resume();
    }

    /// `true` once every stage task has finished (all stages final,
    /// stopped, or failed).
    pub fn is_done(&self) -> bool {
        self.finished.load(Ordering::Acquire) == self.stages.len()
    }

    /// Time since launch.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// A point-in-time view of the run's fault handling: restarts, stalls,
    /// degradations, permanent failures, and dropped publications.
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.counters.snapshot();
        stats.dropped_publishes = self.controls.iter().map(|c| c.dropped_publishes()).sum();
        stats
    }

    /// Waits for all stages to finish and reports how each ended.
    ///
    /// # Errors
    ///
    /// Returns the first stage error encountered (panic, closed upstream).
    /// A [`StageEnd::Stopped`] outcome is not an error.
    pub fn join(self) -> Result<RunReport> {
        // Block (event-driven, via the epoch protocol) until every stage
        // task has deposited its result and bumped `finished`.
        loop {
            let seen = self.done_ws.epoch();
            if self.is_done() {
                break;
            }
            self.done_ws.wait(seen);
        }
        let started = self.started;
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut first_err = None;
        for (name, slot) in &self.stages {
            match lock_unpoisoned(slot).take() {
                Some((Ok(end), restarts)) => stages.push(StageReport {
                    name: name.clone(),
                    end,
                    restarts,
                    waits: WaitStats::default(),
                }),
                Some((Err(e), _)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                // Unreachable: `finished == total` implies every slot is
                // filled. Kept as an error rather than a panic so a
                // runtime bug degrades to a report instead of an abort.
                None => {
                    if first_err.is_none() {
                        first_err = Some(CoreError::StagePanicked {
                            stage: name.clone(),
                            message: None,
                            steps_at_death: 0,
                        });
                    }
                }
            }
        }
        // Every stage task has finished, so the supervisor observes
        // `finished == total` and returns promptly.
        if let Some(wd) = self.watchdog {
            let _ = wd.join();
        }
        // Every stage task has finished, so the per-buffer wait counters
        // are final; attach them to the matching stage reports.
        for stage in &mut stages {
            if let Some(c) = self.controls.iter().find(|c| c.buffer_name() == stage.name) {
                stage.waits = c.wait_stats();
            }
        }
        let mut faults = self.counters.snapshot();
        faults.dropped_publishes = self.controls.iter().map(|c| c.dropped_publishes()).sum();
        match first_err {
            Some(e) => Err(e),
            None => Ok(RunReport {
                elapsed: started.elapsed(),
                stages,
                faults,
            }),
        }
    }

    /// Runs until all stages finish or `budget` elapses, then stops and
    /// joins — the contract-style usage where a hard time budget governs
    /// output quality.
    ///
    /// # Errors
    ///
    /// Propagates stage failures, as [`Automaton::join`].
    pub fn run_for(self, budget: Duration) -> Result<RunReport> {
        let deadline = Instant::now() + budget;
        self.wait_done_deadline(deadline);
        self.stop();
        self.join()
    }

    /// Blocks until every stage thread has exited or `deadline` passes,
    /// whichever comes first. Returns `true` if the automaton finished.
    ///
    /// Event-driven: each finishing stage bumps `done_ws`, so this wait
    /// wakes on stage exits or the exact deadline — no polling loop. The
    /// automaton keeps running either way; this is the observation a
    /// deadline-bound caller (e.g. the serving layer) makes before
    /// deciding to take the current best snapshot and stop the run.
    pub fn wait_done_deadline(&self, deadline: Instant) -> bool {
        loop {
            let seen = self.done_ws.epoch();
            if self.is_done() {
                return true;
            }
            if !self.done_ws.wait_deadline(seen, deadline) {
                return self.is_done();
            }
        }
    }

    /// Runs until all stages finish or an **energy** budget is exhausted,
    /// then stops and joins — hold-the-power-button computing with the
    /// budget in joules instead of seconds.
    ///
    /// `power_w` is the machine's draw while the automaton runs (e.g. from
    /// an `anytime_sim::EnergyModel`); the budget converts to a wall-clock
    /// deadline of `budget_j / power_w` seconds.
    ///
    /// # Errors
    ///
    /// Propagates stage failures, as [`Automaton::join`]. Returns
    /// [`CoreError::InvalidConfig`] if `power_w` is not positive and
    /// finite.
    pub fn run_for_energy(self, budget_j: f64, power_w: f64) -> Result<RunReport> {
        let power_ok = power_w.is_finite() && power_w > 0.0;
        let budget_ok = budget_j.is_finite() && budget_j >= 0.0;
        if !power_ok || !budget_ok {
            return Err(CoreError::InvalidConfig(
                "energy budget and power must be positive and finite".into(),
            ));
        }
        self.run_for(Duration::from_secs_f64(budget_j / power_w))
    }

    /// Stops immediately and joins.
    ///
    /// # Errors
    ///
    /// Propagates stage failures, as [`Automaton::join`].
    pub fn stop_and_join(self) -> Result<RunReport> {
        self.stop();
        self.join()
    }
}

impl fmt::Debug for Automaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Automaton")
            .field("stages", &self.stages.len())
            .field("elapsed", &self.elapsed())
            .field("done", &self.is_done())
            .finish()
    }
}

/// How every stage of a finished automaton ended.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock time from launch to the last stage exit.
    pub elapsed: Duration,
    /// Per-stage outcomes, in stage-construction order.
    pub stages: Vec<StageReport>,
    /// Fault handling over the whole run: restarts, stalls, degradations,
    /// permanent failures, dropped publications.
    pub faults: FaultStats,
}

impl RunReport {
    /// `true` if every stage delivered its precise output.
    pub fn all_final(&self) -> bool {
        self.stages.iter().all(|s| s.end == StageEnd::Final)
    }

    /// `true` if any stage ended with a degraded (approximate terminal)
    /// output.
    pub fn any_degraded(&self) -> bool {
        self.stages.iter().any(|s| s.end == StageEnd::Degraded)
    }

    /// Aggregate buffer-wait statistics across every stage, folded with
    /// [`crate::observe::MetricStats::absorb`].
    pub fn total_waits(&self) -> WaitStats {
        let mut total = WaitStats::default();
        for s in &self.stages {
            total.absorb(&s.waits);
        }
        total
    }

    /// Renders the report's metrics — fault counters plus aggregate wait
    /// statistics — in Prometheus text exposition format, with the same
    /// families as [`crate::ServePool::prometheus`].
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let _ = metrics::render_fault_stats(&mut out, &self.faults);
        let _ = metrics::render_wait_stats(&mut out, &self.total_waits());
        out
    }
}

/// One stage's outcome in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// The stage name.
    pub name: String,
    /// How the stage's driver ended.
    pub end: StageEnd,
    /// Times the stage's driver was restarted after a panic.
    pub restarts: u32,
    /// Wait/wake statistics for the stage's output buffer over the run.
    pub waits: WaitStats,
}

/// Renders a panic payload when it was a string; `None` for opaque
/// payloads, which [`CoreError::StagePanicked`] reports as such instead of
/// inventing text. Shared with the serve layer's `catch_unwind` fences
/// (`CoreError::ReplicaPanicked`).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    if let Some(s) = payload.downcast_ref::<&str>() {
        Some((*s).to_string())
    } else {
        payload.downcast_ref::<String>().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusive::Diffusive;
    use crate::pipeline::PipelineBuilder;
    use crate::precise::Precise;
    use crate::stage::{StageOptions, StepOutcome};

    fn slow_counter(n: u64, delay: Duration) -> Diffusive<(), u64> {
        Diffusive::new(
            move |_: &()| 0u64,
            move |_: &(), out: &mut u64, step| {
                std::thread::sleep(delay);
                *out += 1;
                if step + 1 == n {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            },
        )
    }

    #[test]
    fn join_reports_all_final() {
        let mut pb = PipelineBuilder::new();
        let f = pb.source(
            "f",
            (),
            slow_counter(5, Duration::ZERO),
            StageOptions::default(),
        );
        let _g = pb.stage("g", &f, Precise::new(|i: &u64| *i), StageOptions::default());
        let report = pb.build().launch().unwrap().join().unwrap();
        assert!(report.all_final());
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].name, "f");
    }

    #[test]
    fn run_for_interrupts_long_computation() {
        let mut pb = PipelineBuilder::new();
        let f = pb.source(
            "f",
            (),
            slow_counter(100_000, Duration::from_millis(1)),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        let report = auto.run_for(Duration::from_millis(50)).unwrap();
        assert!(!report.all_final());
        // The interrupted stage still produced a valid approximate output.
        let snap = f.latest().expect("approximate output available");
        assert!(*snap.value() > 0);
        assert!(!snap.is_final());
    }

    #[test]
    fn run_for_returns_early_when_done() {
        let mut pb = PipelineBuilder::new();
        let _f = pb.source(
            "f",
            (),
            slow_counter(3, Duration::ZERO),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        let started = Instant::now();
        let report = auto.run_for(Duration::from_secs(30)).unwrap();
        assert!(report.all_final());
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn panicking_stage_is_reported_and_does_not_hang_children() {
        let mut pb = PipelineBuilder::new();
        let f = pb.source(
            "bad",
            (),
            Precise::new(|_: &()| -> u64 { panic!("stage exploded") }),
            StageOptions::default(),
        );
        let _g = pb.stage("g", &f, Precise::new(|i: &u64| *i), StageOptions::default());
        let err = pb.build().launch().unwrap().join().unwrap_err();
        match err {
            CoreError::StagePanicked { stage, message, .. } => {
                assert_eq!(stage, "bad");
                assert!(message.unwrap().contains("exploded"));
            }
            CoreError::SourceClosed { .. } => {
                // Acceptable: the child error may be collected first.
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn pause_and_resume_round_trip() {
        let mut pb = PipelineBuilder::new();
        let f = pb.source(
            "f",
            (),
            slow_counter(10_000, Duration::from_micros(100)),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        auto.pause();
        std::thread::sleep(Duration::from_millis(10)); // let stages reach the checkpoint
        let frozen = f.latest().map(|s| s.version());
        std::thread::sleep(Duration::from_millis(30));
        let still = f.latest().map(|s| s.version());
        assert_eq!(frozen, still, "output advanced while paused");
        auto.resume();
        std::thread::sleep(Duration::from_millis(30));
        let after = f.latest().map(|s| s.version());
        assert!(after > still, "output did not advance after resume");
        auto.stop_and_join().unwrap();
    }

    #[test]
    fn energy_budget_bounds_runtime() {
        let mut pb = PipelineBuilder::new();
        let f = pb.source(
            "f",
            (),
            slow_counter(1_000_000, Duration::from_micros(100)),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        // 100 W machine, 3 J budget -> ~30 ms.
        let started = Instant::now();
        let report = auto.run_for_energy(3.0, 100.0).unwrap();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(!report.all_final());
        assert!(f.latest().is_some());
    }

    #[test]
    fn bad_energy_budget_is_rejected() {
        let mut pb = PipelineBuilder::new();
        let _ = pb.source(
            "f",
            (),
            slow_counter(1, Duration::ZERO),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        assert!(matches!(
            auto.run_for_energy(1.0, 0.0),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn stop_and_join_is_not_an_error() {
        let mut pb = PipelineBuilder::new();
        let _f = pb.source(
            "f",
            (),
            slow_counter(1_000_000, Duration::from_micros(50)),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let report = auto.stop_and_join().unwrap();
        assert!(!report.all_final());
        assert_eq!(report.stages[0].end, StageEnd::Stopped);
    }

    /// Counts to `n`, panicking once at step `panic_at`.
    fn flaky_counter(n: u64, panic_at: u64) -> Diffusive<(), u64> {
        let mut armed = true;
        Diffusive::new(
            move |_: &()| 0u64,
            move |_: &(), out: &mut u64, step| {
                if armed && step == panic_at {
                    armed = false;
                    panic!("transient fault at step {step}");
                }
                *out += 1;
                if step + 1 == n {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            },
        )
    }

    #[test]
    fn restart_policy_recovers_to_precise_output() {
        use crate::supervisor::Supervision;
        let mut pb = PipelineBuilder::new();
        let f = pb.source(
            "f",
            (),
            flaky_counter(10, 4),
            StageOptions::default().supervise(Supervision::restart(2, Duration::ZERO)),
        );
        let report = pb.build().launch().unwrap().join().unwrap();
        assert!(report.all_final());
        assert_eq!(report.stages[0].restarts, 1);
        assert_eq!(report.faults.restarts, 1);
        assert_eq!(report.faults.permanent_failures, 0);
        let snap = f.latest().unwrap();
        assert!(snap.is_final());
        assert_eq!(*snap.value(), 10);
    }

    #[test]
    fn exhausted_restarts_are_a_permanent_failure() {
        use crate::supervisor::Supervision;
        // Panics every run: one allowed restart is not enough.
        let mut pb = PipelineBuilder::new();
        let _f = pb.source(
            "f",
            (),
            Diffusive::new(
                |_: &()| 0u64,
                |_: &(), _: &mut u64, _| -> StepOutcome { panic!("hard fault") },
            ),
            StageOptions::default().supervise(Supervision::restart(1, Duration::ZERO)),
        );
        let auto = pb.build().launch().unwrap();
        let stats_err = auto.join().unwrap_err();
        assert!(matches!(stats_err, CoreError::StagePanicked { .. }));
    }

    #[test]
    fn degrade_policy_seals_last_approximation() {
        use crate::supervisor::Supervision;
        let mut pb = PipelineBuilder::new();
        // Dies at step 4 having published approximations 1..=4.
        let f = pb.source(
            "f",
            (),
            flaky_counter(100, 4),
            StageOptions::default().supervise(Supervision::degrade()),
        );
        let _g = pb.stage("g", &f, Precise::new(|i: &u64| *i), StageOptions::default());
        let report = pb.build().launch().unwrap().join().unwrap();
        assert!(report.any_degraded());
        assert!(!report.all_final());
        assert_eq!(report.faults.degradations, 1);
        let snap = f.latest().unwrap();
        assert!(snap.is_degraded());
        assert_eq!(*snap.value(), 4);
        // wait_final* resolves (to the degraded version) instead of erroring.
        let got = f.wait_final_timeout(Duration::from_secs(5)).unwrap();
        assert!(got.is_degraded());
    }

    #[test]
    fn degrade_with_nothing_published_falls_back_to_fail_stop() {
        use crate::supervisor::Supervision;
        let mut pb = PipelineBuilder::new();
        let _f = pb.source(
            "f",
            (),
            Diffusive::new(
                |_: &()| 0u64,
                |_: &(), _: &mut u64, _| -> StepOutcome { panic!("died before publishing") },
            ),
            StageOptions::default().supervise(Supervision::degrade()),
        );
        let err = pb.build().launch().unwrap().join().unwrap_err();
        assert!(matches!(err, CoreError::StagePanicked { .. }));
    }

    #[test]
    fn fail_fast_stops_healthy_stages() {
        let mut pb = PipelineBuilder::new();
        let _bad = pb.source(
            "bad",
            (),
            Diffusive::new(
                |_: &()| 0u64,
                |_: &(), _: &mut u64, _| -> StepOutcome { panic!("early death") },
            ),
            StageOptions::default(),
        );
        let slow = pb.source(
            "slow",
            (),
            slow_counter(1_000_000, Duration::from_micros(100)),
            StageOptions::default(),
        );
        let started = Instant::now();
        let err = pb
            .with_fail_fast()
            .build()
            .launch()
            .unwrap()
            .join()
            .unwrap_err();
        assert!(matches!(err, CoreError::StagePanicked { .. }));
        // Without fail-fast the slow stage would run for ~100 s.
        assert!(started.elapsed() < Duration::from_secs(20));
        assert!(!slow.is_final());
    }

    #[test]
    fn panic_report_carries_step_count() {
        let mut pb = PipelineBuilder::new();
        let _f = pb.source("f", (), flaky_counter(10, 3), StageOptions::default());
        let err = pb.build().launch().unwrap().join().unwrap_err();
        match err {
            CoreError::StagePanicked {
                stage,
                message,
                steps_at_death,
            } => {
                assert_eq!(stage, "f");
                assert_eq!(steps_at_death, 3);
                assert!(message.unwrap().contains("transient fault"));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn watchdog_degrades_a_stalled_stage() {
        use crate::supervisor::StallAction;
        let mut pb = PipelineBuilder::new();
        // Publishes a few versions quickly, then hangs far longer than the
        // heartbeat.
        let f = pb.source(
            "f",
            (),
            Diffusive::new(
                |_: &()| 0u64,
                |_: &(), out: &mut u64, step| {
                    if step == 3 {
                        std::thread::sleep(Duration::from_millis(1_500));
                    }
                    *out += 1;
                    if step + 1 == 1_000_000 {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                },
            ),
            StageOptions::default().watchdog(Duration::from_millis(150), StallAction::Degrade),
        );
        let g = pb.stage("g", &f, Precise::new(|i: &u64| *i), StageOptions::default());
        let auto = pb.build().launch().unwrap();
        // Downstream completes (degraded) without waiting out the stall.
        let snap = f.wait_final_timeout(Duration::from_secs(30)).unwrap();
        assert!(snap.is_degraded());
        let got = g.wait_final_timeout(Duration::from_secs(30)).unwrap();
        assert!(got.is_degraded());
        let stats = auto.fault_stats();
        assert!(stats.stalls >= 1, "stall not recorded: {stats:?}");
        assert_eq!(stats.degradations, 1);
        auto.stop();
        let report = auto.join().unwrap();
        assert!(report.any_degraded());
        assert!(report.faults.dropped_publishes >= 1);
    }

    #[test]
    fn debug_impl_nonempty() {
        let mut pb = PipelineBuilder::new();
        let _f = pb.source(
            "f",
            (),
            slow_counter(1, Duration::ZERO),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        assert!(!format!("{auto:?}").is_empty());
        auto.join().unwrap();
    }
}
