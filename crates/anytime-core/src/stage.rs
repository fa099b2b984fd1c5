use crate::buffer::{BufferControl, BufferWriter};
use crate::control::{ControlPoll, ControlToken};
use crate::error::{CoreError, Result};
use crate::notify::WakeTarget;
use crate::runtime::RuntimeHandle;
use crate::supervisor::{FailurePolicy, StallAction, Supervision};
use crate::version::Version;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Result of one intermediate computation of an anytime stage body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More intermediate computations remain; the output will keep
    /// improving.
    Continue,
    /// This step completed the precise computation `f_n`; the output now
    /// equals the precise result for the current input.
    Done,
}

/// The body of an anytime computation stage: a sequence of intermediate
/// computations `f_1, …, f_n` with increasing accuracy (paper §III-B).
///
/// The automaton runtime drives a body as follows for each input snapshot:
///
/// 1. [`AnytimeBody::init`] produces the initial output value `O_0` (a cheap
///    placeholder for iterative stages, the diffusion seed for diffusive
///    stages). `O_0` is never published.
/// 2. [`AnytimeBody::step`] is called with `step = 0, 1, 2, …`, each call
///    performing one intermediate computation `f_{step+1}` that mutates the
///    working output. The runtime publishes a [`render`](AnytimeBody::render)
///    of the working output every
///    [`publish_every`](StageOptions::publish_every) steps, and after the
///    step that returns [`StepOutcome::Done`].
/// 3. If the consumed input snapshot was final, the post-`Done` publication
///    is the stage's precise output; otherwise the body is re-initialized on
///    the next input version.
///
/// # Purity (paper Property 1)
///
/// Every intermediate computation must be a *pure function* of the input and
/// the working output: it must not read or write semantic state outside the
/// two buffers it is handed. The API encourages this — bodies only receive
/// `&Input` and `&mut Output` — but closures can still capture external
/// state; keeping them pure is the implementor's contract. Violating it
/// forfeits the model's guarantee that the final output equals the precise
/// result.
pub trait AnytimeBody: Send {
    /// The input type consumed from the parent buffer (or owned by a source).
    type Input: Send + Sync + 'static;
    /// The output type published to this stage's output buffer.
    type Output: Clone + Send + Sync + 'static;

    /// Produces the initial working output `O_0` for a (new) input.
    ///
    /// Called once per consumed input snapshot, before any steps. Must be
    /// cheap relative to a step; it is never published.
    fn init(&mut self, input: &Self::Input) -> Self::Output;

    /// Performs intermediate computation `f_{step+1}`, mutating `out`.
    ///
    /// Returns [`StepOutcome::Done`] from the step that makes `out` precise
    /// for this input.
    fn step(&mut self, input: &Self::Input, out: &mut Self::Output, step: u64) -> StepOutcome;

    /// Total number of steps for this input, if known in advance.
    ///
    /// Purely informational (progress reporting); the runtime relies on
    /// [`StepOutcome::Done`].
    fn total_steps(&self, _input: &Self::Input) -> Option<u64> {
        None
    }

    /// Converts a completed-step count into the progress figure published
    /// in [`crate::version::SnapshotMeta::steps`].
    ///
    /// Defaults to the step count itself. Chunked bodies override this to
    /// report *elements processed* (the sample size), keeping the metadata
    /// meaningful whatever the internal batching.
    fn progress(&self, steps_done: u64, _input: &Self::Input) -> u64 {
        steps_done
    }

    /// Derives the published value from the working output.
    ///
    /// Defaults to a clone. Override when the published value is a
    /// *transformation* of the working state — e.g. the paper's weighted
    /// normalization `O'_i = O_i × n/i` for non-idempotent reductions
    /// (§III-B2), which must not corrupt the running accumulator.
    fn render(&self, out: &Self::Output, _input: &Self::Input, _steps_done: u64) -> Self::Output {
        out.clone()
    }

    /// Re-seeds the working output after a crash-restart.
    ///
    /// When a stage driver panics and is re-run under
    /// [`FailurePolicy::Restart`], and its most recent publication came
    /// from the input snapshot it is about to process again, the runtime
    /// offers that published value back. Returning `Some(out)` resumes
    /// stepping at `steps_done` with `out` as the working output — the
    /// `steps_done` completed intermediate computations are not repeated.
    /// Returning `None` (the default) restarts the input's run from
    /// scratch via [`AnytimeBody::init`].
    ///
    /// Only return `Some` when the published value is a faithful working
    /// state: if [`AnytimeBody::render`] transforms the working output
    /// (e.g. weighted normalization), the publication cannot be resumed
    /// from and the default is correct.
    fn resume(
        &mut self,
        _input: &Self::Input,
        _published: &Self::Output,
        _steps_done: u64,
    ) -> Option<Self::Output> {
        None
    }
}

/// When a stage abandons its current run to pick up a fresher input version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Finish the current run (all steps) before checking for newer input —
    /// the paper's asynchronous-pipeline semantics, where `g(F_i)` runs to
    /// completion even if `F_{i+1}` appears meanwhile.
    #[default]
    OnCompletion,
    /// Abandon the current run at the next step boundary when a newer input
    /// version is available. Wastes the abandoned work but reaches the
    /// precise output sooner when inputs change quickly.
    Eager,
}

/// Per-stage execution options.
#[derive(Debug, Clone, Copy)]
pub struct StageOptions {
    /// Publish the (rendered) working output every this many steps.
    ///
    /// Lower values give finer-grained anytime outputs at higher publication
    /// (clone) cost. The post-`Done` output is always published regardless.
    pub publish_every: u64,
    /// When to abandon a run for fresher input; see [`RestartPolicy`].
    pub restart: RestartPolicy,
    /// Retain the full version history of this stage's output buffer.
    pub keep_history: bool,
    /// Failure policy and optional progress watchdog; see [`Supervision`].
    pub supervision: Supervision,
}

impl Default for StageOptions {
    fn default() -> Self {
        Self {
            publish_every: 1,
            restart: RestartPolicy::OnCompletion,
            keep_history: false,
            supervision: Supervision::default(),
        }
    }
}

impl StageOptions {
    /// Options with the given publication granularity.
    pub fn with_publish_every(publish_every: u64) -> Self {
        Self {
            publish_every: publish_every.max(1),
            ..Self::default()
        }
    }

    /// Returns these options with history retention enabled.
    pub fn keep_history(mut self) -> Self {
        self.keep_history = true;
        self
    }

    /// Returns these options with the given restart policy.
    pub fn restart(mut self, restart: RestartPolicy) -> Self {
        self.restart = restart;
        self
    }

    /// Returns these options with the given supervision.
    pub fn supervise(mut self, supervision: Supervision) -> Self {
        self.supervision = supervision;
        self
    }

    /// Returns these options with the given failure policy, keeping any
    /// configured watchdog.
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.supervision.policy = policy;
        self
    }

    /// Returns these options with a progress watchdog: a stall is declared
    /// when the stage publishes no new version for `heartbeat`, and
    /// escalated per `on_stall`.
    pub fn watchdog(mut self, heartbeat: Duration, on_stall: StallAction) -> Self {
        self.supervision = self.supervision.with_watchdog(heartbeat, on_stall);
        self
    }
}

/// How a stage driver ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageEnd {
    /// The stage published its precise (final) output.
    Final,
    /// The automaton was stopped first; the stage's latest published output
    /// is a valid approximation.
    Stopped,
    /// The stage ended with a *degraded* terminal output: its own buffer
    /// was sealed degraded (producer death or stall under
    /// [`FailurePolicy::Degrade`] / [`StallAction::Degrade`]), or a
    /// degraded upstream flag propagated through it. The latest published
    /// version is a valid approximation but not the precise output.
    Degraded,
}

/// Where a stage's input comes from.
pub(crate) enum InputFeed<I> {
    /// A source stage owns its input directly; it is implicitly final.
    Owned(Arc<I>),
    /// A dependent stage consumes the parent stage's output buffer.
    Upstream(crate::buffer::BufferReader<I>),
}

/// What a stage driver reports after one poll slice.
pub(crate) enum StagePoll {
    /// The stage is done, with how it ended.
    Ready(Result<StageEnd>),
    /// The slice hit its publish budget with more work immediately
    /// available: reschedule without waiting for an event.
    Yielded,
    /// Blocked (no new input, backpressured, or paused). The driver has
    /// subscribed the poll context's wake target to every source that can
    /// unblock it; re-poll when it fires.
    Pending,
}

/// Context handed to every [`StageRunner::poll`] slice.
pub(crate) struct PollCx<'a> {
    /// The automaton's control token.
    pub(crate) ctl: &'a ControlToken,
    /// Wake target to subscribe to every event source the driver may wait
    /// on (the task's waker on the runtime). Subscription is idempotent —
    /// resubscribe at the top of every poll, *before* checking any
    /// predicate.
    pub(crate) wake: &'a Arc<dyn WakeTarget>,
    /// Publications allowed in this slice before yielding (scheduler
    /// credits).
    pub(crate) budget: u64,
    /// The runtime this stage task runs on, for stages that fan their
    /// work out as tasks of their own (the parallel map's helpers). Read
    /// at poll time, not at registration, because
    /// [`crate::Pipeline::on_runtime`] can retarget a built pipeline.
    pub(crate) rt: &'a RuntimeHandle,
}

/// Type-erased driver for one stage, scheduled as a task on the shared
/// runtime.
///
/// A driver may be re-polled after a panic when its stage is supervised
/// with [`FailurePolicy::Restart`]; implementations must keep enough
/// state to make that safe (at minimum: become a no-op once their output
/// is terminal, and discard any working state a panic may have left
/// inconsistent — the dirty-flag pattern in [`StageNode`]).
pub(crate) trait StageRunner: Send {
    fn name(&self) -> &str;

    /// Runs one bounded, non-blocking slice of the stage.
    fn poll(&mut self, cx: &mut PollCx<'_>) -> StagePoll;

    /// This stage's failure policy and watchdog configuration.
    fn supervision(&self) -> Supervision {
        Supervision::default()
    }

    /// Type-erased control handle to this stage's output buffer, used by
    /// the supervisor for watchdog observation and degraded sealing.
    /// `None` for runners without an output buffer (channel sources).
    fn output_control(&self) -> Option<Arc<dyn BufferControl>> {
        None
    }

    /// Raw anytime steps completed in the driver's current run, reported
    /// in [`CoreError::StagePanicked`] when the driver dies.
    fn steps_completed(&self) -> u64 {
        0
    }

    /// Arms injected faults on this runner (chaos testing).
    #[cfg(feature = "fault-inject")]
    fn inject_faults(&mut self, _faults: crate::faultinject::StageFaults) {}
}

/// In-flight run state of a [`StageNode`]: one consumed input snapshot
/// and the working output being stepped toward precision. Lives across
/// poll slices so the stage can yield at publish points and resume.
struct ActiveRun<B: AnytimeBody> {
    input: Arc<B::Input>,
    terminal: bool,
    degraded: bool,
    version: Option<Version>,
    out: B::Output,
    /// Raw steps completed on this input (includes crash-resume credit).
    steps: u64,
    /// Step count at the latest publication (or the run's start).
    published_at: u64,
}

/// Hard fairness cap: a run with a huge `publish_every` still hands its
/// worker back after this many steps per poll slice.
pub(crate) const MAX_STEPS_PER_SLICE: u64 = 4096;

/// The generic single-input stage driver.
pub(crate) struct StageNode<B: AnytimeBody> {
    pub(crate) name: String,
    pub(crate) body: B,
    pub(crate) input: InputFeed<B::Input>,
    pub(crate) writer: BufferWriter<B::Output>,
    pub(crate) opts: StageOptions,
    /// Version of the last input snapshot whose run completed; survives a
    /// crash-restart so already-processed inputs are not re-consumed.
    consumed: Option<Version>,
    /// Raw steps completed in the current run (panic reporting).
    steps_done: u64,
    /// `(input version, raw steps)` of the latest publication in the
    /// current — possibly crashed — run; the crash-resume anchor.
    last_pub: Option<(Option<Version>, u64)>,
    /// The paused/yielded run being stepped, if any.
    run: Option<ActiveRun<B>>,
    /// Set while a poll slice mutates run state; still `true` at the next
    /// poll only if a panic unwound mid-mutation, in which case the run is
    /// discarded and the restart re-inits (or crash-resumes) cleanly.
    dirty: bool,
    #[cfg(feature = "fault-inject")]
    faults: Option<crate::faultinject::ArmedFaults>,
}

impl<B: AnytimeBody> StageNode<B> {
    pub(crate) fn new(
        name: String,
        body: B,
        input: InputFeed<B::Input>,
        writer: BufferWriter<B::Output>,
        opts: StageOptions,
    ) -> Self {
        Self {
            name,
            body,
            input,
            writer,
            opts,
            consumed: None,
            steps_done: 0,
            last_pub: None,
            run: None,
            dirty: false,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// Stopped mid-run: publish the progress made so far so the
    /// interruptible output is as fresh as possible.
    fn publish_stop_progress(&mut self) {
        if let Some(run) = self.run.take() {
            if run.steps > run.published_at && !self.writer.is_terminal() {
                let rendered = self.body.render(&run.out, &run.input, run.steps);
                self.writer
                    .publish(rendered, self.body.progress(run.steps, &run.input));
            }
        }
    }

    /// Acquires the next input snapshot and begins a run on it, or
    /// reports why it can't (`Err` maps straight to a `StagePoll`).
    fn begin_next_run(&mut self) -> std::result::Result<(), StagePoll> {
        let (input, terminal, degraded, version) = match &self.input {
            InputFeed::Owned(arc) => (Arc::clone(arc), true, false, None),
            InputFeed::Upstream(reader) => {
                // Same predicate order as `BufferReader::wait_newer`:
                // accept a newer snapshot first (even on a closed buffer),
                // only then report closure.
                match reader.latest() {
                    Some(snap) if self.consumed.is_none_or(|c| snap.version() > c) => {
                        let ver = snap.version();
                        (
                            snap.value_arc(),
                            snap.is_terminal(),
                            snap.is_degraded(),
                            Some(ver),
                        )
                    }
                    _ => {
                        if reader.is_closed() {
                            return Err(StagePoll::Ready(Err(CoreError::SourceClosed {
                                buffer: reader.name().to_string(),
                            })));
                        }
                        return Err(StagePoll::Pending);
                    }
                }
            }
        };
        // Crash-resume: if the previous (panicked) run on this same
        // input published, offer that value back to the body so the
        // restart continues instead of recomputing completed steps.
        let start = match self.last_pub {
            Some((pub_version, steps)) if pub_version == version => {
                self.writer.latest().and_then(|snap| {
                    self.body
                        .resume(&input, snap.value(), steps)
                        .map(|out| (out, steps))
                })
            }
            _ => None,
        };
        let (out, steps) = match start {
            Some((out, steps)) => (out, steps),
            None => (self.body.init(&input), 0),
        };
        self.steps_done = steps;
        // New run: the monotone-accuracy floor (Property 2) restarts at
        // this run's starting step count; the version chain persists.
        self.writer.begin_run(steps);
        self.run = Some(ActiveRun {
            input,
            terminal,
            degraded,
            version,
            out,
            steps,
            published_at: steps,
        });
        Ok(())
    }
}

impl<B: AnytimeBody> StageRunner for StageNode<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, cx: &mut PollCx<'_>) -> StagePoll {
        // A restarted driver whose output already settled (the final was
        // published just before the crash, or a watchdog sealed the buffer
        // degraded) has nothing left to do.
        if self.writer.is_final() {
            return StagePoll::Ready(Ok(StageEnd::Final));
        }
        if self.writer.is_terminal() {
            return StagePoll::Ready(Ok(StageEnd::Degraded));
        }
        if std::mem::replace(&mut self.dirty, true) {
            // The previous slice panicked mid-mutation: the working output
            // is untrustworthy. Drop it; `last_pub` still anchors resume.
            self.run = None;
        }
        // Subscribe before any predicate check (idempotent), so a wake
        // from either source between check and Pending is never lost.
        cx.ctl.subscribe_target(cx.wake);
        if let InputFeed::Upstream(reader) = &self.input {
            reader.subscribe_target(cx.wake);
        }
        let budget = cx.budget.max(1);
        let publish_every = self.opts.publish_every.max(1);
        let mut pubs: u64 = 0;
        let mut slice_steps: u64 = 0;
        let verdict = loop {
            match cx.ctl.poll_checkpoint() {
                ControlPoll::Stopped => {
                    self.publish_stop_progress();
                    break StagePoll::Ready(Ok(StageEnd::Stopped));
                }
                ControlPoll::Paused => break StagePoll::Pending,
                ControlPoll::Running => {}
            }
            if self.run.is_none() {
                if let Err(poll) = self.begin_next_run() {
                    break poll;
                }
            }
            #[cfg(feature = "fault-inject")]
            {
                let at_step = self.run.as_ref().map_or(0, |r| r.steps);
                if let Some(armed) = &mut self.faults {
                    armed.before_step(&self.name, at_step);
                }
            }
            let run = self.run.as_mut().expect("active run");
            let outcome = self.body.step(&run.input, &mut run.out, run.steps);
            run.steps += 1;
            slice_steps += 1;
            self.steps_done = run.steps;
            if outcome == StepOutcome::Done {
                let run = self.run.take().expect("active run");
                let rendered = self.body.render(&run.out, &run.input, run.steps);
                let progress = self.body.progress(run.steps, &run.input);
                if run.terminal {
                    break StagePoll::Ready(Ok(if run.degraded {
                        self.writer.publish_degraded(rendered, progress);
                        StageEnd::Degraded
                    } else {
                        self.writer.publish_final(rendered, progress);
                        StageEnd::Final
                    }));
                }
                self.writer.publish(rendered, progress);
                self.consumed = run.version;
                self.last_pub = None;
                pubs += 1;
                if pubs >= budget {
                    break StagePoll::Yielded;
                }
                continue;
            }
            if run.steps.is_multiple_of(publish_every) {
                let rendered = self.body.render(&run.out, &run.input, run.steps);
                let progress = self.body.progress(run.steps, &run.input);
                self.writer.publish(rendered, progress);
                run.published_at = run.steps;
                self.last_pub = Some((run.version, run.steps));
                pubs += 1;
                if pubs >= budget {
                    break StagePoll::Yielded;
                }
            } else if slice_steps >= MAX_STEPS_PER_SLICE {
                break StagePoll::Yielded;
            }
            if self.opts.restart == RestartPolicy::Eager {
                let version = run.version;
                if let (InputFeed::Upstream(reader), Some(ver)) = (&self.input, version) {
                    if reader.latest().is_some_and(|snap| snap.version() > ver) {
                        // Eager restart on newer input.
                        self.consumed = version;
                        self.last_pub = None;
                        self.run = None;
                    }
                }
            }
        };
        self.dirty = false;
        verdict
    }

    fn supervision(&self) -> Supervision {
        self.opts.supervision
    }

    fn output_control(&self) -> Option<Arc<dyn BufferControl>> {
        Some(self.writer.control_handle())
    }

    fn steps_completed(&self) -> u64 {
        self.steps_done
    }

    #[cfg(feature = "fault-inject")]
    fn inject_faults(&mut self, faults: crate::faultinject::StageFaults) {
        self.faults = Some(crate::faultinject::ArmedFaults::new(faults));
    }
}

impl<B: AnytimeBody> fmt::Debug for StageNode<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageNode")
            .field("name", &self.name)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer;
    use crate::notify::WaitSet;

    /// The unit tests' poll harness: polls `runner` until it is ready,
    /// parking on a private wait set whenever it reports `Pending`.
    fn poll_to_end(runner: &mut impl StageRunner, ctl: &ControlToken) -> Result<StageEnd> {
        let ws = WaitSet::new();
        let wake = ws.as_wake_target();
        let rt = RuntimeHandle::global();
        loop {
            let seen = ws.epoch();
            let mut cx = PollCx {
                ctl,
                wake: &wake,
                budget: u64::MAX,
                rt: &rt,
            };
            match runner.poll(&mut cx) {
                StagePoll::Ready(result) => return result,
                StagePoll::Yielded => continue,
                StagePoll::Pending => ws.wait(seen),
            }
        }
    }

    /// A body that counts to `n` by ones, diffusively.
    struct Counter {
        n: u64,
    }

    impl AnytimeBody for Counter {
        type Input = ();
        type Output = u64;

        fn init(&mut self, _input: &()) -> u64 {
            0
        }

        fn step(&mut self, _input: &(), out: &mut u64, step: u64) -> StepOutcome {
            *out += 1;
            if step + 1 == self.n {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }

        fn total_steps(&self, _input: &()) -> Option<u64> {
            Some(self.n)
        }
    }

    fn node(n: u64, publish_every: u64) -> (StageNode<Counter>, crate::buffer::BufferReader<u64>) {
        let (w, r) = buffer::versioned_with(
            "counter",
            crate::buffer::BufferOptions { keep_history: true },
        );
        (
            StageNode::new(
                "counter".into(),
                Counter { n },
                InputFeed::Owned(Arc::new(())),
                w,
                StageOptions::with_publish_every(publish_every),
            ),
            r,
        )
    }

    #[test]
    fn source_runs_to_final() {
        let (mut node, r) = node(5, 1);
        let ctl = ControlToken::new();
        assert_eq!(poll_to_end(&mut node, &ctl).unwrap(), StageEnd::Final);
        let hist = r.history().unwrap();
        assert_eq!(hist.len(), 5);
        let values: Vec<u64> = hist.iter().map(|s| *s.value()).collect();
        assert_eq!(values, vec![1, 2, 3, 4, 5]);
        assert!(hist.last().unwrap().is_final());
    }

    #[test]
    fn publish_granularity_reduces_versions() {
        let (mut node, r) = node(10, 4);
        let ctl = ControlToken::new();
        poll_to_end(&mut node, &ctl).unwrap();
        let hist = r.history().unwrap();
        // Published at steps 4, 8 and the final step 10.
        let steps: Vec<u64> = hist.iter().map(|s| s.steps()).collect();
        assert_eq!(steps, vec![4, 8, 10]);
        assert_eq!(*r.latest().unwrap().value(), 10);
    }

    #[test]
    fn stop_before_first_poll_publishes_nothing() {
        let (mut node, r) = node(5, 1);
        let ctl = ControlToken::new();
        ctl.stop();
        assert_eq!(poll_to_end(&mut node, &ctl).unwrap(), StageEnd::Stopped);
        assert!(r.latest().is_none());
    }

    #[test]
    fn upstream_final_propagates() {
        // Stage g doubles the latest f output; verify g finishes with the
        // precise result once f's final version is consumed.
        struct Doubler;
        impl AnytimeBody for Doubler {
            type Input = u64;
            type Output = u64;
            fn init(&mut self, _input: &u64) -> u64 {
                0
            }
            fn step(&mut self, input: &u64, out: &mut u64, _step: u64) -> StepOutcome {
                *out = input * 2;
                StepOutcome::Done
            }
        }
        let (mut fw, fr) = buffer::versioned::<u64>("f");
        let (gw, gr) = buffer::versioned::<u64>("g");
        let mut g = StageNode::new(
            "g".into(),
            Doubler,
            InputFeed::Upstream(fr),
            gw,
            StageOptions::default(),
        );
        let ctl = ControlToken::new();
        let h = std::thread::spawn(move || poll_to_end(&mut g, &ctl));
        fw.publish(10, 1);
        // Event-driven: wait until `g` has consumed and republished the
        // intermediate version before the final one lands.
        gr.wait_newer_timeout(None, std::time::Duration::from_secs(10))
            .expect("g never published the intermediate version");
        fw.publish_final(21, 2);
        assert_eq!(h.join().unwrap().unwrap(), StageEnd::Final);
        let snap = gr.latest().unwrap();
        assert!(snap.is_final());
        assert_eq!(*snap.value(), 42);
    }

    #[test]
    fn closed_upstream_is_an_error() {
        struct Id;
        impl AnytimeBody for Id {
            type Input = u64;
            type Output = u64;
            fn init(&mut self, _i: &u64) -> u64 {
                0
            }
            fn step(&mut self, i: &u64, out: &mut u64, _s: u64) -> StepOutcome {
                *out = *i;
                StepOutcome::Done
            }
        }
        let (fw, fr) = buffer::versioned::<u64>("f");
        drop(fw);
        let (gw, _gr) = buffer::versioned::<u64>("g");
        let mut g = StageNode::new(
            "g".into(),
            Id,
            InputFeed::Upstream(fr),
            gw,
            StageOptions::default(),
        );
        let ctl = ControlToken::new();
        assert!(matches!(
            poll_to_end(&mut g, &ctl),
            Err(CoreError::SourceClosed { .. })
        ));
    }

    #[test]
    fn stop_mid_run_publishes_progress() {
        // A slow counter stopped mid-run leaves its freshest progress
        // published even between granularity boundaries.
        struct Slow {
            steps_done: Arc<std::sync::atomic::AtomicU64>,
            ws: crate::notify::WaitSet,
        }
        impl AnytimeBody for Slow {
            type Input = ();
            type Output = u64;
            fn init(&mut self, _i: &()) -> u64 {
                0
            }
            fn step(&mut self, _i: &(), out: &mut u64, _step: u64) -> StepOutcome {
                *out += 1;
                self.steps_done
                    // relaxed: the WaitSet epoch mutex orders this bump before the test's read
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.ws.wake();
                // Never finishes on its own: the stop below is the only
                // way out, so it always lands mid-run.
                StepOutcome::Continue
            }
        }
        let steps_done = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let ws = crate::notify::WaitSet::new();
        let (w, r) = buffer::versioned::<u64>("slow");
        let mut node = StageNode::new(
            "slow".into(),
            Slow {
                steps_done: Arc::clone(&steps_done),
                ws: ws.clone(),
            },
            InputFeed::Owned(Arc::new(())),
            w,
            StageOptions::with_publish_every(u64::MAX),
        );
        let ctl = ControlToken::new();
        let ctl2 = ctl.clone();
        let h = std::thread::spawn(move || poll_to_end(&mut node, &ctl2));
        // Event-driven: stop only once at least one step has completed,
        // instead of sleeping a guessed quantum.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let seen = ws.epoch();
            // relaxed: the WaitSet epoch mutex orders the bump before this read
            if steps_done.load(std::sync::atomic::Ordering::Relaxed) >= 1 {
                break;
            }
            assert!(ws.wait_deadline(seen, deadline), "no step completed");
        }
        ctl.stop();
        assert_eq!(h.join().unwrap().unwrap(), StageEnd::Stopped);
        let snap = r.latest().expect("progress published on stop");
        assert!(*snap.value() > 0);
        assert!(!snap.is_final());
    }

    #[test]
    fn options_builder() {
        let o = StageOptions::with_publish_every(0);
        assert_eq!(o.publish_every, 1);
        let o = StageOptions::default()
            .keep_history()
            .restart(RestartPolicy::Eager);
        assert!(o.keep_history);
        assert_eq!(o.restart, RestartPolicy::Eager);
        assert_eq!(o.supervision, Supervision::default());
        let o = o
            .failure_policy(FailurePolicy::Degrade)
            .watchdog(Duration::from_millis(10), StallAction::Stop);
        assert_eq!(o.supervision.policy, FailurePolicy::Degrade);
        assert_eq!(o.supervision.watchdog.unwrap().on_stall, StallAction::Stop);
        let o = StageOptions::default().supervise(Supervision::degrade());
        assert_eq!(o.supervision.policy, FailurePolicy::Degrade);
    }

    #[test]
    fn degraded_input_propagates_through_dependent_stage() {
        struct Id;
        impl AnytimeBody for Id {
            type Input = u64;
            type Output = u64;
            fn init(&mut self, _i: &u64) -> u64 {
                0
            }
            fn step(&mut self, i: &u64, out: &mut u64, _s: u64) -> StepOutcome {
                *out = *i;
                StepOutcome::Done
            }
        }
        let (mut fw, fr) = buffer::versioned::<u64>("f");
        let (gw, gr) = buffer::versioned::<u64>("g");
        let mut g = StageNode::new(
            "g".into(),
            Id,
            InputFeed::Upstream(fr),
            gw,
            StageOptions::default(),
        );
        fw.publish(7, 1);
        fw.seal_degraded();
        let ctl = ControlToken::new();
        assert_eq!(poll_to_end(&mut g, &ctl).unwrap(), StageEnd::Degraded);
        let snap = gr.latest().unwrap();
        assert!(snap.is_degraded());
        assert!(!snap.is_final());
        assert_eq!(*snap.value(), 7);
    }

    #[test]
    fn restarted_driver_with_terminal_output_is_noop() {
        let (mut node, r) = node(3, 1);
        let ctl = ControlToken::new();
        assert_eq!(poll_to_end(&mut node, &ctl).unwrap(), StageEnd::Final);
        let versions = r.history().unwrap().len();
        // Re-polling (as the Restart policy does after a panic) must not
        // publish anything further.
        assert_eq!(poll_to_end(&mut node, &ctl).unwrap(), StageEnd::Final);
        assert_eq!(r.history().unwrap().len(), versions);
    }

    #[test]
    fn crash_resume_continues_from_published_state() {
        /// Counts to 6; panics once at step 3; resumes from the published
        /// count.
        struct Fragile {
            armed: bool,
            resumed_at: Option<u64>,
        }
        impl AnytimeBody for Fragile {
            type Input = ();
            type Output = u64;
            fn init(&mut self, _i: &()) -> u64 {
                0
            }
            fn step(&mut self, _i: &(), out: &mut u64, step: u64) -> StepOutcome {
                if self.armed && step == 3 {
                    self.armed = false;
                    panic!("injected");
                }
                *out += 1;
                if step + 1 == 6 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
            fn resume(&mut self, _i: &(), published: &u64, steps_done: u64) -> Option<u64> {
                self.resumed_at = Some(steps_done);
                Some(*published)
            }
        }
        let (w, r) = buffer::versioned_with(
            "fragile",
            crate::buffer::BufferOptions { keep_history: true },
        );
        let mut node = StageNode::new(
            "fragile".into(),
            Fragile {
                armed: true,
                resumed_at: None,
            },
            InputFeed::Owned(Arc::new(())),
            w,
            StageOptions::default(),
        );
        let ctl = ControlToken::new();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            poll_to_end(&mut node, &ctl)
        }));
        assert!(died.is_err());
        assert_eq!(node.steps_completed(), 3);
        // Second run (the restart) resumes at step 3 — the counter keeps
        // the 3 published steps and still reaches the precise output.
        assert_eq!(poll_to_end(&mut node, &ctl).unwrap(), StageEnd::Final);
        assert_eq!(node.body.resumed_at, Some(3));
        let snap = r.latest().unwrap();
        assert!(snap.is_final());
        assert_eq!(*snap.value(), 6);
        assert_eq!(snap.steps(), 6);
        // History stays monotone in steps: 1,2,3 then 4,5,6 — step 1..3
        // never recomputed.
        let steps: Vec<u64> = r.history().unwrap().iter().map(|s| s.steps()).collect();
        assert_eq!(steps, vec![1, 2, 3, 4, 5, 6]);
    }
}
