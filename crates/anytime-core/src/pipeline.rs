use crate::buffer::{self, BufferControl, BufferOptions, BufferReader, BufferWriter};
use crate::control::{ControlPoll, ControlToken};
use crate::error::{CoreError, Result};
use crate::executor::Automaton;
use crate::runtime::RuntimeHandle;
use crate::scheduler::AllocPolicy;
use crate::stage::{
    AnytimeBody, InputFeed, PollCx, StageEnd, StageNode, StageOptions, StagePoll, StageRunner,
};
use crate::trace::Recorder;
use crate::version::Version;
use std::fmt;
use std::sync::Arc;

/// Builds an anytime automaton as a directed acyclic graph of stages
/// (paper Figure 1).
///
/// Stages are added bottom-up: [`PipelineBuilder::source`] creates stages
/// that own their input, [`PipelineBuilder::stage`] creates stages that
/// consume another stage's output buffer, and [`PipelineBuilder::join2`]
/// merges two buffers for multi-parent stages (like stage `i` in the
/// paper's example, which depends on both `g` and `h`). Because a stage can
/// only reference readers of already-added stages, the graph is acyclic by
/// construction.
///
/// Fan-out needs no special node: clone the [`BufferReader`] and hand it to
/// several dependent stages.
///
/// # Examples
///
/// The paper's `f → (g, h) → i` diamond:
///
/// ```
/// use anytime_core::{PipelineBuilder, Precise, StageOptions};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let mut pb = PipelineBuilder::new();
/// let f = pb.source("f", 10u64, Precise::new(|i: &u64| i + 1), StageOptions::default());
/// let g = pb.stage("g", &f, Precise::new(|i: &u64| i * 2), StageOptions::default());
/// let h = pb.stage("h", &f, Precise::new(|i: &u64| i * 3), StageOptions::default());
/// let gh = pb.join2("gh", &g, &h);
/// let i = pb.stage(
///     "i",
///     &gh,
///     Precise::new(|(g, h): &(Arc<u64>, Arc<u64>)| **g + **h),
///     StageOptions::default(),
/// );
/// let auto = pb.build().launch()?;
/// let out = i.wait_final_timeout(Duration::from_secs(10))?;
/// assert_eq!(*out.value(), 22 + 33);
/// auto.join()?;
/// # Ok::<(), anytime_core::CoreError>(())
/// ```
pub struct PipelineBuilder {
    runners: Vec<Box<dyn StageRunner>>,
    recorder: Recorder,
    runtime: Option<RuntimeHandle>,
    fail_fast: bool,
    schedule: Option<(AllocPolicy, Vec<f64>)>,
    #[cfg(feature = "fault-inject")]
    fault_plan: Option<crate::faultinject::FaultPlan>,
}

impl PipelineBuilder {
    /// Creates an empty pipeline builder (tracing disabled, stages
    /// scheduled on the process-wide shared runtime).
    pub fn new() -> Self {
        Self {
            runners: Vec::new(),
            recorder: Recorder::disabled(),
            runtime: None,
            fail_fast: false,
            schedule: None,
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }

    /// Records trace events on `recorder`: every stage buffer created by
    /// this builder emits publish/observe events, and the launched
    /// [`Automaton`] emits restart/stall/degrade events.
    ///
    /// Must be called **before any stage is added** (each stage's output
    /// buffer captures the recorder at creation — it cannot be
    /// retrofitted), and panics otherwise.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        assert!(
            self.runners.is_empty(),
            "with_recorder must be called before any stage is added: \
             stage buffers capture the recorder at creation"
        );
        self.recorder = recorder;
        self
    }

    /// Schedules this pipeline's stage tasks on `runtime` instead of the
    /// process-wide shared runtime ([`RuntimeHandle::global`]).
    pub fn with_runtime(mut self, runtime: RuntimeHandle) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Makes the first *permanently* failed stage stop the whole automaton
    /// ([`ControlToken::stop`]) instead of letting healthy stages run on.
    ///
    /// Failures absorbed by supervision — successful restarts, degradations
    /// with a published approximation — do not trigger the stop; only a
    /// failure that would surface as an error from
    /// [`Automaton::join`](crate::Automaton::join) does. Every stage's
    /// latest published output remains readable, per the anytime contract.
    pub fn with_fail_fast(mut self) -> Self {
        self.fail_fast = true;
        self
    }

    /// Maps a [`scheduler`](crate::scheduler) thread-allocation policy
    /// onto per-stage task *credits*: the plan `allocate(policy, weights,
    /// workers)` is computed against the runtime's worker count at launch,
    /// and a stage allotted `k` threads gets `k` publish slices per
    /// scheduling quantum instead of `k` OS threads. `weights` must have
    /// one entry per stage, in the order stages were added (checked at
    /// launch).
    pub fn with_schedule(mut self, policy: AllocPolicy, weights: Vec<f64>) -> Self {
        self.schedule = Some((policy, weights));
        self
    }

    /// Arms the faults in `plan` on the matching stages at build time
    /// (chaos testing).
    ///
    /// Stages not named in the plan are untouched; plan entries naming
    /// unknown stages are ignored. See [`crate::FaultPlan`].
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, plan: crate::faultinject::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The recorder stages of this builder report to (disabled unless one
    /// was supplied via [`PipelineBuilder::with_recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Number of stages added so far.
    pub fn len(&self) -> usize {
        self.runners.len()
    }

    /// `true` if no stages have been added.
    pub fn is_empty(&self) -> bool {
        self.runners.is_empty()
    }

    /// Adds a source stage owning its input data.
    ///
    /// The input is implicitly final, so the stage runs its anytime steps
    /// once and publishes its precise output at the end.
    pub fn source<B>(
        &mut self,
        name: impl Into<String>,
        input: B::Input,
        body: B,
        opts: StageOptions,
    ) -> BufferReader<B::Output>
    where
        B: AnytimeBody + 'static,
    {
        let name = name.into();
        let (writer, reader) = self.make_buffer::<B::Output>(&name, opts);
        self.runners.push(Box::new(StageNode::new(
            name,
            body,
            InputFeed::Owned(Arc::new(input)),
            writer,
            opts,
        )));
        reader
    }

    /// Adds a dependent stage consuming `input`'s buffer.
    ///
    /// The stage re-runs on each observed input version (per its
    /// [`StageOptions::restart`] policy) and publishes its own precise
    /// output after processing the input's final version — the asynchronous
    /// pipeline of paper §III-C1.
    pub fn stage<B>(
        &mut self,
        name: impl Into<String>,
        input: &BufferReader<B::Input>,
        body: B,
        opts: StageOptions,
    ) -> BufferReader<B::Output>
    where
        B: AnytimeBody + 'static,
    {
        let name = name.into();
        let (writer, reader) = self.make_buffer::<B::Output>(&name, opts);
        self.runners.push(Box::new(StageNode::new(
            name,
            body,
            InputFeed::Upstream(input.clone()),
            writer,
            opts,
        )));
        reader
    }

    /// Adds a join node combining the latest versions of two buffers.
    ///
    /// The join publishes a new `(Arc<A>, Arc<B>)` pair whenever either
    /// parent publishes, and its final version once both parents are final.
    /// Values are shared, not copied.
    pub fn join2<A, B>(
        &mut self,
        name: impl Into<String>,
        a: &BufferReader<A>,
        b: &BufferReader<B>,
    ) -> BufferReader<(Arc<A>, Arc<B>)>
    where
        A: Send + Sync + 'static,
        B: Send + Sync + 'static,
    {
        let name = name.into();
        let (writer, reader) = self.make_buffer::<(Arc<A>, Arc<B>)>(&name, StageOptions::default());
        self.runners.push(Box::new(JoinRunner {
            name,
            a: a.clone(),
            b: b.clone(),
            writer,
            last: None,
            steps: 0,
            began: false,
        }));
        reader
    }

    /// Adds a pre-built runner (used by the synchronous-pipeline module).
    pub(crate) fn push_runner(&mut self, runner: Box<dyn StageRunner>) {
        self.runners.push(runner);
    }

    /// Creates an output buffer for a stage, honoring history options and
    /// reporting to this builder's recorder.
    pub(crate) fn make_buffer<T>(
        &mut self,
        name: &str,
        opts: StageOptions,
    ) -> (BufferWriter<T>, BufferReader<T>) {
        buffer::versioned_traced(
            name,
            BufferOptions {
                keep_history: opts.keep_history,
            },
            &self.recorder,
        )
    }

    /// Finishes construction.
    pub fn build(self) -> Pipeline {
        #[allow(unused_mut)]
        let mut runners = self.runners;
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.fault_plan {
            for runner in &mut runners {
                if let Some(faults) = plan.get(runner.name()) {
                    runner.inject_faults(faults.clone());
                }
            }
        }
        Pipeline {
            runners,
            fail_fast: self.fail_fast,
            recorder: self.recorder,
            runtime: self.runtime,
            schedule: self.schedule,
        }
    }
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("stages", &self.runners.len())
            .finish()
    }
}

/// A fully constructed (but not yet running) anytime automaton pipeline.
pub struct Pipeline {
    pub(crate) runners: Vec<Box<dyn StageRunner>>,
    pub(crate) fail_fast: bool,
    pub(crate) recorder: Recorder,
    pub(crate) runtime: Option<RuntimeHandle>,
    pub(crate) schedule: Option<(AllocPolicy, Vec<f64>)>,
}

impl Pipeline {
    /// Number of stages in the pipeline.
    pub fn len(&self) -> usize {
        self.runners.len()
    }

    /// `true` if the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.runners.is_empty()
    }

    /// The stage names, in pipeline order.
    ///
    /// Useful for deriving seeded `FaultPlan`s (or other per-stage
    /// configuration) from a built pipeline without repeating the name
    /// list by hand.
    pub fn stage_names(&self) -> Vec<&str> {
        self.runners.iter().map(|r| r.name()).collect()
    }

    /// Returns this pipeline retargeted onto `runtime`, replacing the
    /// builder's choice (used by [`crate::serve::ServePool`] to co-locate
    /// all replicas on one pool-owned runtime).
    pub fn on_runtime(mut self, runtime: RuntimeHandle) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// `true` if a specific runtime was configured (builder or
    /// [`Pipeline::on_runtime`]).
    pub(crate) fn runtime_is_set(&self) -> bool {
        self.runtime.is_some()
    }

    /// Schedules the stage tasks and starts executing. Stages share the
    /// configured runtime's fixed worker pool (the process-wide one by
    /// default) instead of each owning an OS thread.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty pipeline.
    pub fn launch(self) -> Result<Automaton> {
        self.launch_with(ControlToken::new())
    }

    /// Launches with an externally owned control token (e.g. one shared
    /// with other machinery that may stop the automaton).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty pipeline, or for
    /// a [`PipelineBuilder::with_schedule`] weight vector whose length
    /// does not match the stage count.
    pub fn launch_with(self, ctl: ControlToken) -> Result<Automaton> {
        if self.runners.is_empty() {
            return Err(CoreError::InvalidConfig(
                "pipeline has no stages".to_string(),
            ));
        }
        let runtime = self.runtime.unwrap_or_else(RuntimeHandle::global);
        let credits = match &self.schedule {
            Some((policy, weights)) => {
                if weights.len() != self.runners.len() {
                    return Err(CoreError::InvalidConfig(format!(
                        "schedule weights ({}) do not match stage count ({})",
                        weights.len(),
                        self.runners.len()
                    )));
                }
                let alloc = crate::scheduler::allocate(*policy, weights, runtime.workers());
                Some(crate::scheduler::credits_from_alloc(&alloc))
            }
            None => None,
        };
        Automaton::spawn(
            self.runners,
            ctl,
            self.fail_fast,
            self.recorder,
            runtime,
            credits,
        )
    }

    /// The recorder this pipeline's stages report trace events to.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("stages", &self.runners.len())
            .finish()
    }
}

/// Runner joining two parent buffers into a tuple buffer.
struct JoinRunner<A, B> {
    name: String,
    a: BufferReader<A>,
    b: BufferReader<B>,
    writer: BufferWriter<(Arc<A>, Arc<B>)>,
    /// Parent version pair of the latest published combination.
    last: Option<(Version, Version)>,
    /// Pairs published so far (the join's progress figure).
    steps: u64,
    began: bool,
}

impl<A, B> StageRunner for JoinRunner<A, B>
where
    A: Send + Sync + 'static,
    B: Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, cx: &mut PollCx<'_>) -> StagePoll {
        // Restart safety: nothing to do once the output settled.
        if self.writer.is_final() {
            return StagePoll::Ready(Ok(StageEnd::Final));
        }
        if self.writer.is_terminal() {
            return StagePoll::Ready(Ok(StageEnd::Degraded));
        }
        // Subscribe to both parent buffers and the control token before
        // checking any predicate: any parent publication/close or control
        // transition re-polls the join immediately — no polling loops.
        self.a.subscribe_target(cx.wake);
        self.b.subscribe_target(cx.wake);
        cx.ctl.subscribe_target(cx.wake);
        if !self.began {
            self.writer.begin_run(0);
            self.began = true;
        }
        let budget = cx.budget.max(1);
        let mut pubs: u64 = 0;
        loop {
            match cx.ctl.poll_checkpoint() {
                ControlPoll::Stopped => return StagePoll::Ready(Ok(StageEnd::Stopped)),
                ControlPoll::Paused => return StagePoll::Pending,
                ControlPoll::Running => {}
            }
            let (sa, sb) = (self.a.latest(), self.b.latest());
            if let (Some(sa), Some(sb)) = (&sa, &sb) {
                let pair = (sa.version(), sb.version());
                if self.last != Some(pair) {
                    self.steps += 1;
                    let value = (sa.value_arc(), sb.value_arc());
                    if sa.is_terminal() && sb.is_terminal() {
                        // A degraded parent taints the joined pair: the
                        // approximation flag propagates downstream.
                        return StagePoll::Ready(Ok(if sa.is_degraded() || sb.is_degraded() {
                            self.writer.publish_degraded(value, self.steps);
                            StageEnd::Degraded
                        } else {
                            self.writer.publish_final(value, self.steps);
                            StageEnd::Final
                        }));
                    }
                    self.writer.publish(value, self.steps);
                    self.last = Some(pair);
                    pubs += 1;
                    if pubs >= budget {
                        return StagePoll::Yielded;
                    }
                    continue;
                }
            }
            // A parent that exited without a terminal version will never
            // satisfy the join; report it instead of waiting forever.
            if self.a.is_closed() && !self.a.is_terminal() {
                return StagePoll::Ready(Err(CoreError::SourceClosed {
                    buffer: self.a.name().to_string(),
                }));
            }
            if self.b.is_closed() && !self.b.is_terminal() {
                return StagePoll::Ready(Err(CoreError::SourceClosed {
                    buffer: self.b.name().to_string(),
                }));
            }
            return StagePoll::Pending;
        }
    }

    fn output_control(&self) -> Option<Arc<dyn BufferControl>> {
        Some(self.writer.control_handle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusive::Diffusive;
    use crate::precise::Precise;
    use crate::stage::StepOutcome;
    use std::time::Duration;

    #[test]
    fn builder_counts_stages() {
        let mut pb = PipelineBuilder::new();
        assert!(pb.is_empty());
        let f = pb.source(
            "f",
            1u64,
            Precise::new(|i: &u64| *i),
            StageOptions::default(),
        );
        let _g = pb.stage("g", &f, Precise::new(|i: &u64| *i), StageOptions::default());
        assert_eq!(pb.len(), 2);
        let p = pb.build();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_pipeline_rejected() {
        let p = PipelineBuilder::new().build();
        assert!(matches!(p.launch(), Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn linear_chain_reaches_precise_output() {
        // f counts to 100 diffusively; g doubles whatever it sees.
        let mut pb = PipelineBuilder::new();
        let f = pb.source(
            "f",
            (),
            Diffusive::new(
                |_: &()| 0u64,
                |_: &(), out: &mut u64, step| {
                    *out += 1;
                    if step + 1 == 100 {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                },
            ),
            StageOptions::with_publish_every(10),
        );
        let g = pb.stage(
            "g",
            &f,
            Precise::new(|i: &u64| i * 2),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        let out = g.wait_final_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!(*out.value(), 200);
        assert!(out.is_final());
        let report = auto.join().unwrap();
        assert!(report.stages.iter().all(|s| s.end == StageEnd::Final));
    }

    #[test]
    fn join2_combines_latest_and_finalizes() {
        let mut pb = PipelineBuilder::new();
        let a = pb.source(
            "a",
            3u64,
            Precise::new(|i: &u64| *i),
            StageOptions::default(),
        );
        let b = pb.source(
            "b",
            4u64,
            Precise::new(|i: &u64| *i),
            StageOptions::default(),
        );
        let j = pb.join2("j", &a, &b);
        let s = pb.stage(
            "s",
            &j,
            Precise::new(|(a, b): &(Arc<u64>, Arc<u64>)| **a * **b),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        let out = s.wait_final_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!(*out.value(), 12);
        auto.join().unwrap();
    }

    #[test]
    fn join2_propagates_degraded_parent() {
        use crate::supervisor::Supervision;
        let mut pb = PipelineBuilder::new();
        // Parent `a` publishes two approximations then dies; Degrade seals
        // its buffer, and the join must taint its own terminal pair.
        let a = pb.source(
            "a",
            (),
            Diffusive::new(
                |_: &()| 0u64,
                |_: &(), out: &mut u64, step| {
                    if step == 2 {
                        panic!("parent died");
                    }
                    *out += 1;
                    StepOutcome::Continue
                },
            ),
            StageOptions::default().supervise(Supervision::degrade()),
        );
        let b = pb.source(
            "b",
            4u64,
            Precise::new(|i: &u64| *i),
            StageOptions::default(),
        );
        let j = pb.join2("j", &a, &b);
        let auto = pb.build().launch().unwrap();
        let out = j.wait_final_timeout(Duration::from_secs(20)).unwrap();
        assert!(out.is_degraded());
        assert!(!out.is_final());
        let (ja, jb) = out.value();
        assert_eq!(**ja, 2);
        assert_eq!(**jb, 4);
        let report = auto.join().unwrap();
        assert!(report.any_degraded());
        assert_eq!(report.faults.degradations, 1);
    }

    #[test]
    fn fan_out_shares_one_buffer() {
        let mut pb = PipelineBuilder::new();
        let f = pb.source(
            "f",
            5u64,
            Precise::new(|i: &u64| *i),
            StageOptions::default(),
        );
        let g = pb.stage(
            "g",
            &f,
            Precise::new(|i: &u64| i + 1),
            StageOptions::default(),
        );
        let h = pb.stage(
            "h",
            &f,
            Precise::new(|i: &u64| i + 2),
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        assert_eq!(
            *g.wait_final_timeout(Duration::from_secs(20))
                .unwrap()
                .value(),
            6
        );
        assert_eq!(
            *h.wait_final_timeout(Duration::from_secs(20))
                .unwrap()
                .value(),
            7
        );
        auto.join().unwrap();
    }
}
