//! Multi-threaded sampling within a single anytime stage (paper §IV-C1).
//!
//! "Though we use non-sequential permutations when sampling, sampling can
//! still be performed by multiple threads … it is then straightforward to
//! divide this permutation sequence among threads." This module implements
//! that: a [`ParallelSampledMap`] divides a bijective sample order
//! *cyclically* into shares (the paper's recommendation for the tree
//! permutation, so low-resolution completeness arrives as early as
//! possible). Every run spawns one task per share on the runtime the stage
//! task itself runs on, so the runtime's workers bound the parallelism.
//! The shares send their computed elements through a bounded channel, and
//! the stage task merges them into the working output — preserving the
//! single-writer output-buffer discipline (Property 2).
//!
//! Shares receive only the shared input `Arc` and their index share;
//! element computations must be pure (Property 1), which the
//! `Fn(&I, usize) -> V` bound encourages. No share outlives the run that
//! spawned it: the stage reports how a run ended only once every share of
//! that run has dropped its sender.

use crate::buffer::{BufferReader, BufferWriter, DoubleBuffer};
use crate::channel::{bounded, Receiver, Sender};
use crate::control::{ControlPoll, ControlToken};
use crate::error::CoreError;
use crate::notify::WakeTarget;
use crate::pipeline::PipelineBuilder;
use crate::runtime::{RtTask, TaskPoll};
use crate::stage::{PollCx, StageEnd, StageOptions, StagePoll, StageRunner};
use crate::supervisor::Supervision;
use anytime_permute::{partition, DynPermutation, Permutation};
use std::sync::Arc;

/// Boxed initial-output constructor.
type InitFn<I, O> = Box<dyn FnMut(&I) -> O + Send>;
/// Shared pure element computation (runs in the share tasks).
type ComputeFn<I, V> = Arc<dyn Fn(&I, usize) -> V + Send + Sync>;
/// Boxed element writer (runs in the stage task).
type WriteFn<O, V> = Box<dyn FnMut(&mut O, usize, V) + Send>;
/// Computed elements, as a share sends them: `(index, value)` pairs.
type Batch<V> = Vec<(usize, V)>;

/// A source stage whose sampling work is spread over runtime tasks.
///
/// Like [`crate::SampledMap`], but element values are computed by
/// `workers` share tasks walking cyclic shares of the permutation; the
/// stage task merges batches in arrival order and publishes every
/// `publish_every` *elements*. Because the merge is in arrival order
/// across shares, intermediate outputs are unordered *unions* of the
/// shares' prefixes — each still a valid sample of roughly balanced
/// resolution, exactly the behaviour the paper describes for cyclic
/// distribution.
pub struct ParallelSampledMap<I, O, V> {
    name: String,
    input: Arc<I>,
    perm: DynPermutation,
    workers: usize,
    batch: usize,
    init: InitFn<I, O>,
    compute: ComputeFn<I, V>,
    write: WriteFn<O, V>,
}

impl<I, O, V> std::fmt::Debug for ParallelSampledMap<I, O, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSampledMap")
            .field("name", &self.name)
            .field("workers", &self.workers)
            .field("batch", &self.batch)
            .finish_non_exhaustive()
    }
}

impl<I, O, V> ParallelSampledMap<I, O, V>
where
    I: Send + Sync + 'static,
    O: Clone + Send + Sync + 'static,
    V: Send + 'static,
{
    /// Creates a parallel sampled source stage.
    ///
    /// - `workers` is the number of cyclic shares, each computed by a
    ///   task on the runtime's workers;
    /// - `compute(input, idx)` produces output element `idx` (runs in the
    ///   share tasks; must be pure);
    /// - `write(out, idx, value)` stores it in the working output (runs in
    ///   the stage task);
    /// - `batch` is the number of elements a share computes between
    ///   channel sends.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `batch == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        input: I,
        perm: impl Into<DynPermutation>,
        workers: usize,
        batch: usize,
        init: impl FnMut(&I) -> O + Send + 'static,
        compute: impl Fn(&I, usize) -> V + Send + Sync + 'static,
        write: impl FnMut(&mut O, usize, V) + Send + 'static,
    ) -> Self {
        assert!(workers > 0, "at least one worker required");
        assert!(batch > 0, "batch must be non-zero");
        Self {
            name: name.into(),
            input: Arc::new(input),
            perm: perm.into(),
            workers,
            batch,
            init: Box::new(init),
            compute: Arc::new(compute),
            write: Box::new(write),
        }
    }

    /// Registers this stage on a pipeline builder, returning its output
    /// reader.
    pub fn register(self, pb: &mut PipelineBuilder, opts: StageOptions) -> BufferReader<O> {
        let (writer, reader) = crate::buffer::versioned_with(
            &self.name,
            crate::buffer::BufferOptions {
                keep_history: opts.keep_history,
            },
        );
        pb.push_runner(Box::new(ParallelRunner {
            stage: self,
            writer,
            publish_every: opts.publish_every,
            supervision: opts.supervision,
            merged: 0,
            run: None,
            dirty: false,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }));
        reader
    }
}

/// One cyclic share of a run's sample order, computed as a runtime task.
///
/// Each poll computes up to `batch` elements, checking for a stop before
/// each one, and sends them to the merging stage task. On a full channel
/// it keeps the batch and returns `Pending`, subscribed to the channel and
/// the control token — the send-or-stall pattern of the synchronous
/// pipeline's source — so it never blocks a worker. It yields after
/// `credits` batches, and ends (dropping its sender) once its share is
/// sent, on a stop, or when the stage closed the channel.
struct ShareTask<I, V> {
    name: String,
    input: Arc<I>,
    compute: ComputeFn<I, V>,
    share: std::vec::IntoIter<usize>,
    batch: usize,
    tx: Sender<Batch<V>>,
    ctl: ControlToken,
    /// A batch the channel handed back (queue full), resent before any
    /// further element is computed.
    stalled: Option<Batch<V>>,
}

impl<I, V> RtTask for ShareTask<I, V>
where
    I: Send + Sync + 'static,
    V: Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, wake: &Arc<dyn WakeTarget>, credits: u64) -> TaskPoll {
        // Subscribe before checking any predicate: queue space, a closed
        // channel or a control transition after this point re-polls.
        self.tx.subscribe_target(wake);
        self.ctl.subscribe_target(wake);
        let mut sent = 0u64;
        loop {
            match self.ctl.poll_checkpoint() {
                ControlPoll::Running => {}
                ControlPoll::Paused => return TaskPoll::Pending,
                ControlPoll::Stopped => return TaskPoll::Ready,
            }
            let batch = match self.stalled.take() {
                Some(batch) => batch,
                None => {
                    let mut batch = Vec::with_capacity(self.batch);
                    for idx in self.share.by_ref().take(self.batch) {
                        if self.ctl.is_stopped() {
                            return TaskPoll::Ready;
                        }
                        batch.push((idx, (self.compute)(&self.input, idx)));
                    }
                    if batch.is_empty() {
                        return TaskPoll::Ready;
                    }
                    batch
                }
            };
            match self.tx.poll_send(batch, &self.ctl) {
                Ok(None) => {
                    if self.share.as_slice().is_empty() {
                        return TaskPoll::Ready;
                    }
                    sent += 1;
                    if sent >= credits {
                        return TaskPoll::Yielded;
                    }
                }
                Ok(Some(batch)) => {
                    self.stalled = Some(batch);
                    return TaskPoll::Pending;
                }
                // A stop, or the stage closed the channel: either way this
                // share is done.
                Err(_) => return TaskPoll::Ready,
            }
        }
    }
}

/// In-flight state of one parallel-map run: the working output and the
/// merge channel its share tasks feed. Lives across poll slices.
struct PmapRun<O, V> {
    out: O,
    rx: Receiver<Batch<V>>,
    done: u64,
    published_at: u64,
    /// Publications recycle the two-versions-old allocation instead of
    /// cloning the merged output fresh each time.
    db: DoubleBuffer<O>,
    /// How the run ended, once it has. The stage reports it only after
    /// every share has dropped its sender.
    end: Option<StageEnd>,
}

struct ParallelRunner<I, O, V> {
    stage: ParallelSampledMap<I, O, V>,
    writer: BufferWriter<O>,
    publish_every: u64,
    supervision: Supervision,
    /// Elements merged in the current run, for `steps_completed`.
    merged: u64,
    /// The in-flight run; `None` until the first poll slice (or after a
    /// panic abandoned the previous run).
    run: Option<PmapRun<O, V>>,
    /// Set while a poll slice runs; still set on entry means the previous
    /// slice panicked mid-merge and the run must be abandoned.
    dirty: bool,
    #[cfg(feature = "fault-inject")]
    faults: Option<crate::faultinject::ArmedFaults>,
}

impl<I, O, V> ParallelRunner<I, O, V>
where
    I: Send + Sync + 'static,
    O: Clone + Send + Sync + 'static,
    V: Send + 'static,
{
    /// Starts a run: a fresh working output, and one task per cyclic share
    /// of the sample order, spawned on the runtime this stage runs on.
    fn start_run(&mut self, cx: &PollCx<'_>) -> PmapRun<O, V> {
        let out = (self.stage.init)(&self.stage.input);
        let (tx, rx) = bounded(self.stage.workers * 2);
        let shares = partition::split_cyclic(&self.stage.perm, self.stage.workers);
        for (w, share) in shares.into_iter().enumerate() {
            let task = ShareTask {
                name: format!("{}-s{w}", self.stage.name),
                input: Arc::clone(&self.stage.input),
                compute: Arc::clone(&self.stage.compute),
                share: share.into_iter(),
                batch: self.stage.batch,
                tx: tx.clone(),
                ctl: cx.ctl.clone(),
                stalled: None,
            };
            cx.rt.spawn_from_task(Box::new(task), cx.budget);
        }
        self.merged = 0;
        // A crash-restarted run recounts merged elements from zero, so
        // the Property 2 steps floor restarts with it.
        self.writer.begin_run(0);
        PmapRun {
            out,
            rx,
            done: 0,
            published_at: 0,
            db: DoubleBuffer::new(),
            end: None,
        }
    }

    /// One poll slice: starts a run if none is in flight, merges arriving
    /// batches, and ends the run once it is complete, stopped or cut
    /// short.
    fn drive(&mut self, cx: &mut PollCx<'_>) -> StagePoll {
        if self.run.is_none() {
            if self.writer.is_final() {
                return StagePoll::Ready(Ok(StageEnd::Final));
            }
            if self.writer.is_terminal() {
                return StagePoll::Ready(Ok(StageEnd::Degraded));
            }
            self.run = Some(self.start_run(cx));
        }
        cx.ctl.subscribe_target(cx.wake);
        let run = self.run.as_mut().expect("run started above");
        run.rx.subscribe_target(cx.wake);
        if run.end.is_none() && self.writer.is_terminal() {
            // Sealed while the run was in flight: the watchdog degraded it.
            run.end = Some(StageEnd::Degraded);
        }
        let total = self.stage.perm.len() as u64;
        let publish_every = self.publish_every.max(1);
        let mut pubs: u64 = 0;
        while run.end.is_none() {
            match cx.ctl.poll_checkpoint() {
                ControlPoll::Running => {}
                ControlPoll::Paused => return StagePoll::Pending,
                ControlPoll::Stopped => {
                    run.end = Some(StageEnd::Stopped);
                    break;
                }
            }
            match run.rx.poll_recv(cx.ctl) {
                Ok(Some(batch)) => {
                    // Injected faults fire at batch-merge boundaries — the
                    // stage's step boundary, where the working output is a
                    // complete, valid partial sample.
                    #[cfg(feature = "fault-inject")]
                    if let Some(armed) = self.faults.as_mut() {
                        armed.before_step(&self.stage.name, run.done);
                    }
                    for (idx, value) in batch {
                        (self.stage.write)(&mut run.out, idx, value);
                        run.done += 1;
                    }
                    self.merged = run.done;
                    if run.done == total {
                        run.db
                            .publish_final_from(&mut self.writer, &run.out, run.done);
                        run.end = Some(StageEnd::Final);
                    } else if run.done - run.published_at >= publish_every {
                        run.db.publish_from(&mut self.writer, &run.out, run.done);
                        run.published_at = run.done;
                        pubs += 1;
                        if pubs >= cx.budget {
                            return StagePoll::Yielded;
                        }
                    }
                }
                Ok(None) => return StagePoll::Pending,
                // Every share ended and the queue is drained; only an
                // empty sample order gets here complete.
                Err(CoreError::ChannelClosed) if run.done == total => {
                    run.db
                        .publish_final_from(&mut self.writer, &run.out, run.done);
                    run.end = Some(StageEnd::Final);
                }
                // A stop, or every share ended short of the total without
                // one: an element computation panicked.
                Err(_) => run.end = Some(StageEnd::Stopped),
            }
        }
        let end = run.end.expect("the loop exits once the run ended");
        // Publish whatever progress was merged before an interruption.
        if end == StageEnd::Stopped && run.done > run.published_at && !self.writer.is_final() {
            run.db.publish_from(&mut self.writer, &run.out, run.done);
            run.published_at = run.done;
        }
        // No sampling work outlives the stage: closing the channel ends
        // every share at its next send, and the last share to drop its
        // sender wakes this task.
        if !run.rx.poll_close() {
            return StagePoll::Pending;
        }
        self.run = None;
        if end == StageEnd::Stopped && !cx.ctl.is_stopped() && self.merged != total {
            return StagePoll::Ready(Err(CoreError::StagePanicked {
                stage: self.stage.name.clone(),
                message: Some("a sampling share ended early".into()),
                steps_at_death: self.merged,
            }));
        }
        StagePoll::Ready(Ok(end))
    }
}

impl<I, O, V> StageRunner for ParallelRunner<I, O, V>
where
    I: Send + Sync + 'static,
    O: Clone + Send + Sync + 'static,
    V: Send + 'static,
{
    fn name(&self) -> &str {
        &self.stage.name
    }

    fn poll(&mut self, cx: &mut PollCx<'_>) -> StagePoll {
        // Dirty on entry: the previous slice panicked mid-merge (in `write`
        // or a fault hook). Abandon the run — dropping its receiver ends
        // its shares at their next send — and let the fresh run recompute
        // from scratch, because the channel cannot rewind.
        if std::mem::replace(&mut self.dirty, true) {
            self.run = None;
        }
        let verdict = self.drive(cx);
        self.dirty = false;
        verdict
    }

    fn output_control(&self) -> Option<Arc<dyn crate::buffer::BufferControl>> {
        Some(self.writer.control_handle())
    }

    fn supervision(&self) -> Supervision {
        self.supervision
    }

    fn steps_completed(&self) -> u64 {
        self.merged
    }

    #[cfg(feature = "fault-inject")]
    fn inject_faults(&mut self, faults: crate::faultinject::StageFaults) {
        self.faults = Some(crate::faultinject::ArmedFaults::new(faults));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notify::WaitSet;
    use crate::pipeline::PipelineBuilder;
    use crate::runtime::Runtime;
    use anytime_permute::{Lfsr, Tree2d};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn build(workers: usize, publish_every: u64) -> (crate::Pipeline, BufferReader<Vec<u64>>) {
        let n = 1024usize;
        let input: Vec<u64> = (0..n as u64).collect();
        let mut pb = PipelineBuilder::new();
        let stage = ParallelSampledMap::new(
            "pmap",
            input,
            DynPermutation::new(Lfsr::with_len(n).unwrap()),
            workers,
            16,
            |i: &Vec<u64>| vec![u64::MAX; i.len()],
            |i: &Vec<u64>, idx| i[idx] * 3,
            |out: &mut Vec<u64>, idx, v| out[idx] = v,
        );
        let reader = stage.register(&mut pb, StageOptions::with_publish_every(publish_every));
        (pb.build(), reader)
    }

    #[test]
    fn parallel_map_reaches_precise_output() {
        for workers in [1usize, 2, 4] {
            let (pipeline, out) = build(workers, 64);
            let auto = pipeline.launch().unwrap();
            let snap = out.wait_final_timeout(Duration::from_secs(60)).unwrap();
            let expected: Vec<u64> = (0..1024u64).map(|v| v * 3).collect();
            assert_eq!(snap.value(), &expected, "workers={workers}");
            assert_eq!(snap.steps(), 1024);
            auto.join().unwrap();
        }
    }

    #[test]
    fn intermediate_outputs_are_valid_partial_samples() {
        let (pipeline, out) = build(3, 32);
        let auto = pipeline.launch().unwrap();
        let first = out
            .wait_newer_timeout(None, Duration::from_secs(60))
            .unwrap();
        // Every filled element must already hold its precise value.
        for (idx, &v) in first.value().iter().enumerate() {
            if v != u64::MAX {
                assert_eq!(v, idx as u64 * 3);
            }
        }
        assert!(first.steps() >= 32);
        auto.join().unwrap();
    }

    #[test]
    fn stop_interrupts_workers() {
        let n = 1 << 16;
        let input: Vec<u64> = (0..n as u64).collect();
        let mut pb = PipelineBuilder::new();
        let stage = ParallelSampledMap::new(
            "slow",
            input,
            DynPermutation::new(Tree2d::new(256, 256).unwrap()),
            2,
            8,
            |i: &Vec<u64>| vec![0u64; i.len()],
            |i: &Vec<u64>, idx| {
                std::thread::sleep(Duration::from_micros(20));
                i[idx] + 1
            },
            |out: &mut Vec<u64>, idx, v| out[idx] = v,
        );
        let reader = stage.register(&mut pb, StageOptions::with_publish_every(64));
        let auto = pb.build().launch().unwrap();
        // Stop only once a batch has merged: a fixed sleep could stop
        // before the first publication on a loaded host.
        reader
            .wait_newer_timeout(None, Duration::from_secs(10))
            .unwrap();
        let report = auto.stop_and_join().unwrap();
        assert_eq!(report.stages[0].end, StageEnd::Stopped);
        // Partial progress was published on stop.
        let snap = reader.latest().expect("progress published");
        assert!(snap.steps() > 0);
        assert!(!snap.is_final());
    }

    #[test]
    fn worker_panic_is_reported() {
        let input: Vec<u64> = (0..64).collect();
        let mut pb = PipelineBuilder::new();
        let stage = ParallelSampledMap::new(
            "bad",
            input,
            DynPermutation::new(Lfsr::with_len(64).unwrap()),
            2,
            4,
            |i: &Vec<u64>| vec![0u64; i.len()],
            |_: &Vec<u64>, idx| {
                assert!(idx != 13, "worker exploded");
                idx as u64
            },
            |out: &mut Vec<u64>, idx, v| out[idx] = v,
        );
        let _reader = stage.register(&mut pb, StageOptions::default());
        let err = pb.build().launch().unwrap().join().unwrap_err();
        assert!(matches!(err, CoreError::StagePanicked { .. }), "{err}");
    }

    /// A share of `0..n` in index order, sending batches of `batch` into a
    /// channel of `capacity`, whose computation counts its calls.
    #[allow(clippy::type_complexity)]
    fn counted_share(
        n: usize,
        batch: usize,
        capacity: usize,
        ctl: &ControlToken,
    ) -> (
        ShareTask<Vec<u64>, u64>,
        Receiver<Batch<u64>>,
        Arc<AtomicU64>,
    ) {
        let calls = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        let (tx, rx) = bounded(capacity);
        let share = ShareTask {
            name: "pmap-s0".into(),
            input: Arc::new((0..n as u64).collect()),
            compute: Arc::new(move |i: &Vec<u64>, idx: usize| {
                counted.fetch_add(1, Ordering::SeqCst);
                i[idx] * 3
            }),
            share: (0..n).collect::<Vec<_>>().into_iter(),
            batch,
            tx,
            ctl: ctl.clone(),
            stalled: None,
        };
        (share, rx, calls)
    }

    #[test]
    fn paused_share_computes_nothing_until_resumed() {
        let ctl = ControlToken::new();
        let (mut share, rx, calls) = counted_share(64, 8, 4, &ctl);
        let woken = WaitSet::new();
        let wake = woken.as_wake_target();
        ctl.pause();
        assert!(matches!(share.poll(&wake, 1), TaskPoll::Pending));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "computed while paused");
        ctl.resume();
        assert!(woken.epoch() >= 1, "resume must wake the paused share");
        assert!(matches!(share.poll(&wake, 1), TaskPoll::Yielded));
        assert_eq!(calls.load(Ordering::SeqCst), 8);
        let batch = rx.poll_recv(&ctl).unwrap().expect("one batch sent");
        assert_eq!(batch, (0..8).map(|i| (i, i as u64 * 3)).collect::<Vec<_>>());
    }

    #[test]
    fn full_channel_stalls_the_share_without_recomputing() {
        let ctl = ControlToken::new();
        let (mut share, rx, calls) = counted_share(24, 8, 1, &ctl);
        let woken = WaitSet::new();
        let wake = woken.as_wake_target();
        // One batch fits; the second is handed back and kept.
        assert!(matches!(share.poll(&wake, 8), TaskPoll::Pending));
        assert_eq!(calls.load(Ordering::SeqCst), 16);
        let before = woken.epoch();
        assert_eq!(rx.poll_recv(&ctl).unwrap().map(|b| b.len()), Some(8));
        assert!(woken.epoch() > before, "space must wake the stalled share");
        // The kept batch goes first; the last one fills the queue again.
        assert!(matches!(share.poll(&wake, 8), TaskPoll::Pending));
        assert_eq!(calls.load(Ordering::SeqCst), 24);
        assert_eq!(rx.poll_recv(&ctl).unwrap().unwrap()[0].0, 8);
        assert!(matches!(share.poll(&wake, 8), TaskPoll::Ready));
        assert_eq!(rx.poll_recv(&ctl).unwrap().unwrap()[0].0, 16);
        drop(share);
        assert!(matches!(rx.poll_recv(&ctl), Err(CoreError::ChannelClosed)));
    }

    #[test]
    fn shares_run_as_tasks_on_the_stage_runtime() {
        let rt = Runtime::new(2);
        let (pipeline, out) = build(4, 64);
        let auto = pipeline.on_runtime(rt.handle()).launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(60)).unwrap();
        let expected: Vec<u64> = (0..1024u64).map(|v| v * 3).collect();
        assert_eq!(snap.value(), &expected);
        auto.join().unwrap();
        // One stage task and one task per share.
        assert_eq!(rt.stats().tasks_spawned, 5);
    }

    #[test]
    fn no_compute_after_stop_and_join_returns() {
        for iter in 0..30 {
            let rt = Runtime::new(2);
            let calls = Arc::new(AtomicU64::new(0));
            let counted = Arc::clone(&calls);
            let n = 4096usize;
            let mut pb = PipelineBuilder::new().with_runtime(rt.handle());
            let reader = ParallelSampledMap::new(
                "slow",
                (0..n as u64).collect::<Vec<u64>>(),
                DynPermutation::new(Lfsr::with_len(n).unwrap()),
                2,
                4,
                |i: &Vec<u64>| vec![0u64; i.len()],
                move |i: &Vec<u64>, idx| {
                    // Count on the way out, so a call still running when
                    // the stage reports its end shows up afterwards.
                    std::thread::sleep(Duration::from_micros(50));
                    counted.fetch_add(1, Ordering::SeqCst);
                    i[idx] + 1
                },
                |out: &mut Vec<u64>, idx, v| out[idx] = v,
            )
            .register(&mut pb, StageOptions::with_publish_every(16));
            let auto = pb.build().launch().unwrap();
            reader
                .wait_newer_timeout(None, Duration::from_secs(10))
                .unwrap();
            auto.stop_and_join().unwrap();
            let at_join = calls.load(Ordering::SeqCst);
            drop(rt);
            assert_eq!(
                calls.load(Ordering::SeqCst),
                at_join,
                "iteration {iter}: a share computed after stop_and_join returned"
            );
        }
    }

    #[test]
    fn map_on_a_runtime_dropped_after_launch_reaches_final_output() {
        let expected: Vec<u64> = (0..1024u64).map(|v| v * 3).collect();
        for iter in 0..50 {
            let rt = Runtime::new(2);
            let (pipeline, out) = build(2, 64);
            let auto = pipeline.on_runtime(rt.handle()).launch().unwrap();
            // Shutdown: the workers finish every live task, shares included.
            drop(rt);
            let snap = out.latest().expect("final output published");
            assert!(snap.is_final(), "iteration {iter}");
            assert_eq!(snap.value(), &expected, "iteration {iter}");
            auto.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ParallelSampledMap::new(
            "x",
            vec![0u64],
            DynPermutation::new(Lfsr::with_len(1).unwrap()),
            0,
            1,
            |i: &Vec<u64>| i.clone(),
            |_: &Vec<u64>, _| 0u64,
            |_: &mut Vec<u64>, _, _| {},
        );
    }
}
