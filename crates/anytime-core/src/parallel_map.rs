//! Multi-threaded sampling within a single anytime stage (paper §IV-C1).
//!
//! "Though we use non-sequential permutations when sampling, sampling can
//! still be performed by multiple threads … it is then straightforward to
//! divide this permutation sequence among threads." This module implements
//! that: a [`ParallelSampledMap`] divides a bijective sample order
//! *cyclically* among worker threads (the paper's recommendation for the
//! tree permutation, so low-resolution completeness arrives as early as
//! possible), collects their computed elements through a channel, and
//! applies them to the working output in the stage driver — preserving the
//! single-writer output-buffer discipline (Property 2).
//!
//! Workers receive only the shared input `Arc` and their index share;
//! element computations must be pure (Property 1), which the
//! `Fn(&I, usize) -> V` bound encourages.

use crate::buffer::{BufferReader, BufferWriter, DoubleBuffer};
use crate::channel::{bounded, Receiver};
use crate::control::{ControlPoll, ControlToken};
use crate::error::{CoreError, Result};
use crate::pipeline::PipelineBuilder;
use crate::stage::{PollCx, StageEnd, StageOptions, StagePoll, StageRunner};
use crate::supervisor::Supervision;
use anytime_permute::{partition, DynPermutation, Permutation};
use std::sync::Arc;

/// Boxed initial-output constructor.
type InitFn<I, O> = Box<dyn FnMut(&I) -> O + Send>;
/// Shared pure element computation (runs on workers).
type ComputeFn<I, V> = Arc<dyn Fn(&I, usize) -> V + Send + Sync>;
/// Boxed element writer (runs on the stage driver).
type WriteFn<O, V> = Box<dyn FnMut(&mut O, usize, V) + Send>;

/// A source stage whose sampling work is spread over worker threads.
///
/// Like [`crate::SampledMap`], but element values are computed by
/// `workers` threads walking cyclic shares of the permutation; the stage
/// driver merges batches in sample order and publishes every
/// `publish_every` *elements*. Because the merge is in arrival order
/// across workers, intermediate outputs are unordered *unions* of the
/// workers' prefixes — each still a valid sample of roughly balanced
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
    /// - `compute(input, idx)` produces output element `idx` (runs on
    ///   worker threads; must be pure);
    /// - `write(out, idx, value)` stores it in the working output (runs on
    ///   the stage driver);
    /// - `batch` is the number of elements a worker computes between
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

/// In-flight state of one parallel-map run: the working output, the
/// merge channel, and the live worker threads. Lives across poll slices.
struct PmapRun<O, V> {
    out: O,
    rx: Receiver<Vec<(usize, V)>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    done: u64,
    published_at: u64,
    /// Publications recycle the two-versions-old allocation instead of
    /// cloning the merged output fresh each time.
    db: DoubleBuffer<O>,
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
    #[allow(clippy::type_complexity)]
    fn spawn_workers(
        &self,
        ctl: &ControlToken,
    ) -> Result<(Receiver<Vec<(usize, V)>>, Vec<std::thread::JoinHandle<()>>)> {
        let shares = partition::split_cyclic(&self.stage.perm, self.stage.workers);
        let (tx, rx) = bounded::<Vec<(usize, V)>>(self.stage.workers * 2);
        let mut handles = Vec::with_capacity(self.stage.workers);
        for (w, share) in shares.into_iter().enumerate() {
            let tx = tx.clone();
            let input = Arc::clone(&self.stage.input);
            let compute = Arc::clone(&self.stage.compute);
            let batch = self.stage.batch;
            let ctl = ctl.clone();
            let handle = std::thread::Builder::new()
                .name(format!("anytime-{}-w{w}", self.stage.name))
                // lint: allow(l6-no-raw-spawn) -- compute workers run pure element kernels at full tilt and block on channel backpressure; they are the paper's intra-stage parallelism, not stages
                .spawn(move || {
                    let mut buf = Vec::with_capacity(batch);
                    for idx in share {
                        if ctl.is_stopped() {
                            return;
                        }
                        buf.push((idx, compute(&input, idx)));
                        if buf.len() == batch {
                            let full = std::mem::replace(&mut buf, Vec::with_capacity(batch));
                            // A send error means the automaton stopped or
                            // the driver exited; either way we are done.
                            if tx.send(full, &ctl).is_err() {
                                return;
                            }
                        }
                    }
                    if !buf.is_empty() {
                        let _ = tx.send(buf, &ctl);
                    }
                })
                .map_err(|e| CoreError::InvalidConfig(format!("failed to spawn worker: {e}")))?;
            handles.push(handle);
        }
        // Drop the original sender so the channel closes when workers end.
        drop(tx);
        Ok((rx, handles))
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
        if self.writer.is_final() {
            return StagePoll::Ready(Ok(StageEnd::Final));
        }
        if self.writer.is_terminal() {
            return StagePoll::Ready(Ok(StageEnd::Degraded));
        }
        // Dirty on entry: the previous slice panicked mid-merge (in `write`
        // or a fault hook). Abandon the run — dropping the receiver closes
        // the channel and unblocks any backpressured workers; the fresh run
        // recomputes from scratch because the channel cannot rewind.
        if std::mem::replace(&mut self.dirty, true) {
            self.run = None;
        }
        cx.ctl.subscribe_target(cx.wake);
        let total = self.stage.perm.len() as u64;
        if self.run.is_none() {
            let input = Arc::clone(&self.stage.input);
            let out = (self.stage.init)(&input);
            let (rx, handles) = match self.spawn_workers(cx.ctl) {
                Ok(pair) => pair,
                Err(e) => {
                    self.dirty = false;
                    return StagePoll::Ready(Err(e));
                }
            };
            self.merged = 0;
            // A crash-restarted run recounts merged elements from zero, so
            // the Property 2 steps floor restarts with it.
            self.writer.begin_run(0);
            self.run = Some(PmapRun {
                out,
                rx,
                handles,
                done: 0,
                published_at: 0,
                db: DoubleBuffer::new(),
            });
        }
        let run = self.run.as_mut().expect("run initialised above");
        run.rx.subscribe_target(cx.wake);
        let publish_every = self.publish_every.max(1);
        let mut pubs: u64 = 0;
        let end = loop {
            match cx.ctl.poll_checkpoint() {
                ControlPoll::Running => {}
                ControlPoll::Paused => {
                    self.dirty = false;
                    return StagePoll::Pending;
                }
                ControlPoll::Stopped => break StageEnd::Stopped,
            }
            match run.rx.poll_recv(cx.ctl) {
                Ok(Some(batch)) => {
                    // Injected faults fire at batch-merge boundaries — the
                    // driver's step boundary, where the working output is a
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
                        break StageEnd::Final;
                    }
                    if run.done - run.published_at >= publish_every {
                        run.db.publish_from(&mut self.writer, &run.out, run.done);
                        run.published_at = run.done;
                        pubs += 1;
                        if pubs >= cx.budget {
                            self.dirty = false;
                            return StagePoll::Yielded;
                        }
                    }
                }
                Ok(None) => {
                    self.dirty = false;
                    return StagePoll::Pending;
                }
                Err(CoreError::Stopped) => break StageEnd::Stopped,
                Err(CoreError::ChannelClosed) => {
                    // All workers exited and the queue is drained.
                    if run.done == total {
                        run.db
                            .publish_final_from(&mut self.writer, &run.out, run.done);
                        break StageEnd::Final;
                    }
                    // Workers died early without a stop: a worker panic.
                    break StageEnd::Stopped;
                }
                Err(e) => {
                    self.dirty = false;
                    return StagePoll::Ready(Err(e));
                }
            }
        };
        let mut run = self.run.take().expect("run present at terminal");
        // Publish whatever progress was merged before an interruption.
        if end == StageEnd::Stopped && run.done > run.published_at && !self.writer.is_final() {
            run.db.publish_from(&mut self.writer, &run.out, run.done);
        }
        let handles = std::mem::take(&mut run.handles);
        // Dropping the run closes the receiver, unblocking any workers
        // stalled on channel backpressure before we join them.
        drop(run);
        for h in handles {
            // lint: allow(l10-blocking-in-task) -- terminal-state join: the run (and its receiver) is already dropped, so every worker exits at its next send or stop check; the join is bounded by one chunk of work
            let _ = h.join();
        }
        self.dirty = false;
        if end == StageEnd::Stopped && !cx.ctl.is_stopped() && self.merged != total {
            return StagePoll::Ready(Err(CoreError::StagePanicked {
                stage: self.stage.name.clone(),
                message: Some("worker thread exited early".into()),
                steps_at_death: self.merged,
            }));
        }
        StagePoll::Ready(Ok(end))
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
    use crate::pipeline::PipelineBuilder;
    use anytime_permute::{Lfsr, Tree2d};
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
