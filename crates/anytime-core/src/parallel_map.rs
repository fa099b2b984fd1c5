//! Multi-worker sampling within a single anytime stage (paper §IV-C1).
//!
//! "Though we use non-sequential permutations when sampling, sampling can
//! still be performed by multiple threads … it is then straightforward to
//! divide this permutation sequence among threads." A
//! [`ParallelSampledMap`] divides its sample order into `chunk`-sized runs
//! and lets the runtime the stage runs on decide how many threads share
//! them: each run spawns one helper task per *other* worker of that
//! runtime, and the stage task and its helpers claim chunks from one
//! shared cursor. The stage task alone merges finished chunks into the
//! working output, in sample order — preserving the single-writer
//! output-buffer discipline (Property 2) — so every version it publishes
//! is the prefix a serial [`crate::SampledMap`] would have published at
//! the same step count, bit for bit, however the chunks were shared out.
//! A helper that starts late, or never (every other worker busy), only
//! leaves more chunks to the stage task.
//!
//! Helpers receive only shared `Arc`s of the input, the sample order and
//! the body; chunk computations must be pure (Property 1), which the
//! `Fn(&I, &[u32], &mut Vec<V>) + Sync` bound encourages. No sampling work
//! outlives the stage: a stopped run closes the cursor and reports its
//! end only once every chunk a helper claimed has come back.

use crate::buffer::{BufferReader, BufferWriter, DoubleBuffer};
use crate::control::{ControlPoll, ControlToken};
use crate::error::CoreError;
use crate::notify::{lock_unpoisoned, WakeTarget};
use crate::pipeline::PipelineBuilder;
use crate::runtime::{RtTask, TaskPoll};
use crate::stage::{PollCx, StageEnd, StageOptions, StagePoll, StageRunner, MAX_STEPS_PER_SLICE};
use crate::supervisor::Supervision;
use anytime_permute::DynPermutation;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Boxed initial-output constructor.
type InitFn<I, O> = Box<dyn FnMut(&I) -> O + Send>;
/// Shared pure chunk computation: `(input, data indices, values)`.
type BodyFn<I, V> = Box<dyn Fn(&I, &[u32], &mut Vec<V>) + Send + Sync>;
/// Boxed chunk writer (runs in the stage task): `(out, data indices, values)`.
type WriteFn<O, V> = Box<dyn FnMut(&mut O, &[u32], &[V]) + Send>;

/// A source stage whose sampling work is shared by every worker of the
/// runtime it runs on.
///
/// Like [`crate::SampledMap`] with [`crate::SampledMap::with_chunk`], but
/// a chunk's values are computed by `body` on whichever task claimed the
/// chunk, and the stage task writes them into the output with `write`, one
/// chunk at a time in sample order. One merged chunk is one step:
/// [`StageOptions::publish_every`] counts chunks, and a published
/// snapshot's `steps` counts the elements merged.
pub struct ParallelSampledMap<I, O, V> {
    work: Arc<Work<I, V>>,
    init: InitFn<I, O>,
    write: WriteFn<O, V>,
}

/// What the stage task and its helpers share: the input, the sample order
/// and the pure chunk body.
struct Work<I, V> {
    name: String,
    input: I,
    order: Arc<[u32]>,
    chunk: usize,
    body: BodyFn<I, V>,
}

impl<I, V> Work<I, V> {
    /// Chunks in one run.
    fn chunks(&self) -> usize {
        self.order.len().div_ceil(self.chunk)
    }

    /// Data indices of chunk `k`.
    fn indices(&self, k: usize) -> &[u32] {
        let start = k * self.chunk;
        &self.order[start..(start + self.chunk).min(self.order.len())]
    }

    /// Computes chunk `k` into `values`, which it clears first.
    fn compute(&self, k: usize, values: &mut Vec<V>) {
        values.clear();
        (self.body)(&self.input, self.indices(k), values);
    }

    /// Elements covered by the first `chunks` chunks.
    fn progress(&self, chunks: usize) -> u64 {
        (chunks * self.chunk).min(self.order.len()) as u64
    }
}

impl<I, O, V> std::fmt::Debug for ParallelSampledMap<I, O, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSampledMap")
            .field("name", &self.work.name)
            .field("items", &self.work.order.len())
            .field("chunk", &self.work.chunk)
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
    /// - `chunk` is the number of sample-order positions one claim covers;
    /// - `init(input)` builds the initial output;
    /// - `body(input, indices, values)` computes the output elements at
    ///   `indices` (a run of the sample order, as data indices) into the
    ///   empty `values` — on any task, so it must be pure;
    /// - `write(out, indices, values)` stores them in the working output
    ///   (runs in the stage task, in sample order).
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`, or if the permutation's order must be
    /// materialized and holds an index that does not fit `u32` (see
    /// [`DynPermutation::order`]).
    pub fn new(
        name: impl Into<String>,
        input: I,
        perm: impl Into<DynPermutation>,
        chunk: usize,
        init: impl FnMut(&I) -> O + Send + 'static,
        body: impl Fn(&I, &[u32], &mut Vec<V>) + Send + Sync + 'static,
        write: impl FnMut(&mut O, &[u32], &[V]) + Send + 'static,
    ) -> Self {
        assert!(chunk > 0, "chunk must be non-zero");
        Self {
            work: Arc::new(Work {
                name: name.into(),
                input,
                order: perm.into().order(),
                chunk,
                body: Box::new(body),
            }),
            init: Box::new(init),
            write: Box::new(write),
        }
    }

    /// Registers this stage on a pipeline builder, returning its output
    /// reader.
    pub fn register(self, pb: &mut PipelineBuilder, opts: StageOptions) -> BufferReader<O> {
        let (writer, reader) = pb.make_buffer(&self.work.name, opts);
        pb.push_runner(Box::new(ParallelRunner {
            stage: self,
            writer,
            publish_every: opts.publish_every.max(1),
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

/// The cursor is at or past this once the stage closed its run.
const CLOSED: usize = usize::MAX / 2;

/// The chunks of one run, shared by the stage task and its helpers.
struct Claims<V> {
    /// Next chunk to claim.
    next: AtomicUsize,
    /// Chunks helpers finished (`None`: lost to a panic), waiting for the
    /// stage task to merge them.
    done: Mutex<Vec<(usize, Option<Vec<V>>)>>,
    /// The stage task's waker: a returned chunk may be the one it waits
    /// for.
    stage: Arc<dyn WakeTarget>,
}

impl<V> Claims<V> {
    /// Claims the next of `total` chunks, if one is left.
    fn claim(&self, total: usize) -> Option<usize> {
        let k = self.next.fetch_add(1, Ordering::AcqRel);
        (k < total).then_some(k)
    }

    /// Ends claiming; returns the cursor it replaced — the claims made so
    /// far (more than `total` once the chunks ran out), unless the run
    /// was already closed.
    fn close(&self) -> usize {
        self.next.swap(CLOSED, Ordering::AcqRel)
    }

    /// Hands chunk `k` back to the stage task and wakes it.
    fn give_back(&self, k: usize, values: Option<Vec<V>>) {
        lock_unpoisoned(&self.done).push((k, values));
        self.stage.on_wake();
    }
}

/// A helper of one run: claims chunks and computes them on another worker
/// until none is left, the run is stopped, or the stage closed the run.
///
/// It checks the control token before every claim (paused → `Pending`,
/// stopped → done) and yields after `slice` chunks, so it never holds a
/// worker longer than the stage task's own slice. A chunk whose body
/// panics is handed back as lost when the runtime drops the helper.
struct Helper<I, V> {
    work: Arc<Work<I, V>>,
    claims: Arc<Claims<V>>,
    ctl: ControlToken,
    /// Chunks computed per poll before yielding.
    slice: u64,
    /// The chunk being computed.
    holding: Option<usize>,
}

impl<I, V> RtTask for Helper<I, V>
where
    I: Send + Sync + 'static,
    V: Send + 'static,
{
    fn name(&self) -> &str {
        &self.work.name
    }

    fn poll(&mut self, wake: &Arc<dyn WakeTarget>, credits: u64) -> TaskPoll {
        // Subscribe before checking: a resume or stop after this re-polls.
        self.ctl.subscribe_target(wake);
        let total = self.work.chunks();
        let slice = self.slice.saturating_mul(credits).min(MAX_STEPS_PER_SLICE);
        for _ in 0..slice {
            match self.ctl.poll_checkpoint() {
                ControlPoll::Running => {}
                ControlPoll::Paused => return TaskPoll::Pending,
                ControlPoll::Stopped => return TaskPoll::Ready,
            }
            let Some(k) = self.claims.claim(total) else {
                return TaskPoll::Ready;
            };
            self.holding = Some(k);
            let mut values = Vec::new();
            self.work.compute(k, &mut values);
            self.holding = None;
            self.claims.give_back(k, Some(values));
        }
        TaskPoll::Yielded
    }
}

impl<I, V> Drop for Helper<I, V> {
    fn drop(&mut self) {
        // Only a panicking body leaves a chunk held.
        if let Some(k) = self.holding.take() {
            self.claims.give_back(k, None);
        }
    }
}

/// In-flight state of one run, kept across poll slices.
struct PmapRun<O, V> {
    out: O,
    claims: Arc<Claims<V>>,
    /// Chunks merged into `out`, in sample order.
    merged: usize,
    published_at: usize,
    /// Chunks this task claimed, and chunks helpers gave back.
    own: usize,
    returned: usize,
    /// Computed chunks past the merge point (`None`: lost).
    ahead: BTreeMap<usize, Option<Vec<V>>>,
    /// What the last drain of `claims.done` took.
    inbox: Vec<(usize, Option<Vec<V>>)>,
    /// Values of the chunk this task computes.
    scratch: Vec<V>,
    /// Publications recycle the two-versions-old allocation.
    db: DoubleBuffer<O>,
    /// How the run ended, once it has.
    end: Option<StageEnd>,
    /// A chunk a helper lost; the run ends at it.
    lost: Option<usize>,
    /// Chunks claimed when the run closed.
    claimed: Option<usize>,
}

impl<O, V> PmapRun<O, V> {
    /// Moves the chunks helpers gave back into `ahead`, dropping those
    /// this task already computed and merged itself.
    fn drain(&mut self) {
        std::mem::swap(&mut *lock_unpoisoned(&self.claims.done), &mut self.inbox);
        for (k, values) in self.inbox.drain(..) {
            self.returned += 1;
            if k >= self.merged {
                self.ahead.insert(k, values);
            }
        }
    }
}

impl<O, V> Drop for PmapRun<O, V> {
    fn drop(&mut self) {
        // An abandoned run stops its helpers at their next claim.
        self.claims.close();
    }
}

struct ParallelRunner<I, O, V> {
    stage: ParallelSampledMap<I, O, V>,
    writer: BufferWriter<O>,
    publish_every: u64,
    supervision: Supervision,
    /// Chunks merged in the current run, for `steps_completed`.
    merged: u64,
    /// The in-flight run; `None` until the first poll slice (or after a
    /// panic abandoned the previous run).
    run: Option<PmapRun<O, V>>,
    /// Set while a poll slice runs; still set on entry means the previous
    /// slice panicked and the run must be abandoned.
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
    /// Starts a run: a fresh working output, and one helper per other
    /// worker of the runtime this stage runs on (no more than there are
    /// chunks beyond the first).
    fn start_run(&mut self, cx: &PollCx<'_>) -> PmapRun<O, V> {
        let work = &self.stage.work;
        let out = (self.stage.init)(&work.input);
        let claims = Arc::new(Claims {
            next: AtomicUsize::new(0),
            done: Mutex::new(Vec::new()),
            stage: Arc::clone(cx.wake),
        });
        let helpers = (cx.rt.workers() - 1).min(work.chunks().saturating_sub(1));
        for _ in 0..helpers {
            let helper = Helper {
                work: Arc::clone(work),
                claims: Arc::clone(&claims),
                ctl: cx.ctl.clone(),
                slice: self.publish_every,
                holding: None,
            };
            cx.rt.spawn_from_task(Box::new(helper), cx.budget);
        }
        self.merged = 0;
        // A crash-restarted run merges from zero, so the Property 2 steps
        // floor restarts with it.
        self.writer.begin_run(0);
        PmapRun {
            out,
            claims,
            merged: 0,
            published_at: 0,
            own: 0,
            returned: 0,
            ahead: BTreeMap::new(),
            inbox: Vec::new(),
            scratch: Vec::new(),
            db: DoubleBuffer::new(),
            end: None,
            lost: None,
            claimed: None,
        }
    }

    /// One poll slice: starts a run if none is in flight, merges chunks in
    /// sample order (computing them here when no helper has), and ends the
    /// run once it is complete, stopped or cut short.
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
        let work = &self.stage.work;
        let run = self.run.as_mut().expect("run started above");
        if run.end.is_none() && self.writer.is_terminal() {
            // Sealed while the run was in flight: the watchdog degraded it.
            run.end = Some(StageEnd::Degraded);
        }
        let total = work.chunks();
        let mut pubs: u64 = 0;
        let mut slice: u64 = 0;
        while run.end.is_none() {
            match cx.ctl.poll_checkpoint() {
                ControlPoll::Running => {}
                ControlPoll::Paused => return StagePoll::Pending,
                ControlPoll::Stopped => {
                    run.end = Some(StageEnd::Stopped);
                    break;
                }
            }
            if run.merged == total {
                // Only an empty sample order gets here unpublished.
                run.db
                    .publish_final_from(&mut self.writer, &run.out, work.progress(total));
                run.end = Some(StageEnd::Final);
                break;
            }
            if slice >= MAX_STEPS_PER_SLICE {
                return StagePoll::Yielded;
            }
            slice += 1;
            let k = run.merged;
            let values = match run.ahead.remove(&k) {
                Some(Some(values)) => values,
                Some(None) => {
                    run.lost = Some(k);
                    run.end = Some(StageEnd::Stopped);
                    break;
                }
                None => {
                    if run.claims.next.load(Ordering::Acquire) > k {
                        // A helper claimed chunk `k`: take what came back.
                        run.drain();
                        if run.ahead.contains_key(&k) {
                            continue;
                        }
                    }
                    // Claim ahead only up to the next publication; past
                    // it, compute the chunk a helper still holds here
                    // rather than wait for it, so a stalled helper delays
                    // no version by more than that chunk.
                    let due =
                        (k as u64 / self.publish_every + 1).saturating_mul(self.publish_every);
                    let claim = if (run.claims.next.load(Ordering::Acquire) as u64) < due {
                        run.claims.claim(total)
                    } else {
                        None
                    };
                    let c = match claim {
                        Some(c) => {
                            run.own += 1;
                            c
                        }
                        None => k,
                    };
                    work.compute(c, &mut run.scratch);
                    if c != k {
                        run.ahead.insert(c, Some(std::mem::take(&mut run.scratch)));
                        continue;
                    }
                    std::mem::take(&mut run.scratch)
                }
            };
            // Injected faults fire at merge boundaries — the stage's step
            // boundary, where the working output is a valid partial sample.
            #[cfg(feature = "fault-inject")]
            if let Some(armed) = self.faults.as_mut() {
                armed.before_step(&work.name, k as u64);
            }
            (self.stage.write)(&mut run.out, work.indices(k), &values);
            run.scratch = values;
            run.merged += 1;
            self.merged = run.merged as u64;
            if run.merged == total {
                run.db
                    .publish_final_from(&mut self.writer, &run.out, work.progress(total));
                run.end = Some(StageEnd::Final);
            } else if self.merged.is_multiple_of(self.publish_every) {
                run.db
                    .publish_from(&mut self.writer, &run.out, work.progress(run.merged));
                run.published_at = run.merged;
                pubs += 1;
                if pubs >= cx.budget {
                    return StagePoll::Yielded;
                }
            }
        }
        let end = run.end.expect("the loop exits once the run ended");
        // Publish the merged prefix of an interrupted run.
        if end == StageEnd::Stopped && run.merged > run.published_at && !self.writer.is_final() {
            run.db
                .publish_from(&mut self.writer, &run.out, work.progress(run.merged));
            run.published_at = run.merged;
        }
        // No sampling work outlives the stage: close the cursor, then wait
        // until every chunk a helper claimed has come back.
        let claimed = *run
            .claimed
            .get_or_insert_with(|| run.claims.close().min(total));
        run.drain();
        if run.own + run.returned < claimed {
            return StagePoll::Pending;
        }
        let lost = run.lost;
        self.run = None;
        if let Some(k) = lost {
            return StagePoll::Ready(Err(CoreError::StagePanicked {
                stage: work.name.clone(),
                message: Some(format!("a sampling helper lost chunk {k}")),
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
        &self.stage.work.name
    }

    fn poll(&mut self, cx: &mut PollCx<'_>) -> StagePoll {
        // Dirty on entry: the previous slice panicked (in `body`, `write`
        // or a fault hook). Abandon the run — dropping it closes its
        // cursor, so its helpers stop at their next claim — and let a
        // fresh run recompute from scratch.
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
    use crate::buffer;
    use crate::notify::WaitSet;
    use crate::pipeline::{Pipeline, PipelineBuilder};
    use crate::runtime::{Runtime, RuntimeHandle};
    use crate::stage::{AnytimeBody, StepOutcome};
    use crate::trace::EventKind;
    use crate::{Recorder, SampledMap};
    use anytime_permute::{Lfsr, Tree2d};
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::Duration;

    /// Elements of the tripling map most tests run.
    const N: usize = 1024;

    fn tripled() -> Vec<u64> {
        (0..N as u64).map(|v| v * 3).collect()
    }

    /// The tests' `write`: stores each value at its index.
    fn scatter() -> impl FnMut(&mut Vec<u64>, &[u32], &[u64]) + Send + 'static {
        |out, indices, values| {
            for (&idx, &v) in indices.iter().zip(values) {
                out[idx as usize] = v;
            }
        }
    }

    /// Triples `0..N` in LFSR order, `chunk` elements a claim; unwritten
    /// slots hold `u64::MAX`.
    fn triple(chunk: usize) -> ParallelSampledMap<Vec<u64>, Vec<u64>, u64> {
        ParallelSampledMap::new(
            "pmap",
            (0..N as u64).collect::<Vec<u64>>(),
            DynPermutation::new(Lfsr::with_len(N).unwrap()),
            chunk,
            |i: &Vec<u64>| vec![u64::MAX; i.len()],
            |i: &Vec<u64>, indices: &[u32], values: &mut Vec<u64>| {
                values.extend(indices.iter().map(|&idx| i[idx as usize] * 3));
            },
            scatter(),
        )
    }

    fn build(rt: &Runtime, opts: StageOptions) -> (Pipeline, BufferReader<Vec<u64>>) {
        let mut pb = PipelineBuilder::new().with_runtime(rt.handle());
        let reader = triple(16).register(&mut pb, opts);
        (pb.build(), reader)
    }

    #[test]
    fn parallel_map_reaches_precise_output() {
        for workers in [1usize, 2, 4] {
            let rt = Runtime::new(workers);
            let (pipeline, out) = build(&rt, StageOptions::with_publish_every(4));
            let auto = pipeline.launch().unwrap();
            let snap = out.wait_final_timeout(Duration::from_secs(60)).unwrap();
            assert_eq!(snap.value(), &tripled(), "workers={workers}");
            assert_eq!(snap.steps(), N as u64);
            auto.join().unwrap();
        }
    }

    #[test]
    fn versions_are_the_serial_maps_prefixes() {
        // Every version equals a serial `SampledMap`'s output at the same
        // step count, however the chunks were shared out. A slow body
        // gives the helpers time to claim chunks.
        let perm = DynPermutation::new(Lfsr::with_len(N).unwrap());
        let input: Vec<u64> = (0..N as u64).collect();
        let mut serial = SampledMap::new(
            perm.clone(),
            |i: &Vec<u64>| vec![u64::MAX; i.len()],
            |i: &Vec<u64>, out: &mut Vec<u64>, idx| out[idx] = i[idx] * 3,
        );
        let mut by_steps = vec![serial.init(&input)];
        let mut out = by_steps[0].clone();
        for step in 0..N as u64 {
            let outcome = serial.step(&input, &mut out, step);
            by_steps.push(out.clone());
            if outcome == StepOutcome::Done {
                break;
            }
        }
        for workers in [1usize, 2, 4] {
            let rt = Runtime::new(workers);
            let mut pb = PipelineBuilder::new().with_runtime(rt.handle());
            let reader = ParallelSampledMap::new(
                "pmap",
                input.clone(),
                perm.clone(),
                16,
                |i: &Vec<u64>| vec![u64::MAX; i.len()],
                |i: &Vec<u64>, indices: &[u32], values: &mut Vec<u64>| {
                    std::thread::sleep(Duration::from_micros(100));
                    values.extend(indices.iter().map(|&idx| i[idx as usize] * 3));
                },
                scatter(),
            )
            .register(&mut pb, StageOptions::with_publish_every(2).keep_history());
            let auto = pb.build().launch().unwrap();
            auto.join().unwrap();
            let history = reader.history().unwrap();
            assert_eq!(history.len(), N / 32, "workers={workers}");
            for snap in &history {
                assert_eq!(
                    snap.value(),
                    &by_steps[snap.steps() as usize],
                    "workers={workers}, {} steps",
                    snap.steps()
                );
            }
            assert!(history.last().unwrap().is_final());
        }
    }

    #[test]
    fn intermediate_outputs_are_valid_partial_samples() {
        let rt = Runtime::new(3);
        let (pipeline, out) = build(&rt, StageOptions::with_publish_every(2));
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
            8,
            |i: &Vec<u64>| vec![0u64; i.len()],
            |i: &Vec<u64>, indices: &[u32], values: &mut Vec<u64>| {
                for &idx in indices {
                    std::thread::sleep(Duration::from_micros(20));
                    values.push(i[idx as usize] + 1);
                }
            },
            |out: &mut Vec<u64>, indices: &[u32], values: &[u64]| {
                for (&idx, &v) in indices.iter().zip(values) {
                    out[idx as usize] = v;
                }
            },
        );
        let reader = stage.register(&mut pb, StageOptions::with_publish_every(8));
        let auto = pb.build().launch().unwrap();
        // Stop only once a chunk has merged: a fixed sleep could stop
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
        let mut pb = PipelineBuilder::new();
        let stage = ParallelSampledMap::new(
            "bad",
            (0..64u64).collect::<Vec<u64>>(),
            DynPermutation::new(Lfsr::with_len(64).unwrap()),
            4,
            |i: &Vec<u64>| vec![0u64; i.len()],
            |_: &Vec<u64>, indices: &[u32], values: &mut Vec<u64>| {
                for &idx in indices {
                    assert!(idx != 13, "worker exploded");
                    values.push(u64::from(idx));
                }
            },
            scatter(),
        );
        let _reader = stage.register(&mut pb, StageOptions::default());
        let err = pb.build().launch().unwrap().join().unwrap_err();
        assert!(matches!(err, CoreError::StagePanicked { .. }), "{err}");
    }

    /// Drives `stage`'s runner by hand on the calling thread, publishing
    /// every 4 chunks, with its helpers on `rt`; returns how the run ended
    /// and the output reader.
    fn drive_by_hand(
        stage: ParallelSampledMap<Vec<u64>, Vec<u64>, u64>,
        rt: &RuntimeHandle,
    ) -> (crate::Result<StageEnd>, BufferReader<Vec<u64>>) {
        let (writer, reader) = buffer::versioned("pmap");
        let mut runner = ParallelRunner {
            stage,
            writer,
            publish_every: 4,
            supervision: Supervision::default(),
            merged: 0,
            run: None,
            dirty: false,
            #[cfg(feature = "fault-inject")]
            faults: None,
        };
        let ctl = ControlToken::new();
        let woken = WaitSet::new();
        let wake = woken.as_wake_target();
        loop {
            let seen = woken.epoch();
            let mut cx = PollCx {
                ctl: &ctl,
                wake: &wake,
                budget: 1,
                rt,
            };
            match runner.poll(&mut cx) {
                StagePoll::Ready(end) => return (end, reader),
                StagePoll::Yielded => {}
                StagePoll::Pending => woken.wait(seen),
            }
        }
    }

    #[test]
    fn lost_chunk_ends_the_run_with_stage_panicked() {
        // The stage task computes on this thread, slowly enough that the
        // lost chunk is back before the merge reaches it; every helper
        // chunk panics, so the helper loses the first chunk it claims.
        let rt = Runtime::new(2);
        let here = std::thread::current().id();
        let stage = ParallelSampledMap::new(
            "pmap",
            (0..N as u64).collect::<Vec<u64>>(),
            DynPermutation::new(Lfsr::with_len(N).unwrap()),
            16,
            |i: &Vec<u64>| vec![u64::MAX; i.len()],
            move |i: &Vec<u64>, indices: &[u32], values: &mut Vec<u64>| {
                assert_eq!(std::thread::current().id(), here, "helper exploded");
                std::thread::sleep(Duration::from_millis(20));
                values.extend(indices.iter().map(|&idx| i[idx as usize] * 3));
            },
            scatter(),
        );
        let (end, reader) = drive_by_hand(stage, &rt.handle());
        match end {
            Err(CoreError::StagePanicked {
                message: Some(message),
                steps_at_death,
                ..
            }) => {
                assert!(message.contains("lost chunk"), "{message}");
                // The merged prefix stands, published (none if the helper
                // lost chunk 0).
                let published = reader.latest().map_or(0, |snap| snap.steps());
                assert_eq!(published, steps_at_death * 16);
            }
            other => panic!("expected a lost chunk, got {other:?}"),
        }
    }

    /// A helper of a run of `triple(8)` whose stage task is `stage`.
    fn helper(stage: &WaitSet, ctl: &ControlToken) -> Helper<Vec<u64>, u64> {
        Helper {
            work: Arc::clone(&triple(8).work),
            claims: Arc::new(Claims {
                next: AtomicUsize::new(0),
                done: Mutex::new(Vec::new()),
                stage: stage.as_wake_target(),
            }),
            ctl: ctl.clone(),
            slice: 4,
            holding: None,
        }
    }

    #[test]
    fn helper_gives_chunks_back_and_wakes_the_stage() {
        let ctl = ControlToken::new();
        let stage = WaitSet::new();
        let mut h = helper(&stage, &ctl);
        let wake = WaitSet::new().as_wake_target();
        // One slice: four chunks, each handed back with its values.
        assert!(matches!(h.poll(&wake, 1), TaskPoll::Yielded));
        assert_eq!(stage.epoch(), 4, "one wake per chunk given back");
        let done = std::mem::take(&mut *lock_unpoisoned(&h.claims.done));
        assert_eq!(
            done.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        for (k, values) in &done {
            let values = values.as_ref().expect("computed");
            let want: Vec<u64> = h
                .work
                .indices(*k)
                .iter()
                .map(|&i| u64::from(i) * 3)
                .collect();
            assert_eq!(values, &want);
        }
        // Once the stage closes the run, the next claim ends the helper.
        assert_eq!(h.claims.close(), 4);
        assert!(matches!(h.poll(&wake, 1), TaskPoll::Ready));
        assert!(lock_unpoisoned(&h.claims.done).is_empty());
    }

    #[test]
    fn paused_helper_computes_nothing_until_resumed() {
        let ctl = ControlToken::new();
        let stage = WaitSet::new();
        let mut h = helper(&stage, &ctl);
        let woken = WaitSet::new();
        let wake = woken.as_wake_target();
        ctl.pause();
        assert!(matches!(h.poll(&wake, 1), TaskPoll::Pending));
        assert_eq!(
            h.claims.next.load(Ordering::SeqCst),
            0,
            "claimed while paused"
        );
        ctl.resume();
        assert!(woken.epoch() >= 1, "resume must wake the paused helper");
        assert!(matches!(h.poll(&wake, 1), TaskPoll::Yielded));
        assert_eq!(lock_unpoisoned(&h.claims.done).len(), 4);
        ctl.stop();
        assert!(matches!(h.poll(&wake, 1), TaskPoll::Ready));
    }

    #[test]
    fn panicking_helper_gives_its_chunk_back_lost() {
        let ctl = ControlToken::new();
        let stage = WaitSet::new();
        let claims = Arc::new(Claims {
            next: AtomicUsize::new(3),
            done: Mutex::new(Vec::new()),
            stage: stage.as_wake_target(),
        });
        let bad = ParallelSampledMap::new(
            "bad",
            vec![0u64; 64],
            DynPermutation::new(Lfsr::with_len(64).unwrap()),
            8,
            |i: &Vec<u64>| i.clone(),
            |_: &Vec<u64>, _: &[u32], _: &mut Vec<u64>| panic!("helper exploded"),
            scatter(),
        );
        let mut h = Helper {
            work: Arc::clone(&bad.work),
            claims: Arc::clone(&claims),
            ctl: ctl.clone(),
            slice: 4,
            holding: None,
        };
        let wake = WaitSet::new().as_wake_target();
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.poll(&wake, 1)));
        assert!(polled.is_err());
        assert!(lock_unpoisoned(&claims.done).is_empty());
        // The runtime drops a panicked task: the held chunk comes back lost.
        drop(h);
        assert_eq!(stage.epoch(), 1);
        let done = std::mem::take(&mut *lock_unpoisoned(&claims.done));
        assert!(matches!(done.as_slice(), [(3, None)]));
    }

    #[test]
    fn helpers_run_as_tasks_on_the_stage_runtime() {
        for (workers, tasks) in [(1usize, 1u64), (4, 4)] {
            let rt = Runtime::new(workers);
            let (pipeline, out) = build(&rt, StageOptions::with_publish_every(4));
            let auto = pipeline.launch().unwrap();
            let snap = out.wait_final_timeout(Duration::from_secs(60)).unwrap();
            assert_eq!(snap.value(), &tripled());
            auto.join().unwrap();
            // One stage task and one helper per other worker.
            assert_eq!(rt.stats().tasks_spawned, tasks, "workers={workers}");
        }
    }

    #[test]
    fn stage_task_alone_finishes_when_every_other_worker_is_busy() {
        /// Holds the worker that polls it until released.
        struct Hog {
            polled: Arc<AtomicBool>,
            release: Arc<AtomicBool>,
        }
        impl RtTask for Hog {
            fn name(&self) -> &str {
                "hog"
            }
            fn poll(&mut self, _: &Arc<dyn WakeTarget>, _: u64) -> TaskPoll {
                self.polled.store(true, Ordering::SeqCst);
                while !self.release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                TaskPoll::Ready
            }
        }
        let rt = Runtime::new(2);
        let polled = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        rt.handle().spawn_task(
            Box::new(Hog {
                polled: Arc::clone(&polled),
                release: Arc::clone(&release),
            }),
            1,
        );
        while !polled.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (pipeline, out) = build(&rt, StageOptions::with_publish_every(4));
        let auto = pipeline.launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(snap.value(), &tripled());
        // The helper was spawned but never ran: the hog holds its worker.
        assert_eq!(rt.stats().tasks_spawned, 3);
        release.store(true, Ordering::SeqCst);
        auto.join().unwrap();
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
                4,
                |i: &Vec<u64>| vec![0u64; i.len()],
                move |i: &Vec<u64>, indices: &[u32], values: &mut Vec<u64>| {
                    for &idx in indices {
                        // Count on the way out, so a call still running
                        // when the stage reports its end shows up
                        // afterwards.
                        std::thread::sleep(Duration::from_micros(50));
                        counted.fetch_add(1, Ordering::SeqCst);
                        values.push(i[idx as usize] + 1);
                    }
                },
                scatter(),
            )
            .register(&mut pb, StageOptions::with_publish_every(4));
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
                "iteration {iter}: a helper computed after stop_and_join returned"
            );
        }
    }

    #[test]
    fn map_on_a_runtime_dropped_after_launch_reaches_final_output() {
        for iter in 0..50 {
            let rt = Runtime::new(2);
            let (pipeline, out) = build(&rt, StageOptions::with_publish_every(4));
            let auto = pipeline.launch().unwrap();
            // Shutdown: the workers finish every live task, helpers included.
            drop(rt);
            let snap = out.latest().expect("final output published");
            assert!(snap.is_final(), "iteration {iter}");
            assert_eq!(snap.value(), &tripled(), "iteration {iter}");
            auto.join().unwrap();
        }
    }

    #[test]
    fn parallel_map_publishes_to_the_pipeline_recorder() {
        let rec = Recorder::enabled(1024);
        let rt = Runtime::new(2);
        let mut pb = PipelineBuilder::new()
            .with_recorder(rec.clone())
            .with_runtime(rt.handle());
        let reader = triple(16).register(&mut pb, StageOptions::with_publish_every(16));
        let auto = pb.build().launch().unwrap();
        let snap = reader.wait_final_timeout(Duration::from_secs(60)).unwrap();
        auto.join().unwrap();
        assert_eq!(snap.version().get(), 4);
        let pmap = rec.stage("pmap");
        let publishes = rec
            .drain()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Publish && e.stage == Some(pmap))
            .count();
        assert_eq!(publishes, 4);
    }

    #[test]
    #[should_panic(expected = "chunk must be non-zero")]
    fn zero_chunk_rejected() {
        let _ = triple(0);
    }
}
