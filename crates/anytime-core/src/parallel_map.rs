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
//! A claim takes a *batch* of consecutive chunks, sized by factoring
//! (Hummel, Schonberg & Flynn, CACM 1992): `ceil(left / (2 × tasks))` of
//! the `left` unclaimed chunks of the cursor's publication window, at
//! least one, where `tasks` counts the stage task and its helpers. Claims
//! shrink as a window drains, so the tasks finish a window close together,
//! and no batch crosses a publication. A batch costs one cursor update,
//! and a helper hands it back once (one lock, one wake) however many
//! chunks it holds, so the chunk need not amortize that synchronization:
//! it stays the unit of steps, publication, stop and pause, and every
//! claimer checks the control token before each chunk.
//!
//! Helpers receive only shared `Arc`s of the input, the sample order and
//! the body; chunk computations must be pure (Property 1), which the
//! `Fn(&I, &[u32], &mut Vec<V>) + Sync` bound encourages. No sampling work
//! outlives the stage: a stopped run closes the cursor and reports its
//! end only once every batch a helper claimed has come back.

use crate::buffer::{BufferReader, BufferWriter, DoubleBuffer};
use crate::control::{ControlPoll, ControlToken};
use crate::error::CoreError;
use crate::notify::{lock_unpoisoned, WakeTarget};
use crate::pipeline::PipelineBuilder;
use crate::runtime::{RtTask, TaskPoll};
use crate::stage::{PollCx, StageEnd, StageOptions, StagePoll, StageRunner, MAX_STEPS_PER_SLICE};
use crate::supervisor::Supervision;
use anytime_permute::DynPermutation;
use std::collections::VecDeque;
use std::ops::Range;
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
    /// - `chunk` is the number of sample-order positions one step covers;
    ///   a claim takes one or more consecutive chunks;
    /// - `init(input)` builds the initial output;
    /// - `body(input, indices, values)` computes the output elements at
    ///   `indices` (a chunk of the sample order, as data indices) into the
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

/// How one run's chunks are shared out.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Chunks in the run.
    total: usize,
    /// Chunks between two publications (`publish_every`).
    window: usize,
    /// Claimers: the stage task and its helpers.
    tasks: usize,
}

impl Shape {
    /// One past the last chunk of chunk `k`'s publication window.
    fn window_end(&self, k: usize) -> usize {
        (k - k % self.window)
            .saturating_add(self.window)
            .min(self.total)
    }

    /// The batch a claim at cursor `at` takes, if any chunk is left: a
    /// `2 × tasks`-th of the chunks left in `at`'s window, rounded up.
    fn batch(&self, at: usize) -> Option<Range<usize>> {
        if at >= self.total {
            return None;
        }
        let left = self.window_end(at) - at;
        Some(at..at + left.div_ceil(2 * self.tasks))
    }
}

/// The cursor is at or past this once the stage closed its run.
const CLOSED: usize = usize::MAX / 2;

/// The chunks of one run, shared by the stage task and its helpers.
struct Claims<V> {
    /// Next chunk to claim.
    next: AtomicUsize,
    shape: Shape,
    /// Batches helpers handed back, waiting for the stage task to merge
    /// them, and how many were handed back in all.
    done: Mutex<Vec<Batch<V>>>,
    handed: AtomicUsize,
    /// The stage task's waker: a returned batch may hold the chunk it
    /// waits for.
    stage: Arc<dyn WakeTarget>,
}

impl<V> Claims<V> {
    /// Claims the next batch, if a chunk is left.
    fn claim(&self) -> Option<Range<usize>> {
        let mut at = self.next.load(Ordering::Acquire);
        loop {
            let batch = self.shape.batch(at)?;
            match self.next.compare_exchange_weak(
                at,
                batch.end,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(batch),
                Err(now) => at = now,
            }
        }
    }

    /// Chunks claimed so far.
    fn claimed(&self) -> usize {
        self.next.load(Ordering::Acquire)
    }

    /// Ends claiming; returns the cursor it replaced — the chunks claimed
    /// so far, unless the run was already closed.
    fn close(&self) -> usize {
        self.next.swap(CLOSED, Ordering::AcqRel)
    }

    /// Hands `batch` back to the stage task and wakes it.
    fn give_back(&self, batch: Batch<V>) {
        let mut done = lock_unpoisoned(&self.done);
        done.push(batch);
        // Counted under the lock: a drain never takes more than this says.
        self.handed.fetch_add(1, Ordering::Release);
        drop(done);
        self.stage.on_wake();
    }
}

/// A claim: chunks `first..end` of one publication window, and the values
/// of those computed so far, back to back.
struct Batch<V> {
    first: usize,
    end: usize,
    values: Vec<V>,
    /// Chunks computed.
    done: usize,
    /// Where each computed chunk but the first starts in `values`: a batch
    /// of one chunk allocates none.
    starts: Vec<usize>,
    /// Lost to a panicking body: no value of it will come.
    lost: bool,
}

impl<V> Batch<V> {
    fn new(chunks: Range<usize>) -> Self {
        Self {
            first: chunks.start,
            end: chunks.end,
            values: Vec::new(),
            done: 0,
            starts: Vec::new(),
            lost: false,
        }
    }

    /// One past the last computed chunk.
    fn computed(&self) -> usize {
        self.first + self.done
    }

    /// Computes the next chunk, through `scratch`; returns whether the
    /// batch is complete.
    fn compute_next<I>(&mut self, work: &Work<I, V>, scratch: &mut Vec<V>) -> bool {
        work.compute(self.computed(), scratch);
        let chunks = self.end - self.first;
        if self.done == 0 {
            // Room for the whole batch, sized by its first chunk.
            self.values.reserve(scratch.len() * chunks);
        } else {
            if self.starts.is_empty() {
                self.starts.reserve_exact(chunks - 1);
            }
            self.starts.push(self.values.len());
        }
        self.values.append(scratch);
        self.done += 1;
        self.computed() == self.end
    }

    /// Drops the computed chunks and the next one, for a batch merged up
    /// to that chunk whose owner computes it outside the batch.
    fn skip_next(&mut self) {
        self.first = self.computed() + 1;
        self.done = 0;
        self.values.clear();
        self.starts.clear();
    }

    /// Values of computed chunk `k`.
    fn values(&self, k: usize) -> &[V] {
        let i = k - self.first;
        let start = if i == 0 { 0 } else { self.starts[i - 1] };
        let end = self.starts.get(i).copied().unwrap_or(self.values.len());
        &self.values[start..end]
    }
}

/// A helper of one run: claims batches and computes them on another
/// worker until no chunk is left, the run is stopped, or the stage closed
/// the run.
///
/// It checks the control token and the cursor before every chunk: paused,
/// it keeps its batch and computes nothing until resumed (`Pending`);
/// stopped, or with the run closed, it hands back the chunks of its batch
/// it computed and ends. It yields after `slice` chunks, mid-batch if need
/// be, so it never holds a worker longer than the stage task's own slice.
/// A batch whose body panics is handed back lost, whole, when the runtime
/// drops the helper.
struct Helper<I, V> {
    work: Arc<Work<I, V>>,
    claims: Arc<Claims<V>>,
    ctl: ControlToken,
    /// Chunks computed per poll before yielding: the stage task's
    /// publication window, capped at [`MAX_STEPS_PER_SLICE`] in `poll`.
    slice: u64,
    /// The batch being computed.
    batch: Option<Batch<V>>,
    /// Values of the chunk being computed.
    scratch: Vec<V>,
}

impl<I, V> Helper<I, V> {
    /// Hands back the batch held, if any.
    fn give_back(&mut self) {
        if let Some(batch) = self.batch.take() {
            self.claims.give_back(batch);
        }
    }
}

impl<I, V> RtTask for Helper<I, V>
where
    I: Send + Sync + 'static,
    V: Send + 'static,
{
    fn name(&self) -> &str {
        &self.work.name
    }

    fn poll(&mut self, wake: &Arc<dyn WakeTarget>) -> TaskPoll {
        // Subscribe before checking: a resume or stop after this re-polls.
        self.ctl.subscribe_target(wake);
        for _ in 0..self.slice.min(MAX_STEPS_PER_SLICE) {
            let ctl = self.ctl.poll_checkpoint();
            if ctl == ControlPoll::Stopped || self.claims.claimed() >= CLOSED {
                self.give_back();
                return TaskPoll::Ready;
            }
            if ctl == ControlPoll::Paused {
                return TaskPoll::Pending;
            }
            let batch = match &mut self.batch {
                Some(batch) => batch,
                None => match self.claims.claim() {
                    Some(chunks) => self.batch.insert(Batch::new(chunks)),
                    None => return TaskPoll::Ready,
                },
            };
            if batch.compute_next(&self.work, &mut self.scratch) {
                self.give_back();
            }
        }
        TaskPoll::Yielded
    }
}

impl<I, V> Drop for Helper<I, V> {
    fn drop(&mut self) {
        // Only a panicking body leaves a batch held.
        if let Some(mut batch) = self.batch.take() {
            batch.lost = true;
            self.claims.give_back(batch);
        }
    }
}

/// Where the merge point's values are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// In the first batch of `ahead`, computed.
    Ahead,
    /// In this task's batch, computed.
    Mine,
    /// In this task's batch, next to compute.
    Next,
    /// In a batch a helper lost.
    Lost,
    /// With a helper, or not claimed yet.
    Elsewhere,
}

/// In-flight state of one run, kept across poll slices.
struct PmapRun<O, V> {
    out: O,
    claims: Arc<Claims<V>>,
    /// Chunks merged into `out`, in sample order.
    merged: usize,
    published_at: usize,
    /// Chunks this task claimed, and chunks of the batches helpers gave
    /// back.
    own: usize,
    returned: usize,
    /// This task's latest batch, until it is merged.
    mine: Option<Batch<V>>,
    /// Computed batches with chunks past the merge point, in chunk order:
    /// what helpers gave back (`lost` ones whole) and this task's earlier
    /// batches.
    ahead: VecDeque<Batch<V>>,
    /// What the last drain of `claims.done` took, and how many batches
    /// the drains took in all.
    inbox: Vec<Batch<V>>,
    drained: usize,
    /// Values of a chunk this task computes outside its batch.
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

/// Inserts `batch` into `ahead`, keeping it in chunk order.
fn insert_ahead<V>(ahead: &mut VecDeque<Batch<V>>, batch: Batch<V>) {
    let at = ahead.partition_point(|b| b.first < batch.first);
    ahead.insert(at, batch);
}

impl<O, V> PmapRun<O, V> {
    /// Moves the batches helpers gave back into `ahead`, keeping only the
    /// chunks they computed (a lost batch whole) that are not merged yet.
    fn drain(&mut self) {
        if self.claims.handed.load(Ordering::Acquire) == self.drained {
            return;
        }
        std::mem::swap(&mut *lock_unpoisoned(&self.claims.done), &mut self.inbox);
        self.drained += self.inbox.len();
        for mut batch in self.inbox.drain(..) {
            self.returned += batch.end - batch.first;
            if !batch.lost {
                batch.end = batch.computed();
            }
            if batch.end > self.merged.max(batch.first) {
                insert_ahead(&mut self.ahead, batch);
            }
        }
    }

    /// Where chunk `k`, the merge point, is; drops the batches merged.
    fn held(&mut self, k: usize) -> Held {
        while self.ahead.front().is_some_and(|batch| batch.end <= k) {
            self.ahead.pop_front();
        }
        if self.mine.as_ref().is_some_and(|batch| batch.end <= k) {
            self.mine = None;
        }
        if let Some(batch) = self.ahead.front().filter(|batch| batch.first <= k) {
            return if batch.lost { Held::Lost } else { Held::Ahead };
        }
        match &self.mine {
            Some(batch) if batch.first <= k && k < batch.computed() => Held::Mine,
            Some(batch) if batch.first <= k => Held::Next,
            _ => Held::Elsewhere,
        }
    }

    /// Whether this task's batch has chunks left to compute.
    fn computing(&self) -> bool {
        self.mine
            .as_ref()
            .is_some_and(|batch| batch.computed() < batch.end)
    }

    /// Claims a batch for this task, keeping its previous one ahead.
    fn claim(&mut self) {
        if let Some(chunks) = self.claims.claim() {
            self.own += chunks.len();
            if let Some(previous) = self.mine.replace(Batch::new(chunks)) {
                insert_ahead(&mut self.ahead, previous);
            }
        }
    }
}

impl<O, V> Drop for PmapRun<O, V> {
    fn drop(&mut self) {
        // An abandoned run stops its helpers at their next chunk.
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
        let helpers = (cx.rt.workers() - 1).min(work.chunks().saturating_sub(1));
        let claims = Arc::new(Claims {
            next: AtomicUsize::new(0),
            shape: Shape {
                total: work.chunks(),
                window: usize::try_from(self.publish_every).unwrap_or(usize::MAX),
                tasks: helpers + 1,
            },
            done: Mutex::new(Vec::new()),
            handed: AtomicUsize::new(0),
            stage: Arc::clone(cx.wake),
        });
        for _ in 0..helpers {
            let helper = Helper {
                work: Arc::clone(work),
                claims: Arc::clone(&claims),
                ctl: cx.ctl.clone(),
                slice: self.publish_every,
                batch: None,
                scratch: Vec::new(),
            };
            cx.rt.spawn_from_task(Box::new(helper));
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
            mine: None,
            ahead: VecDeque::new(),
            inbox: Vec::new(),
            drained: 0,
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
        let shape = run.claims.shape;
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
            if run.merged == shape.total {
                // Only an empty sample order gets here unpublished.
                run.db
                    .publish_final_from(&mut self.writer, &run.out, work.progress(shape.total));
                run.end = Some(StageEnd::Final);
                break;
            }
            if slice >= MAX_STEPS_PER_SLICE {
                return StagePoll::Yielded;
            }
            slice += 1;
            let k = run.merged;
            let mut held = run.held(k);
            if held == Held::Elsewhere && k < run.claims.claimed() {
                // A helper claimed chunk `k`: take what came back.
                run.drain();
                held = run.held(k);
            }
            let values: &[V] = match held {
                Held::Ahead => run.ahead[0].values(k),
                Held::Mine => run
                    .mine
                    .as_ref()
                    .expect("chunk `k` is this task's")
                    .values(k),
                Held::Next => {
                    // Merged up to its next chunk: compute that one for
                    // the merge directly.
                    run.mine
                        .as_mut()
                        .expect("chunk `k` is this task's")
                        .skip_next();
                    work.compute(k, &mut run.scratch);
                    &run.scratch
                }
                Held::Lost => {
                    run.lost = Some(k);
                    run.end = Some(StageEnd::Stopped);
                    break;
                }
                Held::Elsewhere if run.computing() => {
                    // A helper holds chunk `k`: compute ahead meanwhile.
                    let mine = run.mine.as_mut().expect("this task holds a batch");
                    mine.compute_next(work, &mut run.scratch);
                    continue;
                }
                Held::Elsewhere => {
                    // Claim ahead only inside chunk `k`'s window; past its
                    // last claim, compute the chunk a helper still holds
                    // here rather than wait for it, so a stalled helper
                    // delays no version by more than the chunks it holds.
                    if run.claims.claimed() < shape.window_end(k) {
                        run.claim();
                        continue;
                    }
                    work.compute(k, &mut run.scratch);
                    &run.scratch
                }
            };
            // Injected faults fire at merge boundaries — the stage's step
            // boundary, where the working output is a valid partial sample.
            #[cfg(feature = "fault-inject")]
            if let Some(armed) = self.faults.as_mut() {
                armed.before_step(&work.name, k as u64);
            }
            (self.stage.write)(&mut run.out, work.indices(k), values);
            run.merged += 1;
            self.merged = run.merged as u64;
            if run.merged == shape.total {
                run.db
                    .publish_final_from(&mut self.writer, &run.out, work.progress(shape.total));
                run.end = Some(StageEnd::Final);
            } else if self.merged.is_multiple_of(self.publish_every) {
                run.db
                    .publish_from(&mut self.writer, &run.out, work.progress(run.merged));
                run.published_at = run.merged;
                return StagePoll::Yielded;
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
        // until every batch a helper claimed has come back.
        let claimed = *run.claimed.get_or_insert_with(|| run.claims.close());
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
        // cursor, so its helpers stop at their next chunk — and let a
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

    /// Triples `0..N` in LFSR order, 8 elements a chunk, calling `hook`
    /// with the number of chunks computed before each.
    fn triple_with(
        hook: impl Fn(usize) + Send + Sync + 'static,
    ) -> ParallelSampledMap<Vec<u64>, Vec<u64>, u64> {
        triple_counted(N, 8, hook)
    }

    /// Triples `0..n` in LFSR order, `chunk` elements a chunk, calling
    /// `hook` with the number of chunks computed before each.
    fn triple_counted(
        n: usize,
        chunk: usize,
        hook: impl Fn(usize) + Send + Sync + 'static,
    ) -> ParallelSampledMap<Vec<u64>, Vec<u64>, u64> {
        let calls = AtomicUsize::new(0);
        ParallelSampledMap::new(
            "pmap",
            (0..n as u64).collect::<Vec<u64>>(),
            DynPermutation::new(Lfsr::with_len(n).unwrap()),
            chunk,
            |i: &Vec<u64>| vec![u64::MAX; i.len()],
            move |i: &Vec<u64>, indices: &[u32], values: &mut Vec<u64>| {
                hook(calls.fetch_add(1, Ordering::SeqCst));
                values.extend(indices.iter().map(|&idx| i[idx as usize] * 3));
            },
            scatter(),
        )
    }

    /// The runner of the tests' tripling maps.
    type Tripler = ParallelRunner<Vec<u64>, Vec<u64>, u64>;

    /// `stage`'s runner, publishing every `publish_every` chunks, and its
    /// output reader.
    fn runner(
        stage: ParallelSampledMap<Vec<u64>, Vec<u64>, u64>,
        publish_every: u64,
    ) -> (Tripler, BufferReader<Vec<u64>>) {
        let (writer, reader) = buffer::versioned("pmap");
        let runner = ParallelRunner {
            stage,
            writer,
            publish_every,
            supervision: Supervision::default(),
            merged: 0,
            run: None,
            dirty: false,
            #[cfg(feature = "fault-inject")]
            faults: None,
        };
        (runner, reader)
    }

    /// Drives `stage`'s runner by hand on the calling thread, under `ctl`,
    /// publishing every `publish_every` chunks, with its helpers on `rt`;
    /// returns how the run ended and the output reader.
    fn drive_by_hand(
        stage: ParallelSampledMap<Vec<u64>, Vec<u64>, u64>,
        rt: &RuntimeHandle,
        ctl: &ControlToken,
        publish_every: u64,
    ) -> (crate::Result<StageEnd>, BufferReader<Vec<u64>>) {
        let (mut runner, reader) = runner(stage, publish_every);
        let woken = WaitSet::new();
        let wake = woken.as_wake_target();
        loop {
            let seen = woken.epoch();
            let mut cx = PollCx {
                ctl,
                wake: &wake,
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
    fn a_poll_publishes_at_most_one_version_then_yields() {
        // One worker, so no helper: the stage task merges every chunk.
        // 64 chunks, a version every 4.
        let rt = Runtime::new(1);
        let (mut runner, reader) = runner(triple(16), 4);
        let ctl = ControlToken::new();
        let wake = WaitSet::new().as_wake_target();
        let handle = rt.handle();
        let mut cx = PollCx {
            ctl: &ctl,
            wake: &wake,
            rt: &handle,
        };
        for published in 1..16u64 {
            assert!(matches!(runner.poll(&mut cx), StagePoll::Yielded));
            let snap = reader.latest().unwrap();
            assert_eq!(snap.version().get(), published);
            assert_eq!(snap.steps(), published * 4 * 16);
        }
        assert!(matches!(
            runner.poll(&mut cx),
            StagePoll::Ready(Ok(StageEnd::Final))
        ));
        assert_eq!(reader.latest().unwrap().version().get(), 16);
    }

    #[test]
    fn polls_without_a_publication_yield_after_max_steps() {
        // 8,192 one-element chunks, published every 10,000: no poll of
        // this run reaches a publication before the step cap.
        let rt = Runtime::new(1);
        let (mut runner, reader) = runner(triple_counted(8192, 1, |_| {}), 10_000);
        let ctl = ControlToken::new();
        let wake = WaitSet::new().as_wake_target();
        let handle = rt.handle();
        let mut cx = PollCx {
            ctl: &ctl,
            wake: &wake,
            rt: &handle,
        };
        assert!(matches!(runner.poll(&mut cx), StagePoll::Yielded));
        assert!(reader.latest().is_none());
        assert!((1..MAX_STEPS_PER_SLICE).contains(&runner.steps_completed()));
        // A helper with the same slice computes exactly the cap, then
        // yields.
        let computed = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&computed);
        let map = triple_counted(8192, 1, move |k| counted.store(k + 1, Ordering::SeqCst));
        let stage = WaitSet::new();
        let mut h = helper(&map, &stage, &ctl, 10_000);
        assert!(matches!(h.poll(&wake), TaskPoll::Yielded));
        assert_eq!(computed.load(Ordering::SeqCst) as u64, MAX_STEPS_PER_SLICE);
    }

    #[test]
    fn lost_chunk_ends_the_run_with_stage_panicked() {
        // The stage task computes on this thread, slowly enough that the
        // lost batch is back before the merge reaches it; every helper
        // chunk panics, so the helper loses the first batch it claims.
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
        let (end, reader) = drive_by_hand(stage, &rt.handle(), &ControlToken::new(), 4);
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

    #[test]
    fn a_stop_at_every_chunk_publishes_the_serial_prefix() {
        // One worker: the stage task claims and computes every batch
        // itself, 4, 2, 1 and 1 chunks a window of 8, so stopping the
        // token in chunk `m`'s body lands the stop at every position of
        // two windows, mid-batch ones included. The stage merges chunk `m`
        // and stops before the next; what it publishes must be the serial
        // map's output at that step count.
        let every = 8u64;
        let perm = DynPermutation::new(Lfsr::with_len(N).unwrap());
        let input: Vec<u64> = (0..N as u64).collect();
        let mut serial = SampledMap::new(
            perm,
            |i: &Vec<u64>| vec![u64::MAX; i.len()],
            |i: &Vec<u64>, out: &mut Vec<u64>, idx| out[idx] = i[idx] * 3,
        );
        let mut by_steps = vec![serial.init(&input)];
        let mut out = by_steps[0].clone();
        for step in 0..N as u64 {
            serial.step(&input, &mut out, step);
            by_steps.push(out.clone());
        }
        let rt = Runtime::new(1);
        for m in 0..2 * every as usize {
            let ctl = ControlToken::new();
            let stopper = ctl.clone();
            let stage = triple_with(move |chunks| {
                if chunks == m {
                    stopper.stop();
                }
            });
            let (end, reader) = drive_by_hand(stage, &rt.handle(), &ctl, every);
            assert_eq!(end.unwrap(), StageEnd::Stopped, "stop in chunk {m}");
            let snap = reader.latest().expect("the stop publishes");
            assert_eq!(snap.steps(), (m as u64 + 1) * 8, "stop in chunk {m}");
            assert_eq!(
                snap.value(),
                &by_steps[snap.steps() as usize],
                "stop in chunk {m}"
            );
        }
    }

    /// A helper of a run of `map` in publication windows of 16 chunks
    /// shared with one other claimer (batches of 4, 3, 3, 2, 1, … chunks),
    /// whose stage task is `stage`; it yields after `slice` chunks.
    fn helper(
        map: &ParallelSampledMap<Vec<u64>, Vec<u64>, u64>,
        stage: &WaitSet,
        ctl: &ControlToken,
        slice: u64,
    ) -> Helper<Vec<u64>, u64> {
        Helper {
            work: Arc::clone(&map.work),
            claims: Arc::new(Claims {
                next: AtomicUsize::new(0),
                shape: Shape {
                    total: map.work.chunks(),
                    window: 16,
                    tasks: 2,
                },
                done: Mutex::new(Vec::new()),
                handed: AtomicUsize::new(0),
                stage: stage.as_wake_target(),
            }),
            ctl: ctl.clone(),
            slice,
            batch: None,
            scratch: Vec::new(),
        }
    }

    /// Takes the batches `h` handed back, checking every computed chunk's
    /// values: `(first, end, one past the last computed, lost)` each.
    fn handed_back(h: &Helper<Vec<u64>, u64>) -> Vec<(usize, usize, usize, bool)> {
        let done = std::mem::take(&mut *lock_unpoisoned(&h.claims.done));
        done.iter()
            .map(|b| {
                for k in b.first..b.computed() {
                    let want: Vec<u64> = h
                        .work
                        .indices(k)
                        .iter()
                        .map(|&i| u64::from(i) * 3)
                        .collect();
                    assert_eq!(b.values(k), want.as_slice(), "chunk {k}");
                }
                (b.first, b.end, b.computed(), b.lost)
            })
            .collect()
    }

    #[test]
    fn a_one_chunk_batch_allocates_only_its_values() {
        let map = triple(8);
        let tripled = |k: usize| -> Vec<u64> {
            let indices = map.work.indices(k);
            indices.iter().map(|&i| u64::from(i) * 3).collect()
        };
        let mut scratch = Vec::new();
        let mut one = Batch::new(2..3);
        assert!(one.compute_next(&map.work, &mut scratch));
        assert_eq!(one.starts.capacity(), 0, "a chunk start was allocated");
        assert_eq!(one.values(2), tripled(2).as_slice());
        let mut three = Batch::new(4..7);
        assert!(!three.compute_next(&map.work, &mut scratch));
        assert_eq!(three.starts.capacity(), 0);
        while !three.compute_next(&map.work, &mut scratch) {}
        assert_eq!(three.computed(), 7);
        for k in 4..7 {
            assert_eq!(three.values(k), tripled(k).as_slice(), "chunk {k}");
        }
        // Merged up to chunk 5, which its owner computes outside the
        // batch: the batch keeps chunk 6 alone.
        let mut skipped = Batch::new(4..7);
        skipped.compute_next(&map.work, &mut scratch);
        skipped.skip_next();
        assert_eq!((skipped.first, skipped.computed()), (6, 6));
        assert!(skipped.compute_next(&map.work, &mut scratch));
        assert_eq!(skipped.values(6), tripled(6).as_slice());
    }

    #[test]
    fn helper_hands_each_batch_back_once_and_wakes_the_stage() {
        let ctl = ControlToken::new();
        let stage = WaitSet::new();
        let mut h = helper(&triple(8), &stage, &ctl, 10);
        let wake = WaitSet::new().as_wake_target();
        // One slice of ten chunks: three whole batches, each handed back
        // with its values, one wake each.
        assert!(matches!(h.poll(&wake), TaskPoll::Yielded));
        assert_eq!(stage.epoch(), 3, "one wake per batch");
        assert_eq!(
            handed_back(&h),
            [(0, 4, 4, false), (4, 7, 7, false), (7, 10, 10, false)]
        );
        // Once the stage closes the run, the helper ends before computing.
        assert_eq!(h.claims.close(), 10);
        assert!(matches!(h.poll(&wake), TaskPoll::Ready));
        assert!(handed_back(&h).is_empty());
    }

    #[test]
    fn helper_paused_mid_batch_keeps_it_and_computes_nothing() {
        let ctl = ControlToken::new();
        let pauser = ctl.clone();
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let map = triple_with(move |chunks| {
            counted.store(chunks + 1, Ordering::SeqCst);
            if chunks == 1 {
                pauser.pause();
            }
        });
        let stage = WaitSet::new();
        let mut h = helper(&map, &stage, &ctl, 10);
        let woken = WaitSet::new();
        let wake = woken.as_wake_target();
        // Paused in the batch's second chunk: nothing handed back.
        assert!(matches!(h.poll(&wake), TaskPoll::Pending));
        assert!(matches!(h.poll(&wake), TaskPoll::Pending));
        assert_eq!(calls.load(Ordering::SeqCst), 2, "computed while paused");
        assert_eq!(stage.epoch(), 0);
        assert_eq!(h.claims.claimed(), 4, "claimed while paused");
        ctl.resume();
        assert!(woken.epoch() >= 1, "resume must wake the paused helper");
        // Resumed, it finishes the batch it kept and hands it back whole.
        h.slice = 2;
        assert!(matches!(h.poll(&wake), TaskPoll::Yielded));
        assert_eq!(handed_back(&h), [(0, 4, 4, false)]);
        assert_eq!(stage.epoch(), 1);
        ctl.stop();
        assert!(matches!(h.poll(&wake), TaskPoll::Ready));
    }

    #[test]
    fn helper_stopped_mid_batch_hands_back_the_computed_prefix() {
        let ctl = ControlToken::new();
        let stopper = ctl.clone();
        let map = triple_with(move |chunks| {
            if chunks == 2 {
                stopper.stop();
            }
        });
        let stage = WaitSet::new();
        let mut h = helper(&map, &stage, &ctl, 10);
        let wake = WaitSet::new().as_wake_target();
        assert!(matches!(h.poll(&wake), TaskPoll::Ready));
        // Chunks 0–2 of the batch 0..4, in one hand-back.
        assert_eq!(handed_back(&h), [(0, 4, 3, false)]);
        assert_eq!(stage.epoch(), 1);
    }

    #[test]
    fn helper_that_panics_mid_batch_loses_the_batch() {
        let map = triple_with(|chunks| assert!(chunks != 2, "helper exploded"));
        let stage = WaitSet::new();
        let mut h = helper(&map, &stage, &ControlToken::new(), 10);
        let wake = WaitSet::new().as_wake_target();
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.poll(&wake)));
        assert!(polled.is_err());
        assert_eq!(stage.epoch(), 0);
        // The runtime drops a panicked task: its batch comes back lost,
        // whole, although two of its chunks were computed.
        let claims = Arc::clone(&h.claims);
        drop(h);
        assert_eq!(stage.epoch(), 1);
        let done = std::mem::take(&mut *lock_unpoisoned(&claims.done));
        assert!(matches!(
            done.as_slice(),
            [Batch {
                first: 0,
                end: 4,
                lost: true,
                ..
            }]
        ));
    }

    #[test]
    fn batches_of_a_window_of_128_chunks_on_two_tasks() {
        // A 512² conv2d run: 4,096 chunks of 64 pixels, published every
        // 128 chunks, on two workers.
        let shape = Shape {
            total: 4096,
            window: 128,
            tasks: 2,
        };
        let mut sizes = Vec::new();
        let mut at = 0;
        while let Some(batch) = shape.batch(at) {
            sizes.push(batch.len());
            at = batch.end;
        }
        assert_eq!(
            sizes[..15],
            [32, 24, 18, 14, 10, 8, 6, 4, 3, 3, 2, 1, 1, 1, 1]
        );
        assert_eq!(sizes.len(), 32 * 15);
        // One window for the whole run: 64 chunks in 13 claims.
        let whole = Shape {
            total: 64,
            window: usize::MAX,
            tasks: 2,
        };
        assert_eq!(whole.batch(0), Some(0..16));
        assert_eq!(whole.batch(63), Some(63..64));
        assert_eq!(whole.batch(64), None);
    }

    proptest::proptest! {
        #[test]
        fn batches_shrink_inside_each_window_and_cover_the_order(
            total in 0usize..3000,
            window in 1usize..400,
            tasks in 1usize..9,
        ) {
            let shape = Shape { total, window, tasks };
            let mut at = 0;
            let mut last: Option<(usize, usize)> = None;
            while let Some(batch) = shape.batch(at) {
                // Claims are consecutive, so they cover the order once.
                proptest::prop_assert_eq!(batch.start, at);
                proptest::prop_assert!(!batch.is_empty());
                let w = batch.start / window;
                proptest::prop_assert_eq!((batch.end - 1) / window, w, "crosses a window");
                if let Some((prev_w, prev_len)) = last {
                    if prev_w == w {
                        proptest::prop_assert!(batch.len() <= prev_len, "grew in a window");
                    }
                }
                last = Some((w, batch.len()));
                at = batch.end;
            }
            proptest::prop_assert_eq!(at, total);
        }
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
            fn poll(&mut self, _: &Arc<dyn WakeTarget>) -> TaskPoll {
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
        rt.handle().spawn_task(Box::new(Hog {
            polled: Arc::clone(&polled),
            release: Arc::clone(&release),
        }));
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
