//! Synchronous pipelines for distributive stages (paper §III-C2).
//!
//! When a parent stage `f` is diffusive — its output evolves as
//! `F_i = F_{i-1} ♦ X_i` — and a child `g` is *distributive* over `♦`
//! (`g(F_0 ♦ X_1 ♦ … ♦ X_n) = g(F_0) ♦ g(X_1) ♦ … ♦ g(X_n)`), running `g`
//! asynchronously on whole snapshots re-processes every element the parent
//! has touched so far (paper Figure 8: re-capitalizing `"hel"` when only
//! `"l"` is new). A **synchronous pipeline** instead streams the *updates*
//! `X_i` to the child, which folds `g(X_i)` into its own output — no
//! redundant work (Figure 9).
//!
//! Unlike the asynchronous pipeline, updates must not be dropped: `f` may
//! not overwrite `X_i` before `g` consumes it. A bounded channel provides
//! exactly that backpressure. Both stages are runtime tasks and the
//! channel is poll-only: a backpressured producer keeps its update and
//! returns `Pending`, an idle consumer returns `Pending`, and either is
//! re-polled as soon as new data, new space, a peer exit, or a control
//! transition wakes it.
//!
//! # Examples
//!
//! The paper's Figure 8/9 string example — a parent emits letters, the
//! child upper-cases each new letter only:
//!
//! ```
//! use anytime_core::{PipelineBuilder, StageOptions};
//! use std::time::Duration;
//!
//! let mut pb = PipelineBuilder::new();
//! let text = "hello".to_string();
//! let updates = pb.sync_source("f", text, 2, |input: &String, step| {
//!     input.chars().nth(step as usize)
//! });
//! let out = pb.sync_stage(
//!     "g",
//!     updates,
//!     String::new,
//!     |acc: &mut String, ch: char| acc.push(ch.to_ascii_uppercase()),
//!     StageOptions::default(),
//! );
//! let auto = pb.build().launch()?;
//! let snap = out.wait_final_timeout(Duration::from_secs(10))?;
//! assert_eq!(snap.value(), "HELLO");
//! auto.join()?;
//! # Ok::<(), anytime_core::CoreError>(())
//! ```

use crate::buffer::{BufferReader, BufferWriter, DoubleBuffer};
use crate::channel::{bounded, Receiver, Sender};
use crate::control::ControlPoll;
use crate::error::CoreError;
use crate::pipeline::PipelineBuilder;
use crate::stage::{PollCx, StageEnd, StageOptions, StagePoll, StageRunner, MAX_STEPS_PER_SLICE};
use std::fmt;
use std::sync::Arc;

enum Msg<X> {
    Update(X),
    Final,
}

/// The consuming end of a synchronous update stream.
///
/// Deliberately not [`Clone`]: the paper's synchronous pipeline is a strict
/// one-producer/one-consumer relationship.
pub struct UpdateReceiver<X> {
    rx: Receiver<Msg<X>>,
}

impl<X> fmt::Debug for UpdateReceiver<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UpdateReceiver")
            .field("queued", &self.rx.len())
            .finish()
    }
}

/// Parent-side runner: emits updates `X_1, …, X_n` into the bounded channel.
/// Boxed update producer: `next(input, step)`.
type NextFn<I, X> = Box<dyn FnMut(&I, u64) -> Option<X> + Send>;
/// Boxed distributive fold.
type FoldFn<G, X> = Box<dyn FnMut(&mut G, X) + Send>;

struct UpdateSourceRunner<I, X> {
    name: String,
    input: Arc<I>,
    next: NextFn<I, X>,
    tx: Sender<Msg<X>>,
    /// Updates emitted so far; persists across poll slices.
    step: u64,
    /// A message the channel bounced back (queue full), to retry before
    /// producing the next one.
    stalled: Option<Msg<X>>,
}

impl<I, X> StageRunner for UpdateSourceRunner<I, X>
where
    I: Send + Sync + 'static,
    X: Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, cx: &mut PollCx<'_>) -> StagePoll {
        // Subscribe before checking any predicate: a queue-space or stop
        // event after this point re-polls the task.
        self.tx.subscribe_target(cx.wake);
        cx.ctl.subscribe_target(cx.wake);
        match cx.ctl.poll_checkpoint() {
            ControlPoll::Running => {}
            ControlPoll::Paused => return StagePoll::Pending,
            ControlPoll::Stopped => return StagePoll::Ready(Ok(StageEnd::Stopped)),
        }
        let msg = match self.stalled.take() {
            Some(m) => m,
            None => match (self.next)(&self.input, self.step) {
                Some(update) => Msg::Update(update),
                None => Msg::Final,
            },
        };
        let ends_stream = matches!(msg, Msg::Final);
        match self.tx.poll_send(msg, cx.ctl) {
            Ok(None) if ends_stream => StagePoll::Ready(Ok(StageEnd::Final)),
            Ok(None) => {
                // Each delivered update is this stage's publish point.
                self.step += 1;
                StagePoll::Yielded
            }
            Ok(Some(m)) => {
                // Backpressured: hold the message and wait for space.
                self.stalled = Some(m);
                StagePoll::Pending
            }
            Err(CoreError::Stopped) => StagePoll::Ready(Ok(StageEnd::Stopped)),
            Err(e) => StagePoll::Ready(Err(e)),
        }
    }
}

/// Child-side runner: folds each received update into its output.
struct DistributiveRunner<X, G> {
    name: String,
    rx: Receiver<Msg<X>>,
    init: Box<dyn FnMut() -> G + Send>,
    fold: FoldFn<G, X>,
    writer: BufferWriter<G>,
    publish_every: u64,
    /// The running fold `g(F_0) ♦ g(X_1) ♦ …`, initialized lazily on the
    /// first poll slice; persists across slices.
    out: Option<G>,
    steps: u64,
    published_at: u64,
    /// Publications recycle the two-versions-old allocation instead of
    /// cloning the fold state fresh each time.
    db: DoubleBuffer<G>,
    /// Set while a poll slice runs; still set on entry means the previous
    /// slice panicked mid-fold and the accumulator is untrustworthy.
    dirty: bool,
}

impl<X, G> DistributiveRunner<X, G>
where
    X: Send + 'static,
    G: Clone + Send + Sync + 'static,
{
    /// Publishes the partial fold accumulated so far (a valid approximate
    /// output — interruptibility) before reporting a stop.
    fn stop_with_partial(&mut self) -> StagePoll {
        if self.steps > self.published_at {
            if let Some(out) = &self.out {
                self.db.publish_from(&mut self.writer, out, self.steps);
                self.published_at = self.steps;
            }
        }
        StagePoll::Ready(Ok(StageEnd::Stopped))
    }
}

impl<X, G> StageRunner for DistributiveRunner<X, G>
where
    X: Send + 'static,
    G: Clone + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, cx: &mut PollCx<'_>) -> StagePoll {
        if self.writer.is_final() {
            return StagePoll::Ready(Ok(StageEnd::Final));
        }
        if self.writer.is_terminal() {
            return StagePoll::Ready(Ok(StageEnd::Degraded));
        }
        if std::mem::replace(&mut self.dirty, true) {
            // The previous slice panicked mid-fold. Updates it consumed are
            // gone (the channel cannot rewind), so restart the fold from
            // scratch — the same recovery the dedicated-thread driver made
            // when it was re-driven after a panic.
            self.out = None;
            self.steps = 0;
            self.published_at = 0;
        }
        self.rx.subscribe_target(cx.wake);
        cx.ctl.subscribe_target(cx.wake);
        let granularity = self.publish_every.max(1);
        let mut slice_steps = 0u64;
        let verdict = loop {
            match cx.ctl.poll_checkpoint() {
                ControlPoll::Running => {}
                ControlPoll::Paused => break StagePoll::Pending,
                ControlPoll::Stopped => break self.stop_with_partial(),
            }
            match self.rx.poll_recv(cx.ctl) {
                Ok(Some(Msg::Update(x))) => {
                    if self.out.is_none() {
                        self.out = Some((self.init)());
                    }
                    let out = self.out.as_mut().expect("fold state just initialized");
                    (self.fold)(out, x);
                    self.steps += 1;
                    slice_steps += 1;
                    if self.steps.is_multiple_of(granularity) {
                        self.db.publish_from(&mut self.writer, out, self.steps);
                        self.published_at = self.steps;
                        break StagePoll::Yielded;
                    }
                    if slice_steps >= MAX_STEPS_PER_SLICE {
                        // Coarse granularity: cap the slice so one stage
                        // cannot monopolize a worker between publishes.
                        break StagePoll::Yielded;
                    }
                }
                Ok(Some(Msg::Final)) => {
                    if self.out.is_none() {
                        self.out = Some((self.init)());
                    }
                    let out = self.out.as_ref().expect("fold state just initialized");
                    self.db
                        .publish_final_from(&mut self.writer, out, self.steps);
                    break StagePoll::Ready(Ok(StageEnd::Final));
                }
                Ok(None) => break StagePoll::Pending,
                Err(CoreError::Stopped) => break self.stop_with_partial(),
                Err(CoreError::ChannelClosed) => {
                    // The producer died without sending `Final`.
                    break StagePoll::Ready(Err(CoreError::SourceClosed {
                        buffer: self.name.clone(),
                    }));
                }
                Err(e) => break StagePoll::Ready(Err(e)),
            }
        };
        self.dirty = false;
        verdict
    }

    fn output_control(&self) -> Option<std::sync::Arc<dyn crate::buffer::BufferControl>> {
        Some(self.writer.control_handle())
    }

    fn steps_completed(&self) -> u64 {
        // The fold restarts from scratch if re-polled after a panic; live
        // progress is in the buffer, so report the published step count.
        self.writer.latest().map_or(0, |snap| snap.steps())
    }
}

impl PipelineBuilder {
    /// Adds a synchronous update source: a diffusive parent that exposes its
    /// updates `X_i` instead of whole snapshots.
    ///
    /// `next(input, step)` returns update `X_{step+1}`, or `None` once all
    /// updates have been emitted. `capacity` bounds the in-flight updates;
    /// the source waits when the child falls behind (the paper's
    /// "f must not overwrite `X_i` before `g(X_i)` begins executing").
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn sync_source<I, X>(
        &mut self,
        name: impl Into<String>,
        input: I,
        capacity: usize,
        next: impl FnMut(&I, u64) -> Option<X> + Send + 'static,
    ) -> UpdateReceiver<X>
    where
        I: Send + Sync + 'static,
        X: Send + 'static,
    {
        assert!(capacity > 0, "update channel needs capacity >= 1");
        let (tx, rx) = bounded(capacity);
        self.push_runner(Box::new(UpdateSourceRunner {
            name: name.into(),
            input: Arc::new(input),
            next: Box::new(next),
            tx,
            step: 0,
            stalled: None,
        }));
        UpdateReceiver { rx }
    }

    /// Adds a distributive child stage folding synchronous updates.
    ///
    /// `init` builds `g(F_0)`; `fold(out, x)` performs
    /// `out := out ♦ g(x)` for one update. Every update contributes usefully
    /// to the final output — none of the re-processing an asynchronous
    /// composition would do.
    pub fn sync_stage<X, G>(
        &mut self,
        name: impl Into<String>,
        updates: UpdateReceiver<X>,
        init: impl FnMut() -> G + Send + 'static,
        fold: impl FnMut(&mut G, X) + Send + 'static,
        opts: StageOptions,
    ) -> BufferReader<G>
    where
        X: Send + 'static,
        G: Clone + Send + Sync + 'static,
    {
        let name = name.into();
        let (writer, reader) = self.make_buffer(&name, opts);
        self.push_runner(Box::new(DistributiveRunner {
            name,
            rx: updates.rx,
            init: Box::new(init),
            fold: Box::new(fold),
            writer,
            publish_every: opts.publish_every,
            out: None,
            steps: 0,
            published_at: 0,
            db: DoubleBuffer::new(),
            dirty: false,
        }));
        reader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn updates_fold_into_final_output() {
        let mut pb = PipelineBuilder::new();
        let updates = pb.sync_source("f", 10u64, 4, |n: &u64, step| {
            (step < *n).then_some(step + 1)
        });
        let out = pb.sync_stage(
            "g",
            updates,
            || 0u64,
            |acc: &mut u64, x: u64| *acc += x,
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(*snap.value(), 55);
        let report = auto.join().unwrap();
        assert!(report.all_final());
    }

    #[test]
    fn a_poll_delivers_one_update_or_publishes_one_version() {
        let sent = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&sent);
        let mut pb = PipelineBuilder::new();
        let updates = pb.sync_source("f", 3u64, 8, move |n: &u64, step| {
            counted.fetch_add(1, Ordering::SeqCst);
            (step < *n).then_some(step + 1)
        });
        let out = pb.sync_stage(
            "g",
            updates,
            || 0u64,
            |acc: &mut u64, x: u64| *acc += x,
            StageOptions::default().keep_history(),
        );
        let mut runners = pb.build().runners;
        let ctl = crate::ControlToken::new();
        let wake = crate::notify::WaitSet::new().as_wake_target();
        let rt = crate::runtime::RuntimeHandle::global();
        let poll = |runner: &mut Box<dyn StageRunner>| {
            runner.poll(&mut PollCx {
                ctl: &ctl,
                wake: &wake,
                rt: &rt,
            })
        };
        // The source sends one update a poll, then the end of the stream.
        for delivered in 1..=3 {
            assert!(matches!(poll(&mut runners[0]), StagePoll::Yielded));
            assert_eq!(sent.load(Ordering::SeqCst), delivered);
        }
        assert!(matches!(
            poll(&mut runners[0]),
            StagePoll::Ready(Ok(StageEnd::Final))
        ));
        // The child folds one update and publishes it per poll.
        for published in 1..=3 {
            assert!(matches!(poll(&mut runners[1]), StagePoll::Yielded));
            assert_eq!(out.history().unwrap().len(), published);
        }
        assert!(matches!(
            poll(&mut runners[1]),
            StagePoll::Ready(Ok(StageEnd::Final))
        ));
        assert_eq!(*out.latest().unwrap().value(), 6);
    }

    #[test]
    fn no_redundant_work_each_update_processed_once() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let mut pb = PipelineBuilder::new();
        let updates = pb.sync_source("f", 100u64, 2, |n: &u64, step| (step < *n).then_some(step));
        let out = pb.sync_stage(
            "g",
            updates,
            || 0u64,
            move |acc: &mut u64, _x: u64| {
                calls2.fetch_add(1, Ordering::Relaxed); // relaxed: test counter, not synchronization
                *acc += 1;
            },
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        out.wait_final_timeout(Duration::from_secs(10)).unwrap();
        auto.join().unwrap();
        // The distributive property: exactly one fold per update, even
        // though the parent published 100 intermediate outputs.
        assert_eq!(calls.load(Ordering::Relaxed), 100); // relaxed: test counter
    }

    #[test]
    fn backpressure_bounds_inflight_updates() {
        // A slow consumer must throttle the producer through the bounded
        // channel: the producer may run at most `capacity + 1` updates
        // ahead of the consumer.
        let produced = Arc::new(AtomicU64::new(0));
        let consumed = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&produced);
        let c2 = Arc::clone(&consumed);
        let capacity = 2u64;
        let mut pb = PipelineBuilder::new();
        let updates = pb.sync_source("f", 50u64, capacity as usize, move |n: &u64, step| {
            if step < *n {
                p2.fetch_add(1, Ordering::SeqCst);
                let ahead = p2.load(Ordering::SeqCst) - c2.load(Ordering::SeqCst);
                assert!(
                    ahead <= capacity + 2,
                    "producer ran {ahead} updates ahead of consumer"
                );
                Some(step)
            } else {
                None
            }
        });
        let c3 = Arc::clone(&consumed);
        let out = pb.sync_stage(
            "g",
            updates,
            || 0u64,
            move |acc: &mut u64, _x| {
                std::thread::sleep(Duration::from_micros(500));
                c3.fetch_add(1, Ordering::SeqCst);
                *acc += 1;
            },
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(*snap.value(), 50);
        auto.join().unwrap();
    }

    #[test]
    fn stop_interrupts_both_sides() {
        let mut pb = PipelineBuilder::new();
        let updates = pb.sync_source("f", u64::MAX, 2, |_: &u64, step| Some(step));
        let out = pb.sync_stage(
            "g",
            updates,
            || 0u64,
            |acc: &mut u64, _x| {
                std::thread::sleep(Duration::from_micros(200));
                *acc += 1;
            },
            StageOptions::with_publish_every(8),
        );
        let auto = pb.build().launch().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let report = auto.stop_and_join().unwrap();
        assert!(!report.all_final());
        // The interrupted child still published a valid partial fold.
        assert!(*out.latest().unwrap().value() > 0);
    }

    #[test]
    fn sync_stage_publishes_to_the_pipeline_recorder() {
        let rec = crate::Recorder::enabled(1024);
        let mut pb = PipelineBuilder::new().with_recorder(rec.clone());
        let updates = pb.sync_source("f", 6u64, 2, |n: &u64, step| {
            (step < *n).then_some(step + 1)
        });
        let out = pb.sync_stage(
            "g",
            updates,
            || 0u64,
            |acc: &mut u64, x: u64| *acc += x,
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(10)).unwrap();
        auto.join().unwrap();
        let g = rec.stage("g");
        let publishes = rec
            .drain()
            .events()
            .iter()
            .filter(|e| e.kind == crate::trace::EventKind::Publish && e.stage == Some(g))
            .count() as u64;
        assert_eq!(publishes, snap.version().get());
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_panics() {
        let mut pb = PipelineBuilder::new();
        let _ = pb.sync_source("f", 1u64, 0, |_: &u64, _| Some(0u64));
    }

    #[test]
    fn empty_update_stream_finalizes_seed() {
        let mut pb = PipelineBuilder::new();
        let updates = pb.sync_source("f", 0u64, 1, |n: &u64, step| (step < *n).then_some(step));
        let out = pb.sync_stage(
            "g",
            updates,
            || 7u64,
            |acc: &mut u64, x| *acc += x,
            StageOptions::default(),
        );
        let auto = pb.build().launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(*snap.value(), 7);
        assert_eq!(snap.steps(), 0);
        auto.join().unwrap();
    }
}
