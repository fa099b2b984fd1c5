//! Versioned, atomically published stage output buffers.
//!
//! Every anytime stage owns exactly one output buffer (paper Property 2,
//! enforced by the non-cloneable [`BufferWriter`]). The producer publishes
//! whole output versions `O_1, …, O_n` with increasing accuracy; each
//! publication atomically replaces the previous version (Property 3), so any
//! number of [`BufferReader`]s — dependent stages, accuracy monitors, the
//! end user — always observe a complete, valid approximation.
//!
//! Waits are **event-driven**: a blocked reader registers a wait set with
//! the buffer (and, for control-aware waits, with the [`ControlToken`]),
//! and is woken the instant a version is published, the producer exits, or
//! the automaton stops — there is no polling quantum, so timeout deadlines
//! are met exactly and interrupt latency is bounded by thread wakeup time.
//! Per-buffer [`WaitStats`] counters record waits, wakeups, blocked time,
//! and publication-to-observation latency.
//!
//! Publication is **zero-copy**: a snapshot holds its payload behind an
//! `Arc`, so replacing `latest`, appending to history, and handing
//! snapshots to readers all move pointers, never payload bytes. Producers
//! that rebuild their output every publication can go further with
//! [`publish_arc`](BufferWriter::publish_arc) and [`DoubleBuffer`], which
//! recycles the allocation of the two-publications-old version once no
//! reader pins it.

use crate::check::PublishInvariants;
use crate::control::ControlToken;
use crate::error::{CoreError, Result};
use crate::metrics::{WaitCounters, WaitStats};
use crate::notify::{lock_unpoisoned, WaitSet, Watchers};
use crate::trace::{EventKind, Recorder, StageId, TraceEvent};
use crate::version::{Snapshot, SnapshotMeta, Version};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct State<T> {
    latest: Option<Snapshot<T>>,
    closed: bool,
    /// Version assigned to the next publication. Lives in the shared state
    /// (not the writer) so the supervisor can seal a degraded terminal
    /// version from outside the producer thread.
    next: Version,
    /// Set once the buffer was sealed degraded: the latest snapshot is
    /// terminal, and further publications are dropped (counted below).
    degraded_sealed: bool,
    /// Publications dropped after a degraded seal (a stalled-but-alive
    /// producer writing into a sealed buffer).
    dropped: u64,
    /// Debug-build publication checker (Properties 2 and 3); see
    /// [`crate::check`].
    invariants: PublishInvariants,
}

struct Shared<T> {
    name: String,
    state: Mutex<State<T>>,
    /// Retained snapshots (oldest first) when history is enabled, `None`
    /// otherwise. Kept outside `state` so [`BufferReader::history`]'s O(n)
    /// clone never blocks the publish / latest / wait paths. Lock order:
    /// `state` before `history`; publishers hold both only for the O(1)
    /// push, and `history()` takes only this lock.
    history: Mutex<Option<Vec<Snapshot<T>>>>,
    watchers: Watchers,
    counters: WaitCounters,
    /// Trace recorder (disabled by default); `stage` is this buffer's
    /// interned name in the recorder's stage table.
    recorder: Recorder,
    stage: StageId,
}

/// Type-erased supervisory handle to a buffer, used by the watchdog and
/// the stage supervision loop: progress probing, degraded sealing, and
/// wakeup subscription without knowing the value type.
pub(crate) trait BufferControl: Send + Sync {
    /// Version of the most recent publication, if any.
    fn latest_version(&self) -> Option<Version>;
    /// `true` once the producer exited.
    fn is_closed(&self) -> bool;
    /// `true` once a terminal (final or degraded) version stands.
    fn is_terminal(&self) -> bool;
    /// `true` once the buffer was sealed degraded.
    fn is_degraded(&self) -> bool;
    /// Seals the buffer degraded (see [`BufferWriter::seal_degraded`]).
    fn seal_degraded(&self) -> bool;
    /// Publications dropped after a degraded seal.
    fn dropped_publishes(&self) -> u64;
    /// The buffer's diagnostic name.
    fn buffer_name(&self) -> &str;
    /// Blocking-wait counters for this buffer.
    fn wait_stats(&self) -> WaitStats;
    /// Registers `ws` for wakeups on every publication or close.
    fn subscribe_watch(&self, ws: &WaitSet) -> crate::notify::WatchGuard<'_>;
}

impl<T: Send + Sync> BufferControl for Shared<T> {
    fn latest_version(&self) -> Option<Version> {
        lock_unpoisoned(&self.state)
            .latest
            .as_ref()
            .map(Snapshot::version)
    }

    fn is_closed(&self) -> bool {
        lock_unpoisoned(&self.state).closed
    }

    fn is_terminal(&self) -> bool {
        lock_unpoisoned(&self.state)
            .latest
            .as_ref()
            .is_some_and(Snapshot::is_terminal)
    }

    fn is_degraded(&self) -> bool {
        lock_unpoisoned(&self.state).degraded_sealed
    }

    fn seal_degraded(&self) -> bool {
        self.do_seal_degraded()
    }

    fn dropped_publishes(&self) -> u64 {
        lock_unpoisoned(&self.state).dropped
    }

    fn buffer_name(&self) -> &str {
        &self.name
    }

    fn wait_stats(&self) -> WaitStats {
        self.counters.snapshot()
    }

    fn subscribe_watch(&self, ws: &WaitSet) -> crate::notify::WatchGuard<'_> {
        self.watchers.subscribe(ws)
    }
}

impl<T> Shared<T> {
    /// Re-publishes the latest version flagged degraded, making the buffer
    /// terminal. `false` if nothing was ever published. Idempotent once a
    /// terminal version stands.
    fn do_seal_degraded(&self) -> bool {
        let mut st = lock_unpoisoned(&self.state);
        if st.latest.as_ref().is_some_and(Snapshot::is_terminal) {
            // Already terminal (precise final or a previous seal).
            return true;
        }
        let Some(prev) = st.latest.as_ref() else {
            // Nothing was ever published: there is no approximate output
            // to degrade to.
            return false;
        };
        let snap = Snapshot {
            value: Arc::clone(&prev.value),
            meta: SnapshotMeta {
                version: st.next,
                steps: prev.meta.steps,
                is_final: false,
                degraded: true,
            },
            published_at: Instant::now(),
        };
        st.next = st.next.next();
        st.invariants
            .check_publish(&self.name, snap.meta.version.get(), snap.meta.steps, true);
        st.degraded_sealed = true;
        let mut hist = lock_unpoisoned(&self.history);
        if let Some(hist) = hist.as_mut() {
            hist.push(snap.clone());
        }
        drop(hist);
        let version = snap.version();
        let steps = snap.steps();
        st.latest = Some(snap);
        drop(st);
        self.watchers.wake_all();
        self.recorder.emit_with(|at| {
            let mut ev = TraceEvent::new(at, EventKind::Degrade);
            ev.stage = Some(self.stage);
            ev.version = Some(version.get());
            ev.steps = Some(steps);
            ev.degraded = true;
            ev
        });
        true
    }
}

/// Options for creating a versioned output buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferOptions {
    /// Retain every published snapshot (not just the latest).
    ///
    /// Snapshots share their values via `Arc`, so history costs one `Arc`
    /// plus metadata per version. Used by accuracy profiling to reconstruct
    /// the full version trace after a run.
    pub keep_history: bool,
}

/// Creates a versioned single-producer, multi-consumer output buffer.
///
/// This is the paper's per-stage output buffer: the writer publishes
/// intermediate outputs `O_1, …, O_n` with increasing accuracy, each
/// atomically replacing the previous (**Property 3**), and readers always
/// observe some complete version. Exactly one [`BufferWriter`] exists per
/// buffer, enforcing the paper's **Property 2** (no other stage may modify
/// a stage's output buffer) in the type system.
///
/// # Examples
///
/// ```
/// use anytime_core::buffer;
///
/// let (mut w, r) = buffer::versioned::<Vec<u8>>("F");
/// w.publish(vec![1], 1);
/// w.publish_final(vec![1, 2], 2);
/// let snap = r.latest().unwrap();
/// assert!(snap.is_final());
/// assert_eq!(snap.value(), &vec![1, 2]);
/// ```
pub fn versioned<T>(name: impl Into<String>) -> (BufferWriter<T>, BufferReader<T>) {
    versioned_with(name, BufferOptions::default())
}

/// Creates a versioned buffer with explicit [`BufferOptions`].
pub fn versioned_with<T>(
    name: impl Into<String>,
    options: BufferOptions,
) -> (BufferWriter<T>, BufferReader<T>) {
    versioned_traced(name, options, &Recorder::disabled())
}

/// Creates a versioned buffer whose publications and blocking-wait
/// observations are recorded as trace events on `recorder` (a disabled
/// recorder costs one branch per publication).
pub fn versioned_traced<T>(
    name: impl Into<String>,
    options: BufferOptions,
    recorder: &Recorder,
) -> (BufferWriter<T>, BufferReader<T>) {
    let name = name.into();
    let stage = recorder.stage(&name);
    let shared = Arc::new(Shared {
        name,
        state: Mutex::new(State {
            latest: None,
            closed: false,
            next: Version::FIRST,
            degraded_sealed: false,
            dropped: 0,
            invariants: PublishInvariants::default(),
        }),
        history: Mutex::new(options.keep_history.then(Vec::new)),
        watchers: Watchers::new(),
        counters: WaitCounters::default(),
        recorder: recorder.clone(),
        stage,
    });
    (
        BufferWriter {
            shared: Arc::clone(&shared),
        },
        BufferReader { shared },
    )
}

/// The single producer handle of a versioned buffer.
///
/// Owned by exactly one stage. Dropping the writer without publishing a
/// final version *closes* the buffer, which readers observe as
/// [`CoreError::SourceClosed`] — this is how stage panics propagate instead
/// of deadlocking the pipeline.
pub struct BufferWriter<T> {
    shared: Arc<Shared<T>>,
}

impl<T> BufferWriter<T> {
    /// The buffer's diagnostic name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Atomically publishes an intermediate output version.
    ///
    /// `steps` records how many anytime steps were complete at publication
    /// (the sample size for sampled stages). Returns the new version.
    /// Every blocked reader is woken immediately.
    ///
    /// # Panics
    ///
    /// Panics if a final version has already been published: versions after
    /// the precise output would violate the anytime contract.
    pub fn publish(&mut self, value: T, steps: u64) -> Version {
        self.publish_inner(Arc::new(value), steps, false, false)
    }

    /// [`BufferWriter::publish`] taking an already-shared payload.
    ///
    /// The publication itself is always zero-copy (snapshots share payloads
    /// via `Arc`); this variant additionally lets the producer keep or
    /// recycle the allocation — see [`DoubleBuffer`].
    ///
    /// # Panics
    ///
    /// Panics if a final version has already been published.
    pub fn publish_arc(&mut self, value: Arc<T>, steps: u64) -> Version {
        self.publish_inner(value, steps, false, false)
    }

    /// Atomically publishes the precise (final) output version.
    ///
    /// # Panics
    ///
    /// Panics if a final version has already been published.
    pub fn publish_final(&mut self, value: T, steps: u64) -> Version {
        self.publish_inner(Arc::new(value), steps, true, false)
    }

    /// [`BufferWriter::publish_final`] taking an already-shared payload.
    ///
    /// # Panics
    ///
    /// Panics if a final version has already been published.
    pub fn publish_final_arc(&mut self, value: Arc<T>, steps: u64) -> Version {
        self.publish_inner(value, steps, true, false)
    }

    /// Atomically publishes a terminal **degraded** version: the stage's
    /// precise output is unreachable (its input was degraded, or its
    /// producer is being torn down), and this approximate value is the
    /// best it will ever publish. Terminal like a final version — it
    /// resolves `wait_final*` waits — but flagged via
    /// [`Snapshot::is_degraded`] so consumers know it is not precise.
    ///
    /// # Panics
    ///
    /// Panics if a (precise) final version has already been published.
    pub fn publish_degraded(&mut self, value: T, steps: u64) -> Version {
        self.publish_inner(Arc::new(value), steps, false, true)
    }

    /// [`BufferWriter::publish_degraded`] taking an already-shared payload.
    ///
    /// # Panics
    ///
    /// Panics if a (precise) final version has already been published.
    pub fn publish_degraded_arc(&mut self, value: Arc<T>, steps: u64) -> Version {
        self.publish_inner(value, steps, false, true)
    }

    /// Marks the start of a new run whose step counter begins at
    /// `start_steps`, for the debug-build publication invariants: the
    /// monotone-accuracy floor (Property 2) restarts there, while the
    /// version chain and terminal state persist. Drivers call this when
    /// they begin computing on a fresh input (eager restart) or after a
    /// crash-restart re-enters the drive loop.
    pub(crate) fn begin_run(&mut self, start_steps: u64) {
        if !cfg!(debug_assertions) {
            return;
        }
        lock_unpoisoned(&self.shared.state)
            .invariants
            .begin_run(start_steps);
    }

    fn publish_inner(
        &mut self,
        value: Arc<T>,
        steps: u64,
        is_final: bool,
        degraded: bool,
    ) -> Version {
        let mut st = lock_unpoisoned(&self.shared.state);
        assert!(
            !st.latest.as_ref().is_some_and(Snapshot::is_final),
            "buffer `{}`: cannot publish after the final version",
            self.shared.name
        );
        if st.degraded_sealed {
            // A walking-dead producer (stalled past its watchdog, then
            // recovered) publishing into a sealed buffer: the degraded
            // terminal version already stands, so the late value is
            // dropped — never published, never torn.
            st.dropped += 1;
            let v = st.latest.as_ref().expect("sealed buffer has a snapshot");
            return v.version();
        }
        let snap = Snapshot {
            value,
            meta: SnapshotMeta {
                version: st.next,
                steps,
                is_final,
                degraded,
            },
            published_at: Instant::now(),
        };
        let v = st.next;
        st.next = st.next.next();
        st.invariants
            .check_publish(&self.shared.name, v.get(), steps, is_final || degraded);
        if degraded {
            st.degraded_sealed = true;
        }
        // Lock order state -> history; held only for the O(1) push, so the
        // history lock never delays another publisher or reader for long.
        let mut hist = lock_unpoisoned(&self.shared.history);
        if let Some(hist) = hist.as_mut() {
            hist.push(snap.clone());
        }
        drop(hist);
        st.latest = Some(snap);
        drop(st);
        self.shared.watchers.wake_all();
        self.shared
            .recorder
            .publish(self.shared.stage, v.get(), steps, is_final, degraded);
        v
    }

    /// `true` once the final version has been published.
    pub fn is_final(&self) -> bool {
        lock_unpoisoned(&self.shared.state)
            .latest
            .as_ref()
            .is_some_and(Snapshot::is_final)
    }

    /// `true` once a terminal (final or degraded) version stands.
    pub fn is_terminal(&self) -> bool {
        lock_unpoisoned(&self.shared.state)
            .latest
            .as_ref()
            .is_some_and(Snapshot::is_terminal)
    }

    /// The most recently published snapshot, if any. Used by restarted
    /// stage drivers to resume from their own published progress.
    pub fn latest(&self) -> Option<Snapshot<T>> {
        lock_unpoisoned(&self.shared.state).latest.clone()
    }

    /// Seals the buffer **degraded**: re-publishes the latest version with
    /// the degraded flag, making it terminal. Returns `false` (and seals
    /// nothing) if no version was ever published — there is no approximate
    /// output to degrade to. Idempotent once terminal.
    ///
    /// Called by the supervisor on permanent producer death under
    /// [`crate::FailurePolicy::Degrade`], or by the watchdog on a stall.
    pub fn seal_degraded(&mut self) -> bool {
        self.shared.do_seal_degraded()
    }
}

impl<T: Send + Sync + 'static> BufferWriter<T> {
    /// A type-erased supervisory handle to this buffer.
    pub(crate) fn control_handle(&self) -> Arc<dyn BufferControl> {
        Arc::clone(&self.shared) as Arc<dyn BufferControl>
    }
}

impl<T> Drop for BufferWriter<T> {
    fn drop(&mut self) {
        let mut st = lock_unpoisoned(&self.shared.state);
        st.closed = true;
        drop(st);
        self.shared.watchers.wake_all();
    }
}

impl<T> fmt::Debug for BufferWriter<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = lock_unpoisoned(&self.shared.state);
        f.debug_struct("BufferWriter")
            .field("name", &self.shared.name)
            .field("next", &st.next)
            .field("degraded_sealed", &st.degraded_sealed)
            .finish()
    }
}

/// A consumer handle of a versioned buffer.
///
/// Cloneable: any number of dependent stages and monitors may observe the
/// same buffer. Readers never block writers beyond the brief snapshot swap.
pub struct BufferReader<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for BufferReader<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> BufferReader<T> {
    /// The buffer's diagnostic name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The most recently published snapshot, if any.
    pub fn latest(&self) -> Option<Snapshot<T>> {
        lock_unpoisoned(&self.shared.state).latest.clone()
    }

    /// `true` once the producer has exited (with or without a final output).
    pub fn is_closed(&self) -> bool {
        lock_unpoisoned(&self.shared.state).closed
    }

    /// `true` once the final (precise) version has been published.
    pub fn is_final(&self) -> bool {
        lock_unpoisoned(&self.shared.state)
            .latest
            .as_ref()
            .is_some_and(Snapshot::is_final)
    }

    /// `true` once the buffer holds a terminal **degraded** version: its
    /// producer failed permanently and the latest approximate output is
    /// the best it will ever publish.
    pub fn is_degraded(&self) -> bool {
        lock_unpoisoned(&self.shared.state)
            .latest
            .as_ref()
            .is_some_and(Snapshot::is_degraded)
    }

    /// `true` once a terminal (final or degraded) version stands.
    pub fn is_terminal(&self) -> bool {
        lock_unpoisoned(&self.shared.state)
            .latest
            .as_ref()
            .is_some_and(Snapshot::is_terminal)
    }

    /// Publications dropped after a degraded seal (a stalled producer
    /// that kept publishing into its sealed buffer).
    pub fn dropped_publishes(&self) -> u64 {
        lock_unpoisoned(&self.shared.state).dropped
    }

    /// All published snapshots, oldest first, when the buffer was created
    /// with [`BufferOptions::keep_history`]; `None` otherwise.
    ///
    /// Touches only the dedicated history lock — never the state lock — so
    /// reading a long history cannot delay publication, `latest()`, or any
    /// blocked waiter. The returned snapshots share payloads with the
    /// buffer (`Arc` clones, no payload copies).
    pub fn history(&self) -> Option<Vec<Snapshot<T>>> {
        lock_unpoisoned(&self.shared.history).clone()
    }

    /// Counters for blocking waits on this buffer: waits, wakeups,
    /// spurious wakeups, total blocked time, and publication-to-observation
    /// latency. Buffers are per-stage, so these are the per-stage wait
    /// metrics of the control plane.
    pub fn wait_stats(&self) -> WaitStats {
        self.shared.counters.snapshot()
    }

    /// Registers an owned wake target (a runtime task waker) for wakeups
    /// on every publication or close. Idempotent, so pollable stage
    /// drivers call it at the top of every poll slice.
    pub(crate) fn subscribe_target(&self, target: &std::sync::Arc<dyn crate::notify::WakeTarget>) {
        self.shared.watchers.subscribe_target(target);
    }

    /// Waits for a version newer than `than` (or any version if `None`),
    /// aborting promptly if `ctl` stops the automaton.
    ///
    /// # Errors
    ///
    /// - [`CoreError::Stopped`] if the automaton is stopped while waiting.
    /// - [`CoreError::SourceClosed`] if the producer exits without
    ///   publishing anything newer.
    pub fn wait_newer(&self, than: Option<Version>, ctl: &ControlToken) -> Result<Snapshot<T>> {
        self.wait_for_snapshot(Some(ctl), None, |snap| {
            than.is_none_or(|v| snap.version() > v)
        })
    }

    /// Waits up to `timeout` for a version newer than `than`.
    ///
    /// The deadline is exact: there is no polling quantum to overshoot.
    ///
    /// # Errors
    ///
    /// - [`CoreError::Timeout`] if nothing newer appears in time.
    /// - [`CoreError::SourceClosed`] if the producer exits first.
    pub fn wait_newer_timeout(
        &self,
        than: Option<Version>,
        timeout: Duration,
    ) -> Result<Snapshot<T>> {
        self.wait_for_snapshot(None, Some(Instant::now() + timeout), |snap| {
            than.is_none_or(|v| snap.version() > v)
        })
    }

    /// Waits up to `timeout` for a version newer than `than`, aborting
    /// promptly if `ctl` stops the automaton.
    ///
    /// # Errors
    ///
    /// - [`CoreError::Stopped`] if the automaton is stopped while waiting.
    /// - [`CoreError::Timeout`] if nothing newer appears in time.
    /// - [`CoreError::SourceClosed`] if the producer exits first.
    pub fn wait_newer_timeout_with(
        &self,
        than: Option<Version>,
        timeout: Duration,
        ctl: &ControlToken,
    ) -> Result<Snapshot<T>> {
        self.wait_for_snapshot(Some(ctl), Some(Instant::now() + timeout), |snap| {
            than.is_none_or(|v| snap.version() > v)
        })
    }

    /// Waits up to `timeout` for the terminal version: the final (precise)
    /// output or, under graceful degradation
    /// ([`crate::FailurePolicy::Degrade`]), the last published approximate
    /// version flagged via [`Snapshot::is_degraded`].
    ///
    /// The deadline is exact: there is no polling quantum to overshoot.
    ///
    /// # Errors
    ///
    /// - [`CoreError::Timeout`] if no terminal version appears in time.
    /// - [`CoreError::SourceClosed`] if the producer exits without one.
    pub fn wait_final_timeout(&self, timeout: Duration) -> Result<Snapshot<T>> {
        self.wait_for_snapshot(None, Some(Instant::now() + timeout), Snapshot::is_terminal)
    }

    /// Waits up to `timeout` for the terminal (final or degraded) version,
    /// aborting promptly — at wakeup latency, not a polling quantum — if
    /// `ctl` stops the automaton.
    ///
    /// # Errors
    ///
    /// - [`CoreError::Stopped`] if the automaton is stopped while waiting.
    /// - [`CoreError::Timeout`] if no terminal version appears in time.
    /// - [`CoreError::SourceClosed`] if the producer exits without one.
    pub fn wait_final_timeout_with(
        &self,
        timeout: Duration,
        ctl: &ControlToken,
    ) -> Result<Snapshot<T>> {
        self.wait_for_snapshot(
            Some(ctl),
            Some(Instant::now() + timeout),
            Snapshot::is_terminal,
        )
    }

    /// The shared event-driven wait loop behind every `wait_*` method.
    ///
    /// Checks, in priority order: stop (when `ctl` is given), an accepted
    /// snapshot, producer exit, then the deadline. If none applies it
    /// blocks on a wait set registered with the buffer's watchers (and the
    /// control token's, when given) so any publication, close, or control
    /// transition wakes it immediately.
    fn wait_for_snapshot(
        &self,
        ctl: Option<&ControlToken>,
        deadline: Option<Instant>,
        accept: impl Fn(&Snapshot<T>) -> bool,
    ) -> Result<Snapshot<T>> {
        let check = |st: &State<T>, after_wake: bool| -> Option<Result<Snapshot<T>>> {
            if ctl.is_some_and(ControlToken::is_stopped) {
                return Some(Err(CoreError::Stopped));
            }
            if let Some(snap) = st.latest.as_ref() {
                if accept(snap) {
                    if after_wake {
                        self.shared
                            .counters
                            .record_observation(snap.published_at.elapsed());
                        self.shared
                            .recorder
                            .observe(self.shared.stage, snap.version().get());
                    }
                    return Some(Ok(snap.clone()));
                }
            }
            if st.closed {
                return Some(Err(CoreError::SourceClosed {
                    buffer: self.shared.name.clone(),
                }));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Some(Err(CoreError::Timeout));
            }
            None
        };

        // Fast path: resolve without registering or blocking.
        if let Some(result) = check(&lock_unpoisoned(&self.shared.state), false) {
            return result;
        }

        // Slow path: register for wakeups from the buffer and (if given)
        // the control token, then block between predicate checks.
        let ws = WaitSet::new();
        let _buffer_watch = self.shared.watchers.subscribe(&ws);
        let _ctl_watch = ctl.map(|c| c.subscribe(&ws));
        self.shared.counters.record_wait_entered();
        let blocked_since = Instant::now();
        let mut woken = false;
        loop {
            let seen = ws.epoch();
            if let Some(result) = check(&lock_unpoisoned(&self.shared.state), woken) {
                self.shared
                    .counters
                    .record_wait_finished(blocked_since.elapsed());
                return result;
            }
            if woken {
                // A wakeup delivered between the previous check and this
                // one did not satisfy the wait.
                self.shared.counters.spurious_wakeups.inc();
            }
            woken = match deadline {
                Some(d) => ws.wait_deadline(seen, d),
                None => {
                    ws.wait(seen);
                    true
                }
            };
            if woken {
                self.shared.counters.wakeups.inc();
            }
        }
    }
}

/// A two-slot publication recycler for producers that publish a working
/// output they keep mutating: the synchronous pipeline's distributive
/// stage and the parallel map's merge.
///
/// Publishing through the double buffer alternates between two `Arc`
/// slots. When it is a slot's turn again, the buffer's `latest` has moved
/// on two versions, so — unless a reader still pins that snapshot or
/// history retains it — the slot's `Arc` is unique again and its heap
/// allocation is reused via `clone_from` (for `Vec`-backed payloads this
/// is a capacity-preserving copy, no allocation). Readers are never
/// affected: a pinned snapshot simply forces one fresh allocation.
#[derive(Debug)]
pub struct DoubleBuffer<T> {
    slots: [Option<Arc<T>>; 2],
    next: usize,
    recycled: u64,
    allocated: u64,
}

impl<T> Default for DoubleBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DoubleBuffer<T> {
    /// Creates an empty recycler.
    pub fn new() -> Self {
        Self {
            slots: [None, None],
            next: 0,
            recycled: 0,
            allocated: 0,
        }
    }

    /// Publications that reused a retired allocation.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Publications that had to allocate a fresh payload.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
}

impl<T: Clone> DoubleBuffer<T> {
    /// Stages `value` into the next slot, recycling its retired allocation
    /// when no snapshot still references it.
    fn stage(&mut self, value: &T) -> Arc<T> {
        let slot = &mut self.slots[self.next];
        self.next ^= 1;
        let arc = match slot.take() {
            Some(mut retired) => match Arc::get_mut(&mut retired) {
                Some(payload) => {
                    payload.clone_from(value);
                    self.recycled += 1;
                    retired
                }
                None => {
                    // A reader (or history) still pins the retired
                    // version; leave it alone and allocate fresh.
                    self.allocated += 1;
                    Arc::new(value.clone())
                }
            },
            None => {
                self.allocated += 1;
                Arc::new(value.clone())
            }
        };
        *slot = Some(Arc::clone(&arc));
        arc
    }

    /// Publishes an intermediate version of `value` through `writer`,
    /// recycling a retired allocation when possible.
    ///
    /// # Panics
    ///
    /// Panics if a final version has already been published.
    pub fn publish_from(&mut self, writer: &mut BufferWriter<T>, value: &T, steps: u64) -> Version {
        let staged = self.stage(value);
        writer.publish_arc(staged, steps)
    }

    /// Publishes the final version of `value` through `writer`.
    ///
    /// # Panics
    ///
    /// Panics if a final version has already been published.
    pub fn publish_final_from(
        &mut self,
        writer: &mut BufferWriter<T>,
        value: &T,
        steps: u64,
    ) -> Version {
        let staged = self.stage(value);
        writer.publish_final_arc(staged, steps)
    }

    /// Publishes a terminal degraded version of `value` through `writer`.
    ///
    /// # Panics
    ///
    /// Panics if a (precise) final version has already been published.
    pub fn publish_degraded_from(
        &mut self,
        writer: &mut BufferWriter<T>,
        value: &T,
        steps: u64,
    ) -> Version {
        let staged = self.stage(value);
        writer.publish_degraded_arc(staged, steps)
    }
}

impl<T> fmt::Debug for BufferReader<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = lock_unpoisoned(&self.shared.state);
        f.debug_struct("BufferReader")
            .field("name", &self.shared.name)
            .field("latest", &st.latest.as_ref().map(|s| s.meta()))
            .field("closed", &st.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn publish_and_read_latest() {
        let (mut w, r) = versioned::<i32>("t");
        assert!(r.latest().is_none());
        let v1 = w.publish(10, 1);
        assert_eq!(v1, Version::FIRST);
        assert_eq!(*r.latest().unwrap().value(), 10);
        w.publish(20, 2);
        let snap = r.latest().unwrap();
        assert_eq!(*snap.value(), 20);
        assert_eq!(snap.version().get(), 2);
        assert!(!snap.is_final());
    }

    #[test]
    fn final_version_is_sticky() {
        let (mut w, r) = versioned::<i32>("t");
        w.publish_final(7, 3);
        assert!(w.is_final());
        assert!(r.is_final());
        assert_eq!(r.latest().unwrap().steps(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot publish after the final version")]
    fn publish_after_final_panics() {
        let (mut w, _r) = versioned::<i32>("t");
        w.publish_final(1, 1);
        w.publish(2, 2);
    }

    #[test]
    fn history_records_all_versions() {
        let (mut w, r) = versioned_with::<i32>("t", BufferOptions { keep_history: true });
        w.publish(1, 1);
        w.publish(2, 2);
        w.publish_final(3, 3);
        let hist = r.history().unwrap();
        assert_eq!(hist.len(), 3);
        assert_eq!(*hist[0].value(), 1);
        assert!(hist[2].is_final());
    }

    #[test]
    fn no_history_by_default() {
        let (mut w, r) = versioned::<i32>("t");
        w.publish(1, 1);
        assert!(r.history().is_none());
    }

    #[test]
    fn wait_newer_sees_concurrent_publish() {
        let (mut w, r) = versioned::<i32>("t");
        let ctl = ControlToken::new();
        let h = thread::spawn(move || r.wait_newer(None, &ctl).map(|s| *s.value()));
        thread::sleep(Duration::from_millis(10));
        w.publish(99, 1);
        assert_eq!(h.join().unwrap().unwrap(), 99);
    }

    #[test]
    fn wait_newer_skips_stale_versions() {
        let (mut w, r) = versioned::<i32>("t");
        let ctl = ControlToken::new();
        let v1 = w.publish(1, 1);
        let h = {
            let r = r.clone();
            let ctl = ctl.clone();
            thread::spawn(move || r.wait_newer(Some(v1), &ctl).map(|s| *s.value()))
        };
        thread::sleep(Duration::from_millis(10));
        w.publish(2, 2);
        assert_eq!(h.join().unwrap().unwrap(), 2);
    }

    #[test]
    fn wait_newer_aborts_on_stop() {
        let (_w, r) = versioned::<i32>("t");
        let ctl = ControlToken::new();
        let ctl2 = ctl.clone();
        let h = thread::spawn(move || r.wait_newer(None, &ctl2));
        thread::sleep(Duration::from_millis(10));
        ctl.stop();
        assert!(matches!(h.join().unwrap(), Err(CoreError::Stopped)));
    }

    #[test]
    fn dropped_writer_closes_buffer() {
        let (w, r) = versioned::<i32>("orphan");
        drop(w);
        assert!(r.is_closed());
        let ctl = ControlToken::new();
        assert!(matches!(
            r.wait_newer(None, &ctl),
            Err(CoreError::SourceClosed { .. })
        ));
    }

    #[test]
    fn closed_buffer_still_serves_latest() {
        let (mut w, r) = versioned::<i32>("t");
        w.publish(5, 1);
        drop(w);
        // Last published version survives the producer.
        assert_eq!(*r.latest().unwrap().value(), 5);
        // But waiting for something newer errors out.
        let ctl = ControlToken::new();
        assert!(matches!(
            r.wait_newer(Some(Version::FIRST), &ctl),
            Err(CoreError::SourceClosed { .. })
        ));
        // A stale bound is satisfied by the surviving version.
        assert!(r.wait_newer(None, &ctl).is_ok());
    }

    #[test]
    fn wait_newer_timeout_times_out() {
        let (_w, r) = versioned::<i32>("t");
        let err = r.wait_newer_timeout(None, Duration::from_millis(10));
        assert!(matches!(err, Err(CoreError::Timeout)));
    }

    #[test]
    fn wait_final_timeout_success() {
        let (mut w, r) = versioned::<i32>("t");
        w.publish(1, 1);
        let h = thread::spawn(move || r.wait_final_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        w.publish_final(2, 2);
        assert_eq!(*h.join().unwrap().unwrap().value(), 2);
    }

    #[test]
    fn wait_final_timeout_with_aborts_on_stop() {
        let (_w, r) = versioned::<i32>("t");
        let ctl = ControlToken::new();
        let ctl2 = ctl.clone();
        let h = thread::spawn(move || {
            let start = Instant::now();
            let result = r.wait_final_timeout_with(Duration::from_secs(60), &ctl2);
            (result, start.elapsed())
        });
        thread::sleep(Duration::from_millis(20));
        ctl.stop();
        let (result, waited) = h.join().unwrap();
        assert!(matches!(result, Err(CoreError::Stopped)));
        assert!(
            waited < Duration::from_secs(1),
            "stop took {waited:?} to interrupt the wait"
        );
    }

    #[test]
    fn wait_newer_timeout_with_sees_publication() {
        let (mut w, r) = versioned::<i32>("t");
        let ctl = ControlToken::new();
        let h = {
            let ctl = ctl.clone();
            thread::spawn(move || {
                r.wait_newer_timeout_with(None, Duration::from_secs(5), &ctl)
                    .map(|s| *s.value())
            })
        };
        thread::sleep(Duration::from_millis(10));
        w.publish(41, 1);
        assert_eq!(h.join().unwrap().unwrap(), 41);
    }

    #[test]
    fn zero_duration_timeout_returns_immediately() {
        // Regression: quantized waits used to turn tiny timeouts into a
        // full polling quantum. A zero timeout must resolve immediately —
        // to a snapshot if one qualifies, otherwise to Timeout.
        let (mut w, r) = versioned::<i32>("t");
        let start = Instant::now();
        let err = r.wait_newer_timeout(None, Duration::ZERO);
        assert!(matches!(err, Err(CoreError::Timeout)));
        assert!(start.elapsed() < Duration::from_millis(5));
        w.publish(1, 1);
        let ok = r.wait_newer_timeout(None, Duration::ZERO);
        assert_eq!(*ok.unwrap().value(), 1);
        let err = r.wait_final_timeout(Duration::ZERO);
        assert!(matches!(err, Err(CoreError::Timeout)));
    }

    #[test]
    fn sub_millisecond_timeout_is_respected() {
        // Regression: the old WAIT_QUANTUM floor (1 ms) meant a 200 µs
        // timeout overshot its deadline by up to 5x. The event-driven wait
        // honors the exact deadline.
        let (_w, r) = versioned::<i32>("t");
        let timeout = Duration::from_micros(200);
        let start = Instant::now();
        let err = r.wait_newer_timeout(None, timeout);
        let elapsed = start.elapsed();
        assert!(matches!(err, Err(CoreError::Timeout)));
        assert!(elapsed >= timeout, "returned before the deadline");
        assert!(
            elapsed < timeout + Duration::from_millis(5),
            "overshot a sub-millisecond deadline by {:?}",
            elapsed - timeout
        );
    }

    #[test]
    fn wait_stats_count_blocking_waits() {
        let (mut w, r) = versioned::<i32>("t");
        assert_eq!(r.wait_stats(), WaitStats::default());
        // Fast-path read: no blocking, no counters.
        w.publish(1, 1);
        let ctl = ControlToken::new();
        r.wait_newer(None, &ctl).unwrap();
        assert_eq!(r.wait_stats().waits, 0);
        // Blocking wait: counted, with publication-to-observation latency.
        let h = {
            let r = r.clone();
            let ctl = ctl.clone();
            thread::spawn(move || r.wait_newer(Some(Version::FIRST), &ctl).unwrap())
        };
        thread::sleep(Duration::from_millis(10));
        w.publish(2, 2);
        h.join().unwrap();
        let stats = r.wait_stats();
        assert_eq!(stats.waits, 1);
        assert!(stats.wakeups >= 1);
        assert_eq!(stats.observations, 1);
        assert!(stats.total_wait >= Duration::from_millis(5));
        assert!(
            stats.total_publish_to_observe < Duration::from_millis(100) * stats.observations as u32
        );
    }

    #[test]
    fn atomic_publication_no_torn_reads() {
        // Publish vectors whose elements must agree; readers must never see
        // a mixed version (Property 3).
        let (mut w, r) = versioned::<Vec<u64>>("t");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            let stop = Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                // relaxed: test stop flag; guards no data
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if let Some(snap) = r.latest() {
                        let v = snap.value();
                        assert!(v.iter().all(|&x| x == v[0]), "torn read: {v:?}");
                    }
                }
            }));
        }
        for i in 0..1000u64 {
            w.publish(vec![i; 64], i);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed); // relaxed: test stop flag; guards no data
        for h in readers {
            h.join().unwrap();
        }
    }

    #[test]
    fn seal_degraded_makes_latest_terminal() {
        let (mut w, r) = versioned_with::<i32>("t", BufferOptions { keep_history: true });
        w.publish(5, 2);
        assert!(w.seal_degraded());
        let snap = r.latest().unwrap();
        assert!(snap.is_degraded());
        assert!(snap.is_terminal());
        assert!(!snap.is_final());
        assert_eq!(*snap.value(), 5);
        assert_eq!(snap.steps(), 2);
        assert!(r.is_degraded());
        // wait_final* resolves to the degraded terminal version.
        let got = r.wait_final_timeout(Duration::from_secs(5)).unwrap();
        assert!(got.is_degraded());
        assert_eq!(*got.value(), 5);
        // The seal is a real (monotone) version in the history.
        let hist = r.history().unwrap();
        assert_eq!(hist.len(), 2);
        assert!(hist[1].version() > hist[0].version());
    }

    #[test]
    fn seal_degraded_without_publications_fails() {
        let (mut w, r) = versioned::<i32>("t");
        assert!(!w.seal_degraded());
        assert!(!r.is_degraded());
        assert!(r.latest().is_none());
    }

    #[test]
    fn seal_degraded_is_idempotent_and_respects_final() {
        let (mut w, r) = versioned::<i32>("t");
        w.publish_final(9, 1);
        // Already precise-terminal: sealing is a no-op success.
        assert!(w.seal_degraded());
        assert!(r.is_final());
        assert!(!r.is_degraded());
        let (mut w2, r2) = versioned::<i32>("u");
        w2.publish(1, 1);
        assert!(w2.seal_degraded());
        let v = r2.latest().unwrap().version();
        assert!(w2.seal_degraded());
        assert_eq!(
            r2.latest().unwrap().version(),
            v,
            "second seal re-published"
        );
    }

    #[test]
    fn publishes_after_degraded_seal_are_dropped() {
        let (mut w, r) = versioned::<i32>("t");
        w.publish(1, 1);
        w.seal_degraded();
        let sealed_version = r.latest().unwrap().version();
        w.publish(99, 2);
        w.publish_final(100, 3);
        let snap = r.latest().unwrap();
        assert_eq!(
            snap.version(),
            sealed_version,
            "late publish replaced the seal"
        );
        assert_eq!(*snap.value(), 1);
        assert_eq!(r.dropped_publishes(), 2);
    }

    #[test]
    fn publish_degraded_is_terminal_and_flagged() {
        let (mut w, r) = versioned::<i32>("t");
        w.publish(1, 1);
        w.publish_degraded(2, 2);
        let snap = r.wait_final_timeout(Duration::ZERO).unwrap();
        assert!(snap.is_degraded());
        assert_eq!(*snap.value(), 2);
        // Terminal: further publications are dropped.
        w.publish(3, 3);
        assert_eq!(*r.latest().unwrap().value(), 2);
        assert_eq!(r.dropped_publishes(), 1);
    }

    #[test]
    fn publish_arc_shares_payload_with_readers() {
        // Zero-copy publication: the reader's snapshot holds the very Arc
        // the producer published — no payload bytes are duplicated.
        let (mut w, r) = versioned::<Vec<u8>>("t");
        let payload = Arc::new(vec![7u8; 1024]);
        w.publish_arc(Arc::clone(&payload), 1);
        let snap = r.latest().unwrap();
        assert!(
            Arc::ptr_eq(&snap.value_arc(), &payload),
            "payload was copied"
        );
        // Exactly three references: ours, `latest`, the snapshot.
        assert_eq!(Arc::strong_count(&payload), 3);
        drop(snap);
        // Replacing the version releases the buffer's reference.
        w.publish_final_arc(Arc::new(vec![8u8; 1024]), 2);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn double_buffer_recycles_retired_allocations() {
        let (mut w, r) = versioned::<Vec<u8>>("t");
        let mut db = DoubleBuffer::new();
        let value = vec![1u8; 4096];
        db.publish_from(&mut w, &value, 1);
        db.publish_from(&mut w, &value, 2);
        assert_eq!(db.allocated(), 2, "both slots start empty");
        // From the third publication on, the two-versions-old slot is no
        // longer referenced by `latest`, so its allocation is reused.
        for steps in 3..=10 {
            db.publish_from(&mut w, &value, steps);
        }
        assert_eq!(db.allocated(), 2);
        assert_eq!(db.recycled(), 8);
        assert_eq!(*r.latest().unwrap().value(), value);
        // A reader pinning a snapshot forces a fresh allocation instead of
        // mutating the version it still observes.
        let pinned = r.latest().unwrap();
        db.publish_from(&mut w, &value, 11);
        db.publish_from(&mut w, &value, 12);
        db.publish_from(&mut w, &value, 13);
        assert_eq!(*pinned.value(), value, "pinned snapshot mutated");
        assert!(db.allocated() >= 3, "pinned snapshot must force an alloc");
    }

    #[test]
    fn history_read_does_not_block_publication() {
        // Regression: history() used to clone the whole snapshot vector
        // while holding the state lock, stalling publish/latest/waits for
        // the duration. With the dedicated history lock, a slow history
        // reader cannot delay the writer.
        let (mut w, r) = versioned_with::<Vec<u8>>("t", BufferOptions { keep_history: true });
        for i in 0..512u64 {
            w.publish(vec![0u8; 64], i + 1);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let r = r.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                // relaxed: test stop flag; guards no data
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let hist = r.history().unwrap();
                    assert!(hist.len() >= 512);
                }
            })
        };
        // Publications proceed under continuous history reads; each one
        // must complete promptly (it only ever holds the history lock for
        // a push, never for a clone).
        let mut worst = Duration::ZERO;
        for i in 0..256u64 {
            let t = Instant::now();
            w.publish(vec![0u8; 64], 513 + i);
            worst = worst.max(t.elapsed());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed); // relaxed: test stop flag; guards no data
        reader.join().unwrap();
        assert!(
            worst < Duration::from_millis(250),
            "a publish stalled {worst:?} behind history readers"
        );
    }

    #[test]
    fn versions_strictly_increase() {
        let (mut w, r) = versioned::<i32>("t");
        let mut last = None;
        for i in 0..10 {
            let v = w.publish(i, i as u64);
            if let Some(prev) = last {
                assert!(v > prev);
            }
            last = Some(v);
        }
        assert_eq!(r.latest().unwrap().version().get(), 10);
    }
}
