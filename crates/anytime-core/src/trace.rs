//! Structured trace layer: a lock-light, bounded, per-thread event ring.
//!
//! Every figure in the paper's evaluation is an accuracy-vs-time curve,
//! yet aggregates alone cannot reconstruct one: they say how a run ended,
//! not *when* each version was published, at what accuracy, or what the
//! executor and serving layer were doing at that moment. This module
//! records exactly that trajectory as a stream of [`TraceEvent`]s —
//! publish/observe on the buffer plane, restart/stall/degrade on the
//! supervision plane, admit/shed/retry on the serving plane — each
//! stamped with monotonic time since the recorder's epoch, a stage id, a
//! version level, and accuracy when available.
//!
//! ## Design
//!
//! - A [`Recorder`] is a cheap-clone handle threaded through
//!   [`crate::Pipeline`], [`crate::Automaton`], the supervisor, and
//!   [`crate::serve::ServePool`]. The default recorder is **disabled**:
//!   recording is a single `Option` check and event arguments are not even
//!   materialized (the closure passed to [`Recorder::emit_with`] never
//!   runs).
//! - When enabled, each publishing thread lazily acquires its own bounded
//!   ring. Pushing locks only that thread's ring and uses `try_lock`, so a
//!   publisher **never blocks**: contention with a draining collector, like
//!   overflow, drops events (oldest first) and counts the drop instead of
//!   stalling the pipeline it is observing.
//! - [`Recorder::drain`] merges all rings into a time-sorted [`TraceLog`],
//!   which exports to Chrome `trace_event` JSON (flamegraph-style timeline
//!   viewing in `chrome://tracing` / Perfetto) and to JSONL (one event per
//!   line, consumed by the bench harness to regenerate accuracy-vs-time
//!   curves from real runs).
//!
//! Counter-style metrics are the other half of observability; see
//! [`crate::metrics`] for the counter sets and [`crate::observe`] for the
//! Prometheus text exposition they render through.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::Counter;
use crate::notify::lock_unpoisoned;
use std::time::{Duration, Instant};

/// Default per-thread ring capacity (events) for [`Recorder::enabled`].
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Identifies a stage (or serve-pool replica) in trace events.
///
/// Obtained by interning a name with [`Recorder::stage`]; resolved back to
/// the name by [`TraceLog::stage_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub(crate) u32);

impl StageId {
    /// The raw interned index.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// What happened, one variant per event in the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A stage published a new output version.
    Publish,
    /// A waiter observed a published version at the end of a blocking wait,
    /// or the serving layer scored an observed snapshot (then `accuracy`
    /// and `req` are set).
    Observe,
    /// A stage driver was re-run after a panic under
    /// [`crate::FailurePolicy::Restart`].
    Restart,
    /// The progress watchdog declared a stage stalled.
    Stall,
    /// A stage output buffer was sealed degraded.
    Degrade,
    /// A stage failure became permanent.
    PermanentFailure,
    /// A serve request passed admission control.
    Admit,
    /// A serve request was rejected fast at admission.
    Reject,
    /// The analytical admission gate found a request feasible (`dur` is
    /// its calibrated worst-case response-time bound).
    Feasible,
    /// The analytical admission gate proved a request infeasible and
    /// rejected it (`dur` is the certified lower bound that exceeded the
    /// deadline).
    Infeasible,
    /// Admission shed a serve request: queued with negative analytical
    /// slack, it runs under its floor's worst-case service bound.
    Shed,
    /// A serve request was relaunched after a permanent replica failure.
    Retry,
    /// A serve request completed with a snapshot (`dur` is its latency).
    RequestDone,
    /// An admitted serve request failed with no snapshot.
    RequestFailed,
    /// `resize()` scale-up added a fresh worker.
    WorkerAdded,
    /// A worker was gracefully drained (finished its run, took no new
    /// work) and joined during `resize()`.
    WorkerDrained,
}

impl EventKind {
    /// Stable lowercase name used in JSONL and Chrome exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Publish => "publish",
            Self::Observe => "observe",
            Self::Restart => "restart",
            Self::Stall => "stall",
            Self::Degrade => "degrade",
            Self::PermanentFailure => "permanent_failure",
            Self::Admit => "admit",
            Self::Reject => "reject",
            Self::Feasible => "feasible",
            Self::Infeasible => "infeasible",
            Self::Shed => "shed",
            Self::Retry => "retry",
            Self::RequestDone => "request_done",
            Self::RequestFailed => "request_failed",
            Self::WorkerAdded => "worker_added",
            Self::WorkerDrained => "worker_drained",
        }
    }
}

/// One recorded event.
///
/// `at` is monotonic time since the owning recorder's epoch (its creation);
/// the remaining fields are optional payload, set when meaningful for the
/// event's [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Monotonic time since the recorder's epoch.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
    /// The stage (or replica) this event concerns.
    pub stage: Option<StageId>,
    /// Output version level, for publish/observe events.
    pub version: Option<u64>,
    /// Anytime steps completed at this event.
    pub steps: Option<u64>,
    /// Accuracy score, when one was available at the event.
    pub accuracy: Option<f64>,
    /// Serve request id, for serving-plane events.
    pub req: Option<u64>,
    /// Span duration ending at `at` (e.g. request latency).
    pub dur: Option<Duration>,
    /// Whether this event concerns a terminal (final) version.
    pub terminal: bool,
    /// Whether this event concerns a degraded version or response.
    pub degraded: bool,
}

impl TraceEvent {
    /// A bare event at `at` with no payload.
    pub fn new(at: Duration, kind: EventKind) -> Self {
        Self {
            at,
            kind,
            stage: None,
            version: None,
            steps: None,
            accuracy: None,
            req: None,
            dur: None,
            terminal: false,
            degraded: false,
        }
    }
}

/// One thread's bounded event ring.
#[derive(Debug, Default)]
struct Ring {
    events: Mutex<VecDeque<TraceEvent>>,
    /// Events lost on this ring: overflow (oldest evicted) plus pushes that
    /// found the collector holding the lock.
    dropped: Counter,
}

impl Ring {
    /// Pushes without ever blocking: a contended lock (the collector is
    /// draining) or a full ring costs an event, never a stall.
    fn push(&self, ev: TraceEvent, capacity: usize) {
        match self.events.try_lock() {
            Ok(mut q) => {
                if q.len() >= capacity {
                    q.pop_front();
                    self.dropped.inc();
                }
                q.push_back(ev);
            }
            Err(_) => {
                self.dropped.inc();
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Distinguishes recorders in the thread-local ring cache (an address
    /// can be reused after a recorder is dropped; this id cannot).
    id: u64,
    epoch: Instant,
    capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Interned stage names; a [`StageId`] indexes this table.
    stages: Mutex<Vec<String>>,
}

/// Source of unique recorder ids for the thread-local ring cache.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's rings, keyed by recorder id. The vector is tiny (one
    /// entry per live enabled recorder this thread has published to).
    static LOCAL_RINGS: RefCell<Vec<(u64, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
}

/// A cheap-clone handle for recording trace events.
///
/// The default ([`Recorder::disabled`]) recorder drops everything at the
/// cost of one branch; [`Recorder::enabled`] buffers events in bounded
/// per-thread rings drained by [`Recorder::drain`]. Clones share the same
/// rings and stage table.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder: records nothing, costs one branch per event.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled recorder whose per-thread rings hold up to `capacity`
    /// events each (oldest dropped first on overflow, and counted).
    ///
    /// A zero capacity is bumped to 1 so the ring type never divides by
    /// its own emptiness.
    pub fn enabled(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed), // relaxed: id allocator; uniqueness only, no ordering
                epoch: Instant::now(),
                capacity: capacity.max(1),
                rings: Mutex::new(Vec::new()),
                stages: Mutex::new(Vec::new()),
            })),
        }
    }

    /// `true` if events are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Interns `name`, returning the id trace events should carry.
    ///
    /// Repeated calls with the same name return the same id. On a disabled
    /// recorder this returns a placeholder id (no table exists to intern
    /// into), which is fine: a disabled recorder never stores events.
    pub fn stage(&self, name: &str) -> StageId {
        let Some(inner) = &self.inner else {
            return StageId(0);
        };
        let mut stages = lock_unpoisoned(&inner.stages);
        if let Some(i) = stages.iter().position(|s| s == name) {
            return StageId(i as u32);
        }
        stages.push(name.to_owned());
        StageId((stages.len() - 1) as u32)
    }

    /// Records the event built by `make`, which receives the monotonic
    /// time since the recorder's epoch.
    ///
    /// On a disabled recorder `make` is never called, so call sites pay
    /// only the branch — argument gathering lives inside the closure.
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce(Duration) -> TraceEvent) {
        let Some(inner) = &self.inner else { return };
        let ev = make(inner.epoch.elapsed());
        self.push(inner, ev);
    }

    fn push(&self, inner: &Arc<Inner>, ev: TraceEvent) {
        LOCAL_RINGS.with(|cell| {
            let mut local = cell.borrow_mut();
            if let Some((_, ring)) = local.iter().find(|(id, _)| *id == inner.id) {
                ring.push(ev, inner.capacity);
                return;
            }
            let ring = Arc::new(Ring::default());
            lock_unpoisoned(&inner.rings).push(Arc::clone(&ring));
            ring.push(ev, inner.capacity);
            local.push((inner.id, ring));
        });
    }

    /// Records a publication of `version` by `stage`.
    #[inline]
    pub fn publish(
        &self,
        stage: StageId,
        version: u64,
        steps: u64,
        terminal: bool,
        degraded: bool,
    ) {
        self.emit_with(|at| {
            let mut ev = TraceEvent::new(at, EventKind::Publish);
            ev.stage = Some(stage);
            ev.version = Some(version);
            ev.steps = Some(steps);
            ev.terminal = terminal;
            ev.degraded = degraded;
            ev
        });
    }

    /// Records a blocking waiter observing `version` of `stage`.
    #[inline]
    pub fn observe(&self, stage: StageId, version: u64) {
        self.emit_with(|at| {
            let mut ev = TraceEvent::new(at, EventKind::Observe);
            ev.stage = Some(stage);
            ev.version = Some(version);
            ev
        });
    }

    /// Records a serving-layer quality observation: request `req` saw
    /// `version` scoring `accuracy`.
    #[inline]
    pub fn observe_quality(&self, req: u64, stage: StageId, version: u64, accuracy: f64) {
        self.emit_with(|at| {
            let mut ev = TraceEvent::new(at, EventKind::Observe);
            ev.req = Some(req);
            ev.stage = Some(stage);
            ev.version = Some(version);
            ev.accuracy = Some(accuracy);
            ev
        });
    }

    /// Records a supervision-plane event (`Restart`, `Stall`, `Degrade`,
    /// `PermanentFailure`) on `stage`.
    #[inline]
    pub fn stage_event(&self, kind: EventKind, stage: StageId) {
        self.emit_with(|at| {
            let mut ev = TraceEvent::new(at, kind);
            ev.stage = Some(stage);
            ev
        });
    }

    /// Records a serving-plane event (`Admit`, `Reject`, `Shed`, `Retry`)
    /// for request `req`.
    #[inline]
    pub fn serve_event(&self, kind: EventKind, req: u64) {
        self.emit_with(|at| {
            let mut ev = TraceEvent::new(at, kind);
            ev.req = Some(req);
            ev
        });
    }

    /// Records an admission-analysis verdict (`Feasible`, `Infeasible`)
    /// for request `req`, with the response-time bound the verdict rests
    /// on in `dur` (worst-case bound when feasible, certified lower bound
    /// when proven infeasible) and the request's quality floor in
    /// `accuracy`.
    #[inline]
    pub fn feasibility(&self, kind: EventKind, req: u64, bound: Duration, floor: f64) {
        self.emit_with(|at| {
            let mut ev = TraceEvent::new(at, kind);
            ev.req = Some(req);
            ev.dur = Some(bound);
            ev.accuracy = Some(floor);
            ev
        });
    }

    /// Records the end of serve request `req`: its latency span, final
    /// accuracy when one was scored, and whether the response was degraded.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn request_end(
        &self,
        kind: EventKind,
        req: u64,
        replica: Option<StageId>,
        elapsed: Duration,
        accuracy: Option<f64>,
        terminal: bool,
        degraded: bool,
    ) {
        self.emit_with(|at| {
            let mut ev = TraceEvent::new(at, kind);
            ev.req = Some(req);
            ev.stage = replica;
            ev.dur = Some(elapsed);
            ev.accuracy = accuracy;
            ev.terminal = terminal;
            ev.degraded = degraded;
            ev
        });
    }

    /// Drains every thread's ring into a time-sorted [`TraceLog`].
    ///
    /// Returns only events recorded since the previous drain; the stage
    /// table and the dropped count are cumulative. Safe to call while the
    /// traced system is running — publishers racing the drain lose at most
    /// the events they tried to push during it (counted as dropped).
    pub fn drain(&self) -> TraceLog {
        let Some(inner) = &self.inner else {
            return TraceLog::default();
        };
        let rings: Vec<Arc<Ring>> = lock_unpoisoned(&inner.rings).clone();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in &rings {
            let mut q = lock_unpoisoned(&ring.events);
            events.extend(q.drain(..));
            drop(q);
            dropped += ring.dropped.get();
        }
        events.sort_by_key(|ev| ev.at);
        let stages = lock_unpoisoned(&inner.stages).clone();
        TraceLog {
            events,
            stages,
            dropped,
        }
    }

    /// Total events dropped so far (ring overflow plus drain contention),
    /// across all threads. Zero for a disabled recorder.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => lock_unpoisoned(&inner.rings)
                .iter()
                .map(|r| r.dropped.get())
                .sum(),
        }
    }
}

/// A drained, time-sorted batch of trace events plus the stage-name table.
///
/// Produced by [`Recorder::drain`]; successive drains can be folded
/// together with [`TraceLog::merge`]. Exports to Chrome `trace_event` JSON
/// and JSONL are pure functions of the log, so they are deterministic and
/// unit-testable against golden files.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    stages: Vec<String>,
    dropped: u64,
}

impl TraceLog {
    /// Builds a log directly from parts (tests, synthetic timelines).
    pub fn from_parts(events: Vec<TraceEvent>, stages: Vec<String>, dropped: u64) -> Self {
        let mut events = events;
        events.sort_by_key(|ev| ev.at);
        Self {
            events,
            stages,
            dropped,
        }
    }

    /// The events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The interned stage-name table.
    pub fn stages(&self) -> &[String] {
        &self.stages
    }

    /// Resolves a stage id to its name (`"?"` if unknown).
    pub fn stage_name(&self, id: StageId) -> &str {
        self.stages.get(id.0 as usize).map_or("?", String::as_str)
    }

    /// Cumulative events dropped by the recorder at drain time.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` if no events were captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Folds a later drain into this log, keeping time order.
    pub fn merge(&mut self, later: TraceLog) {
        self.events.extend(later.events);
        self.events.sort_by_key(|ev| ev.at);
        if later.stages.len() > self.stages.len() {
            self.stages = later.stages;
        }
        self.dropped = self.dropped.max(later.dropped);
    }

    /// Renders the log as Chrome `trace_event` JSON (the array form), for
    /// loading into `chrome://tracing` or Perfetto.
    ///
    /// Each stage becomes a named "thread"; events with a duration span
    /// render as complete (`"X"`) slices, everything else as thread-scoped
    /// instants. Timestamps are integer microseconds since the recorder's
    /// epoch.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str("  ");
            out.push_str(&line);
        };
        push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"anytime\"}}"
                .to_owned(),
            &mut out,
        );
        for (i, name) in self.stages.iter().enumerate() {
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    i + 1,
                    escape_json(name)
                ),
                &mut out,
            );
        }
        for ev in &self.events {
            let tid = ev.stage.map_or(0, |s| s.0 as u64 + 1);
            let ts = ev.at.as_micros();
            let args = self.event_args(ev);
            let line = match ev.dur {
                Some(dur) => {
                    let dur_us = dur.as_micros();
                    let start = ts.saturating_sub(dur_us);
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                         \"ts\":{start},\"dur\":{dur_us},\"args\":{args}}}",
                        ev.kind.as_str()
                    )
                }
                None => format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{ts},\"args\":{args}}}",
                    ev.kind.as_str()
                ),
            };
            push(line, &mut out);
        }
        out.push_str("\n]\n");
        out
    }

    fn event_args(&self, ev: &TraceEvent) -> String {
        let mut args = String::from("{");
        let mut sep = "";
        let mut field = |s: String, args: &mut String| {
            args.push_str(sep);
            args.push_str(&s);
            sep = ",";
        };
        if let Some(stage) = ev.stage {
            field(
                format!("\"stage\":\"{}\"", escape_json(self.stage_name(stage))),
                &mut args,
            );
        }
        if let Some(v) = ev.version {
            field(format!("\"version\":{v}"), &mut args);
        }
        if let Some(s) = ev.steps {
            field(format!("\"steps\":{s}"), &mut args);
        }
        if let Some(a) = ev.accuracy {
            field(format!("\"accuracy\":{}", json_f64(a)), &mut args);
        }
        if let Some(r) = ev.req {
            field(format!("\"req\":{r}"), &mut args);
        }
        if ev.terminal {
            field("\"terminal\":true".to_owned(), &mut args);
        }
        if ev.degraded {
            field("\"degraded\":true".to_owned(), &mut args);
        }
        args.push('}');
        args
    }

    /// Renders the log as JSONL: one flat JSON object per event, fields
    /// omitted when absent. This is the format the bench harness parses to
    /// regenerate accuracy-vs-time curves.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            let _ = write!(
                out,
                "{{\"at_us\":{},\"kind\":\"{}\"",
                ev.at.as_micros(),
                ev.kind.as_str()
            );
            if let Some(stage) = ev.stage {
                let _ = write!(
                    out,
                    ",\"stage\":\"{}\"",
                    escape_json(self.stage_name(stage))
                );
            }
            if let Some(v) = ev.version {
                let _ = write!(out, ",\"version\":{v}");
            }
            if let Some(s) = ev.steps {
                let _ = write!(out, ",\"steps\":{s}");
            }
            if let Some(a) = ev.accuracy {
                let _ = write!(out, ",\"accuracy\":{}", json_f64(a));
            }
            if let Some(r) = ev.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            if let Some(d) = ev.dur {
                let _ = write!(out, ",\"dur_us\":{}", d.as_micros());
            }
            if ev.terminal {
                out.push_str(",\"terminal\":true");
            }
            if ev.degraded {
                out.push_str(",\"degraded\":true");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Renders an `f64` as a JSON number (JSON has no non-finite literals, so
/// those clamp to sentinel numbers rather than emitting invalid output).
fn json_f64(v: f64) -> String {
    if v.is_nan() {
        "0".to_owned()
    } else if v == f64::INFINITY {
        "1e308".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-1e308".to_owned()
    } else {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep them JSON floats
        // so downstream parsers see a stable type.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let mut ran = false;
        rec.emit_with(|at| {
            ran = true;
            TraceEvent::new(at, EventKind::Publish)
        });
        assert!(!ran, "disabled recorder must not materialize events");
        assert!(rec.drain().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn records_and_drains_in_time_order() {
        let rec = Recorder::enabled(64);
        let f = rec.stage("f");
        let g = rec.stage("g");
        assert_eq!(rec.stage("f"), f, "interning must be stable");
        rec.publish(f, 1, 16, false, false);
        rec.observe(g, 1);
        rec.publish(f, 2, 32, true, false);
        let log = rec.drain();
        assert_eq!(log.events().len(), 3);
        assert!(log.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(log.stage_name(f), "f");
        assert_eq!(log.stage_name(g), "g");
        // Second drain returns only what was recorded since.
        assert!(rec.drain().is_empty());
        rec.stage_event(EventKind::Restart, f);
        assert_eq!(rec.drain().events().len(), 1);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let rec = Recorder::enabled(4);
        let f = rec.stage("f");
        for v in 0..10u64 {
            rec.publish(f, v, v, false, false);
        }
        let log = rec.drain();
        assert_eq!(log.events().len(), 4, "ring is bounded");
        assert_eq!(log.dropped(), 6, "drops are counted");
        // Oldest dropped first: the survivors are the newest versions.
        let versions: Vec<u64> = log.events().iter().filter_map(|e| e.version).collect();
        assert_eq!(versions, vec![6, 7, 8, 9]);
    }

    #[test]
    fn per_thread_rings_merge_on_drain() {
        let rec = Recorder::enabled(128);
        let f = rec.stage("f");
        thread::scope(|s| {
            for _ in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    for v in 0..8u64 {
                        rec.publish(f, v, v, false, false);
                    }
                });
            }
        });
        let log = rec.drain();
        assert_eq!(log.events().len(), 32);
        assert_eq!(log.dropped(), 0);
        assert!(log.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn merge_folds_successive_drains() {
        let rec = Recorder::enabled(64);
        let f = rec.stage("f");
        rec.publish(f, 1, 1, false, false);
        let mut log = rec.drain();
        rec.publish(f, 2, 2, false, false);
        log.merge(rec.drain());
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.stage_name(f), "f");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let rec = Recorder::enabled(64);
        let f = rec.stage("f");
        rec.publish(f, 3, 48, true, false);
        rec.observe_quality(7, f, 3, 0.5);
        let jsonl = rec.drain().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"kind\":\"publish\""));
        assert!(lines[0].contains("\"terminal\":true"));
        assert!(lines[1].contains("\"accuracy\":0.5"));
        assert!(lines[1].contains("\"req\":7"));
    }

    #[test]
    fn json_f64_stays_valid_json() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(f64::NEG_INFINITY), "-1e308");
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
