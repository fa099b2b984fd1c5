//! Work-stealing task runtime: stages as schedulable tasks on a fixed
//! worker pool.
//!
//! The executor used to pin one OS thread per stage, so a [`crate::serve`]
//! pool of N replicas × S stages burned N×S threads. This module replaces
//! that with a **fixed-size worker pool** the whole process can share:
//!
//! - every stage becomes a resumable *task* that runs a bounded slice of
//!   work per poll and **yields at publish points** instead of owning a
//!   thread: a slice ends after one publication, or after
//!   `MAX_STEPS_PER_SLICE` steps without one;
//! - each worker owns a FIFO deque; externally woken tasks land in a
//!   global **injector**, and idle workers **steal** from their peers'
//!   deques before parking. A worker takes its own deque first, then the
//!   injector, then steals, so a task that yields keeps its worker;
//! - parked workers are woken through the same epoch protocol every
//!   other blocking wait in the crate uses, so wakeups between the queue
//!   check and the park are never lost;
//! - readiness is event-driven: a task waiting for input subscribes its
//!   waker to the upstream buffer's, channel's or control token's
//!   registry of watchers, and the next publication marks it runnable.
//!   No polling loops, no timers except explicit restart backoff.
//!
//! The waker state machine makes lost wakeups impossible without locking
//! around `poll`:
//!
//! ```text
//!            wake()                   worker picks up
//!   IDLE ───────────────▶ QUEUED ───────────────────▶ POLLING
//!    ▲                                                 │    │
//!    │  poll → Pending, no wake arrived                │    │ wake() during poll
//!    └─────────────────────────────────────────────────┘    ▼
//!                 poll → Pending but NOTIFIED ──▶ re-QUEUED (re-poll)
//! ```
//!
//! A wake that arrives while the task is `POLLING` flips it to `NOTIFIED`;
//! the worker observes that when the poll returns `Pending` and requeues
//! instead of idling the task. Because tasks re-check their predicates
//! from scratch at every poll, a wake delivered at *any* point is at worst
//! one spurious re-poll, never a hang.
//!
//! Mechanism vs. policy: this module schedules anonymous tasks; all stage
//! semantics — supervision, restart backoff (a pending poll that also
//! arms a timer), fault accounting, trace events — live in the executor's
//! task wrapper.

use crate::metrics::Counter;
use crate::notify::{lock_unpoisoned, WaitSet, WakeTarget};
use crate::observe::{write_sample, write_type};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// What a task reports back to its worker after a poll slice.
pub(crate) enum TaskPoll {
    /// The task is finished; the runtime drops it. Results travel through
    /// the task's own side channel (the executor wrapper fills its result
    /// slot *before* returning `Ready`).
    Ready,
    /// The task ended its slice at a publication, or after
    /// `MAX_STEPS_PER_SLICE` steps, and has more work now: requeue it at
    /// the back of the worker's deque (round-robin with its peers) rather
    /// than waiting for a wake.
    Yielded,
    /// The task is blocked on an event source it has subscribed its waker
    /// to; leave it idle until the waker fires.
    Pending,
    /// Like `Pending`, but also arm a timer: wake the task at `Instant`
    /// even if no event fires first. Used for restart backoff.
    PendingUntil(Instant),
}

/// A resumable unit of stage work scheduled by the runtime.
///
/// `poll` must be non-blocking: run at most a bounded slice (up to one
/// publication, or `MAX_STEPS_PER_SLICE` steps), subscribe `wake` to
/// every event source the task may wait on, and return.
/// Subscription-before-predicate-check ordering is the caller's
/// responsibility; [`crate::notify::Watchers::subscribe_target`] is
/// idempotent, so subscribing at the top of every poll is the easy way
/// to be correct.
pub(crate) trait RtTask: Send {
    /// Stage name, for worker thread diagnostics.
    fn name(&self) -> &str;
    /// Run one slice of work.
    fn poll(&mut self, wake: &Arc<dyn WakeTarget>) -> TaskPoll;
}

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const POLLING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Per-task wake handle: flips the scheduling state machine and hands the
/// task id to the injector when a parked task becomes runnable.
pub(crate) struct TaskWaker {
    state: AtomicU8,
    id: usize,
    rt: Weak<RtShared>,
}

impl TaskWaker {
    fn wake(&self) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        if let Some(rt) = self.rt.upgrade() {
                            rt.counters.wakes.inc();
                            rt.inject(self.id);
                        }
                        return;
                    }
                }
                POLLING => {
                    if self
                        .state
                        .compare_exchange(POLLING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // QUEUED / NOTIFIED / DONE: the wake is already covered —
                // the task will (re-)poll and re-check its predicates.
                _ => return,
            }
        }
    }
}

impl WakeTarget for TaskWaker {
    fn on_wake(&self) {
        self.wake();
    }
}

struct TaskEntry {
    /// Taken (left `None`) while a worker is polling the task, so the
    /// table lock is never held across a poll.
    task: Option<Box<dyn RtTask>>,
    waker: Arc<TaskWaker>,
    /// The waker coerced once, handed to every poll for subscriptions.
    wake_target: Arc<dyn WakeTarget>,
}

#[derive(Default)]
struct TaskTable {
    slots: Vec<Option<TaskEntry>>,
    free: Vec<usize>,
}

impl TaskTable {
    /// Reserves an empty slot; the caller fills it before unlocking.
    fn reserve(&mut self) -> usize {
        match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        }
    }

    fn remove(&mut self, id: usize) -> Option<TaskEntry> {
        let entry = self.slots.get_mut(id)?.take();
        if entry.is_some() {
            self.free.push(id);
        }
        entry
    }
}

#[derive(Default)]
struct RtCounters {
    spawned: Counter,
    polls: Counter,
    yields: Counter,
    steals: Counter,
    parks: Counter,
    wakes: Counter,
    timer_fires: Counter,
}

struct RtShared {
    workers: usize,
    /// Externally woken / freshly spawned tasks.
    injector: Mutex<VecDeque<usize>>,
    /// One FIFO deque per worker; owners pop the front, thieves the back.
    deques: Vec<Mutex<VecDeque<usize>>>,
    tasks: Mutex<TaskTable>,
    /// Armed restart-backoff timers. Small (one per backing-off stage), so
    /// a scanned `Vec` beats a heap in both code and contention.
    timers: Mutex<Vec<(Instant, Arc<TaskWaker>)>>,
    /// Shared park signal: workers sleep on the epoch protocol here.
    park: WaitSet,
    parked: AtomicUsize,
    shutdown: AtomicBool,
    /// Tasks spawned and not yet finished.
    live: AtomicUsize,
    counters: RtCounters,
    steal_rr: AtomicUsize,
}

impl RtShared {
    fn inject(&self, id: usize) {
        lock_unpoisoned(&self.injector).push_back(id);
        self.park.wake();
    }

    fn push_local(&self, worker: usize, id: usize) {
        let backlog = {
            let mut deque = lock_unpoisoned(&self.deques[worker]);
            deque.push_back(id);
            deque.len() > 1
        };
        // Only the owning worker pushes here (yield / pending-wake
        // requeues), and it re-checks its deque before parking, so a
        // single requeued task needs no wake — waking a parked peer
        // would just have it steal the task this worker is about to
        // pop, ping-ponging it across workers. A peer only helps once
        // a backlog builds behind the task being requeued.
        // relaxed: advisory gauge; a stale read skips a wake the parked worker's re-park deadline covers
        if backlog && self.parked.load(Ordering::Relaxed) > 0 {
            self.park.wake();
        }
    }

    /// Next runnable task for `worker`: own deque, then injector, then
    /// steal from a peer (round-robin start so thieves spread out).
    fn next_task(&self, worker: usize) -> Option<usize> {
        if let Some(id) = lock_unpoisoned(&self.deques[worker]).pop_front() {
            return Some(id);
        }
        if let Some(id) = lock_unpoisoned(&self.injector).pop_front() {
            return Some(id);
        }
        let n = self.deques.len();
        let start = self.steal_rr.fetch_add(1, Ordering::Relaxed) % n; // relaxed: rotation hint only
        for off in 0..n {
            let victim = (start + off) % n;
            if victim == worker {
                continue;
            }
            if let Some(id) = lock_unpoisoned(&self.deques[victim]).pop_back() {
                self.counters.steals.inc();
                return Some(id);
            }
        }
        None
    }

    /// Fires due timers; returns the next pending deadline, if any.
    fn fire_timers(&self) -> Option<Instant> {
        let now = Instant::now();
        let mut due = Vec::new();
        let mut next = None;
        {
            let mut timers = lock_unpoisoned(&self.timers);
            timers.retain(|(at, waker)| {
                if *at <= now {
                    due.push(waker.clone());
                    false
                } else {
                    next = Some(next.map_or(*at, |n: Instant| n.min(*at)));
                    true
                }
            });
        }
        for waker in due {
            self.counters.timer_fires.inc();
            waker.wake();
        }
        next
    }

    fn arm_timer(&self, at: Instant, waker: Arc<TaskWaker>) {
        lock_unpoisoned(&self.timers).push((at, waker));
        // A worker may be parked past this deadline; re-park with it.
        self.park.wake();
    }

    fn should_exit(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) && self.live.load(Ordering::Acquire) == 0
    }

    fn run_task(self: &Arc<Self>, worker: usize, id: usize) {
        let (mut task, waker, wake_target) = {
            let mut table = lock_unpoisoned(&self.tasks);
            let Some(entry) = table.slots.get_mut(id).and_then(|s| s.as_mut()) else {
                return;
            };
            let Some(task) = entry.task.take() else {
                return;
            };
            (task, entry.waker.clone(), entry.wake_target.clone())
        };
        waker.state.store(POLLING, Ordering::Release);
        self.counters.polls.inc();
        // The executor's task wrapper fences stage panics itself. This
        // outer fence ends any other task that panics — a parallel-map
        // helper whose chunk computation panicked, or a bug in wrapper
        // bookkeeping — as if it returned `Ready`, so it cannot drain the
        // pool.
        let poll =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.poll(&wake_target)));
        match poll {
            Ok(TaskPoll::Ready) | Err(_) => {
                waker.state.store(DONE, Ordering::Release);
                let entry = lock_unpoisoned(&self.tasks).remove(id);
                drop(entry);
                drop(task);
                if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last task out: let shutting-down workers exit.
                    self.park.wake();
                }
            }
            Ok(TaskPoll::Yielded) => {
                self.counters.yields.inc();
                self.put_back(id, task);
                waker.state.store(QUEUED, Ordering::Release);
                self.push_local(worker, id);
            }
            Ok(TaskPoll::Pending) => {
                self.put_back(id, task);
                self.settle_pending(worker, id, &waker);
            }
            Ok(TaskPoll::PendingUntil(at)) => {
                self.put_back(id, task);
                self.arm_timer(at, waker.clone());
                self.settle_pending(worker, id, &waker);
            }
        }
    }

    fn put_back(&self, id: usize, task: Box<dyn RtTask>) {
        let mut table = lock_unpoisoned(&self.tasks);
        if let Some(entry) = table.slots.get_mut(id).and_then(|s| s.as_mut()) {
            entry.task = Some(task);
        }
    }

    /// After a `Pending` poll: idle the task, unless a wake raced in
    /// during the poll (`NOTIFIED`), in which case requeue immediately.
    fn settle_pending(&self, worker: usize, id: usize, waker: &TaskWaker) {
        if waker
            .state
            .compare_exchange(POLLING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            waker.state.store(QUEUED, Ordering::Release);
            self.push_local(worker, id);
        }
    }
}

fn worker_loop(rt: Arc<RtShared>, index: usize) {
    loop {
        let next_timer = rt.fire_timers();
        if let Some(id) = rt.next_task(index) {
            rt.run_task(index, id);
            continue;
        }
        if rt.should_exit() {
            return;
        }
        // Park on the epoch protocol: read the epoch, re-check for work,
        // then sleep. Any inject/spawn/timer-arm between the epoch read
        // and the wait bumps the epoch first, so the wait returns at once.
        let seen = rt.park.epoch();
        if let Some(id) = rt.next_task(index) {
            rt.run_task(index, id);
            continue;
        }
        if rt.should_exit() {
            return;
        }
        let deadline = next_timer.unwrap_or_else(|| Instant::now() + Duration::from_millis(200));
        rt.parked.fetch_add(1, Ordering::Relaxed); // relaxed: advisory gauge read by push_local
        rt.counters.parks.inc();
        rt.park.wait_deadline(seen, deadline);
        rt.parked.fetch_sub(1, Ordering::Relaxed); // relaxed: advisory gauge read by push_local
    }
}

/// A fixed pool of worker threads executing stage tasks.
///
/// Dropping the runtime shuts it down: workers finish every live task,
/// then exit, and `drop` joins them. The process-wide instance from
/// [`RuntimeHandle::global`] is never dropped.
pub struct Runtime {
    inner: Arc<RtShared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.inner.workers)
            .field("live_tasks", &self.inner.live.load(Ordering::Relaxed)) // relaxed: diagnostics
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Spawns a runtime with `workers` worker threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(RtShared {
            workers,
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            tasks: Mutex::new(TaskTable::default()),
            timers: Mutex::new(Vec::new()),
            park: WaitSet::new(),
            parked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            counters: RtCounters::default(),
            steal_rr: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let rt = inner.clone();
                thread::Builder::new()
                    .name(format!("anytime-rt-{i}"))
                    // lint: allow(l6-no-raw-spawn) -- this IS the worker pool every stage task runs on
                    .spawn(move || worker_loop(rt, i))
                    .expect("spawn runtime worker")
            })
            .collect();
        Self { inner, handles }
    }

    /// A runtime sized to the hardware: `available_parallelism()`, but at
    /// least 2 workers so a stage blocking inside one long step cannot
    /// starve the rest of a pipeline.
    pub fn with_default_workers() -> Self {
        Self::new(default_worker_count())
    }

    /// A cloneable handle for scheduling pipelines onto this runtime.
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            inner: self.inner.clone(),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Scheduling counters for observability and benchmarks.
    pub fn stats(&self) -> RuntimeStats {
        self.handle().stats()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.park.wake();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn default_worker_count() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .max(2)
}

/// Handle to a [`Runtime`] (or to the shared process-wide one): what a
/// [`crate::PipelineBuilder`] needs to schedule stage tasks.
#[derive(Clone)]
pub struct RuntimeHandle {
    inner: Arc<RtShared>,
}

impl RuntimeHandle {
    /// The process-wide shared runtime, created on first use with
    /// `available_parallelism().max(2)` workers. Every pipeline launched
    /// without an explicit runtime lands here, so a 64-replica serve pool
    /// still runs on O(cores) threads.
    pub fn global() -> RuntimeHandle {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(Runtime::with_default_workers).handle()
    }

    /// Number of worker threads behind this handle.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Scheduling counters for observability and benchmarks.
    pub fn stats(&self) -> RuntimeStats {
        let c = &self.inner.counters;
        RuntimeStats {
            workers: self.inner.workers,
            tasks_live: self.inner.live.load(Ordering::Acquire),
            tasks_spawned: c.spawned.get(),
            polls: c.polls.get(),
            yields: c.yields.get(),
            steals: c.steals.get(),
            parks: c.parks.get(),
            wakes: c.wakes.get(),
            timer_fires: c.timer_fires.get(),
        }
    }

    /// Schedules a task; it is polled as soon as a worker frees up.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has begun shutting down (its owning
    /// [`Runtime`] was dropped) — launching a pipeline onto a dead
    /// runtime is a caller bug, and panicking here turns a silent hang
    /// into an immediate diagnosis.
    pub(crate) fn spawn_task(&self, task: Box<dyn RtTask>) {
        assert!(
            !self.inner.shutdown.load(Ordering::Acquire),
            "spawn_task on a shut-down runtime (stage `{}`)",
            task.name()
        );
        self.spawn_from_task(task);
    }

    /// Schedules a task from inside a live task's poll on this runtime
    /// (the parallel map spawning its sampling helpers). Unlike
    /// [`Self::spawn_task`] this succeeds while the runtime shuts down:
    /// the spawning task is still live, so no worker has exited yet, and
    /// workers finish every live task before they exit.
    pub(crate) fn spawn_from_task(&self, task: Box<dyn RtTask>) {
        let rt = &self.inner;
        rt.live.fetch_add(1, Ordering::AcqRel);
        rt.counters.spawned.inc();
        let id = {
            let mut table = lock_unpoisoned(&rt.tasks);
            let id = table.reserve();
            let waker = Arc::new(TaskWaker {
                state: AtomicU8::new(QUEUED),
                id,
                rt: Arc::downgrade(rt),
            });
            let wake_target: Arc<dyn WakeTarget> = waker.clone();
            table.slots[id] = Some(TaskEntry {
                task: Some(task),
                waker,
                wake_target,
            });
            id
        };
        rt.inject(id);
    }
}

impl std::fmt::Debug for RuntimeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeHandle")
            .field("workers", &self.inner.workers)
            .field("tasks_live", &self.inner.live.load(Ordering::Relaxed)) // relaxed: diagnostics
            .finish()
    }
}

/// Point-in-time scheduling counters of a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Tasks currently spawned and unfinished.
    pub tasks_live: usize,
    /// Tasks ever spawned.
    pub tasks_spawned: u64,
    /// Task poll slices executed.
    pub polls: u64,
    /// Polls that ended in a cooperative yield (publish-point boundary).
    pub yields: u64,
    /// Tasks a worker stole from a peer's deque.
    pub steals: u64,
    /// Times a worker parked for lack of work.
    pub parks: u64,
    /// Wakeups delivered to idle tasks by event sources.
    pub wakes: u64,
    /// Restart-backoff timers fired.
    pub timer_fires: u64,
}

impl RuntimeStats {
    /// Prometheus exposition rendering (`anytime_runtime_*` series).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (family, kind, value) in [
            ("anytime_runtime_workers", "gauge", self.workers as u64),
            (
                "anytime_runtime_tasks_live",
                "gauge",
                self.tasks_live as u64,
            ),
            (
                "anytime_runtime_tasks_spawned_total",
                "counter",
                self.tasks_spawned,
            ),
            ("anytime_runtime_polls_total", "counter", self.polls),
            ("anytime_runtime_yields_total", "counter", self.yields),
            ("anytime_runtime_steals_total", "counter", self.steals),
            ("anytime_runtime_parks_total", "counter", self.parks),
            ("anytime_runtime_wakes_total", "counter", self.wakes),
            (
                "anytime_runtime_timer_fires_total",
                "counter",
                self.timer_fires,
            ),
        ] {
            let _ = write_type(&mut out, family, kind);
            let _ = write_sample(&mut out, family, &[], value as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A task that counts down, yielding between decrements.
    struct Countdown {
        name: String,
        left: u32,
        done: Arc<AtomicU32>,
    }

    impl RtTask for Countdown {
        fn name(&self) -> &str {
            &self.name
        }
        fn poll(&mut self, _wake: &Arc<dyn WakeTarget>) -> TaskPoll {
            if self.left == 0 {
                self.done.fetch_add(1, Ordering::SeqCst);
                return TaskPoll::Ready;
            }
            self.left -= 1;
            TaskPoll::Yielded
        }
    }

    fn wait_until(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
        let end = Instant::now() + deadline;
        while Instant::now() < end {
            if pred() {
                return true;
            }
            thread::sleep(Duration::from_millis(1));
        }
        pred()
    }

    #[test]
    fn yielded_tasks_run_to_completion() {
        let rt = Runtime::new(2);
        let done = Arc::new(AtomicU32::new(0));
        for i in 0..8 {
            rt.handle().spawn_task(Box::new(Countdown {
                name: format!("t{i}"),
                left: 50,
                done: done.clone(),
            }));
        }
        assert!(wait_until(Duration::from_secs(10), || done
            .load(Ordering::SeqCst)
            == 8));
        let stats = rt.stats();
        assert_eq!(stats.tasks_spawned, 8);
        assert_eq!(stats.tasks_live, 0);
        assert!(stats.yields >= 8 * 50);
    }

    /// A task that goes Pending until an external flag is set, exercising
    /// the waker path from a non-worker thread.
    struct WaitsForFlag {
        flag: Arc<AtomicBool>,
        waker_out: Arc<Mutex<Option<Arc<dyn WakeTarget>>>>,
        done: Arc<AtomicU32>,
    }

    impl RtTask for WaitsForFlag {
        fn name(&self) -> &str {
            "waits-for-flag"
        }
        fn poll(&mut self, wake: &Arc<dyn WakeTarget>) -> TaskPoll {
            *lock_unpoisoned(&self.waker_out) = Some(wake.clone());
            if self.flag.load(Ordering::SeqCst) {
                self.done.fetch_add(1, Ordering::SeqCst);
                TaskPoll::Ready
            } else {
                TaskPoll::Pending
            }
        }
    }

    #[test]
    fn pending_task_resumes_on_wake() {
        let rt = Runtime::new(1);
        let flag = Arc::new(AtomicBool::new(false));
        let waker_out = Arc::new(Mutex::new(None));
        let done = Arc::new(AtomicU32::new(0));
        rt.handle().spawn_task(Box::new(WaitsForFlag {
            flag: flag.clone(),
            waker_out: waker_out.clone(),
            done: done.clone(),
        }));
        assert!(wait_until(Duration::from_secs(5), || lock_unpoisoned(
            &waker_out
        )
        .is_some()));
        assert_eq!(done.load(Ordering::SeqCst), 0);
        flag.store(true, Ordering::SeqCst);
        let waker = lock_unpoisoned(&waker_out).clone().unwrap();
        waker.on_wake();
        assert!(wait_until(Duration::from_secs(5), || done
            .load(Ordering::SeqCst)
            == 1));
    }

    struct BackoffOnce {
        fired: bool,
        done: Arc<AtomicU32>,
        at: Option<Instant>,
    }

    impl RtTask for BackoffOnce {
        fn name(&self) -> &str {
            "backoff-once"
        }
        fn poll(&mut self, _wake: &Arc<dyn WakeTarget>) -> TaskPoll {
            if self.fired {
                self.done.fetch_add(1, Ordering::SeqCst);
                return TaskPoll::Ready;
            }
            self.fired = true;
            let at = Instant::now() + Duration::from_millis(30);
            self.at = Some(at);
            TaskPoll::PendingUntil(at)
        }
    }

    #[test]
    fn pending_until_fires_timer() {
        let rt = Runtime::new(1);
        let done = Arc::new(AtomicU32::new(0));
        let start = Instant::now();
        rt.handle().spawn_task(Box::new(BackoffOnce {
            fired: false,
            done: done.clone(),
            at: None,
        }));
        assert!(wait_until(Duration::from_secs(5), || done
            .load(Ordering::SeqCst)
            == 1));
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "timer fired too early: {:?}",
            start.elapsed()
        );
        assert!(rt.stats().timer_fires >= 1);
    }

    /// Interleaving stress for the deque/injector/waker protocol: many
    /// external threads hammer wakes at tasks that ping-pong through
    /// Pending while workers poll and steal. Every task must see every
    /// increment (no lost wakeups) and finish exactly once.
    #[test]
    fn stress_concurrent_wakes_and_steals() {
        const TASKS: usize = 16;
        const TARGET: u32 = 200;

        struct CountTo {
            n: Arc<AtomicU32>,
            done: Arc<AtomicU32>,
        }
        impl RtTask for CountTo {
            fn name(&self) -> &str {
                "count-to"
            }
            fn poll(&mut self, _wake: &Arc<dyn WakeTarget>) -> TaskPoll {
                // Predicate re-checked from scratch each poll: the classic
                // "subscribe then check" shape, with subscription standing
                // in for the waker the feeder thread already holds.
                if self.n.load(Ordering::SeqCst) >= TARGET {
                    self.done.fetch_add(1, Ordering::SeqCst);
                    TaskPoll::Ready
                } else {
                    TaskPoll::Pending
                }
            }
        }

        let rt = Runtime::new(3);
        let done = Arc::new(AtomicU32::new(0));
        /// Where a task publishes its current waker for the test to fire.
        type WakerSlot = Arc<Mutex<Option<Arc<dyn WakeTarget>>>>;
        let waker_slots: Vec<WakerSlot> = (0..TASKS).map(|_| Arc::new(Mutex::new(None))).collect();
        let counts: Vec<Arc<AtomicU32>> = (0..TASKS).map(|_| Arc::new(AtomicU32::new(0))).collect();

        struct Publish {
            inner: CountTo,
            slot: WakerSlot,
        }
        impl RtTask for Publish {
            fn name(&self) -> &str {
                "count-to"
            }
            fn poll(&mut self, wake: &Arc<dyn WakeTarget>) -> TaskPoll {
                *lock_unpoisoned(&self.slot) = Some(wake.clone());
                self.inner.poll(wake)
            }
        }

        for i in 0..TASKS {
            rt.handle().spawn_task(Box::new(Publish {
                inner: CountTo {
                    n: counts[i].clone(),
                    done: done.clone(),
                },
                slot: waker_slots[i].clone(),
            }));
        }

        // Feeder threads: bump a task's counter, then wake it — racing
        // against polls, steals and parks.
        let feeders: Vec<_> = (0..TASKS)
            .map(|i| {
                let n = counts[i].clone();
                let slot = waker_slots[i].clone();
                thread::spawn(move || {
                    for _ in 0..TARGET {
                        n.fetch_add(1, Ordering::SeqCst);
                        if let Some(w) = lock_unpoisoned(&slot).clone() {
                            w.on_wake();
                        }
                        std::hint::spin_loop();
                    }
                    // Final wake after the target is definitely visible.
                    loop {
                        if let Some(w) = lock_unpoisoned(&slot).clone() {
                            w.on_wake();
                            break;
                        }
                        thread::yield_now();
                    }
                })
            })
            .collect();
        for f in feeders {
            f.join().unwrap();
        }
        assert!(
            wait_until(Duration::from_secs(20), || done.load(Ordering::SeqCst)
                == TASKS as u32),
            "tasks finished: {}/{TASKS}, stats: {:?}",
            done.load(Ordering::SeqCst),
            rt.stats()
        );
    }

    #[test]
    fn drop_joins_workers_after_tasks_finish() {
        let done = Arc::new(AtomicU32::new(0));
        {
            let rt = Runtime::new(2);
            rt.handle().spawn_task(Box::new(Countdown {
                name: "c".into(),
                left: 20,
                done: done.clone(),
            }));
            // Drop immediately: shutdown must still run the task to done.
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_render_through_the_shared_writers() {
        let s = RuntimeStats {
            workers: 2,
            tasks_live: 1,
            tasks_spawned: 3,
            polls: 4,
            yields: 5,
            steals: 6,
            parks: 7,
            wakes: 8,
            timer_fires: 9,
        };
        let text = s.prometheus();
        assert!(text.contains("# TYPE anytime_runtime_workers gauge\nanytime_runtime_workers 2\n"));
        assert!(text
            .contains("# TYPE anytime_runtime_tasks_live gauge\nanytime_runtime_tasks_live 1\n"));
        assert!(text.contains(
            "# TYPE anytime_runtime_polls_total counter\nanytime_runtime_polls_total 4\n"
        ));
        assert_eq!(text.lines().count(), 18, "{text}");
    }

    #[test]
    fn global_runtime_is_shared_and_sized() {
        let a = RuntimeHandle::global();
        let b = RuntimeHandle::global();
        assert_eq!(a.workers(), b.workers());
        assert!(a.workers() >= 2);
        let s = a.stats();
        assert!(s.prometheus().contains("anytime_runtime_workers"));
    }
}
