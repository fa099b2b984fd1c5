//! Deadline-budgeted serving: a pool of replica pipelines behind
//! admission control, retries, and budget-capped degradation.
//!
//! The automaton's headline property — stop it at any moment and still
//! hold a valid whole-application output (paper §III) — is exactly the
//! contract a deadline-bound service wants. A [`ServePool`] turns that
//! per-run guarantee into a request/response discipline: N worker threads
//! each run fresh replica pipelines built by a caller-supplied factory,
//! and [`ServePool::submit`] returns the **best snapshot available at the
//! request's deadline**, tagged with its quality and degraded/final
//! status. Robustness machinery guards every path:
//!
//! - **Admission control** — a request whose projected wait (queue depth ×
//!   per-replica latency EWMA) plus minimum service time already exceeds
//!   its deadline is rejected fast with
//!   [`CoreError::AdmissionRejected`], before it can waste capacity other
//!   requests could still use (a queue at capacity rejects with
//!   [`CoreError::QueueFull`] instead).
//! - **Analytical admission** — with an [`RtaPolicy`] installed
//!   ([`ServeOptions::rta`]), the [`crate::rta`] response-time analysis
//!   replaces the EWMA guess once calibrated (online, from the same
//!   quality observations the trace records): a request whose certified
//!   lower bound exceeds its deadline is *proven* infeasible and rejected
//!   with [`CoreError::Infeasible`] carrying the bound, and the retry
//!   backoff is capped by the worst-case service bound.
//! - **Degrade by budget** — the pool's one overload rule, decided at
//!   admission from the same analysis: a request queued behind others
//!   whose worst case misses its deadline (negative slack) keeps its FIFO
//!   place but runs under its floor's worst-case service bound
//!   ([`Analysis::service_upper`]) instead of its whole deadline. Stopping
//!   early is the approximation (paper §III): the run ends once it has
//!   met its floor and used that budget, never before the floor, so
//!   quality degrades and the queue drains; availability does not.
//! - **Retry with capped exponential backoff + deterministic jitter** —
//!   when a replica dies permanently (every [`FailurePolicy`](crate::FailurePolicy) exhausted),
//!   the request is relaunched on a fresh pipeline, with delays drawn
//!   deterministically from the pool seed and request id so chaos runs
//!   reproduce exactly.
//! - **Panic fences** — every caller-supplied closure (factory, quality
//!   estimator) runs behind a `catch_unwind` fence that converts panics
//!   into structured [`CoreError::ReplicaPanicked`] run failures feeding
//!   the retry path, and one more fence around each dequeued request's
//!   whole serve path answers that request with
//!   `ReplicaPanicked { context: "serve", .. }` if anything else unwinds.
//!   A replica thread never dies, so nothing needs healing.
//!   [`ServePool::resize`] grows or shrinks the worker set at runtime
//!   with graceful drains that never drop an in-flight admitted request.
//!
//! A replica is a run slot, not a machine: every replica's pipeline runs
//! on one shared task runtime, and a run samples on all of its workers.
//! The pool therefore has no hedged execution and no per-replica circuit
//! breaker. Both were measured before they were deleted (EXPERIMENTS.md,
//! "A replica is a run slot"). A hedge's second run took workers from its
//! own primary: in the seeded soak, hedging failed 66–77 of 560 requests
//! against 30–55 without it (8 of 8 pairs), and in three series of
//! `serve_demo` runs it had fewer failures in 15 of 40, 13 of 20 and 13 of
//! 40 pairs. Each request builds a fresh pipeline, so a replica holds
//! nothing to quarantine, and the breaker opened in none of the measured
//! soak, demo or benchmark runs.
//!
//! A request is one run: the automaton answers with the best version its
//! run has published (paper §III), and each dequeued request takes one
//! path — build, run, retry, respond. Batched execution, which served
//! several queued requests from one shared run, was measured and deleted
//! too (EXPERIMENTS.md, "A request is one run"). No soak or benchmark
//! workload could reach it, and `serve_demo` formed no batch run. A
//! batch's chains ran on the same runtime workers that separate runs use,
//! so it saved one build, launch and join, not compute.
//!
//! Every counter lands in [`ServeStats`] (see [`crate::metrics`]), and the
//! pool aggregates the [`FaultStats`] of every pipeline run it performed,
//! so a soak run's serve-level numbers reconcile with its per-run reports.

use crate::control::ControlToken;
use crate::error::{CoreError, Result};
use crate::executor::panic_message;
#[cfg(feature = "fault-inject")]
use crate::faultinject::WorkerKillPlan;
use crate::metrics::{
    DeadlineHistogram, FaultStats, GovernorCounters, LatencyEwma, LatencyHistogram, RtaCounters,
    ServeCounters, ServeStats,
};
use crate::pipeline::Pipeline;
use crate::rta::{self, AdmissionGate, Analysis, Backlog, RtaPolicy};
use crate::runtime::RuntimeHandle;
use crate::supervisor::retry_backoff;
use crate::trace::{EventKind, Recorder, StageId, TraceLog};
use crate::version::{Snapshot, Version};
use crate::BufferReader;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
// lint: allow(l1-condvar) -- serve-pool rendezvous re-checks predicates under the same mutex (Slot / queue protocol)
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on how long a submitter keeps waiting after its deadline
/// for the in-flight worker to deliver; a hang guard, never the normal
/// path (workers respond *at* the deadline).
const RESPONSE_GRACE: Duration = Duration::from_secs(30);

/// Retry policy for permanently failed replica runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum relaunches after the first attempt (0 disables retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
        }
    }
}

/// Configuration for a [`ServePool`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Replica workers (each runs one request at a time).
    pub replicas: usize,
    /// Maximum queued (admitted but unstarted) requests.
    pub queue_capacity: usize,
    /// Minimum plausible service time, added to the projected queue wait
    /// at admission: a budget smaller than this is rejected outright.
    pub min_service: Duration,
    /// Service-time estimate used before any completion has fed the
    /// per-replica EWMAs.
    pub default_service_estimate: Duration,
    /// Retry policy for permanently failed runs.
    pub retry: RetryPolicy,
    /// Response-time-analysis policy. When set, the pool calibrates a
    /// [`crate::rta::AdmissionGate`] online from its runs' quality
    /// observations; once calibrated, admission proves infeasible
    /// (deadline, floor) pairs and rejects them with
    /// [`CoreError::Infeasible`], the retry backoff is capped by the
    /// worst-case service bound, and requests with negative slack
    /// behind a queue are shed (see [`ServePool::submit`]). `None` keeps
    /// the EWMA heuristic throughout and never sheds.
    pub rta: Option<RtaPolicy>,
    /// Task runtime the pool's pipelines run on. All replicas share it:
    /// with `None` (the default), launches land on the process-wide
    /// [`RuntimeHandle::global`] pool sized to the hardware, so total
    /// worker threads stay O(cores) no matter how many replicas are
    /// configured. A factory that sets its own runtime via
    /// [`crate::PipelineBuilder::with_runtime`] wins over this option.
    pub runtime: Option<RuntimeHandle>,
    /// Seed for the deterministic retry jitter.
    pub seed: u64,
    /// Trace recorder for serving-plane events (admissions, sheds,
    /// retries, per-request quality observations). The default
    /// disabled recorder makes every emission a no-op; share the same
    /// enabled recorder with the pipelines the factory builds to get one
    /// merged timeline.
    pub recorder: Recorder,
    /// Deterministic worker-kill schedule for chaos tests: the serve path
    /// of a targeted request id unwinds mid-run, exercising the
    /// per-request panic fence and the busy-clear guard.
    #[cfg(feature = "fault-inject")]
    pub worker_kill: Option<WorkerKillPlan>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            replicas: 2,
            queue_capacity: 64,
            min_service: Duration::from_micros(500),
            default_service_estimate: Duration::from_millis(10),
            retry: RetryPolicy::default(),
            rta: None,
            runtime: None,
            seed: 0,
            recorder: Recorder::disabled(),
            #[cfg(feature = "fault-inject")]
            worker_kill: None,
        }
    }
}

impl ServeOptions {
    /// Sets the replica count.
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Sets the queue capacity.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Sets the retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables analytical admission control ([`crate::rta`]).
    pub fn rta(mut self, policy: RtaPolicy) -> Self {
        self.rta = Some(policy);
        self
    }

    /// Installs a deterministic worker-kill schedule for chaos tests.
    #[cfg(feature = "fault-inject")]
    pub fn worker_kill(mut self, plan: WorkerKillPlan) -> Self {
        self.worker_kill = Some(plan);
        self
    }

    /// Pins the pool's pipelines to a specific task runtime (the global
    /// pool is used otherwise).
    pub fn runtime(mut self, runtime: RuntimeHandle) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a trace recorder for serving-plane events.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }
}

/// How a served request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStatus {
    /// The pipeline reached its precise final output before the deadline.
    Final,
    /// The deadline arrived first; the snapshot is the best (still
    /// at-or-above-floor) approximation published by then.
    AtDeadline,
    /// The response is flagged degraded: below its quality floor, sealed
    /// degraded by supervision, or the best effort of a run cut short by
    /// permanent replica death.
    Degraded,
}

/// A served snapshot plus everything the caller needs to judge it.
#[derive(Debug, Clone)]
pub struct ServeResponse<T> {
    /// The best snapshot available at the deadline.
    pub snapshot: Snapshot<T>,
    /// The pool's quality estimate for that snapshot.
    pub quality: f64,
    /// Final / at-deadline / degraded.
    pub status: ServeStatus,
    /// `true` if admission shed the request: it was queued with negative
    /// analytical slack and ran under its floor's worst-case service
    /// bound instead of its whole deadline (see [`ServePool::submit`]).
    pub shed: bool,
    /// Serve-layer relaunches performed for this request.
    pub retries: u32,
    /// Index of the replica worker that answered.
    pub replica: usize,
    /// Submission-to-response latency.
    pub elapsed: Duration,
}

/// Pipeline factory: builds a fresh replica run for a request input and
/// returns the pipeline plus the reader of its whole-application output.
type FactoryFn<I, T> = dyn Fn(&I) -> Result<(Pipeline, BufferReader<T>)> + Send + Sync;
/// Quality estimator for a published snapshot (same scale as the floors).
type QualityFn<T> = dyn Fn(&Snapshot<T>) -> f64 + Send + Sync;

/// The best snapshot seen so far for a request, with its quality.
type BestSeen<T> = Option<(f64, Snapshot<T>)>;

struct ReplicaState {
    /// Stable replica index; workers added by [`ServePool::resize`] take
    /// fresh ones.
    index: usize,
    ewma: LatencyEwma,
    /// Projected end of the run this replica is currently serving
    /// (`None` when idle). Admission adds the soonest of these when no
    /// replica is free — an empty queue does not mean zero wait.
    busy_until: Mutex<Option<Instant>>,
    /// Set by `resize`: finish the current run, take no new work, exit.
    /// Release/Acquire so the worker that observes the flag also observes
    /// everything the drainer did before setting it.
    draining: AtomicBool,
    /// Interned trace id (`replica-N`) for quality and lifecycle events.
    trace_id: StageId,
}

impl ReplicaState {
    /// Fresh state (EWMA and occupancy reset) for `index`.
    fn new(index: usize, recorder: &Recorder) -> Self {
        ReplicaState {
            index,
            ewma: LatencyEwma::default(),
            busy_until: Mutex::new(None),
            draining: AtomicBool::new(false),
            trace_id: recorder.stage(&format!("replica-{index}")),
        }
    }
}

/// A live worker thread paired with the replica state it serves under.
struct WorkerHandle {
    state: Arc<ReplicaState>,
    handle: JoinHandle<()>,
}

/// One queued request.
struct Job<I, T> {
    id: u64,
    input: I,
    accepted: Instant,
    deadline: Instant,
    floor: f64,
    /// The run budget of a shed request: its floor's worst-case service
    /// bound. `Some` exactly when admission shed the request.
    budget_cap: Option<Duration>,
    /// The admission-time response-time analysis, when the gate was
    /// calibrated: the retry backoff is capped by its worst-case service
    /// bound, and the response records the predicted-vs-actual bound
    /// error against its worst case.
    analysis: Option<Analysis>,
    slot: Slot<T>,
}

struct SlotState<T> {
    /// The response, once filled. `filled` stays true after the
    /// submitter takes the value, so a second answer still loses.
    result: Option<Result<ServeResponse<T>>>,
    filled: bool,
    /// Total serve-layer retries across all runs of this request.
    retries: u32,
}

/// The rendezvous between a submitter and the worker running its job.
/// The first fill wins: a request is answered once, even when a worker's
/// serve fence fires after `respond` has filled the slot.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    // lint: allow(l1-condvar) -- waiters re-check `filled` under `state` before and after every wait
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState {
                result: None,
                filled: false,
                retries: 0,
            }),
            // lint: allow(l1-condvar) -- same predicate-under-mutex protocol as the field above
            cv: Condvar::new(),
        }
    }

    /// Installs the response unless one is already installed; returns
    /// `false` to the second answer. Wakes the submitter.
    fn fill(&self, result: Result<ServeResponse<T>>) -> bool {
        {
            let mut st = lock(&self.state);
            if st.filled {
                return false;
            }
            st.filled = true;
            st.result = Some(result);
        }
        self.cv.notify_all();
        true
    }
}

struct QueueState<I, T> {
    jobs: VecDeque<Arc<Job<I, T>>>,
    closed: bool,
}

struct Shared<I, T> {
    opts: ServeOptions,
    factory: Box<FactoryFn<I, T>>,
    quality: Box<QualityFn<T>>,
    queue: Mutex<QueueState<I, T>>,
    // lint: allow(l1-condvar) -- workers re-check the job queue under `queue` around every wait
    queue_cv: Condvar,
    /// The live replica registry. Admission scans it for occupancy;
    /// `resize` mutates it. Lock order: `workers` →
    /// `queue` → `replicas` (each replica's `busy_until` is a leaf).
    replicas: Mutex<Vec<Arc<ReplicaState>>>,
    /// Worker threads, paired with the states they serve under; mutated
    /// by `resize` and shutdown.
    workers: Mutex<Vec<WorkerHandle>>,
    governor_counters: GovernorCounters,
    /// The configured worker-count target (updated by `resize`).
    target_replicas: AtomicUsize,
    /// Workers `resize` flagged to drain and have not joined yet: counted
    /// where the flag is stored, uncounted after the join. They are
    /// already out of the `workers` registry.
    draining_workers: AtomicUsize,
    /// Allocator for replica indices of workers added by `resize`.
    next_replica: AtomicUsize,
    counters: ServeCounters,
    service_hist: LatencyHistogram,
    deadline_hist: DeadlineHistogram,
    faults: Mutex<FaultStats>,
    live_runs: AtomicU64,
    next_id: AtomicU64,
    /// The response-time-analysis admission gate, when
    /// [`ServeOptions::rta`] installed a policy. Calibrated online from
    /// the pool's own runs; `None` keeps the EWMA-heuristic admission.
    gate: Option<AdmissionGate>,
    rta_counters: RtaCounters,
}

impl<I, T> Shared<I, T> {
    /// The EWMA-heuristic wait projection admission compares against a
    /// request's deadline: queue depth amortized over the serving
    /// replicas, plus the soonest-free occupancy when nobody is idle.
    fn projected_wait(&self, depth: usize) -> Duration {
        let occ = self.occupancy();
        let est = occ.est.unwrap_or(self.opts.default_service_estimate);
        let queue_share = est.mul_f64(depth as f64 / occ.healthy as f64);
        if occ.any_idle {
            queue_share
        } else {
            queue_share + occ.soonest_free
        }
    }

    /// One scan over the replica set, shared by the EWMA projection above
    /// and the analytical [`Backlog`] below so admission's two gates never
    /// disagree about which replicas count as serving or idle. Draining
    /// replicas take no new work, so they do not count as capacity.
    fn occupancy(&self) -> Occupancy {
        let now = Instant::now();
        let mut healthy = 0usize;
        let mut sum = Duration::ZERO;
        let mut samples = 0usize;
        let mut any_idle = false;
        let mut soonest_free = Duration::ZERO;
        for r in lock(&self.replicas).iter() {
            if r.draining.load(Ordering::Acquire) {
                continue;
            }
            healthy += 1;
            if let Some(d) = r.ewma.get() {
                sum += d;
                samples += 1;
            }
            match *lock(&r.busy_until) {
                None => any_idle = true,
                Some(until) => {
                    let remaining = until.saturating_duration_since(now);
                    if healthy == 1 || remaining < soonest_free {
                        soonest_free = remaining;
                    }
                }
            }
        }
        Occupancy {
            // Floored so the projection never divides by zero.
            healthy: healthy.max(1),
            any_idle,
            soonest_free,
            est: (samples > 0).then(|| sum / samples as u32),
        }
    }

    /// The instantaneous backlog the admission gate analyzes: queue depth
    /// plus the same replica occupancy the heuristic projection sees.
    fn backlog(&self, depth: usize) -> Backlog {
        let occ = self.occupancy();
        Backlog {
            queued: depth,
            healthy: occ.healthy,
            any_idle: occ.any_idle,
            soonest_free: occ.soonest_free,
        }
    }
}

/// One point-in-time scan of the replica set (see `Shared::occupancy`).
struct Occupancy {
    /// Replicas not draining, floored at 1.
    healthy: usize,
    /// At least one of them is between runs right now.
    any_idle: bool,
    /// Remaining advertised occupancy of the soonest-free busy replica.
    soonest_free: Duration,
    /// Mean service EWMA across those replicas with samples.
    est: Option<Duration>,
}

/// The single reachability rule for "can a minimal run still answer this
/// deadline": after waiting out `pending`, a run of at least `min_service`
/// must finish *strictly before* the deadline. Admission and the retry
/// loop both consult this one predicate, so a request can never be
/// admitted under one rule and then abandoned under a stricter one.
fn deadline_reachable(
    now: Instant,
    pending: Duration,
    min_service: Duration,
    deadline: Instant,
) -> bool {
    now + pending + min_service < deadline
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A pool of replica pipeline workers serving deadline-budgeted requests.
///
/// See the [module docs](self) for the robustness machinery. Construct
/// with [`ServePool::new`], submit with [`ServePool::submit`] (typically
/// from many threads), and always [`ServePool::shutdown`] when done — it
/// drains the queue, joins every worker, and returns the final
/// [`ServeStats`] (whose `live_runs` is 0 precisely when no run leaked).
pub struct ServePool<I, T> {
    shared: Arc<Shared<I, T>>,
}

impl<I, T> std::fmt::Debug for ServePool<I, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServePool")
            .field("replicas", &lock(&self.shared.replicas).len())
            .finish_non_exhaustive()
    }
}

impl<I, T> ServePool<I, T>
where
    I: Send + Sync + 'static,
    T: Send + Sync + 'static,
{
    /// Creates the pool and spawns its replica workers.
    ///
    /// `factory` builds a fresh pipeline (plus its whole-application
    /// output reader) for each run of a request input; `quality` scores a
    /// published snapshot on the same scale as submitters' floors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero replica count, zero
    /// queue capacity, or an invalid RTA policy.
    pub fn new(
        opts: ServeOptions,
        factory: impl Fn(&I) -> Result<(Pipeline, BufferReader<T>)> + Send + Sync + 'static,
        quality: impl Fn(&Snapshot<T>) -> f64 + Send + Sync + 'static,
    ) -> Result<Self> {
        if opts.replicas == 0 {
            return Err(CoreError::InvalidConfig(
                "serve pool needs at least one replica".into(),
            ));
        }
        if opts.queue_capacity == 0 {
            return Err(CoreError::InvalidConfig(
                "serve pool needs a nonzero queue capacity".into(),
            ));
        }
        let gate = opts.rta.map(AdmissionGate::new).transpose()?;
        let replicas: Vec<Arc<ReplicaState>> = (0..opts.replicas)
            .map(|i| Arc::new(ReplicaState::new(i, &opts.recorder)))
            .collect();
        let target = opts.replicas;
        let shared = Arc::new(Shared {
            opts,
            factory: Box::new(factory),
            quality: Box::new(quality),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            // lint: allow(l1-condvar) -- same predicate-under-mutex protocol as the field above
            queue_cv: Condvar::new(),
            replicas: Mutex::new(replicas),
            workers: Mutex::new(Vec::new()),
            governor_counters: GovernorCounters::default(),
            target_replicas: AtomicUsize::new(target),
            draining_workers: AtomicUsize::new(0),
            next_replica: AtomicUsize::new(target),
            counters: ServeCounters::default(),
            service_hist: LatencyHistogram::default(),
            deadline_hist: DeadlineHistogram::default(),
            faults: Mutex::new(FaultStats::default()),
            live_runs: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            gate,
            rta_counters: RtaCounters::default(),
        });
        {
            let states: Vec<Arc<ReplicaState>> = lock(&shared.replicas).clone();
            let mut workers = lock(&shared.workers);
            for state in states {
                workers.push(spawn_worker(&shared, state)?);
            }
        }
        Ok(Self { shared })
    }

    /// Submits a request and blocks until its response: the best snapshot
    /// available within `deadline`, tagged with quality and status.
    ///
    /// Safe to call from many threads concurrently.
    ///
    /// # Shedding
    ///
    /// With a calibrated [`rta`] gate, admission applies one
    /// degradation rule. A request that finds at least one request
    /// already queued, and whose worst-case bound misses its deadline
    /// ([`Analysis::slack`] is `None`), is *shed*: it keeps its FIFO place
    /// and its deadline, but its run ends at its floor's worst-case
    /// service bound ([`Analysis::service_upper`]) once its best snapshot
    /// meets `floor` — never before. The response is flagged
    /// [`ServeResponse::shed`]. Without a calibrated gate, with an empty
    /// queue, or with nonnegative slack, the request runs to its deadline.
    ///
    /// # Errors
    ///
    /// - [`CoreError::AdmissionRejected`] — rejected fast: the projected
    ///   wait plus minimum service cannot make the deadline.
    /// - [`CoreError::Infeasible`] — rejected fast with a *proof*: the
    ///   calibrated [`rta`] analysis certifies that even an
    ///   optimistically-fast run cannot reach `floor` within `deadline`
    ///   given the current backlog; the error carries the certified lower
    ///   bound. Only possible with [`ServeOptions::rta`] installed and the
    ///   gate calibrated.
    /// - [`CoreError::QueueFull`] — rejected fast: the queue is at
    ///   capacity, regardless of the deadline budget.
    /// - [`CoreError::PoolShutdown`] — the pool shut down first.
    /// - [`CoreError::Timeout`] — the deadline passed with no snapshot
    ///   published (e.g. every attempt died before its first output).
    pub fn submit(&self, input: I, deadline: Duration, floor: f64) -> Result<ServeResponse<T>> {
        let accepted = Instant::now();
        let deadline_at = accepted + deadline;
        let shared = &self.shared;
        let req_id = shared.next_id.fetch_add(1, Ordering::Relaxed); // relaxed: id allocator; uniqueness only, no ordering
        let min_service = shared.opts.min_service;
        let job = {
            let mut q = lock(&shared.queue);
            if q.closed {
                return Err(CoreError::PoolShutdown);
            }
            let depth = q.jobs.len();
            if depth >= shared.opts.queue_capacity {
                drop(q);
                shared.counters.rejected.inc();
                shared.opts.recorder.serve_event(EventKind::Reject, req_id);
                return Err(CoreError::QueueFull {
                    depth,
                    capacity: shared.opts.queue_capacity,
                });
            }
            // Analyze the backlog while the queue is still locked so the
            // proof (or its absence) describes the depth we admit against.
            let analysis = shared
                .gate
                .as_ref()
                .and_then(|g| g.analyze(floor, &shared.backlog(depth)));
            if let Some(a) = analysis {
                // The configured minimum service time stays a hard
                // floor even when the calibrated curves claim faster.
                if !deadline_reachable(accepted, Duration::ZERO, min_service, deadline_at) {
                    drop(q);
                    shared.counters.rejected.inc();
                    shared.opts.recorder.serve_event(EventKind::Reject, req_id);
                    return Err(CoreError::AdmissionRejected {
                        projected: min_service,
                        budget: deadline,
                    });
                }
                if a.lower > deadline {
                    // Certified infeasibility: even the optimistic
                    // supply bound cannot cross the floor in budget.
                    drop(q);
                    shared.counters.rejected.inc();
                    shared.rta_counters.infeasible.inc();
                    shared.opts.recorder.serve_event(EventKind::Reject, req_id);
                    shared
                        .opts
                        .recorder
                        .feasibility(EventKind::Infeasible, req_id, a.lower, floor);
                    return Err(CoreError::Infeasible {
                        bound: a.lower,
                        budget: deadline,
                        floor,
                    });
                }
                shared.rta_counters.feasible.inc();
                shared
                    .opts
                    .recorder
                    .feasibility(EventKind::Feasible, req_id, a.upper, floor);
            } else {
                // Heuristic path: either no gate is installed or the
                // gate is not yet calibrated for this floor.
                if shared.gate.is_some() {
                    shared.rta_counters.fallback.inc();
                }
                let projected_wait = shared.projected_wait(depth);
                if !deadline_reachable(accepted, projected_wait, min_service, deadline_at) {
                    drop(q);
                    shared.counters.rejected.inc();
                    shared.opts.recorder.serve_event(EventKind::Reject, req_id);
                    return Err(CoreError::AdmissionRejected {
                        projected: projected_wait + min_service,
                        budget: deadline,
                    });
                }
            }
            // The one degradation rule (see "Shedding" above): behind a
            // queue, a request whose worst case misses its deadline runs
            // only as long as its floor's worst-case service bound.
            let budget_cap = analysis
                .filter(|a| depth >= 1 && a.slack(deadline).is_none())
                .map(|a| a.service_upper);
            let job = Arc::new(Job {
                id: req_id,
                input,
                accepted,
                deadline: deadline_at,
                floor,
                budget_cap,
                analysis,
                slot: Slot::new(),
            });
            q.jobs.push_back(Arc::clone(&job));
            shared.counters.admitted.inc();
            shared.opts.recorder.serve_event(EventKind::Admit, req_id);
            if budget_cap.is_some() {
                shared.counters.shed.inc();
                shared.opts.recorder.serve_event(EventKind::Shed, req_id);
            }
            job
        };
        shared.queue_cv.notify_all();
        self.await_slot(&job)
    }

    /// Blocks on the job's slot until a worker fills it; evicts the job
    /// from the queue if its deadline passes before any worker starts it.
    fn await_slot(&self, job: &Arc<Job<I, T>>) -> Result<ServeResponse<T>> {
        let shared = &self.shared;
        let grace_until = job.deadline + RESPONSE_GRACE;
        let mut st = lock(&job.slot.state);
        loop {
            if st.filled {
                return st.result.take().unwrap_or(Err(CoreError::PoolShutdown));
            }
            let now = Instant::now();
            if now < job.deadline {
                let (guard, _) = job
                    .slot
                    .cv
                    .wait_timeout(st, job.deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                continue;
            }
            // Deadline passed while still waiting: if the job never left
            // the queue, evict and answer Timeout ourselves; if a worker
            // holds it, it will respond imminently — wait out the grace.
            drop(st);
            let evicted = {
                let mut q = lock(&shared.queue);
                let at = q.jobs.iter().position(|queued| queued.id == job.id);
                at.and_then(|i| q.jobs.remove(i)).is_some()
            };
            if evicted {
                fail_job(shared, job, None, CoreError::Timeout);
            }
            st = lock(&job.slot.state);
            while !st.filled {
                let now = Instant::now();
                if now >= grace_until {
                    // Hang guard only; a live worker always responds at
                    // the deadline.
                    return Err(CoreError::Timeout);
                }
                let (guard, _) = job
                    .slot
                    .cv
                    .wait_timeout(st, grace_until - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        }
    }

    /// A point-in-time view of the pool's counters, deadline histogram,
    /// aggregated run faults, live run count, and worker lifecycle
    /// gauges.
    pub fn stats(&self) -> ServeStats {
        let shared = &self.shared;
        let mut stats = shared.counters.snapshot();
        stats.deadline = shared.deadline_hist.snapshot();
        stats.faults = *lock(&shared.faults);
        // Acquire pairs with the Release decrement in run_attempt: once a
        // completed attempt is no longer counted live, its fault/latency
        // stats recorded before the decrement are visible to this snapshot.
        stats.live_runs = shared.live_runs.load(Ordering::Acquire);
        stats.rta = shared.rta_counters.snapshot();
        if let Some(gate) = &shared.gate {
            stats.rta.calibration_runs = gate.runs();
            stats.rta.calibrated = gate.calibrated();
        }
        stats.governor = shared.governor_counters.snapshot();
        // relaxed: observability gauge; one stale resize is acceptable
        stats.governor.workers_target = shared.target_replicas.load(Ordering::Relaxed) as u64;
        // relaxed: observability gauge; a drain in progress may be seen late
        stats.governor.workers_draining = shared.draining_workers.load(Ordering::Relaxed) as u64;
        stats.governor.workers_live = self.worker_count() as u64;
        stats
    }

    /// `true` once the installed [`rta`] gate has absorbed
    /// enough calibration runs to back admission analytically (`false`
    /// when no [`ServeOptions::rta`] policy is installed).
    pub fn rta_calibrated(&self) -> bool {
        self.shared
            .gate
            .as_ref()
            .is_some_and(AdmissionGate::calibrated)
    }

    /// The pool's trace recorder (a no-op handle unless one was installed
    /// through [`ServeOptions::recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.shared.opts.recorder
    }

    /// Drains and returns the serving-plane trace accumulated so far
    /// (empty when tracing is disabled). Each call returns only events
    /// since the previous drain.
    pub fn trace(&self) -> TraceLog {
        self.shared.opts.recorder.drain()
    }

    /// Renders the pool's full metric surface — serve counters, the
    /// deadline-ratio and service-latency histograms, aggregated run
    /// faults, and the admission-analysis decision counters and
    /// bound-error gauge — in Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let _ = crate::metrics::render_serve_pool(
            &mut out,
            &self.stats(),
            &self.shared.service_hist.snapshot(),
        );
        out
    }

    /// Worker threads currently serving (workers already drained by
    /// `resize` are not counted).
    pub fn worker_count(&self) -> usize {
        lock(&self.shared.workers)
            .iter()
            .filter(|w| !w.handle.is_finished())
            .count()
    }

    /// Live reconfiguration: grows or shrinks the worker set to `n`
    /// replicas while the pool keeps serving.
    ///
    /// Scale-up spawns fresh workers under new replica indices. Scale-down
    /// drains gracefully: a draining worker finishes its current run,
    /// takes no new work, and is joined before this call returns —
    /// in-flight admitted requests are never dropped.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for `n == 0`;
    /// [`CoreError::PoolShutdown`] when the pool is already shut down.
    pub fn resize(&self, n: usize) -> Result<()> {
        if n == 0 {
            return Err(CoreError::InvalidConfig(
                "serve pool needs at least one replica".into(),
            ));
        }
        let shared = &self.shared;
        let to_drain: Vec<WorkerHandle> = {
            let mut workers = lock(&shared.workers);
            let mut drained = Vec::new();
            {
                // The drain flags are stored while the queue mutex is
                // held: an idle worker re-checks `draining` under this
                // same mutex immediately before parking on `queue_cv`, so
                // the store can never interleave between that check and
                // the wait — the notify_all below is never lost, even on
                // a quiescent pool.
                let q = lock(&shared.queue);
                if q.closed {
                    return Err(CoreError::PoolShutdown);
                }
                // relaxed: stats gauge; readers tolerate one stale resize
                shared.target_replicas.store(n, Ordering::Relaxed);
                while workers.len() > n {
                    let w = workers.pop().expect("len > n >= 1");
                    w.state.draining.store(true, Ordering::Release);
                    // relaxed: observability gauge, as in `stats`
                    shared.draining_workers.fetch_add(1, Ordering::Relaxed);
                    drained.push(w);
                }
            }
            while workers.len() < n {
                // relaxed: index allocator; uniqueness only, no ordering
                let index = shared.next_replica.fetch_add(1, Ordering::Relaxed);
                let state = Arc::new(ReplicaState::new(index, &shared.opts.recorder));
                let handle = spawn_worker(shared, Arc::clone(&state))?;
                lock(&shared.replicas).push(Arc::clone(&state));
                shared.governor_counters.worker_adds.inc();
                shared
                    .opts
                    .recorder
                    .stage_event(EventKind::WorkerAdded, state.trace_id);
                workers.push(handle);
            }
            drained
        };
        // Joins happen outside the workers lock: a draining worker may be
        // mid-run and must not deadlock against admission or stats.
        shared.queue_cv.notify_all();
        for w in to_drain {
            let _ = w.handle.join();
            // relaxed: observability gauge, as in `stats`
            shared.draining_workers.fetch_sub(1, Ordering::Relaxed);
            lock(&shared.replicas).retain(|r| !Arc::ptr_eq(r, &w.state));
            shared.governor_counters.worker_drains.inc();
            shared
                .opts
                .recorder
                .stage_event(EventKind::WorkerDrained, w.state.trace_id);
        }
        shared.governor_counters.resizes.inc();
        Ok(())
    }

    /// Shuts the pool down: rejects new submissions, fails queued (not yet
    /// started) requests with [`CoreError::PoolShutdown`], lets in-flight
    /// runs respond, joins every worker, and returns the final stats.
    ///
    /// Idempotent, and safe to race with `Drop`: a second call (or the
    /// implicit one in `Drop`) finds the queue already closed and the
    /// worker list already empty, so drained requests are never counted
    /// twice.
    ///
    /// `live_runs == 0` in the returned stats is the no-leak guarantee:
    /// every pipeline run was stopped and joined.
    pub fn shutdown(&self) -> ServeStats {
        shutdown_inner(&self.shared);
        self.stats()
    }
}

/// The single shutdown path, shared by [`ServePool::shutdown`] and `Drop`.
///
/// Order matters: the queue closes and queued requests fail first, then
/// workers are taken out of the registry and joined. Every step is
/// take-based (`Vec::drain`, `std::mem::take`), so a second concurrent or
/// sequential call observes empty state and does nothing — no drained
/// request is double-counted.
fn shutdown_inner<I, T>(shared: &Arc<Shared<I, T>>) {
    let drained: Vec<Arc<Job<I, T>>> = {
        let mut q = lock(&shared.queue);
        q.closed = true;
        q.jobs.drain(..).collect()
    };
    shared.queue_cv.notify_all();
    for job in &drained {
        fail_job(shared, job, None, CoreError::PoolShutdown);
    }
    for w in std::mem::take(&mut *lock(&shared.workers)) {
        let _ = w.handle.join();
    }
}

impl<I, T> Drop for ServePool<I, T> {
    fn drop(&mut self) {
        shutdown_inner(&self.shared);
    }
}

/// How one pipeline attempt for a request ended.
enum Attempt<T> {
    /// The run reached a terminal output, or the deadline arrived; the
    /// best snapshot so far (if any) goes to the caller.
    Respond(BestSeen<T>),
    /// The replica died permanently (retryable). Carries the best
    /// snapshot so far, kept across attempts, plus the structured panic
    /// error when the death was a fenced caller-closure panic.
    Died(BestSeen<T>, Option<CoreError>),
}

/// Spawns a worker thread serving under `state`. Used at construction and
/// by `resize`.
fn spawn_worker<I, T>(shared: &Arc<Shared<I, T>>, state: Arc<ReplicaState>) -> Result<WorkerHandle>
where
    I: Send + Sync + 'static,
    T: Send + Sync + 'static,
{
    let pool = Arc::clone(shared);
    let st = Arc::clone(&state);
    let handle = std::thread::Builder::new()
        .name(format!("anytime-serve-{}", state.index))
        // lint: allow(l6-no-raw-spawn) -- replica workers block on queue waits and deadlines; their pipelines' stages run on the shared runtime, keeping total threads O(replicas + cores)
        .spawn(move || worker_loop(&pool, &st))
        .map_err(|e| CoreError::InvalidConfig(format!("failed to spawn worker: {e}")))?;
    Ok(WorkerHandle { state, handle })
}

/// Runs a caller-supplied closure (factory or quality estimator) behind a
/// panic fence: a panic becomes a structured [`CoreError::ReplicaPanicked`]
/// instead of unwinding through the worker, so it feeds the ordinary retry
/// path and the worker thread survives to serve the next request.
fn fence_closure<R>(
    counters: &GovernorCounters,
    state: &ReplicaState,
    context: &'static str,
    f: impl FnOnce() -> R,
) -> Result<R> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => {
            counters.closure_panics.inc();
            Err(CoreError::ReplicaPanicked {
                replica: state.index,
                context,
                message: panic_message(payload.as_ref()),
            })
        }
    }
}

/// Advertises a replica's occupancy for admission while it serves a run:
/// its service EWMA counted from `service_start`
/// ([`ServeOptions::default_service_estimate`] before any sample), capped
/// by `run_end`, the run's hard end: runs often end early at a terminal
/// output, so the deadline is only the cap.
///
/// The returned guard clears the occupancy when the run ends.
fn occupy<'a, I, T>(
    shared: &Shared<I, T>,
    state: &'a ReplicaState,
    service_start: Instant,
    run_end: Instant,
) -> BusyClear<'a> {
    let est = state
        .ewma
        .get()
        .unwrap_or(shared.opts.default_service_estimate);
    *lock(&state.busy_until) = Some(run_end.min(service_start + est));
    BusyClear(state)
}

/// Clears a replica's advertised occupancy on drop — on *every* exit path
/// out of a serve run, panics included. Without this, a serve path that
/// unwinds into the worker's fence leaves `busy_until` stuck at its last
/// projection and admission keeps charging waiters for a run that no
/// longer exists.
struct BusyClear<'a>(&'a ReplicaState);

impl Drop for BusyClear<'_> {
    fn drop(&mut self) {
        *lock(&self.0.busy_until) = None;
    }
}

/// Fault injection: unwind this serve path (a panic outside every closure
/// fence) if the configured [`WorkerKillPlan`] targets this request. The
/// worker's per-request fence answers the request, so it is never served
/// again and each kill fires once.
#[cfg(feature = "fault-inject")]
fn maybe_kill_worker<I, T>(shared: &Arc<Shared<I, T>>, req: u64) {
    let Some(plan) = &shared.opts.worker_kill else {
        return;
    };
    if !plan.targets(req) {
        return;
    }
    // resume_unwind skips the panic hook: an injected kill is silent in
    // test output.
    std::panic::resume_unwind(Box::new("fault-inject: worker kill"));
}

fn worker_loop<I, T>(shared: &Arc<Shared<I, T>>, state: &Arc<ReplicaState>)
where
    I: Send + Sync + 'static,
    T: Send + Sync + 'static,
{
    loop {
        // Graceful drain: finish nothing new once the flag is up.
        if state.draining.load(Ordering::Acquire) {
            return;
        }
        let head = {
            let mut q = lock(&shared.queue);
            loop {
                if state.draining.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // One fence per dequeued request: if its serve path unwinds, the
        // request fails with a structured error unless it was already
        // answered, and this thread takes the next one.
        let served = std::panic::catch_unwind(AssertUnwindSafe(|| serve_job(shared, state, &head)));
        let Err(payload) = served else { continue };
        let failure = CoreError::ReplicaPanicked {
            replica: state.index,
            context: "serve",
            message: panic_message(payload.as_ref()),
        };
        if fail_job(shared, &head, Some(state.trace_id), failure) {
            shared.governor_counters.closure_panics.inc();
        }
    }
}

/// Runs one request to its response, retrying permanent deaths.
fn serve_job<I, T>(shared: &Arc<Shared<I, T>>, state: &Arc<ReplicaState>, job: &Arc<Job<I, T>>)
where
    I: Send + Sync + 'static,
    T: Send + Sync + 'static,
{
    let service_start = Instant::now();
    // The occupancy estimate ends at a shed job's cap (it may run on past
    // it only until its floor lands) and otherwise at the deadline.
    let run_end = match job.budget_cap {
        Some(cap) => job.deadline.min(service_start + cap),
        None => job.deadline,
    };
    // Guard, not a trailing statement: the occupancy clears on every exit
    // path out of this run — early returns and worker panics included.
    let _busy = occupy(shared, state, service_start, run_end);
    #[cfg(feature = "fault-inject")]
    maybe_kill_worker(shared, job.id);
    let mut best: BestSeen<T> = None;
    // The structured error of the most recent fenced-panic death: when the
    // request ultimately fails empty-handed, the caller learns *why* the
    // attempts died instead of a generic timeout.
    let mut last_death: Option<CoreError> = None;
    let mut local_retries = 0u32;
    let best = loop {
        if Instant::now() >= job.deadline {
            break best;
        }
        match run_attempt(shared, state, job, &mut best) {
            Attempt::Respond(b) => break b,
            Attempt::Died(b, death) => {
                best = b;
                if death.is_some() {
                    last_death = death;
                }
                let retry = &shared.opts.retry;
                if local_retries >= retry.max_attempts {
                    break best;
                }
                let mut delay = retry_backoff(
                    retry.base_backoff,
                    retry.max_backoff,
                    local_retries,
                    shared.opts.seed ^ job.id,
                );
                // With an admission-time analysis, cap the backoff so the
                // retry still leaves a worst-case service run's worth of
                // budget — the exponential schedule must not sleep away
                // slack the analysis proved the request needs.
                if let Some(a) = job.analysis {
                    let remaining = job.deadline.saturating_duration_since(Instant::now());
                    delay = delay.min(rta::backoff_cap(remaining, a.service_upper));
                }
                // Retry only if the backoff plus a minimal run still fits.
                if !deadline_reachable(Instant::now(), delay, shared.opts.min_service, job.deadline)
                {
                    break best;
                }
                local_retries += 1;
                shared.counters.retried.inc();
                shared.opts.recorder.serve_event(EventKind::Retry, job.id);
                {
                    let mut st = lock(&job.slot.state);
                    st.retries += 1;
                }
                // lint: allow(l2-sleep) -- bounded retry backoff; the remaining deadline budget is checked before each retry
                std::thread::sleep(delay);
            }
        }
    };
    respond(shared, state, job, best, service_start, last_death);
}

/// Answers a job with the best snapshot an attempt produced (or an error
/// when none: the structured `failure` of the last fenced-panic death if
/// there was one, [`CoreError::Timeout`] otherwise), filling its slot and
/// recording the response-side counters, histograms, and trace events.
fn respond<I, T>(
    shared: &Arc<Shared<I, T>>,
    state: &Arc<ReplicaState>,
    job: &Arc<Job<I, T>>,
    best: BestSeen<T>,
    service_start: Instant,
    failure: Option<CoreError>,
) where
    I: Send + Sync + 'static,
    T: Send + Sync + 'static,
{
    // Every attempt died before publishing anything.
    let Some((quality, snapshot)) = best else {
        let failure = failure.unwrap_or(CoreError::Timeout);
        fail_job(shared, job, Some(state.trace_id), failure);
        return;
    };
    let retries = lock(&job.slot.state).retries;
    let status = if snapshot.is_final() && quality >= job.floor {
        ServeStatus::Final
    } else if snapshot.is_degraded() || quality < job.floor {
        ServeStatus::Degraded
    } else {
        ServeStatus::AtDeadline
    };
    let elapsed = job.accepted.elapsed();
    let terminal = snapshot.is_terminal();
    let response = ServeResponse {
        snapshot,
        quality,
        status,
        shed: job.budget_cap.is_some(),
        retries,
        replica: state.index,
        elapsed,
    };
    if !job.slot.fill(Ok(response)) {
        return;
    }
    shared.counters.completed.inc();
    if status == ServeStatus::Degraded {
        shared.counters.degraded_responses.inc();
    }
    shared.opts.recorder.request_end(
        EventKind::RequestDone,
        job.id,
        Some(state.trace_id),
        elapsed,
        Some(quality),
        terminal,
        status == ServeStatus::Degraded,
    );
    let budget = job.deadline - job.accepted;
    shared.deadline_hist.record(elapsed, budget);
    if let Some(a) = job.analysis {
        // Falsifiability: every analytically-admitted response scores the
        // calibrated worst case against reality — exported as the
        // bound-error gauge.
        shared.rta_counters.record_bound_sample(a.upper, elapsed);
    }
    // The EWMA and the service histogram track *service* time (pop to
    // response), not queue wait — admission multiplies the EWMA by queue
    // depth itself.
    let service = service_start.elapsed();
    state.ewma.record(service);
    shared.service_hist.record(service);
}

/// Fails a job with `err` unless it was already answered,
/// counting and tracing the failure (`replica` is the answering replica's
/// trace id, `None` when the pool itself failed the job). Returns `false`
/// when the job had already been answered.
fn fail_job<I, T>(
    shared: &Shared<I, T>,
    job: &Job<I, T>,
    replica: Option<StageId>,
    err: CoreError,
) -> bool {
    if !job.slot.fill(Err(err)) {
        return false;
    }
    shared.counters.failed.inc();
    shared.opts.recorder.request_end(
        EventKind::RequestFailed,
        job.id,
        replica,
        job.accepted.elapsed(),
        None,
        false,
        false,
    );
    true
}

/// Applies the pool's runtime choice to a factory-built pipeline: a
/// factory that pinned its own runtime wins; otherwise the pool's
/// configured runtime is installed (with neither, `launch` falls back to
/// the process-wide global pool on its own).
fn pool_runtime<I, T>(shared: &Shared<I, T>, pipeline: Pipeline) -> Pipeline {
    if pipeline.runtime_is_set() {
        return pipeline;
    }
    match &shared.opts.runtime {
        Some(rt) => pipeline.on_runtime(rt.clone()),
        None => pipeline,
    }
}

/// One pipeline launch for a request: build, run, track the best snapshot,
/// respond at the deadline or terminal output.
fn run_attempt<I, T>(
    shared: &Arc<Shared<I, T>>,
    state: &Arc<ReplicaState>,
    job: &Job<I, T>,
    best: &mut BestSeen<T>,
) -> Attempt<T>
where
    I: Send + Sync + 'static,
    T: Send + Sync + 'static,
{
    let started = Instant::now();
    let built = fence_closure(&shared.governor_counters, state, "pipeline factory", || {
        (shared.factory)(&job.input)
    });
    let (pipeline, reader) = match built {
        Ok(Ok(built)) => built,
        // The factory returned an error: an ordinary retryable death.
        Ok(Err(_)) => return Attempt::Died(best.take(), None),
        // The factory *panicked*: same retry path, structured error kept.
        Err(e) => return Attempt::Died(best.take(), Some(e)),
    };
    let ctl = ControlToken::new();
    let auto = match pool_runtime(shared, pipeline).launch_with(ctl.clone()) {
        Ok(auto) => auto,
        Err(_) => return Attempt::Died(best.take(), None),
    };
    // relaxed: count-up precedes any attempt work; completion ordering comes from the Release decrement
    shared.live_runs.fetch_add(1, Ordering::Relaxed);
    // Versions restart per run: never carry a previous attempt's version
    // into this reader's waits (the quality comparison keeps `best`
    // monotone across attempts instead).
    let mut last: Option<Version> = None;
    // Calibration: record when this run first crosses each quality
    // threshold, feeding the admission gate's supply curves.
    let mut tracker = shared.gate.as_ref().map(|g| g.tracker());
    let outcome = loop {
        let now = Instant::now();
        // A shed run ends at `started + cap` only once its best snapshot
        // meets the floor; until then it keeps its real deadline, so the
        // cap degrades quality down to the floor and never below it.
        let attempt_end = match job.budget_cap {
            Some(cap) if best.as_ref().is_some_and(|(q, _)| *q >= job.floor) => {
                job.deadline.min(started + cap)
            }
            _ => job.deadline,
        };
        if now >= attempt_end {
            break Attempt::Respond(best.take());
        }
        match reader.wait_newer_timeout_with(last, attempt_end - now, &ctl) {
            Ok(snap) => {
                last = Some(snap.version());
                // A panicking quality estimator kills this *attempt* (the
                // run is reaped below), not the worker thread.
                let q = match fence_closure(
                    &shared.governor_counters,
                    state,
                    "quality estimator",
                    || (shared.quality)(&snap),
                ) {
                    Ok(q) => q,
                    Err(e) => break Attempt::Died(best.take(), Some(e)),
                };
                if let Some(t) = tracker.as_mut() {
                    t.observe(started.elapsed(), q);
                }
                shared.opts.recorder.observe_quality(
                    job.id,
                    state.trace_id,
                    snap.version().get(),
                    q,
                );
                let better = best.as_ref().is_none_or(|(bq, _)| q >= *bq);
                let terminal = snap.is_terminal();
                if better {
                    *best = Some((q, snap));
                }
                if terminal {
                    break Attempt::Respond(best.take());
                }
            }
            Err(CoreError::Timeout) => {}
            // Stopped externally: answer with whatever the run gave us.
            Err(CoreError::Stopped) => break Attempt::Respond(best.take()),
            // The replica died permanently (SourceClosed or another
            // terminal error): retryable at the serve layer.
            Err(_) => break Attempt::Died(best.take(), None),
        }
    };
    // Stop and fully reap the run: stages halt at their next step
    // boundary and the join aggregates this run's fault handling.
    auto.stop();
    let pre_join = auto.fault_stats();
    match auto.join() {
        Ok(report) => lock(&shared.faults).absorb(&report.faults),
        Err(_) => {
            // The join error is the permanent failure the attempt already
            // observed; keep the counters it managed to record.
            let mut stats = pre_join;
            stats.permanent_failures = stats.permanent_failures.max(1);
            lock(&shared.faults).absorb(&stats);
        }
    }
    // Release pairs with the Acquire load in stats(): promoted from Relaxed
    // so an observer that sees the run counted done also sees the stats it
    // absorbed above.
    shared.live_runs.fetch_sub(1, Ordering::Release);
    if let Some(gate) = &shared.gate {
        // The run is fully reaped: its crossings are final and its
        // reader's publish→observe latencies are complete. Runs that
        // never published contribute nothing (absorb ignores them).
        if let Some(t) = &tracker {
            gate.absorb(t);
        }
        gate.absorb_wait_stats(&reader.wait_stats());
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{StageOptions, StepOutcome};
    use crate::{Diffusive, PipelineBuilder};

    /// A pipeline whose source counts to `n`, sleeping `step_delay` per
    /// step; quality = fraction completed.
    fn counting_factory(
        n: u64,
        step_delay: Duration,
    ) -> impl Fn(&u64) -> Result<(Pipeline, BufferReader<u64>)> + Send + Sync {
        move |_input: &u64| {
            let mut pb = PipelineBuilder::new();
            let out = pb.source(
                "count",
                (),
                Diffusive::new(
                    |_: &()| 0u64,
                    move |_: &(), out: &mut u64, _| {
                        std::thread::sleep(step_delay);
                        *out += 1;
                        if *out == n {
                            StepOutcome::Done
                        } else {
                            StepOutcome::Continue
                        }
                    },
                ),
                StageOptions::with_publish_every(1),
            );
            Ok((pb.build(), out))
        }
    }

    fn fraction_quality(n: u64) -> impl Fn(&Snapshot<u64>) -> f64 + Send + Sync {
        move |s: &Snapshot<u64>| *s.value() as f64 / n as f64
    }

    /// The input that marks a test's blocker: a factory built with
    /// [`factory_gate`]'s `hold` holds only the builds it marks.
    const BLOCKER: u64 = 1;

    /// A gate for factory builds, so that a test orders a blocker and its
    /// followers without sleeping. `hold` announces a build on `entered`
    /// and waits for one send on `release`. Re-declare `release` after the
    /// pool: unwinding then drops it first and frees a held build, instead
    /// of hanging the pool's shutdown join.
    fn factory_gate() -> (
        impl Fn() + Send + Sync + 'static,
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::Sender<()>,
    ) {
        let (entered_tx, entered) = std::sync::mpsc::channel::<()>();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let hold = move || {
            let _ = entered_tx.send(());
            let _ = lock(&release_rx).recv();
        };
        (hold, entered, release)
    }

    /// Waits until a gated build has started. Fails instead of hanging
    /// when the blocker never reaches its factory, for instance when its
    /// deadline evicts it from the queue first.
    fn await_build(entered: &std::sync::mpsc::Receiver<()>) {
        entered
            .recv_timeout(Duration::from_secs(30))
            .expect("the blocker never reached its factory");
    }

    /// Waits, without sleeping, until admission has decided `n` requests.
    fn decided<I, T>(pool: &ServePool<I, T>, n: u64) -> ServeStats
    where
        I: Send + Sync + 'static,
        T: Send + Sync + 'static,
    {
        loop {
            let s = pool.stats();
            if s.admitted + s.rejected >= n {
                break s;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn generous_deadline_reaches_final() {
        let pool = ServePool::new(
            ServeOptions::default().replicas(2),
            counting_factory(10, Duration::from_micros(100)),
            fraction_quality(10),
        )
        .unwrap();
        let resp = pool.submit(0, Duration::from_secs(10), 0.5).unwrap();
        assert_eq!(resp.status, ServeStatus::Final);
        assert_eq!(*resp.snapshot.value(), 10);
        assert_eq!(resp.quality, 1.0);
        assert!(!resp.shed);
        let stats = pool.shutdown();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.live_runs, 0);
        assert_eq!(stats.deadline.hit_rate(), 1.0);
    }

    #[test]
    fn tight_deadline_returns_partial_at_deadline() {
        let pool = ServePool::new(
            ServeOptions {
                min_service: Duration::from_micros(10),
                ..ServeOptions::default()
            },
            counting_factory(1_000_000, Duration::from_millis(1)),
            fraction_quality(1_000_000),
        )
        .unwrap();
        let deadline = Duration::from_millis(40);
        let resp = pool.submit(0, deadline, 0.0).unwrap();
        assert_eq!(resp.status, ServeStatus::AtDeadline);
        assert!(*resp.snapshot.value() >= 1);
        assert!(!resp.snapshot.is_final());
        assert!(
            resp.elapsed <= deadline + Duration::from_millis(250),
            "responded {:?} after a {:?} deadline",
            resp.elapsed,
            deadline
        );
        assert_eq!(pool.shutdown().live_runs, 0);
    }

    #[test]
    fn impossible_budget_is_rejected_at_admission() {
        let pool = ServePool::new(
            ServeOptions {
                min_service: Duration::from_millis(5),
                ..ServeOptions::default()
            },
            counting_factory(10, Duration::from_micros(10)),
            fraction_quality(10),
        )
        .unwrap();
        match pool.submit(0, Duration::from_micros(100), 0.0) {
            Err(CoreError::AdmissionRejected { projected, budget }) => {
                assert!(projected > budget);
            }
            other => panic!("expected AdmissionRejected, got {other:?}"),
        }
        let stats = pool.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn permanent_death_retries_then_succeeds() {
        use std::sync::atomic::AtomicBool;
        let failed_once = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&failed_once);
        let factory = move |_input: &u64| {
            let first = !flag.swap(true, Ordering::SeqCst);
            let mut pb = PipelineBuilder::new();
            let out = pb.source(
                "count",
                (),
                Diffusive::new(
                    |_: &()| 0u64,
                    move |_: &(), out: &mut u64, _| {
                        assert!(!first, "injected first-build death");
                        *out += 1;
                        if *out == 5 {
                            StepOutcome::Done
                        } else {
                            StepOutcome::Continue
                        }
                    },
                ),
                StageOptions::with_publish_every(1),
            );
            Ok((pb.build(), out))
        };
        let pool = ServePool::new(
            ServeOptions {
                replicas: 1,
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff: Duration::from_micros(100),
                    max_backoff: Duration::from_millis(1),
                },
                ..ServeOptions::default()
            },
            factory,
            fraction_quality(5),
        )
        .unwrap();
        let resp = pool.submit(0, Duration::from_secs(10), 0.0).unwrap();
        assert_eq!(resp.status, ServeStatus::Final);
        assert!(resp.retries >= 1);
        let stats = pool.shutdown();
        assert!(stats.retried >= 1);
        assert!(stats.faults.permanent_failures >= 1);
        assert_eq!(stats.live_runs, 0);
    }

    /// A request of the shed-rule tests: `steps` counting steps of `step`
    /// each, quality the fraction of [`RULE_STEPS`]; `gate` holds the
    /// factory until the test releases it.
    #[derive(Debug, Clone, Copy)]
    struct Req {
        steps: u64,
        step: Duration,
        gate: bool,
    }

    /// Steps of a full run in the shed-rule tests.
    const RULE_STEPS: u64 = 20;

    /// Submits `probe` to a calibrated one-replica `rta` pool while a gated
    /// request holds the replica and one more waits in the queue, so the
    /// probe is admitted at depth 1: the shape in which the shed rule
    /// engages. Warm-up runs count 20 steps of 2 ms, so the one request
    /// ahead alone adds a worst case of about 80 ms (margin 2). Returns the
    /// probe's answer and the pool's final stats.
    ///
    /// The pool runs on a runtime of its own, so that other tests' stage
    /// tasks cannot stall the warm-up runs that calibrate the probe's cap.
    fn submit_behind_queue(
        probe: Req,
        deadline: Duration,
        floor: f64,
    ) -> (Result<ServeResponse<u64>>, ServeStats) {
        let (hold, entered, release) = factory_gate();
        let runtime = crate::Runtime::new(1);
        let pool = Arc::new(
            ServePool::new(
                ServeOptions::default()
                    .replicas(1)
                    .runtime(runtime.handle())
                    .rta(RtaPolicy {
                        min_runs: 2,
                        ..RtaPolicy::default()
                    }),
                move |r: &Req| {
                    if r.gate {
                        hold();
                    }
                    counting_factory(r.steps, r.step)(&0)
                },
                fraction_quality(RULE_STEPS),
            )
            .unwrap(),
        );
        // Re-declared after the pool: see `factory_gate`.
        let release = release;
        let full = Req {
            steps: RULE_STEPS,
            step: Duration::from_millis(2),
            gate: false,
        };
        for _ in 0..3 {
            let resp = pool.submit(full, Duration::from_secs(10), 0.0).unwrap();
            assert_eq!(resp.status, ServeStatus::Final);
        }
        assert!(pool.rta_calibrated());
        let submit = |r: Req, deadline: Duration, floor: f64| {
            let p = Arc::clone(&pool);
            std::thread::spawn(move || p.submit(r, deadline, floor))
        };
        let quick = Req {
            steps: 1,
            step: Duration::from_millis(2),
            gate: false,
        };
        let blocker = submit(
            Req {
                gate: true,
                ..quick
            },
            Duration::from_secs(10),
            0.0,
        );
        await_build(&entered);
        let ahead = submit(quick, Duration::from_secs(10), 0.0);
        decided(&pool, 5);
        let probe = submit(probe, deadline, floor);
        decided(&pool, 6);
        release.send(()).unwrap();
        assert!(blocker.join().unwrap().is_ok());
        assert!(!ahead.join().unwrap().expect("queued request failed").shed);
        let answer = probe.join().unwrap();
        (answer, pool.shutdown())
    }

    #[test]
    fn queued_request_without_slack_is_shed_to_its_floor() {
        // The one request ahead alone puts the worst case past 80 ms. The
        // probe reaches floor 0.1 at its second 4 ms step, inside its cap
        // (about 12 ms: three 2 ms warm-up steps to 0.15, at margin 2), and
        // would need 80 ms to finish.
        let deadline = Duration::from_millis(80);
        let probe = Req {
            steps: RULE_STEPS,
            step: Duration::from_millis(4),
            gate: false,
        };
        let (answer, stats) = submit_behind_queue(probe, deadline, 0.1);
        let resp = answer.expect("shed request failed");
        assert!(resp.shed, "{resp:?}");
        assert!(resp.quality >= 0.1, "shed below its floor: {resp:?}");
        assert_eq!(resp.status, ServeStatus::AtDeadline, "{resp:?}");
        // Cut at its cap, well before the deadline.
        assert!(!resp.snapshot.is_final(), "{resp:?}");
        assert!(resp.elapsed < deadline, "{resp:?}");
        assert_eq!(stats.shed, 1, "{stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        // A shed request keeps its analysis and scores its bound.
        assert_eq!(
            stats.rta.bound_samples, stats.rta.feasible,
            "{:?}",
            stats.rta
        );
        assert_eq!(stats.live_runs, 0);
    }

    #[test]
    fn shed_run_is_not_cut_before_its_floor() {
        // The probe steps five times slower than the runs that calibrated
        // its cap (about 25 ms for floor 0.25): its floor lands after
        // 50 ms, long past the cap, yet well inside the deadline, which
        // is itself below the 105 ms the worst case cannot undercut.
        let deadline = Duration::from_millis(100);
        let probe = Req {
            steps: RULE_STEPS,
            step: Duration::from_millis(10),
            gate: false,
        };
        let (answer, stats) = submit_behind_queue(probe, deadline, 0.25);
        let resp = answer.expect("shed request failed");
        assert!(resp.shed, "{resp:?}");
        assert!(resp.quality >= 0.25, "cut before its floor: {resp:?}");
        assert_eq!(resp.status, ServeStatus::AtDeadline, "{resp:?}");
        assert!(!resp.snapshot.is_final(), "{resp:?}");
        assert!(resp.elapsed < deadline, "{resp:?}");
        assert_eq!(stats.shed, 1, "{stats:?}");
        assert_eq!(stats.live_runs, 0);
    }

    #[test]
    fn one_client_closed_loop_never_sheds() {
        // One closed-loop client finds the queue empty at every
        // admission, so the rule never engages even though every request
        // has negative slack: the deadline is one measured full run, while
        // floor 0.6 is crossed at 13 of 20 steps, which margin 2 turns into
        // a worst case of 1.3 runs. The certified lower bound, 0.3 runs,
        // still admits it.
        let runtime = crate::Runtime::new(1);
        let pool = ServePool::new(
            ServeOptions::default()
                .replicas(1)
                .runtime(runtime.handle())
                .rta(RtaPolicy {
                    min_runs: 2,
                    ..RtaPolicy::default()
                }),
            counting_factory(RULE_STEPS, Duration::from_micros(500)),
            fraction_quality(RULE_STEPS),
        )
        .unwrap();
        let mut warm: Vec<Duration> = (0..3)
            .map(|_| {
                pool.submit(0, Duration::from_secs(10), 0.0)
                    .unwrap()
                    .elapsed
            })
            .collect();
        assert!(pool.rta_calibrated());
        warm.sort();
        let deadline = warm[1];
        let mut served = 0u64;
        for _ in 0..30 {
            if let Ok(resp) = pool.submit(0, deadline, 0.6) {
                assert!(!resp.shed, "{resp:?}");
                served += 1;
            }
        }
        let stats = pool.shutdown();
        assert!(served >= 1, "{stats:?}");
        assert!(stats.rta.feasible >= 1, "{:?}", stats.rta);
        assert_eq!(stats.shed, 0, "{stats:?}");
    }

    /// `counting_factory(1_000_000, 1 ms)` whose [`BLOCKER`] builds wait
    /// on `hold`.
    fn gated_counting_factory(
        hold: impl Fn() + Send + Sync,
    ) -> impl Fn(&u64) -> Result<(Pipeline, BufferReader<u64>)> + Send + Sync {
        let build = counting_factory(1_000_000, Duration::from_millis(1));
        move |input: &u64| {
            if *input == BLOCKER {
                hold();
            }
            build(input)
        }
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        let (hold, entered, release) = factory_gate();
        let pool = Arc::new(
            ServePool::new(
                ServeOptions {
                    replicas: 1,
                    queue_capacity: 1,
                    ..ServeOptions::default()
                },
                gated_counting_factory(hold),
                fraction_quality(1_000_000),
            )
            .unwrap(),
        );
        // Re-declared after the pool: see `factory_gate`.
        let release = release;
        // Occupy the only replica, then fill the single queue slot.
        let p1 = Arc::clone(&pool);
        let busy = std::thread::spawn(move || p1.submit(BLOCKER, Duration::from_millis(400), 0.0));
        await_build(&entered);
        let p2 = Arc::clone(&pool);
        let queued = std::thread::spawn(move || p2.submit(0, Duration::from_millis(600), 0.0));
        decided(&pool, 2);
        // Capacity, not deadline, is the problem: the budget is generous.
        match pool.submit(0, Duration::from_secs(60), 0.0) {
            Err(CoreError::QueueFull { depth, capacity }) => {
                assert_eq!(depth, 1);
                assert_eq!(capacity, 1);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        release.send(()).unwrap();
        assert!(busy.join().unwrap().is_ok());
        assert!(queued.join().unwrap().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.admitted, 2);
    }

    #[test]
    fn shutdown_fails_queued_requests() {
        let (hold, entered, release) = factory_gate();
        let pool = Arc::new(
            ServePool::new(
                ServeOptions {
                    replicas: 1,
                    ..ServeOptions::default()
                },
                gated_counting_factory(hold),
                fraction_quality(1_000_000),
            )
            .unwrap(),
        );
        // Re-declared after the pool: see `factory_gate`.
        let release = release;
        // Occupy the only replica, then queue a second request.
        let p1 = Arc::clone(&pool);
        let busy = std::thread::spawn(move || p1.submit(BLOCKER, Duration::from_millis(400), 0.0));
        await_build(&entered);
        let p2 = Arc::clone(&pool);
        let queued = std::thread::spawn(move || p2.submit(0, Duration::from_secs(5), 0.0));
        decided(&pool, 2);
        // Shut down while the blocker's build holds the replica. Shutdown
        // fails the queued request before it joins the worker, so that
        // answer comes first, and the release then lets the join finish.
        let p3 = Arc::clone(&pool);
        let shutdown = std::thread::spawn(move || p3.shutdown());
        let queued = queued.join().unwrap();
        release.send(()).unwrap();
        let stats = shutdown.join().unwrap();
        assert!(busy.join().unwrap().is_ok());
        assert!(matches!(queued, Err(CoreError::PoolShutdown)));
        assert_eq!(stats.live_runs, 0);
    }

    #[test]
    fn zero_replicas_rejected() {
        let r = ServePool::new(
            ServeOptions::default().replicas(0),
            counting_factory(1, Duration::ZERO),
            fraction_quality(1),
        );
        assert!(matches!(r, Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn reachability_rule_is_strict_and_shared() {
        // Regression for a split between two reachability rules: admission
        // used to admit a request whose projected arrival landed *exactly
        // on* its deadline while another path skipped requests on the same
        // boundary. One helper now decides admission and retry, strictly:
        // arriving at the deadline is not reaching it.
        let now = Instant::now();
        let min = Duration::from_millis(5);
        assert!(!deadline_reachable(now, Duration::ZERO, min, now + min));
        assert!(deadline_reachable(
            now,
            Duration::ZERO,
            min,
            now + min + Duration::from_nanos(1)
        ));
        let pending = Duration::from_millis(2);
        assert!(!deadline_reachable(
            now,
            pending,
            min,
            now + Duration::from_millis(7)
        ));
        assert!(deadline_reachable(
            now,
            Duration::from_millis(1),
            min,
            now + Duration::from_millis(7)
        ));
    }

    #[test]
    fn rta_gate_calibrates_then_proves_infeasibility() {
        // 10 steps of >=2ms each: quality 1.0 is unreachable in under
        // 20ms, so with optimism 0.5 the certified lower bound for floor
        // 1.0 is at least 10ms — far above the 3ms budget below.
        let pool = ServePool::new(
            ServeOptions {
                replicas: 1,
                min_service: Duration::from_micros(1),
                ..ServeOptions::default()
            }
            .rta(RtaPolicy {
                min_runs: 2,
                ..RtaPolicy::default()
            }),
            counting_factory(10, Duration::from_millis(2)),
            fraction_quality(10),
        )
        .unwrap();
        assert!(!pool.rta_calibrated());
        // Two warm-up runs calibrate the gate (heuristic fallbacks); the
        // third is analytically admitted and scores a bound sample.
        for _ in 0..3 {
            let resp = pool.submit(0, Duration::from_secs(10), 0.0).unwrap();
            assert_eq!(resp.status, ServeStatus::Final);
        }
        assert!(pool.rta_calibrated());
        let budget = Duration::from_millis(3);
        match pool.submit(0, budget, 1.0) {
            Err(CoreError::Infeasible {
                bound,
                budget: b,
                floor,
            }) => {
                assert!(
                    bound > budget,
                    "certified bound {bound:?} must exceed {budget:?}"
                );
                assert!(bound >= Duration::from_millis(10), "bound {bound:?}");
                assert_eq!(b, budget);
                assert_eq!(floor, 1.0);
            }
            other => panic!("expected a proven-infeasible rejection, got {other:?}"),
        }
        let stats = pool.shutdown();
        assert!(stats.rta.fallback >= 2, "{:?}", stats.rta);
        assert!(stats.rta.feasible >= 1, "{:?}", stats.rta);
        assert_eq!(stats.rta.infeasible, 1);
        assert_eq!(stats.rejected, 1);
        assert!(stats.rta.bound_samples >= 1, "{:?}", stats.rta);
        assert!(stats.rta.calibrated);
        assert!(stats.rta.calibration_runs >= 2);
        // The trace carries the feasibility verdicts with their bounds.
        // (Recorder is a no-op here unless installed; counters above are
        // the authoritative check.)
    }

    #[test]
    fn rta_feasible_requests_keep_their_floor() {
        // Analytically-admitted requests must meet the floor they were
        // admitted against: deadline far above the worst case, floor well
        // inside observed quality. The pool runs on a runtime of its own,
        // so that other tests' stage tasks cannot stall the one run that
        // calibrates the gate.
        let runtime = crate::Runtime::new(1);
        let pool = ServePool::new(
            ServeOptions {
                replicas: 1,
                min_service: Duration::from_micros(1),
                ..ServeOptions::default()
            }
            .rta(RtaPolicy {
                min_runs: 1,
                ..RtaPolicy::default()
            })
            .runtime(runtime.handle()),
            counting_factory(5, Duration::from_millis(1)),
            fraction_quality(5),
        )
        .unwrap();
        pool.submit(0, Duration::from_secs(10), 0.0).unwrap();
        assert!(pool.rta_calibrated());
        let resp = pool.submit(0, Duration::from_secs(10), 0.8).unwrap();
        assert!(resp.quality >= 0.8, "quality {} below floor", resp.quality);
        let stats = pool.shutdown();
        assert!(stats.rta.feasible >= 1);
        assert_eq!(stats.rta.bound_violations, 0, "{:?}", stats.rta);
        // Prometheus surface includes the rta family.
        assert_eq!(stats.rta.infeasible, 0);
    }

    #[test]
    fn rta_pool_exports_bound_error_gauge() {
        let pool = ServePool::new(
            ServeOptions {
                replicas: 1,
                min_service: Duration::from_micros(1),
                ..ServeOptions::default()
            }
            .rta(RtaPolicy {
                min_runs: 1,
                ..RtaPolicy::default()
            }),
            counting_factory(3, Duration::from_micros(200)),
            fraction_quality(3),
        )
        .unwrap();
        pool.submit(0, Duration::from_secs(10), 0.0).unwrap();
        pool.submit(0, Duration::from_secs(10), 0.0).unwrap();
        let text = pool.prometheus();
        assert!(text.contains("anytime_rta_decisions_total"), "{text}");
        assert!(text.contains("anytime_rta_bound_error_ratio"), "{text}");
        assert!(text.contains("anytime_rta_calibrated 1"), "{text}");
        pool.shutdown();
    }

    #[test]
    fn factory_panic_is_fenced_and_structured() {
        use std::sync::atomic::AtomicBool;
        let panicked = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&panicked);
        let working = counting_factory(3, Duration::from_micros(100));
        let factory = move |input: &u64| {
            if !flag.swap(true, Ordering::SeqCst) {
                // resume_unwind skips the panic hook: the intentional
                // panic stays silent in test output; the String payload
                // still exercises message extraction.
                std::panic::resume_unwind(Box::new("injected factory panic".to_string()));
            }
            working(input)
        };
        let pool = ServePool::new(
            ServeOptions {
                replicas: 1,
                retry: RetryPolicy {
                    max_attempts: 0,
                    base_backoff: Duration::ZERO,
                    max_backoff: Duration::ZERO,
                },
                min_service: Duration::from_micros(1),
                ..ServeOptions::default()
            },
            factory,
            fraction_quality(3),
        )
        .unwrap();
        // The panic is fenced into a structured error (not a generic
        // Timeout), and the worker thread survives to serve the retry.
        let err = pool.submit(0, Duration::from_millis(300), 0.0).unwrap_err();
        match err {
            CoreError::ReplicaPanicked {
                replica,
                context,
                message,
            } => {
                assert_eq!(replica, 0);
                assert_eq!(context, "pipeline factory");
                assert_eq!(message.as_deref(), Some("injected factory panic"));
            }
            other => panic!("expected ReplicaPanicked, got {other:?}"),
        }
        let resp = pool.submit(0, Duration::from_secs(5), 0.0).unwrap();
        assert_eq!(resp.status, ServeStatus::Final);
        assert_eq!(pool.worker_count(), 1, "the fence kept the thread alive");
        let stats = pool.shutdown();
        assert!(stats.governor.closure_panics >= 1, "{:?}", stats.governor);
        assert_eq!(stats.live_runs, 0);
    }

    #[test]
    fn quality_panic_is_fenced_and_retried() {
        use std::sync::atomic::AtomicBool;
        let panicked = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&panicked);
        let quality = move |s: &Snapshot<u64>| {
            if !flag.swap(true, Ordering::SeqCst) {
                std::panic::resume_unwind(Box::new("injected quality panic".to_string()));
            }
            *s.value() as f64 / 3.0
        };
        let pool = ServePool::new(
            ServeOptions {
                replicas: 1,
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff: Duration::from_micros(100),
                    max_backoff: Duration::from_millis(1),
                },
                min_service: Duration::from_micros(1),
                ..ServeOptions::default()
            },
            counting_factory(3, Duration::from_micros(100)),
            quality,
        )
        .unwrap();
        let resp = pool.submit(0, Duration::from_secs(5), 0.0).unwrap();
        assert_eq!(resp.status, ServeStatus::Final);
        assert!(resp.retries >= 1, "the panicked attempt retried");
        let stats = pool.shutdown();
        assert!(stats.governor.closure_panics >= 1, "{:?}", stats.governor);
        assert!(stats.retried >= 1);
        assert_eq!(stats.live_runs, 0);
    }

    #[test]
    fn double_shutdown_is_idempotent() {
        let (hold, entered, release) = factory_gate();
        let pool = Arc::new(
            ServePool::new(
                ServeOptions {
                    replicas: 1,
                    ..ServeOptions::default()
                },
                gated_counting_factory(hold),
                fraction_quality(1_000_000),
            )
            .unwrap(),
        );
        // Re-declared after the pool: see `factory_gate`.
        let release = release;
        // Occupy the only replica, then queue a second request so the
        // first shutdown has something to drain-fail.
        let p1 = Arc::clone(&pool);
        let busy = std::thread::spawn(move || p1.submit(BLOCKER, Duration::from_millis(300), 0.0));
        await_build(&entered);
        let p2 = Arc::clone(&pool);
        let queued = std::thread::spawn(move || p2.submit(0, Duration::from_secs(5), 0.0));
        decided(&pool, 2);
        // As in `shutdown_fails_queued_requests`: the queued request is
        // answered before the first shutdown joins the held worker.
        let p3 = Arc::clone(&pool);
        let shutdown = std::thread::spawn(move || p3.shutdown());
        let queued = queued.join().unwrap();
        release.send(()).unwrap();
        let first = shutdown.join().unwrap();
        let second = pool.shutdown();
        assert!(busy.join().unwrap().is_ok());
        assert!(matches!(queued, Err(CoreError::PoolShutdown)));
        // The drained request failed exactly once; the second shutdown
        // found nothing left to drain or join.
        assert_eq!(first.failed, 1);
        assert_eq!(second.failed, first.failed);
        assert_eq!(second.completed, first.completed);
        assert_eq!(second.admitted, first.admitted);
        assert_eq!(second.live_runs, 0);
        // Drop after explicit shutdown is the third pass; also a no-op.
        drop(pool);
    }

    #[test]
    fn resize_under_live_traffic() {
        let pool = Arc::new(
            ServePool::new(
                ServeOptions {
                    replicas: 2,
                    queue_capacity: 256,
                    ..ServeOptions::default()
                },
                counting_factory(5, Duration::from_micros(200)),
                fraction_quality(5),
            )
            .unwrap(),
        );
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut ok = 0u64;
                    for _ in 0..12 {
                        if p.submit(0, Duration::from_secs(5), 0.0).is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        pool.resize(4).unwrap();
        pool.resize(1).unwrap();
        let ok: u64 = submitters.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(ok, 48, "no admitted request may be dropped mid-resize");
        assert_eq!(pool.worker_count(), 1);
        let stats = pool.shutdown();
        assert_eq!(stats.completed, stats.admitted, "{stats:?}");
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.live_runs, 0);
        assert_eq!(stats.governor.resizes, 2);
        // resize(4) grew by 2; resize(1) drained 3.
        assert_eq!(stats.governor.worker_adds, 2);
        assert_eq!(stats.governor.worker_drains, 3);
        assert!(pool.resize(0).is_err(), "zero replicas is invalid");
        assert!(matches!(pool.resize(2), Err(CoreError::PoolShutdown)));
    }

    #[test]
    fn draining_gauge_counts_a_worker_until_it_joins() {
        // `resize` takes a worker out of the registry before flagging it,
        // so the gauge must count the drain itself, from flag to join.
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let build = counting_factory(1, Duration::ZERO);
        let pool = ServePool::new(
            ServeOptions::default().replicas(2),
            move |input: &u64| {
                started_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
                build(input)
            },
            fraction_quality(1),
        )
        .unwrap();
        let draining = || pool.stats().governor.workers_draining;
        std::thread::scope(|s| {
            let requests: Vec<_> = (0..2)
                .map(|_| s.spawn(|| pool.submit(0, Duration::from_secs(60), 0.0)))
                .collect();
            // Both replicas are now inside the factory, mid-request. Nothing
            // may panic until the factories are released: the scope and the
            // pool's drop would wait for them for good.
            let started: Vec<_> = (0..2)
                .map(|_| started_rx.recv_timeout(Duration::from_secs(30)))
                .collect();
            let resize = s.spawn(|| pool.resize(1));
            let deadline = Instant::now() + Duration::from_secs(10);
            while draining() != 1 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let (counted, live) = (draining(), pool.stats().governor.workers_live);
            // Release both factories, then hang up, so that no factory
            // call, however late, can block.
            for _ in 0..2 {
                let _ = release_tx.send(());
            }
            drop(release_tx);
            assert!(started.iter().all(|r| r.is_ok()), "a replica never started");
            resize.join().unwrap().unwrap();
            assert_eq!(counted, 1, "the drain in progress is not counted");
            assert_eq!(live, 1);
            assert_eq!(draining(), 0);
            for r in requests {
                assert_eq!(r.join().unwrap().unwrap().status, ServeStatus::Final);
            }
        });
        let stats = pool.shutdown();
        assert_eq!(stats.governor.workers_draining, 0);
        assert_eq!(stats.governor.worker_drains, 1);
    }

    #[test]
    fn resize_on_quiescent_pool() {
        // Regression: the drain flag used to be stored without the queue
        // mutex, so a worker parked between its predicate check and its
        // wait could miss the notify — on an idle pool nothing else
        // notifies, and the join in resize() hung forever. Cycle
        // reconfigurations against parked workers under a watchdog so a
        // reintroduced race fails instead of hanging.
        let pool = Arc::new(
            ServePool::new(
                ServeOptions {
                    replicas: 3,
                    ..ServeOptions::default()
                },
                counting_factory(5, Duration::from_micros(200)),
                fraction_quality(5),
            )
            .unwrap(),
        );
        let p = Arc::clone(&pool);
        let ops = std::thread::spawn(move || {
            for _ in 0..25 {
                p.resize(1).unwrap();
                p.resize(3).unwrap();
            }
            p.worker_count()
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while !ops.is_finished() {
            assert!(
                Instant::now() < deadline,
                "resize hung on a quiescent pool (lost wakeup)"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ops.join().unwrap(), 3);
        let stats = pool.shutdown();
        assert_eq!(stats.governor.resizes, 50);
        // Every cycle drains 2 and adds 2.
        assert_eq!(stats.governor.worker_adds, 50);
        assert_eq!(stats.governor.worker_drains, 50);
        assert_eq!(stats.live_runs, 0);
    }

    #[test]
    fn busy_clear_guard_clears_on_unwind() {
        let recorder = Recorder::disabled();
        let state = ReplicaState::new(0, &recorder);
        *lock(&state.busy_until) = Some(Instant::now() + Duration::from_secs(60));
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _busy = BusyClear(&state);
            // resume_unwind: a silent panic, like an injected worker kill.
            std::panic::resume_unwind(Box::new("die mid-run"));
        }));
        assert!(unwound.is_err());
        assert!(
            lock(&state.busy_until).is_none(),
            "stale busy_until survived the unwind"
        );
    }
}
