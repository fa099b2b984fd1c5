//! Chaos-style soak test for the serving layer (ISSUE 3 acceptance
//! scenario): a 4-replica [`ServePool`] under a seeded fault plan — panics,
//! stalls, slowdowns — with 8 concurrent submitters and ≥ 500 requests.
//!
//! Invariants asserted:
//!
//! - every response arrives by its deadline (plus scheduling slop) or the
//!   request is rejected at admission; zero hangs;
//! - no response is below its quality floor unless flagged degraded;
//! - every run is verifiably stopped: `live_runs == 0` at pool shutdown,
//!   i.e. no leaked running stages;
//! - the serve counters reconcile: `admitted + rejected` equals the
//!   submissions, `completed + failed` equals the admissions, the
//!   aggregated per-run `FaultStats` reflect the injected faults, and the
//!   serve-layer retry counter covers every per-response retry.
//!
//! Deterministic: all faults derive from `SOAK_SEED` (default 0xA17) and
//! fire only on a request's *first* pipeline build (the transient-fault
//! model), so retries recover reproducibly. Request volume is
//! `SOAK_REQUESTS` per submitter thread (default 70 ⇒ 560 total).
//! Requires `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use anytime_core::metrics::ServeStats;
use anytime_core::serve::{RetryPolicy, ServeOptions, ServePool};
use anytime_core::{
    CoreError, Diffusive, FaultPlan, Precise, RtaPolicy, ServeResponse, ServeStatus, StageOptions,
    StepOutcome, Supervision,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Duration;

/// Steps in the source stage; also the seeded plans' `max_step`.
const N: u64 = 16;
/// Per-step work in the source stage.
const STEP_DELAY: Duration = Duration::from_micros(500);
/// Submitter threads (the acceptance scenario's concurrency).
const SUBMITTERS: usize = 8;
/// Allowance past the deadline for thread scheduling and step-boundary
/// stop latency; responses are produced *at* the deadline, not after it.
const DEADLINE_SLOP: Duration = Duration::from_millis(100);

/// [`soak_64_replicas_fixed_workers`] bounds the whole process's OS thread
/// count, so it runs alone: it holds this lock for writing, and every
/// other soak holds it for reading.
static PROCESS_THREADS: RwLock<()> = RwLock::new(());

/// The read side of [`PROCESS_THREADS`], for soaks that may run together.
fn shared_process() -> RwLockReadGuard<'static, ()> {
    PROCESS_THREADS.read().unwrap_or_else(|e| e.into_inner())
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The four deterministic request classes, by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Fail-stop supervision + a seeded panic: exercises serve-layer retry.
    Panic,
    /// Degrade supervision + a fully seeded plan: exercises degraded
    /// responses.
    Degrade,
    /// A heavy per-step slowdown on the first build: the slowed run is
    /// answered at its deadline with the best snapshot it reached.
    Slow,
    /// No injected fault.
    Clean,
}

fn class_of(id: u64) -> Class {
    match id % 4 {
        0 => Class::Panic,
        1 => Class::Degrade,
        2 => Class::Slow,
        _ => Class::Clean,
    }
}

/// Builds the pool: a 2-stage pipeline (`f` counts to [`N`], `g` doubles)
/// whose first build per request id arms that id's seeded faults.
fn build_pool(seed: u64) -> ServePool<u64, u64> {
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let factory = move |&id: &u64| {
        let class = class_of(id);
        let sup = match class {
            Class::Degrade => Supervision::degrade(),
            _ => Supervision::fail_stop(),
        };
        let opts = StageOptions::with_publish_every(1).supervise(sup);
        let mut pb = anytime_core::PipelineBuilder::new();
        let f = pb.source(
            "f",
            (),
            Diffusive::new(
                |_: &()| 0u64,
                |_: &(), out: &mut u64, _| {
                    std::thread::sleep(STEP_DELAY);
                    *out += 1;
                    if *out == N {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                },
            ),
            opts,
        );
        let g = pb.stage("g", &f, Precise::new(|v: &u64| v * 2), opts);
        // Transient-fault model: faults arm only on the first build of
        // each request id, so retries rebuild clean.
        let first_build = seen.lock().unwrap().insert(id);
        let pb = if first_build {
            let plan = match class {
                Class::Panic => FaultPlan::new().panic_at("f", 1 + (seed ^ id) % N),
                Class::Degrade => FaultPlan::seeded(seed ^ id, &["f", "g"], N),
                Class::Slow => FaultPlan::new().slow_down("f", Duration::from_millis(2)),
                Class::Clean => FaultPlan::new(),
            };
            pb.with_faults(plan)
        } else {
            pb
        };
        Ok((pb.build(), g))
    };
    let opts = ServeOptions {
        replicas: 4,
        queue_capacity: 256,
        min_service: Duration::from_millis(2),
        default_service_estimate: Duration::from_millis(10),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
        },
        seed,
        ..ServeOptions::default()
    };
    // Quality: fraction of the precise output (g = 2N when complete).
    ServePool::new(opts, factory, |s| *s.value() as f64 / (2 * N) as f64).unwrap()
}

/// Deadline budget for a request: three servable classes plus one budget
/// below `min_service`, which admission must deterministically reject.
fn deadline_of(i: u64) -> Duration {
    match i % 4 {
        0 => Duration::from_millis(500),
        1 => Duration::from_millis(150),
        2 => Duration::from_millis(60),
        _ => Duration::from_micros(10),
    }
}

fn floor_of(i: u64) -> f64 {
    match i % 3 {
        0 => 0.0,
        1 => 0.25,
        _ => 0.5,
    }
}

#[test]
fn soak_pool_under_seeded_faults_and_concurrent_load() {
    let _threads = shared_process();
    let seed = env_u64("SOAK_SEED", 0xA17);
    let per_thread = env_u64("SOAK_REQUESTS", 70);
    let pool = Arc::new(build_pool(seed));
    let mut handles = Vec::new();
    for t in 0..SUBMITTERS as u64 {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            type Submitted = (u64, Duration, f64, Result<ServeResponse<u64>, CoreError>);
            let mut results: Vec<Submitted> = Vec::new();
            for i in 0..per_thread {
                let id = t * per_thread + i;
                let deadline = deadline_of(t + i);
                let floor = floor_of(i);
                let res = pool.submit(id, deadline, floor);
                results.push((id, deadline, floor, res));
            }
            results
        }));
    }
    let mut ok_count = 0u64;
    let mut err_admission = 0u64;
    let mut err_other = 0u64;
    let mut retries_in_ok = 0u64;
    let mut degraded_seen = false;
    for h in handles {
        for (id, deadline, floor, res) in h.join().expect("submitter panicked — a hang or assert")
        {
            match res {
                Ok(resp) => {
                    ok_count += 1;
                    assert!(
                        resp.elapsed <= deadline + DEADLINE_SLOP,
                        "request {id}: responded {:?} after a {deadline:?} deadline",
                        resp.elapsed
                    );
                    assert!(
                        resp.quality >= floor || resp.status == ServeStatus::Degraded,
                        "request {id}: quality {} below floor {floor} but status {:?}",
                        resp.quality,
                        resp.status
                    );
                    if resp.status == ServeStatus::Final {
                        assert_eq!(
                            *resp.snapshot.value(),
                            2 * N,
                            "request {id}: final response with wrong precise value"
                        );
                    }
                    retries_in_ok += u64::from(resp.retries);
                    degraded_seen |= resp.status == ServeStatus::Degraded;
                }
                Err(CoreError::AdmissionRejected { projected, budget }) => {
                    err_admission += 1;
                    assert!(
                        projected > budget,
                        "request {id}: rejection with projected {projected:?} <= budget {budget:?}"
                    );
                }
                Err(CoreError::QueueFull { depth, capacity }) => {
                    err_admission += 1;
                    assert!(
                        depth >= capacity,
                        "request {id}: queue-full rejection at depth {depth} < capacity {capacity}"
                    );
                }
                // A request whose every attempt died before publishing is
                // an error, not a late response; PoolShutdown cannot occur
                // before shutdown() below.
                Err(CoreError::Timeout) => err_other += 1,
                Err(e) => panic!("request {id}: unexpected error {e}"),
            }
        }
    }
    let total = SUBMITTERS as u64 * per_thread;
    // The sub-min_service budget class is rejected at admission, always.
    assert!(
        err_admission >= total / 4,
        "tight deadlines not rejected: {err_admission} of {total}"
    );
    let stats = pool.shutdown();
    // No leaked running stages: every run was stopped and joined before
    // shutdown returned.
    assert_eq!(stats.live_runs, 0, "leaked pipeline runs: {stats:?}");
    // Counter reconciliation with the submitters' view and the per-run
    // RunReport aggregation.
    assert_eq!(stats.admitted + stats.rejected, total, "{stats:?}");
    assert_eq!(stats.completed + stats.failed, stats.admitted, "{stats:?}");
    assert_eq!(stats.completed, ok_count, "{stats:?}");
    assert_eq!(
        stats.failed + stats.rejected,
        err_admission + err_other,
        "{stats:?}"
    );
    assert!(
        stats.retried >= retries_in_ok,
        "serve retry counter ({}) below per-response sum ({retries_in_ok})",
        stats.retried
    );
    assert!(
        degraded_seen || stats.degraded_responses == 0,
        "pool counted degraded responses no submitter saw: {stats:?}"
    );
    // The injected panic class dies permanently at least once per soak, so
    // the aggregated fault stats must show permanent failures and the
    // degrade class must show degradations.
    assert!(
        stats.faults.permanent_failures >= 1,
        "injected panics left no permanent failures: {stats:?}"
    );
    assert!(
        stats.retried >= 1,
        "permanent deaths were never retried: {stats:?}"
    );
    assert!(
        stats.deadline.hit_rate() >= 0.9,
        "deadline hit rate {:.3} below 0.9: {stats:?}",
        stats.deadline.hit_rate()
    );
}

/// The analytical admission gate's hard invariant under injected faults:
/// **no request admitted by a calibrated gate may miss its quality floor.**
///
/// Three seeds derived from `SOAK_SEED` run a stall/slowdown/clean request
/// mix against an [`RtaPolicy`]-gated pool. After a synchronous warm-up
/// calibrates the gate, every admitted request must meet the floor it was
/// admitted against (fail-stop supervision, so nothing is ever sealed
/// degraded — a below-floor response would be an unflagged analysis lie),
/// and a floor/deadline pair below the certified lower bound must be
/// rejected with [`CoreError::Infeasible`] carrying that bound.
#[test]
fn soak_rta_gate_floor_invariant() {
    let _threads = shared_process();
    let base_seed = env_u64("SOAK_SEED", 0xA17);
    for round in 0..3u64 {
        let seed = base_seed ^ (round * 0x9E37_79B9);
        let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        let factory = move |&id: &u64| {
            let opts = StageOptions::with_publish_every(1).supervise(Supervision::fail_stop());
            let mut pb = anytime_core::PipelineBuilder::new();
            let f = pb.source(
                "f",
                (),
                Diffusive::new(
                    |_: &()| 0u64,
                    |_: &(), out: &mut u64, _| {
                        std::thread::sleep(STEP_DELAY);
                        *out += 1;
                        if *out == N {
                            StepOutcome::Done
                        } else {
                            StepOutcome::Continue
                        }
                    },
                ),
                opts,
            );
            // Transient faults on the first build only: stalls and
            // slowdowns delay the run (fail-stop passes them through);
            // retries rebuild clean.
            let pb = if seen.lock().unwrap().insert(id) {
                let plan = match id % 3 {
                    0 => FaultPlan::new().stall_at(
                        "f",
                        1 + (seed ^ id) % N,
                        Duration::from_millis(10),
                    ),
                    1 => FaultPlan::new().slow_down("f", Duration::from_millis(1)),
                    _ => FaultPlan::new(),
                };
                pb.with_faults(plan)
            } else {
                pb
            };
            Ok((pb.build(), f))
        };
        let pool = Arc::new(
            ServePool::new(
                ServeOptions {
                    replicas: 2,
                    queue_capacity: 64,
                    min_service: Duration::from_micros(100),
                    retry: RetryPolicy {
                        max_attempts: 2,
                        base_backoff: Duration::from_millis(1),
                        max_backoff: Duration::from_millis(5),
                    },
                    seed,
                    ..ServeOptions::default()
                }
                .rta(RtaPolicy {
                    min_runs: 4,
                    ..RtaPolicy::default()
                }),
                factory,
                |s| *s.value() as f64 / N as f64,
            )
            .unwrap(),
        );
        // Synchronous warm-up: clean generous requests calibrate the gate
        // before any gated submission.
        for i in 0..6u64 {
            // 1_000_001 + 3i ≡ 2 (mod 3): the clean class, so warm-up
            // curves are not widened by injected faults.
            pool.submit(1_000_001 + 3 * i, Duration::from_millis(500), 0.0)
                .unwrap_or_else(|e| panic!("round {round}: warm-up request failed: {e}"));
        }
        assert!(
            pool.rta_calibrated(),
            "round {round}: gate uncalibrated after warm-up"
        );
        // Gated load: 3 submitters × 20 requests, feasible floors with
        // deadlines generously above the calibrated worst case.
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let mut floor_misses = Vec::new();
                for i in 0..20u64 {
                    let id = t * 20 + i;
                    let floor = [0.0, 0.3, 0.6][(i % 3) as usize];
                    match pool.submit(id, Duration::from_millis(500), floor) {
                        Ok(resp) => {
                            if resp.quality < floor {
                                floor_misses.push((id, floor, resp.quality, resp.status));
                            }
                        }
                        // Admission may reject under momentary backlog;
                        // it must never *admit and then* miss the floor.
                        Err(
                            CoreError::AdmissionRejected { .. }
                            | CoreError::Infeasible { .. }
                            | CoreError::QueueFull { .. },
                        ) => {}
                        Err(e) => panic!("request {id}: unexpected error {e}"),
                    }
                }
                floor_misses
            }));
        }
        for h in handles {
            let misses = h.join().expect("submitter panicked");
            assert!(
                misses.is_empty(),
                "round {round} (seed {seed:#x}): analytically-admitted requests \
                 missed their floors: {misses:?}"
            );
        }
        // A floor near full quality with a budget far under the certified
        // lower bound (>= 14 steps of real sleep, halved by optimism) is
        // *provably* infeasible — rejected instantly, bound attached.
        let budget = Duration::from_millis(1);
        match pool.submit(9_999_999, budget, 0.9) {
            Err(CoreError::Infeasible {
                bound,
                budget: b,
                floor,
            }) => {
                assert!(bound > budget, "round {round}: bound {bound:?}");
                assert_eq!(b, budget);
                assert!((floor - 0.9).abs() < f64::EPSILON);
            }
            other => panic!("round {round}: expected Infeasible, got {other:?}"),
        }
        let stats = pool.shutdown();
        assert_eq!(stats.live_runs, 0, "round {round}: leaked runs: {stats:?}");
        assert!(stats.rta.calibrated, "round {round}: {:?}", stats.rta);
        assert!(stats.rta.feasible >= 1, "round {round}: {:?}", stats.rta);
        assert_eq!(stats.rta.infeasible, 1, "round {round}: {:?}", stats.rta);
        assert!(
            stats.rta.bound_samples >= stats.rta.feasible,
            "round {round}: every analytically-admitted response must score \
             the bound: {:?}",
            stats.rta
        );
    }
}

/// A pool whose requests all run the [`N`]-step counting source, `step`
/// per step: quality is the fraction of the precise count.
fn counting_pool(opts: ServeOptions, step: Duration) -> ServePool<u64, u64> {
    ServePool::new(
        opts,
        move |_: &u64| {
            let mut pb = anytime_core::PipelineBuilder::new();
            let f = pb.source(
                "f",
                (),
                Diffusive::new(
                    |_: &()| 0u64,
                    move |_: &(), out: &mut u64, _| {
                        std::thread::sleep(step);
                        *out += 1;
                        if *out == N {
                            StepOutcome::Done
                        } else {
                            StepOutcome::Continue
                        }
                    },
                ),
                StageOptions::with_publish_every(1),
            );
            Ok((pb.build(), f))
        },
        |s| *s.value() as f64 / N as f64,
    )
    .unwrap()
}

/// Overload against an [`RtaPolicy`]-gated pool, in two phases:
///
/// - **Short deadlines**: 4 closed-loop clients × 20 requests on one
///   replica running 2 ms steps, with deadlines of 5 measured service
///   times (≈ 165 ms). Two or three requests are usually queued ahead,
///   and at margin 2 each adds two service times to the worst case, which
///   then misses the deadline: admission sheds requests to their floors'
///   service bounds, so low floors (0.1) answer sooner than high floors
///   (0.8).
/// - **Burst**: 24 simultaneous arrivals with 2 s deadlines.
///
/// Invariants: every request is served by its deadline (plus slop), none
/// fails, no answer is below its floor without being flagged degraded,
/// and the shed counter equals the responses flagged shed.
///
/// The pool runs on a runtime of its own: the other soaks stall and slow
/// steps on the shared runtime's few workers, which would starve these
/// runs of their first publication regardless of admission. The long
/// steps keep a host scheduling stall of tens of milliseconds small
/// against the deadlines: a run cut at its deadline leaves the next
/// request only the gap between their admissions.
#[test]
fn soak_shedding_degrades_quality_not_availability() {
    use anytime_core::Runtime;

    let _threads = shared_process();
    let seed = env_u64("SOAK_SEED", 0xA17);
    let runtime = Runtime::new(1);
    let pool = Arc::new(counting_pool(
        ServeOptions {
            replicas: 1,
            queue_capacity: 64,
            min_service: Duration::from_millis(1),
            retry: RetryPolicy::default(),
            seed,
            ..ServeOptions::default()
        }
        .rta(RtaPolicy {
            min_runs: 4,
            ..RtaPolicy::default()
        })
        .runtime(runtime.handle()),
        Duration::from_millis(2),
    ));
    // Synchronous warm-up: full runs calibrate the gate and measure the
    // service time in this build on this host.
    let mut warm: Vec<Duration> = (0..6u64)
        .map(|i| {
            let resp = pool
                .submit(1_000 + i, Duration::from_secs(2), 0.0)
                .unwrap_or_else(|e| panic!("warm-up request failed: {e}"));
            assert_eq!(resp.status, ServeStatus::Final);
            resp.elapsed
        })
        .collect();
    assert!(pool.rta_calibrated(), "gate uncalibrated after warm-up");
    warm.sort();
    let short = warm[warm.len() / 2] * 5;

    type Answer = (f64, ServeResponse<u64>);
    let check = |id: u64, deadline: Duration, floor: f64, resp: &ServeResponse<u64>| {
        assert!(
            resp.elapsed <= deadline + DEADLINE_SLOP,
            "request {id}: responded {:?} after a {deadline:?} deadline",
            resp.elapsed
        );
        assert!(
            resp.quality >= floor || resp.status == ServeStatus::Degraded,
            "request {id}: quality {} below floor {floor} but status {:?}",
            resp.quality,
            resp.status
        );
    };
    let clients: Vec<_> = (0..4u64)
        .map(|t| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                (0..20u64)
                    .map(|i| {
                        let id = t * 20 + i;
                        let floor = if (t + i) % 2 == 0 { 0.1 } else { 0.8 };
                        let resp = pool
                            .submit(id, short, floor)
                            .unwrap_or_else(|e| panic!("request {id} not served: {e}"));
                        check(id, short, floor, &resp);
                        (floor, resp)
                    })
                    .collect::<Vec<Answer>>()
            })
        })
        .collect();
    let answers: Vec<Answer> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client panicked — a failed request"))
        .collect();
    assert_eq!(answers.len(), 80, "availability dropped under overload");
    let mean_elapsed = |floor: f64| {
        let runs: Vec<Duration> = answers
            .iter()
            .filter(|(f, _)| *f == floor)
            .map(|(_, r)| r.elapsed)
            .collect();
        runs.iter().sum::<Duration>() / runs.len() as u32
    };
    let (low, high) = (mean_elapsed(0.1), mean_elapsed(0.8));
    assert!(
        low < high,
        "low-floor runs ({low:?}) not shorter than high-floor runs ({high:?}) \
         at {short:?} deadlines"
    );

    let burst: Vec<_> = (0..24u64)
        .map(|i| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let id = 10_000 + i;
                let deadline = Duration::from_secs(2);
                let resp = pool
                    .submit(id, deadline, 0.1)
                    .unwrap_or_else(|e| panic!("burst request {id} dropped: {e}"));
                check(id, deadline, 0.1, &resp);
                resp.shed
            })
        })
        .collect();
    let burst_shed = burst
        .into_iter()
        .map(|b| {
            b.join()
                .expect("burst request panicked — a dropped request")
        })
        .filter(|&shed| shed)
        .count();
    let shed = (answers.iter().filter(|(_, r)| r.shed).count() + burst_shed) as u64;
    assert!(shed >= 1, "no request was shed at {short:?} deadlines");
    let stats = pool.shutdown();
    assert_eq!(stats.shed, shed, "{stats:?}");
    assert_eq!(stats.admitted, 6 + 80 + 24, "{stats:?}");
    assert_eq!(stats.completed, stats.admitted, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(stats.rejected, 0, "{stats:?}");
    assert_eq!(stats.live_runs, 0, "leaked runs: {stats:?}");
    assert_eq!(stats.governor.workers_target, 1);
}

/// Live reconfiguration under load: `resize` in both directions while
/// submitters hammer the pool. No admitted request is ever dropped: every
/// submission completes, and the final worker count matches the last
/// resize target.
///
/// The pool's own counters order the resizes, not sleeps: the scale-up
/// waits until 4 requests are admitted and the scale-down until 16 have
/// completed, and the counters read after each resize show requests still
/// unanswered, so each resize landed under load.
#[test]
fn soak_resize_never_drops_inflight() {
    const REQUESTS: u64 = 48;
    let _threads = shared_process();
    let seed = env_u64("SOAK_SEED", 0xA17);
    let pool = Arc::new(counting_pool(
        ServeOptions {
            replicas: 3,
            queue_capacity: 256,
            min_service: Duration::from_micros(200),
            retry: RetryPolicy::default(),
            seed,
            ..ServeOptions::default()
        },
        STEP_DELAY,
    ));
    let submitters: Vec<_> = (0..4u64)
        .map(|t| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for i in 0..REQUESTS / 4 {
                    let id = t * (REQUESTS / 4) + i;
                    pool.submit(id, Duration::from_secs(2), 0.0)
                        .unwrap_or_else(|e| panic!("request {id} dropped mid-reconfigure: {e}"));
                }
            })
        })
        .collect();
    // Spins on the pool's counters until `ready` holds, failing instead of
    // hanging when every submitter has finished first.
    let await_stats = |ready: &dyn Fn(&ServeStats) -> bool| {
        while !ready(&pool.stats()) {
            assert!(
                !submitters.iter().all(|h| h.is_finished()),
                "the load ended before the resize point: {:?}",
                pool.stats()
            );
            std::thread::yield_now();
        }
    };
    let answered = |s: &ServeStats| s.completed + s.failed;
    await_stats(&|s| s.admitted >= 4);
    pool.resize(5).expect("scale-up under load");
    let up = pool.stats();
    assert!(
        answered(&up) < REQUESTS,
        "scale-up landed after the load: {up:?}"
    );
    await_stats(&|s| s.completed >= 16);
    pool.resize(2).expect("scale-down under load");
    let down = pool.stats();
    assert!(
        answered(&down) < REQUESTS,
        "scale-down landed after the load: {down:?}"
    );
    for s in submitters {
        s.join().expect("submitter panicked — a dropped request");
    }
    assert_eq!(pool.worker_count(), 2, "worker count != last resize target");
    let stats = pool.shutdown();
    assert_eq!(stats.admitted, REQUESTS, "{stats:?}");
    assert_eq!(stats.completed, stats.admitted, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(stats.live_runs, 0, "leaked runs: {stats:?}");
    assert_eq!(stats.governor.resizes, 2, "{:?}", stats.governor);
    assert_eq!(stats.governor.workers_target, 2);
}

/// ISSUE 9 acceptance: a 64-replica pool whose pipelines all run on one
/// dedicated runtime sized to the hardware. Every stage of every replica
/// is a resumable task on that fixed worker pool, so the process's OS
/// thread count stays O(replicas + workers) — strictly below the
/// one-thread-per-stage model's `replicas × stages` — while the pool
/// still answers every request with its precise final output.
#[test]
fn soak_64_replicas_fixed_workers() {
    use anytime_core::Runtime;

    let _alone = PROCESS_THREADS.write().unwrap_or_else(|e| e.into_inner());
    const REPLICAS: usize = 64;
    const STAGES: usize = 3;
    const STEPS: u64 = 8;
    /// Requests per submitter thread.
    const PER_SUBMITTER: u64 = 16;

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(2);
    let runtime = Runtime::new(workers);

    // Three CPU-light stages (no sleeps: a blocking step would pin one of
    // the few runtime workers), each publishing every step so stage tasks
    // yield and interleave across all 64 replicas.
    let factory = |&id: &u64| {
        let opts = StageOptions::with_publish_every(1);
        let mut pb = anytime_core::PipelineBuilder::new();
        let f = pb.source(
            "f",
            id,
            Diffusive::new(
                |_: &u64| 0u64,
                |seed: &u64, out: &mut u64, step| {
                    *out = out.wrapping_add(seed ^ (step + 1));
                    if step + 1 == STEPS {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                },
            ),
            opts,
        );
        let g = pb.stage("g", &f, Precise::new(|v: &u64| v.wrapping_mul(3)), opts);
        let h = pb.stage("h", &g, Precise::new(|v: &u64| v ^ 0xA17), opts);
        Ok((pb.build(), h))
    };

    let pool = Arc::new(
        ServePool::new(
            ServeOptions {
                replicas: REPLICAS,
                queue_capacity: 1024,
                min_service: Duration::from_micros(10),
                default_service_estimate: Duration::from_micros(200),
                retry: RetryPolicy::default(),
                ..ServeOptions::default()
            }
            .runtime(runtime.handle()),
            factory,
            |_s| 1.0,
        )
        .unwrap(),
    );

    let submitters: Vec<_> = (0..SUBMITTERS as u64)
        .map(|t| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for i in 0..PER_SUBMITTER {
                    let id = t * 1_000 + i;
                    let resp = pool
                        .submit(id, Duration::from_secs(60), 0.0)
                        .unwrap_or_else(|e| panic!("request {id} failed: {e}"));
                    assert_eq!(resp.status, ServeStatus::Final, "request {id}");
                    let expect = ((0..STEPS).fold(0u64, |acc, s| acc.wrapping_add(id ^ (s + 1))))
                        .wrapping_mul(3)
                        ^ 0xA17;
                    assert_eq!(*resp.snapshot.value(), expect, "request {id}");
                }
            })
        })
        .collect();

    // Sample the thread count while all 64 replica workers and the full
    // runtime are live and serving. The claim under test: threads scale
    // with replicas + workers (each replica keeps one coordinating worker
    // thread; its stages are tasks), not replicas × stages (192+ threads
    // in the thread-per-stage model this runtime replaced).
    #[cfg(target_os = "linux")]
    {
        let threads = os_thread_count();
        assert!(
            threads >= REPLICAS,
            "expected at least one worker thread per replica, saw {threads}"
        );
        assert!(
            threads < REPLICAS * STAGES,
            "thread count {threads} scales with replicas × stages \
             ({REPLICAS} × {STAGES}); stages are not running as tasks"
        );
        // Tighter envelope: replicas + runtime workers + control plane
        // (main, submitters, test harness) with headroom.
        let budget = REPLICAS + workers + SUBMITTERS + 16;
        assert!(
            threads <= budget,
            "thread count {threads} exceeds the O(replicas + workers) \
             envelope {budget}"
        );
    }

    for s in submitters {
        s.join()
            .expect("submitter panicked — a hang or lost request");
    }
    let stats = pool.shutdown();
    assert_eq!(
        stats.completed,
        SUBMITTERS as u64 * PER_SUBMITTER,
        "{stats:?}"
    );
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(stats.live_runs, 0, "leaked runs: {stats:?}");
    // The dedicated runtime actually carried the load: every stage of
    // every admitted run was spawned as a task on it.
    let rt_stats = runtime.handle().stats();
    assert!(
        rt_stats.tasks_spawned >= stats.admitted * STAGES as u64,
        "runtime saw {} tasks for {} admitted {STAGES}-stage runs",
        rt_stats.tasks_spawned,
        stats.admitted
    );
}

/// Reads the live OS thread count of this process from
/// `/proc/self/status` (`Threads:` line).
#[cfg(target_os = "linux")]
fn os_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}
