//! The serve workloads: one client submits requests to a one-replica
//! `ServePool` with the RTA admission gate, back to back (a closed loop).
//!
//! One client, not an open-loop schedule: on a shared 2-core host an idle
//! gap between requests lets a virtual CPU halt, and how long the host
//! takes to resume it varied the median latency by up to 60 % between
//! runs. A closed loop never leaves the cores idle long enough to halt.

use crate::apps::{self, App, SnrTable, ACCEPTABLE_DB};
use crate::calibrate::Calibration;
use crate::report::{EndToEnd, Measured, Op, Outcome, Sheet, PER_LAYER, SETUPS};
use crate::stats::{mean, median, ms, us, P99};
use crate::trace::{segments, sum_error, Spans};
use anytime_core::{
    CoreError, RtaPolicy, RuntimeHandle, ServeOptions, ServePool, ServeStatus, Snapshot,
};
use anytime_img::{ImageBuf, Kernel};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One serve workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub side: usize,
    pub kernel: Kernel,
    /// Versions each request's pipeline publishes.
    pub versions: u64,
    /// Deadline in calibration passes: it tracks the host's speed, so the
    /// share of work a run completes before it does not.
    pub deadline_cal: f64,
    /// Quality floors, cycled from a seed-chosen start.
    pub floors: &'static [f64],
    pub warmup: u64,
    /// Pools the load phase is split across, each serving an equal share
    /// of it. A pool's median latency settles on one of two levels about
    /// 50 % apart, drawn anew for each pool (also with the process pinned
    /// to one CPU), so one pool per run made the run's median a coin
    /// toss; many pools per run sample the draw.
    pub pools: u32,
}

impl Params {
    /// 64×64 box blur published once, generous deadline (≈1 s): every
    /// ≈0.2 ms request pays admission, hand-off, build, launch, reap and
    /// respond.
    pub fn throughput() -> Self {
        Params {
            side: 64,
            kernel: Kernel::box_blur(3),
            versions: 1,
            deadline_cal: 1_250.0,
            floors: &[0.0],
            warmup: 500,
            pools: 40,
        }
    }

    /// The anytime-conv2d application on a 1024×1024 input (9×9
    /// gaussian, 32 versions) with a deadline at about half its run:
    /// every run is stopped at the deadline and answered with its partial
    /// output. At 512×512 the deadline (≈10 ms) was short enough that a
    /// host stall before the first version failed about one request in
    /// a thousand; at half this deadline the answers fell below the 0.3
    /// floor and the pool refused some at admission.
    pub fn deadline() -> Self {
        Params {
            side: 1024,
            kernel: Kernel::gaussian(9, 2.0),
            versions: 32,
            deadline_cal: 100.0,
            floors: &[0.0, 0.15, 0.3],
            warmup: 15,
            pools: 1,
        }
    }
}

/// A request that ended without a response.
#[derive(Debug, Clone, Copy)]
enum Failure {
    /// Refused at admission: queue full, projected late, or proven
    /// infeasible.
    Refused,
    /// Any other error (timeout, shutdown, dead replicas).
    Error,
}

/// What the client saw of one answered request.
#[derive(Debug, Clone, Copy)]
struct Answer {
    status: ServeStatus,
    quality: f64,
    version: u64,
    published_at: Instant,
    snr: f64,
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Req {
    id: u64,
    submit: Instant,
    returned: Instant,
    deadline: Duration,
    answer: Result<Answer, Failure>,
}

impl Req {
    fn latency(&self) -> Duration {
        self.returned - self.submit
    }
}

/// Timestamps the factory and quality closures record inside the pool
/// when tracing: appended under a lock on the replica thread, and joined
/// by request id after the load phase.
#[derive(Debug)]
struct PoolTrace {
    /// (request, factory start, factory end) per factory call.
    built: Mutex<Vec<(u64, Instant, Instant)>>,
    seen: Mutex<Vec<Seen>>,
}

/// One quality-closure call: the pool observing a published version.
#[derive(Debug, Clone, Copy)]
struct Seen {
    req: u64,
    at: Instant,
    published_at: Instant,
    version: u64,
    steps: u64,
}

/// Room reserved up front, so that no append reallocates mid-run.
const TRACE_CAPACITY: usize = 1 << 17;

thread_local! {
    /// The request the factory last built on this replica thread: the
    /// quality closure runs on the same thread for that request's run.
    static CURRENT: Cell<u64> = const { Cell::new(u64::MAX) };
}

impl PoolTrace {
    fn new() -> Self {
        PoolTrace {
            built: Mutex::new(Vec::with_capacity(TRACE_CAPACITY)),
            seen: Mutex::new(Vec::with_capacity(TRACE_CAPACITY)),
        }
    }

    /// Forgets the set-ups and their warm-up requests.
    fn clear(&self) {
        self.built.lock().expect("trace lock poisoned").clear();
        self.seen.lock().expect("trace lock poisoned").clear();
    }

    fn built(&self, req: u64, start: Instant, end: Instant) {
        CURRENT.with(|c| c.set(req));
        self.built
            .lock()
            .expect("trace lock poisoned")
            .push((req, start, end));
    }

    fn observed(&self, snap: &Snapshot<ImageBuf<u8>>) {
        let at = Instant::now();
        let seen = Seen {
            req: CURRENT.with(Cell::get),
            at,
            published_at: snap.published_at(),
            version: snap.version().get(),
            steps: snap.steps(),
        };
        self.seen.lock().expect("trace lock poisoned").push(seen);
    }

    /// Per request: the first factory call, and the first publication
    /// and count of the versions the pool observed. Checks that each
    /// request's observed versions strictly increase and its steps never
    /// decrease (Property 2).
    fn joined(&self, out: &mut Outcome) -> Joined {
        let mut j = Joined::default();
        for &(req, start, end) in self.built.lock().expect("trace lock poisoned").iter() {
            j.built.entry(req).or_insert((start, end));
        }
        let mut last: HashMap<u64, Seen> = HashMap::new();
        for s in self.seen.lock().expect("trace lock poisoned").iter() {
            j.lag_us
                .push(us(s.at.saturating_duration_since(s.published_at)));
            if let Some(p) = last.get(&s.req) {
                if s.version <= p.version || s.steps < p.steps {
                    out.violation(format!(
                        "request {}: v{} ({} steps) observed after v{} ({} steps)",
                        s.req, s.version, s.steps, p.version, p.steps
                    ));
                }
            }
            last.insert(s.req, *s);
            j.first.entry(s.req).or_insert((s.published_at, 0)).1 += 1;
        }
        j
    }
}

/// [`PoolTrace`] joined by request id.
#[derive(Debug, Default)]
struct Joined {
    built: HashMap<u64, (Instant, Instant)>,
    /// First observed publication and number of versions observed.
    first: HashMap<u64, (Instant, u64)>,
    lag_us: Vec<f64>,
}

type Pool = ServePool<u64, ImageBuf<u8>>;

/// Builds a one-replica pool whose factory ignores its input (the request
/// id) and builds a fresh automaton, so traced and untraced runs execute
/// the same program code.
fn pool(app: &App, trace: Option<&Arc<PoolTrace>>) -> Result<Pool, CoreError> {
    let opts = ServeOptions::default()
        .replicas(1)
        .rta(RtaPolicy::default());
    let pixels = app.pixels() as f64;
    let factory = {
        let app = app.clone();
        let trace = trace.cloned();
        move |id: &u64| match &trace {
            None => app.automaton(),
            Some(t) => {
                let start = Instant::now();
                let built = app.automaton();
                t.built(*id, start, Instant::now());
                built
            }
        }
    };
    let quality = {
        let trace = trace.cloned();
        move |snap: &Snapshot<ImageBuf<u8>>| {
            if let Some(t) = &trace {
                t.observed(snap);
            }
            snap.steps() as f64 / pixels
        }
    };
    ServePool::new(opts, factory, quality)
}

/// When the client stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    At(Instant),
    After(u64),
}

/// Untimed requests each pool after the set-up one serves first.
const POOL_WARMUP: u64 = 50;

/// Everything one set-up produces.
struct Setup {
    pool: Pool,
    precise: ImageBuf<u8>,
    table: SnrTable,
    precise_ms: Vec<f64>,
    /// The next request id: unique across pools, so that traced
    /// timestamps join to the right request.
    next_id: u64,
}

impl Setup {
    /// Submits requests back to back until `stop` and checks every
    /// output: a `Final` response must equal the precise baseline bit for
    /// bit, and a partial one must be the output its step count always
    /// gives. A wrong output counts its request as failed.
    fn client(
        &mut self,
        p: &Params,
        offset: u64,
        stop: Stop,
        cal: &mut Calibration,
        out: &mut Outcome,
    ) -> Vec<Req> {
        let mut reqs = Vec::new();
        let first = self.next_id;
        loop {
            let id = self.next_id;
            let done = match stop {
                Stop::At(end) => Instant::now() >= end,
                Stop::After(n) => id - first >= n,
            };
            if done {
                break;
            }
            self.next_id += 1;
            let deadline = Duration::from_secs_f64(p.deadline_cal * cal.recent_ms() / 1e3);
            let floor = p.floors[((id + offset) % p.floors.len() as u64) as usize];
            let submit = Instant::now();
            let r = self.pool.submit(id, deadline, floor);
            let returned = Instant::now();
            let answer = match r {
                Ok(resp) => {
                    let snap = &resp.snapshot;
                    let snr = if snap.is_final() {
                        if snap.value() == &self.precise {
                            Ok(f64::INFINITY)
                        } else {
                            Err("final output differs from precise".to_string())
                        }
                    } else if let Some(snr) = self.table.get(snap.steps()) {
                        Ok(snr)
                    } else {
                        self.table.record(snap.steps(), snap.value(), &self.precise)
                    };
                    match snr {
                        Ok(snr) => Ok(Answer {
                            status: resp.status,
                            quality: resp.quality,
                            version: snap.version().get(),
                            published_at: snap.published_at(),
                            snr,
                        }),
                        Err(e) => {
                            out.violation(format!("request {id}: {e}"));
                            Err(Failure::Error)
                        }
                    }
                }
                Err(
                    CoreError::QueueFull { .. }
                    | CoreError::AdmissionRejected { .. }
                    | CoreError::Infeasible { .. },
                ) => Err(Failure::Refused),
                Err(e) => {
                    eprintln!("request {id} failed: {e}");
                    Err(Failure::Error)
                }
            };
            reqs.push(Req {
                id,
                submit,
                returned,
                deadline,
                answer,
            });
            cal.between_ops();
        }
        reqs
    }
}

/// Inputs, precise reference, SNR table, pool, and warm-up requests.
fn setup(
    p: &Params,
    app: &App,
    trace: Option<&Arc<PoolTrace>>,
    offset: u64,
    cal: &mut Calibration,
    out: &mut Outcome,
) -> (Setup, Duration) {
    let t = Instant::now();
    let (precise, precise_ms) = apps::reference(app, out);
    let table = if p.versions > 1 {
        apps::snr_table(app, &precise, out)
    } else {
        SnrTable::default()
    };
    let mut s = Setup {
        pool: pool(app, trace).expect("valid serve options"),
        precise,
        table,
        precise_ms,
        next_id: 0,
    };
    s.client(p, offset, Stop::After(p.warmup), cal, out);
    (s, t.elapsed())
}

/// Runs one serve workload: set-up `SETUPS` times, then the load for
/// `seconds` across `p.pools` pools, shutting each down and checking that
/// no run leaked.
pub fn run(p: &Params, seed: u64, seconds: Duration, trace: bool, out: &mut Outcome) -> Measured {
    let app = App::conv2d(p.side, p.kernel.clone(), p.versions, seed);
    let offset = seed % p.floors.len() as u64;
    let pool_trace = trace.then(|| Arc::new(PoolTrace::new()));
    let mut e2e = EndToEnd::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = s.take() {
            shutdown(old.pool, out);
        }
        let (setup, took) = setup(p, &app, pool_trace.as_ref(), offset, &mut e2e.cal, out);
        e2e.setups.push(took);
        s = Some(setup);
    }
    let mut s = s.expect("at least one set-up");
    if let Some(t) = &pool_trace {
        t.clear();
    }
    e2e.cal.clear();
    let rt_before = RuntimeHandle::global().stats();
    let start = Instant::now();
    let mut reqs = Vec::new();
    let mut warm = 0;
    for k in 1..=p.pools {
        if k > 1 {
            let fresh = pool(&app, pool_trace.as_ref()).expect("valid serve options");
            shutdown(std::mem::replace(&mut s.pool, fresh), out);
            warm += s
                .client(p, offset, Stop::After(POOL_WARMUP), &mut e2e.cal, out)
                .len() as u64;
        }
        let until = start + seconds * k / p.pools;
        reqs.extend(s.client(p, offset, Stop::At(until), &mut e2e.cal, out));
    }
    let rt_after = RuntimeHandle::global().stats();
    out.attempted += reqs.len() as u64;
    out.failed += reqs.iter().filter(|r| r.answer.is_err()).count() as u64;
    e2e.load = reqs.last().map_or(Duration::ZERO, |r| r.returned - start);
    for r in &reqs {
        e2e.quality
            .push(r.answer.as_ref().map_or(0.0, |a| a.quality));
        if let Ok(a) = &r.answer {
            let lat = ms(r.latency());
            // A serve client's first output is its response.
            e2e.ops.push(Op {
                end: r.returned,
                first_output_ms: lat,
                acceptable_ms: (a.snr >= ACCEPTABLE_DB).then_some(lat),
                latency_ms: lat,
            });
        }
    }
    let precise_ms = median(s.precise_ms.clone());
    let latency_p50 = median(e2e.ops.iter().map(|o| o.latency_ms).collect());
    let mut spans = Spans::default();
    let mut layers = layer_sheet(
        &reqs,
        pool_trace.as_deref(),
        precise_ms,
        latency_p50,
        &mut spans,
        out,
    );
    // The counters also count the warm-up requests of the later pools.
    layers.runtime(&rt_before, &rt_after, e2e.answered() + warm);
    shutdown(s.pool, out);
    Measured { e2e, layers, spans }
}

fn shutdown(pool: Pool, out: &mut Outcome) {
    let live = pool.shutdown().live_runs;
    if live != 0 {
        out.violation(format!("{live} runs still live after ServePool::shutdown"));
    }
}

/// Per-layer metrics from the client's records and, when tracing, the
/// timestamps taken inside the factory and quality closures.
fn layer_sheet(
    reqs: &[Req],
    trace: Option<&PoolTrace>,
    precise_ms: f64,
    latency_p50_ms: f64,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Sheet {
    let mut s = Sheet::new(PER_LAYER, "inside ServePool: not visible from outside");
    let sent = reqs.len();
    let n = sent.max(1) as f64;
    let answered: Vec<(&Req, &Answer)> = reqs
        .iter()
        .filter_map(|r| r.answer.as_ref().ok().map(|a| (r, a)))
        .collect();
    let refused: Vec<f64> = reqs
        .iter()
        .filter(|r| matches!(r.answer, Err(Failure::Refused)))
        .map(|r| us(r.latency()))
        .collect();
    s.set(
        "admit.refused_share",
        refused.len() as f64 / n,
        format!("{} of {sent}", refused.len()),
    );
    s.p50("admit.refused_p50_us", refused);
    let share =
        |st: ServeStatus| answered.iter().filter(|(_, a)| a.status == st).count() as f64 / n;
    s.set(
        "serve.final_share",
        share(ServeStatus::Final),
        format!("of {sent} sent"),
    );
    s.set(
        "serve.at_deadline_share",
        share(ServeStatus::AtDeadline),
        format!("of {sent} sent"),
    );
    s.set(
        "serve.degraded_share",
        share(ServeStatus::Degraded),
        format!("of {sent} sent"),
    );
    let hits = answered
        .iter()
        .filter(|(r, _)| r.latency() <= r.deadline + Duration::from_millis(1))
        .count();
    s.set(
        "serve.deadline_hit_rate",
        hits as f64 / n,
        "answered within deadline + 1 ms",
    );
    s.set(
        "quality.acceptable_share",
        answered
            .iter()
            .filter(|(_, a)| a.snr >= ACCEPTABLE_DB)
            .count() as f64
            / n,
        format!("SNR >= {ACCEPTABLE_DB} dB, of {sent} sent"),
    );
    s.set(
        "kernel.precise_ms",
        precise_ms,
        "median of the set-up calls",
    );
    s.set(
        "kernel.precise_ratio",
        latency_p50_ms / precise_ms,
        "latency_p50_ms / kernel.precise_ms",
    );
    let versions: Vec<f64> = answered.iter().map(|(_, a)| a.version as f64).collect();
    s.set(
        "publish.versions_mean",
        mean(&versions),
        format!("n={}", versions.len()),
    );
    let after_deadline: Vec<f64> = answered
        .iter()
        .filter(|(_, a)| a.status == ServeStatus::AtDeadline)
        .map(|(r, _)| {
            let due = r.submit + r.deadline;
            if r.returned >= due {
                us(r.returned - due)
            } else {
                -us(due - r.returned)
            }
        })
        .collect();
    s.p50("respond.after_deadline_p50_us", after_deadline);
    let Some(t) = trace else {
        return s;
    };
    let j = t.joined(out);
    let (mut build, mut queue, mut first, mut rest) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut run, mut respond) = (Vec::new(), Vec::new());
    let (mut seen, mut published) = (0u64, 0u64);
    let mut err_max = 0.0f64;
    for (r, a) in &answered {
        let Some(&(f0, f1)) = j.built.get(&r.id) else {
            out.violation(format!("request {} answered without a factory call", r.id));
            continue;
        };
        build.push(us(f1 - f0));
        queue.push(us(f0.saturating_duration_since(r.submit)));
        if let Some(&(first_published, count)) = j.first.get(&r.id) {
            first.push(ms(first_published.saturating_duration_since(f1)));
            seen += count.min(a.version);
            published += a.version;
            if a.status == ServeStatus::Final {
                rest.push(ms(a
                    .published_at
                    .saturating_duration_since(first_published)));
            }
        }
        let marks = [
            ("queue", f0),
            ("build", f1),
            ("run", a.published_at),
            ("respond", r.returned),
        ];
        let segs = segments(r.submit, &marks);
        err_max = err_max.max(sum_error(&segs, r.latency()));
        if a.status == ServeStatus::Final {
            run.push(us(segs[2].1));
            respond.push(us(segs[3].1));
        }
        spans.op(r.id, r.submit, &marks, &[]);
    }
    s.p50("build.p50_us", build);
    s.p50("queue.p50_us", queue.clone());
    s.percentile("queue.p99_us", queue, P99);
    s.p50("compute.first_p50_ms", first);
    s.p50("compute.rest_p50_ms", rest);
    s.p50("observe.lag_p50_us", j.lag_us.clone());
    s.percentile("observe.lag_p99_us", j.lag_us, P99);
    s.set(
        "observe.useful_ratio",
        seen as f64 / published.max(1) as f64,
        format!("{seen} of {published} versions"),
    );
    s.p50("run.p50_us", run.clone());
    s.percentile("run.p99_us", run, P99);
    s.p50("respond.p50_us", respond.clone());
    s.percentile("respond.p99_us", respond, P99);
    s.set(
        "layers.sum_error_max",
        err_max,
        format!("n={}", answered.len()),
    );
    s
}
