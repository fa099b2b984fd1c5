//! The anytime workloads: one client thread builds an automaton, launches
//! it, observes every version it can, and joins it, back to back (a
//! closed loop with one client).

use crate::apps::{self, preview_snr, App, SnrTable, ACCEPTABLE_DB};
use crate::report::{EndToEnd, Measured, Op, Outcome, Sheet, PER_LAYER, SETUPS};
use crate::stats::{mean, median, ms, us, P99};
use crate::trace::{segments, sum_error, Spans};
use anytime_core::metrics::WaitStats;
use anytime_core::observe::MetricStats;
use anytime_core::{RuntimeHandle, Snapshot};
use anytime_img::ImageBuf;
use std::time::{Duration, Instant};

/// Closed-loop runs that warm caches and the runtime before timing.
const WARMUP_RUNS: usize = 20;
/// A run with no terminal output this long after launch has failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(10);

/// One observed version. The value is kept only when it must be scored
/// after the run.
struct Obs {
    at: Instant,
    version: u64,
    steps: u64,
    published_at: Instant,
    kept: Option<Snapshot<ImageBuf<u8>>>,
}

/// Timestamps around each public call of one run.
struct Run {
    build: Instant,
    launch: Instant,
    launched: Instant,
    obs: Vec<Obs>,
    last: Snapshot<ImageBuf<u8>>,
    join: Instant,
    joined: Instant,
    waits: WaitStats,
}

/// Builds, launches, observes to the terminal version, and joins.
fn run_once(app: &App, keep: impl Fn(u64) -> bool) -> Result<Run, String> {
    let build = Instant::now();
    let (pipeline, reader) = app.automaton().map_err(|e| format!("build: {e}"))?;
    let launch = Instant::now();
    let auto = pipeline.launch().map_err(|e| format!("launch: {e}"))?;
    let launched = Instant::now();
    let give_up = launch + RUN_TIMEOUT;
    let mut obs = Vec::with_capacity(40);
    let mut seen = None;
    let last = loop {
        match reader.wait_newer_timeout(seen, give_up.saturating_duration_since(Instant::now())) {
            Ok(snap) => {
                let at = Instant::now();
                seen = Some(snap.version());
                let terminal = snap.is_terminal();
                obs.push(Obs {
                    at,
                    version: snap.version().get(),
                    steps: snap.steps(),
                    published_at: snap.published_at(),
                    kept: (!terminal && keep(snap.steps())).then(|| snap.clone()),
                });
                if terminal {
                    break snap;
                }
            }
            Err(e) => {
                auto.stop();
                let _ = auto.join();
                return Err(format!("wait: {e}"));
            }
        }
    };
    let join = Instant::now();
    let report = auto.join().map_err(|e| format!("join: {e}"))?;
    let joined = Instant::now();
    Ok(Run {
        build,
        launch,
        launched,
        obs,
        last,
        join,
        joined,
        waits: report.total_waits(),
    })
}

/// Everything one set-up produces.
struct Setup {
    app: App,
    precise: ImageBuf<u8>,
    table: SnrTable,
    precise_ms: Vec<f64>,
}

fn keep_for<'a>(app: &App, table: &'a SnrTable) -> impl Fn(u64) -> bool + 'a {
    let by_steps = app.score_is_function_of_steps();
    move |steps| !by_steps || table.get(steps).is_none()
}

/// Inputs, precise reference, SNR table (built from one run and checked
/// against a second), and warm-up.
fn setup(make: &dyn Fn() -> App, out: &mut Outcome) -> (Setup, Duration) {
    let t = Instant::now();
    let app = make();
    let (precise, precise_ms) = apps::reference(&app, out);
    let table = if app.score_is_function_of_steps() {
        apps::snr_table(&app, &precise, out)
    } else {
        SnrTable::default()
    };
    let s = Setup {
        app,
        precise,
        table,
        precise_ms,
    };
    for _ in 0..WARMUP_RUNS {
        match run_once(&s.app, |_| false) {
            Ok(run) => {
                check(&run, &s, out);
            }
            Err(e) => eprintln!("warm-up run failed: {e}"),
        }
    }
    (s, t.elapsed())
}

/// What one run scored, outside every timed interval.
struct Scored {
    first_ms: f64,
    acceptable_ms: f64,
    precise_ms: f64,
}

/// Checks a finished run: versions strictly increase, steps never fall
/// on a single-stage pipeline, and the terminal output is the precise
/// baseline bit for bit.
fn check(run: &Run, s: &Setup, out: &mut Outcome) -> bool {
    let mut ok = true;
    for w in run.obs.windows(2) {
        if w[1].version <= w[0].version {
            out.violation(format!(
                "version v{} observed after v{}",
                w[1].version, w[0].version
            ));
            ok = false;
        }
        // Property 2: within one run over one input, steps never decrease.
        // Histeq's eager restarts begin a new map run on each newer table,
        // which legitimately resets its step count.
        if s.app.score_is_function_of_steps() && w[1].steps < w[0].steps {
            out.violation(format!("steps fell from {} to {}", w[0].steps, w[1].steps));
            ok = false;
        }
    }
    if !run.last.is_final() || run.last.value() != &s.precise {
        out.violation(format!(
            "terminal output v{} (final: {}) differs from the precise baseline",
            run.last.version().get(),
            run.last.is_final()
        ));
        ok = false;
    }
    ok
}

/// Checks a finished run and scores it. `None` when its output is wrong.
fn score(run: &Run, s: &mut Setup, out: &mut Outcome) -> Option<Scored> {
    if !check(run, s, out) {
        return None;
    }
    let by_steps = s.app.score_is_function_of_steps();
    let mut acceptable = None;
    for o in &run.obs {
        let snr = if o.version == run.last.version().get() {
            f64::INFINITY
        } else if let Some(snap) = &o.kept {
            if by_steps {
                match s.table.record(o.steps, snap.value(), &s.precise) {
                    Ok(snr) => snr,
                    Err(e) => {
                        out.violation(e);
                        return None;
                    }
                }
            } else {
                preview_snr(snap.value(), o.steps, &s.precise)
            }
        } else {
            s.table
                .get(o.steps)
                .expect("value kept when its steps are not in the table")
        };
        if snr >= ACCEPTABLE_DB {
            acceptable = Some(o.at);
            break;
        }
    }
    let from_launch = |at: Instant| ms(at - run.launch);
    Some(Scored {
        first_ms: from_launch(run.obs[0].at),
        acceptable_ms: from_launch(acceptable.expect("the precise output is acceptable")),
        precise_ms: from_launch(run.obs.last().expect("a terminal observation").at),
    })
}

/// Per-layer samples of the load phase.
#[derive(Default)]
struct Layers {
    build_us: Vec<f64>,
    launch_us: Vec<f64>,
    compute_first_ms: Vec<f64>,
    compute_rest_ms: Vec<f64>,
    versions: Vec<f64>,
    lag_us: Vec<f64>,
    observed: u64,
    published: u64,
    waits: WaitStats,
    join_us: Vec<f64>,
    run_us: Vec<f64>,
    respond_us: Vec<f64>,
    sum_error_max: f64,
}

impl Layers {
    fn absorb(&mut self, run: &Run, req: u64, spans: &mut Spans) {
        let first = &run.obs[0];
        let final_pub = run.last.published_at();
        self.build_us.push(us(run.launch - run.build));
        self.launch_us.push(us(run.launched - run.launch));
        self.compute_first_ms.push(ms(first
            .published_at
            .saturating_duration_since(run.launched)));
        self.compute_rest_ms
            .push(ms(final_pub.saturating_duration_since(first.published_at)));
        let versions = run.last.version().get();
        self.versions.push(versions as f64);
        self.observed += run.obs.len() as u64;
        self.published += versions;
        for o in &run.obs {
            self.lag_us
                .push(us(o.at.saturating_duration_since(o.published_at)));
        }
        self.waits.absorb(&run.waits);
        self.join_us.push(us(run.joined - run.join));
        // build → launch; run: launch → final published; respond: final
        // published → observed → joined.
        let marks = [
            ("build", run.launch),
            ("run", final_pub),
            ("respond", run.joined),
        ];
        let segs = segments(run.build, &marks);
        self.run_us.push(us(segs[1].1));
        self.respond_us.push(us(segs[2].1));
        self.sum_error_max = self
            .sum_error_max
            .max(sum_error(&segs, run.joined - run.build));
        let observed = run.obs.last().expect("a terminal observation").at;
        spans.op(
            req,
            run.build,
            &marks,
            &[
                ("dispatch", "run", run.launch, run.launched),
                ("observe", "respond", final_pub, observed),
                ("join", "respond", run.join, run.joined),
            ],
        );
    }

    fn sheet(self, ops: u64, precise_ms: f64, latency_p50_ms: f64) -> Sheet {
        let mut s = Sheet::new(PER_LAYER, "no such layer on this workload");
        s.p50("build.p50_us", self.build_us);
        s.p50("dispatch.launch_p50_us", self.launch_us);
        s.p50("compute.first_p50_ms", self.compute_first_ms);
        s.p50("compute.rest_p50_ms", self.compute_rest_ms);
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
        s.set(
            "publish.versions_mean",
            mean(&self.versions),
            format!("n={}", self.versions.len()),
        );
        s.p50("observe.lag_p50_us", self.lag_us.clone());
        s.percentile("observe.lag_p99_us", self.lag_us, P99);
        s.set(
            "observe.useful_ratio",
            self.observed as f64 / self.published as f64,
            format!("{} of {} versions", self.observed, self.published),
        );
        let w = &self.waits;
        s.set(
            "buffer.wakeups_per_run",
            w.wakeups as f64 / ops as f64,
            "RunReport::total_waits",
        );
        s.set(
            "buffer.spurious_ratio",
            if w.wakeups == 0 {
                0.0
            } else {
                w.spurious_wakeups as f64 / w.wakeups as f64
            },
            format!("{} of {} wakeups", w.spurious_wakeups, w.wakeups),
        );
        s.set(
            "buffer.publish_to_observe_mean_us",
            if w.observations == 0 {
                0.0
            } else {
                us(w.total_publish_to_observe) / w.observations as f64
            },
            format!("n={}", w.observations),
        );
        s.p50("respond.join_p50_us", self.join_us);
        s.p50("run.p50_us", self.run_us.clone());
        s.percentile("run.p99_us", self.run_us, P99);
        s.p50("respond.p50_us", self.respond_us.clone());
        s.percentile("respond.p99_us", self.respond_us, P99);
        s.set(
            "serve.final_share",
            1.0,
            "every run that passed its checks ended precise",
        );
        s.set(
            "quality.acceptable_share",
            1.0,
            "the precise output is acceptable",
        );
        s.set(
            "layers.sum_error_max",
            self.sum_error_max,
            format!("n={ops}"),
        );
        s
    }
}

/// Runs one anytime workload: set-up `SETUPS` times, then the closed loop
/// for `seconds`.
pub fn run(make: &dyn Fn() -> App, seconds: Duration, out: &mut Outcome) -> Measured {
    let mut e2e = EndToEnd::new();
    let mut s = None;
    for _ in 0..SETUPS {
        let (setup, took) = setup(make, out);
        e2e.setups.push(took);
        s = Some(setup);
    }
    let mut s = s.expect("at least one set-up");
    let mut layers = Layers::default();
    let mut spans = Spans::default();
    let rt_before = RuntimeHandle::global().stats();
    let start = Instant::now();
    let end = start + seconds;
    let mut last_end = start;
    while last_end < end {
        out.attempted += 1;
        let run = run_once(&s.app, keep_for(&s.app, &s.table));
        last_end = Instant::now();
        e2e.cal.between_ops();
        let scored = match &run {
            Ok(run) => score(run, &mut s, out),
            Err(e) => {
                eprintln!("run failed: {e}");
                None
            }
        };
        let (Ok(run), Some(scored)) = (run, scored) else {
            out.failed += 1;
            e2e.quality.push(0.0);
            continue;
        };
        e2e.quality.push(1.0);
        e2e.ops.push(Op {
            end: last_end,
            first_output_ms: scored.first_ms,
            acceptable_ms: Some(scored.acceptable_ms),
            latency_ms: scored.precise_ms,
        });
        layers.absorb(&run, out.attempted, &mut spans);
    }
    e2e.load = last_end - start;
    let rt_after = RuntimeHandle::global().stats();
    let ops = e2e.answered();
    let precise_ms = median(s.precise_ms);
    let latency_p50 = median(e2e.ops.iter().map(|o| o.latency_ms).collect());
    let mut sheet = layers.sheet(ops, precise_ms, latency_p50);
    sheet.runtime(&rt_before, &rt_after, ops);
    Measured {
        e2e,
        layers: sheet,
        spans,
    }
}
