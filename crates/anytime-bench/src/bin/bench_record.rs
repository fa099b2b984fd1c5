//! Records a benchmark trajectory point: times the named hot paths with
//! the crate's own measurement loops and writes a schema-stable
//! `BENCH_<date>.json` report.
//!
//! ```sh
//! cargo run --release -p anytime-bench --bin bench_record            # BENCH_<date>.json
//! cargo run --release -p anytime-bench --bin bench_record -- --quick --out ci.json
//! ```
//!
//! Entries:
//!
//! - `control/stop_wakeup` — event-driven control-plane interrupt latency
//!   (stop-to-waiter-exit through a blocking buffer wait);
//! - `kernel/bitserial_dot_64k`, `kernel/quantize_1m`,
//!   `kernel/conv2d_256`, `kernel/reduction_1m` — the data-plane kernels
//!   behind the SIMD speed pass (scalar or SIMD per build features);
//! - `serve/unbatched_request`, `serve/batched_request` — end-to-end
//!   requests through a single-replica `ServePool`, without and with
//!   batched execution; their ratio is the batching speedup in
//!   requests/sec/core;
//! - `serve/admission_decision` — one calibrated response-time-analysis
//!   admission decision ending in a certified-infeasible rejection: the
//!   control-plane cost every request pays before any data-plane work;
//! - `runtime/steal_latency` — launch-to-final latency of a trivial
//!   one-stage pipeline on a warm dedicated runtime: the spawn injects the
//!   stage task, a parked worker wakes and steals it from the injector,
//!   polls it to Final, and the publication wakes the waiter;
//! - `runtime/yield_resume` — per-slice cost of the yield-at-publish
//!   protocol: a publish-every-step source yields back to the scheduler
//!   after each publish, so wall time over steps is one
//!   publish + yield + requeue + resume cycle;
//! - `lint/workspace_scan` — one full `anytime-lint` workspace pass
//!   (lex, per-file rules, cross-file model, semantic rules over every
//!   member crate): the analyzer runs on every CI push and pre-commit,
//!   so its wall time is gated like any other hot path.
//!
//! Every entry carries a normalized cost (`norm`) against a calibration
//! workload measured on the same host, so reports from different machines
//! compare meaningfully; `bench_diff` gates on those normalized values.

use anytime_bench::record::{calibration_ns, MeasureOptions, Report};
use anytime_core::buffer;
use anytime_core::{BatchPolicy, ControlToken, CoreError, ServeOptions, ServePool};
use anytime_img::{synth, Kernel};
use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Requests per serve-throughput scenario run.
const SERVE_REQUESTS: usize = 24;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut out: Option<String> = None;
    let mut opts = MeasureOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().ok_or("--out requires a path")?),
            "--quick" => opts = MeasureOptions::quick(),
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }

    // The whole suite runs several times and the record keeps, per entry,
    // the median normalized cost across repetitions
    // (`Report::merge_median`): a repetition skewed by transient host
    // interference — or by a lucky calibration pairing — is shed by the
    // merge, while a real code regression slows every repetition and
    // survives to trip `bench_diff`.
    const REPS: usize = 3;
    let mut reps = Vec::with_capacity(REPS);
    for rep in 1..=REPS {
        eprintln!("repetition {rep}/{REPS}: calibrating host...");
        let mut report = Report::new(calibration_ns(&opts));
        eprintln!(
            "calibration: {:.0} ns / 1 MiB striped f64 reduction",
            report.calibration_ns
        );
        record_control_latency(&mut report, &opts);
        record_kernels(&mut report, &opts);
        record_serve_throughput(&mut report)?;
        record_admission_decision(&mut report, &opts)?;
        record_runtime(&mut report, &opts);
        record_lint_scan(&mut report, &opts);
        reps.push(report);
    }
    let report = Report::merge_median(reps);

    let path = out.unwrap_or_else(|| format!("BENCH_{}.json", report.recorded));
    std::fs::write(&path, report.to_json())?;
    for e in &report.entries {
        eprintln!(
            "{:<28} {:>14.1} ns/op  norm {:>10.6}{}",
            e.name,
            e.mean_ns,
            e.norm,
            if e.hot { "  [hot]" } else { "" }
        );
    }
    let unbatched = entry_mean(&report, "serve/unbatched_request");
    let batched = entry_mean(&report, "serve/batched_request");
    if let (Some(u), Some(b)) = (unbatched, batched) {
        eprintln!(
            "serve throughput: {:.0} -> {:.0} requests/sec/core ({:.1}x from batching)",
            1e9 / u,
            1e9 / b,
            u / b
        );
    }
    println!("{path}");
    Ok(())
}

fn entry_mean(report: &Report, name: &str) -> Option<f64> {
    report
        .entries
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.mean_ns)
}

/// Event-driven stop wakeup: park a waiter in a control-aware buffer wait,
/// then time stop-to-exit. Thread setup happens outside the timed window.
fn record_control_latency(report: &mut Report, opts: &MeasureOptions) {
    // One op is inherently slow (thread spawn + park), so time each op
    // individually and feed `record` a self-timing closure via `push`.
    let passes = opts.passes.max(3) * 10;
    let mut samples = Vec::with_capacity(passes);
    for _ in 0..passes {
        let (writer, reader) = buffer::versioned::<u64>("bench");
        let ctl = ControlToken::new();
        let waiter = {
            let reader = reader.clone();
            let ctl = ctl.clone();
            // lint: allow(l6-no-raw-spawn) -- bench harness: the measured waiter must be a real blocked thread
            thread::spawn(move || {
                let _ = reader.wait_final_timeout_with(Duration::from_secs(30), &ctl);
            })
        };
        while reader.wait_stats().waits == 0 {
            std::hint::spin_loop();
        }
        let t0 = Instant::now();
        ctl.stop();
        waiter.join().unwrap();
        samples.push(t0.elapsed().as_nanos() as f64);
        drop(writer);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    // Gate on the P10 wakeup: near-best latency is what the event-driven
    // control plane promises, and the sample tail is host scheduling
    // noise. The strict minimum is one lucky context switch — too jumpy
    // for a recorded baseline — while P10 of a couple hundred samples is
    // reproducible.
    report.push(
        "control/stop_wakeup",
        true,
        samples[samples.len() / 10],
        passes as u64,
    );
}

fn record_kernels(report: &mut Report, opts: &MeasureOptions) {
    // Bit-serial dot product: one weighted bit-plane reduction, the inner
    // loop of the approximate dot-product pipeline.
    let n = 1 << 16;
    let input: Vec<i64> = (0..n).map(|i| (i * 37 + 11) % 251).collect();
    let weights: Vec<i64> = (0..n).map(|i| (i * 13 + 5) % 127 - 63).collect();
    report.record("kernel/bitserial_dot_64k", true, opts, || {
        black_box(anytime_approx::simd::plane_sum(
            black_box(&input),
            black_box(&weights),
            3,
        ));
    });

    // Quantization over a megabyte of samples.
    let mut plane = vec![0u8; 1 << 20];
    for (i, v) in plane.iter_mut().enumerate() {
        *v = (i % 256) as u8;
    }
    // Quantization is idempotent, so one buffer quantized in place over
    // and over measures the same read-compute-write loop every pass —
    // without a 1 MiB clone (pure memcpy, not the kernel under test)
    // polluting the timed window.
    let mut work = plane.clone();
    report.record("kernel/quantize_1m", true, opts, || {
        anytime_approx::simd::quantize_slice_u8(black_box(&mut work), 4);
    });
    black_box(&work);

    // Full-frame 2-D convolution through the row kernel.
    let img = synth::value_noise(256, 256, 5);
    let kernel = Kernel::box_blur(5);
    report.record("kernel/conv2d_256", true, opts, || {
        black_box(anytime_img::convolve(black_box(&img), &kernel));
    });

    // Sum-of-squares reduction over a megabyte (the SNR hot loop).
    report.record("kernel/reduction_1m", true, opts, || {
        black_box(anytime_img::simd::sum_sq_u8(black_box(&plane)));
    });
}

/// End-to-end serve throughput on one replica: `SERVE_REQUESTS` identical
/// generous-deadline requests, submitted concurrently, without and with
/// batched execution. With batching, compatible queued requests share one
/// pipeline run, so a single core answers them roughly
/// `SERVE_REQUESTS / runs` times faster.
fn record_serve_throughput(report: &mut Report) -> Result<(), CoreError> {
    let app = anytime_apps::Conv2d::new(synth::value_noise(160, 160, 5), Kernel::box_blur(3));
    let opts = || ServeOptions {
        replicas: 1,
        queue_capacity: SERVE_REQUESTS * 2,
        ..ServeOptions::default()
    };

    let single_app = app.clone();
    let unbatched = ServePool::new(
        opts(),
        move |_: &()| {
            single_app
                .automaton(4096)
                .map_err(|e| CoreError::InvalidConfig(e.to_string()))
        },
        |snap| if snap.is_final() { 1.0 } else { 0.0 },
    )?;
    let elapsed = run_scenario(&unbatched);
    report.push(
        "serve/unbatched_request",
        false,
        elapsed.as_nanos() as f64 / SERVE_REQUESTS as f64,
        SERVE_REQUESTS as u64,
    );
    unbatched.shutdown();

    let batch_app = app.clone();
    let batched = ServePool::new_batched(
        ServeOptions {
            batch: Some(BatchPolicy {
                max_size: SERVE_REQUESTS,
                window: Duration::from_secs(30),
            }),
            ..opts()
        },
        move |inputs: &[Arc<()>]| {
            let (pipeline, reader) = batch_app
                .automaton(4096)
                .map_err(|e| CoreError::InvalidConfig(e.to_string()))?;
            Ok((pipeline, vec![reader; inputs.len()]))
        },
        |snap| if snap.is_final() { 1.0 } else { 0.0 },
    )?;
    let elapsed = run_scenario(&batched);
    report.push(
        "serve/batched_request",
        false,
        elapsed.as_nanos() as f64 / SERVE_REQUESTS as f64,
        SERVE_REQUESTS as u64,
    );
    batched.shutdown();
    Ok(())
}

/// One analytical admission decision per op: a calibrated RTA gate proving
/// "floor 1.0 is unreachable within 100 µs" and rejecting with the
/// certified bound. Gated hot: this is pure control-plane cost paid on
/// every submit, and it must stay far below the wakeup latency it guards
/// (`control/stop_wakeup`).
fn record_admission_decision(report: &mut Report, opts: &MeasureOptions) -> Result<(), CoreError> {
    use anytime_core::{Diffusive, PipelineBuilder, RtaPolicy, StageOptions, StepOutcome};
    const STEPS: u64 = 4;
    const STEP_SLEEP: Duration = Duration::from_micros(200);
    let pool = ServePool::new(
        ServeOptions {
            replicas: 1,
            min_service: Duration::from_nanos(1),
            ..ServeOptions::default()
        }
        .rta(RtaPolicy {
            min_runs: 4,
            ..RtaPolicy::default()
        }),
        |_: &()| {
            let mut pb = PipelineBuilder::new();
            let out = pb.source(
                "count",
                (),
                Diffusive::new(
                    |_: &()| 0u64,
                    |_: &(), out: &mut u64, _| {
                        // lint: allow(l2-sleep) -- synthetic workload: the sleep IS the per-step service time the gate calibrates against
                        thread::sleep(STEP_SLEEP);
                        *out += 1;
                        if *out == STEPS {
                            StepOutcome::Done
                        } else {
                            StepOutcome::Continue
                        }
                    },
                ),
                StageOptions::with_publish_every(1),
            );
            Ok((pb.build(), out))
        },
        |snap| *snap.value() as f64 / STEPS as f64,
    )?;
    // Calibrate: full quality takes >= 4 x 200 µs of real sleep per run,
    // so the certified lower bound for floor 1.0 sits far above the
    // 100 µs budget probed below — the rejection is deterministic.
    for _ in 0..4 {
        pool.submit((), Duration::from_secs(30), 0.0)?;
    }
    assert!(
        pool.rta_calibrated(),
        "admission gate failed to calibrate for the bench"
    );
    report.record("serve/admission_decision", true, opts, || {
        let r = pool.submit((), black_box(Duration::from_micros(100)), 1.0);
        debug_assert!(matches!(r, Err(CoreError::Infeasible { .. })));
        black_box(r.is_err());
    });
    pool.shutdown();
    Ok(())
}

/// The work-stealing stage runtime's two scheduling hot paths, measured
/// through the public pipeline surface on a dedicated 2-worker runtime.
fn record_runtime(report: &mut Report, opts: &MeasureOptions) {
    use anytime_core::{Diffusive, PipelineBuilder, Precise, Runtime, StageOptions, StepOutcome};

    let runtime = Runtime::new(2);

    // Steal latency: each op launches a trivial one-stage pipeline and
    // waits for its final output. The launch injects the stage task into
    // the runtime's global injector; a parked worker wakes, steals the
    // task, polls it to Final, and the publication wakes this thread.
    // Thread creation is NOT in the loop — the pool is warm and fixed.
    let passes = opts.passes.max(3) * 10;
    let mut samples = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut pb = PipelineBuilder::new();
        let out = pb.source(
            "ping",
            1u64,
            Precise::new(|i: &u64| *i),
            StageOptions::default(),
        );
        let pipeline = pb.with_runtime(runtime.handle()).build();
        let t0 = Instant::now();
        let auto = pipeline.launch().expect("launch ping pipeline");
        black_box(
            out.wait_final_timeout(Duration::from_secs(30))
                .expect("ping output"),
        );
        samples.push(t0.elapsed().as_nanos() as f64);
        auto.join().expect("ping join");
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    // P10, for the same reason as `control/stop_wakeup`: the dispatch
    // path's promise is near-best latency, and the tail is host noise.
    report.push(
        "runtime/steal_latency",
        true,
        samples[samples.len() / 10],
        passes as u64,
    );

    // Yield-resume: one source publishing every step runs STEPS publish
    // slices, yielding back to the scheduler after each; amortized wall
    // time per step is the cost of one yield + requeue + resume cycle
    // (including the publish itself, which is what a real stage pays).
    const STEPS: u64 = 4096;
    let reps = opts.passes.max(3) as u64;
    let mut total_ns = 0f64;
    for _ in 0..reps {
        let mut pb = PipelineBuilder::new();
        let out = pb.source(
            "yielder",
            (),
            Diffusive::new(
                |_: &()| 0u64,
                |_: &(), out: &mut u64, step| {
                    *out += 1;
                    if step + 1 == STEPS {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                },
            ),
            StageOptions::with_publish_every(1),
        );
        let pipeline = pb.with_runtime(runtime.handle()).build();
        let t0 = Instant::now();
        let auto = pipeline.launch().expect("launch yielder pipeline");
        black_box(
            out.wait_final_timeout(Duration::from_secs(60))
                .expect("yielder output"),
        );
        total_ns += t0.elapsed().as_nanos() as f64;
        auto.join().expect("yielder join");
    }
    report.push(
        "runtime/yield_resume",
        true,
        total_ns / (reps * STEPS) as f64,
        reps * STEPS,
    );
}

/// One full static-analysis pass over the workspace: every lintable file
/// lexed, the per-file rules run, the cross-file model built, and the
/// semantic rules walked. One op = one whole scan, so the recorded cost
/// tracks both tree growth and analyzer regressions; the file count is
/// pinned via `black_box` so the scan cannot be optimized away.
fn record_lint_scan(report: &mut Report, opts: &MeasureOptions) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives at <root>/crates/anytime-bench")
        .to_path_buf();
    let passes = opts.passes.max(3);
    let mut samples = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t0 = Instant::now();
        let (diags, scanned) = anytime_lint::lint_workspace(&root).expect("workspace scan");
        samples.push(t0.elapsed().as_nanos() as f64);
        black_box((diags.len(), scanned));
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    // Median scan: the first pass pays the page cache, the tail pays host
    // scheduling noise; the middle is the reproducible analyzer cost.
    report.push(
        "lint/workspace_scan",
        true,
        samples[samples.len() / 2],
        passes as u64,
    );
}

/// Runs one scenario round: `SERVE_REQUESTS` concurrent generous-deadline
/// requests. Every request must be answered; a dropped one fails the
/// recording.
fn run_scenario(pool: &ServePool<(), anytime_img::ImageBuf<u8>>) -> Duration {
    let t0 = Instant::now();
    thread::scope(|scope| {
        for _ in 0..SERVE_REQUESTS {
            // lint: allow(l6-no-raw-spawn) -- bench harness: concurrent open-loop request generators
            scope.spawn(move || {
                pool.submit((), Duration::from_secs(120), 0.0)
                    .expect("serve scenario dropped a request");
            });
        }
    });
    t0.elapsed()
}
