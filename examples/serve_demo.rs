//! Deadline-budgeted serving: a `ServePool` under open-loop load.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! cargo run --release --example serve_demo -- --trace out.json
//! ```
//!
//! An open-loop generator fires 2-D convolution requests at a fixed
//! arrival rate — faster than the pool can serve precisely — with mixed
//! deadline budgets and quality floors. The pool answers *every admitted
//! request by its deadline* with the best snapshot its own run has
//! published: generous budgets get the precise convolution, tight ones a
//! valid approximation. The tightest budget, 0.15× of a run, sits just
//! above the pool's admission floor (`min_service`, 0.12× of a run): an
//! idle replica accepts it, so its rejections measure the load, not the
//! budget. The run ends with the pool's own accounting: admission and
//! deadline-hit rates.
//!
//! With `--trace out.json`, the run records a structured trace — buffer
//! publications, admissions, per-request quality observations — and
//! writes three artifacts: `out.json` (Chrome
//! `trace_event` timeline for `chrome://tracing` / Perfetto), `out.jsonl`
//! (the event log `anytime-bench`'s `trace_check` turns back into
//! accuracy-vs-time tables), and `out.prom` (the pool's Prometheus text
//! exposition).

use anytime::apps::conv2d::CHUNK;
use anytime::apps::{time_baseline, Conv2d};
use anytime::core::{
    CoreError, Recorder, Runtime, RuntimeHandle, ServeOptions, ServePool, ServeStatus,
};
use anytime::img::{metrics, synth, Kernel};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Arrivals per precise-baseline interval: 2 replicas at rate 4 is a
/// sustained 2× overload, so requests queue and admission rejects some.
const ARRIVALS_PER_BASELINE: f64 = 4.0;
const REPLICAS: usize = 2;
const REQUESTS: usize = 48;

/// Per-response record: (quality, SNR dB, status, shed).
type Served = (f64, f64, ServeStatus, bool);

struct Outcome {
    fraction: f64,
    floor: f64,
    result: anytime::core::Result<Served>,
}

/// Parses `--trace <path>` from the command line, if present.
fn trace_path() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            return Some(PathBuf::from(args.next().expect("--trace requires a path")));
        }
    }
    None
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace_out = trace_path();
    let recorder = if trace_out.is_some() {
        Recorder::enabled(1 << 16)
    } else {
        Recorder::disabled()
    };
    // Large enough that deadlines dwarf OS scheduling noise even on a
    // single-core host: the precise baseline lands around tens of ms
    // (sized up after the SIMD/row-convolve speed pass shrank the
    // per-pixel cost).
    let app = Conv2d::new(synth::value_noise(768, 768, 7), Kernel::box_blur(9));
    let reference = app.precise();
    let (_, precise_baseline) = time_baseline(3, || app.precise());
    let total_pixels = (app.image().width() * app.image().height()) as f64;
    // Deadline budgets are fractions of the *anytime* run's full duration —
    // the paper's axis (fraction of runtime → fraction of samples). The
    // row-convolved precise baseline is far cheaper than the permuted
    // per-pixel anytime path, so budgeting against it would leave every
    // sub-1× request hopeless rather than merely approximate.
    // A run samples on every worker of its runtime, and under this load
    // the replicas' runs share the shared runtime's workers: time one on
    // a runtime holding one replica's share of them.
    let share = Runtime::new((RuntimeHandle::global().workers() / REPLICAS).max(1));
    let baseline = {
        let (pipeline, reader) = app.automaton(32 * CHUNK as u64)?;
        let t0 = Instant::now();
        let auto = pipeline.on_runtime(share.handle()).launch()?;
        reader.wait_final_timeout(Duration::from_secs(120))?;
        let elapsed = t0.elapsed();
        auto.join()?;
        elapsed
    };
    println!(
        "precise baseline: {precise_baseline:?}, anytime run: {baseline:?} — \
         open-loop load at 2× capacity\n"
    );

    let factory_app = app.clone();
    let factory_recorder = recorder.clone();
    let pool = ServePool::new(
        ServeOptions {
            replicas: REPLICAS,
            recorder: recorder.clone(),
            // Honest admission floor: launching a pipeline and reaching its
            // first publication costs real time on a loaded host. Budgets
            // below this are rejected at submit instead of admitted and
            // then answered with a timeout.
            min_service: Duration::from_secs_f64(baseline.as_secs_f64() * 0.12),
            ..ServeOptions::default()
        },
        move |_: &()| {
            // Publish every 32 chunks: each publication copies the whole
            // image payload into the double buffer, so publishing too
            // finely would spend the deadline on memcpy instead of taps.
            factory_app
                .automaton_traced(32 * CHUNK as u64, &factory_recorder)
                .map_err(|e| CoreError::InvalidConfig(e.to_string()))
        },
        move |snap| snap.steps() as f64 / total_pixels,
    )?;

    // Deadline budgets as fractions of the anytime run, crossed with
    // quality floors. The tightest stays above `min_service` (0.12×), so
    // that only the load can reject it.
    let fractions = [1.5, 0.6, 0.25, 0.15];
    let floors = [0.0, 0.3, 0.8];
    let interarrival = Duration::from_secs_f64(baseline.as_secs_f64() / ARRIVALS_PER_BASELINE);

    let outcomes = Mutex::new(Vec::with_capacity(REQUESTS));
    std::thread::scope(|scope| {
        let start = Instant::now();
        for i in 0..REQUESTS {
            // Open loop: arrivals keep their schedule whether or not
            // earlier requests have finished.
            let due = start + interarrival * i as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let fraction = fractions[i % fractions.len()];
            let floor = floors[(i / fractions.len()) % floors.len()];
            let deadline = Duration::from_secs_f64(baseline.as_secs_f64() * fraction);
            let (pool, reference, outcomes) = (&pool, &reference, &outcomes);
            scope.spawn(move || {
                let result = pool.submit((), deadline, floor).map(|resp| {
                    let snr = metrics::snr_db(resp.snapshot.value(), reference);
                    (resp.quality, snr, resp.status, resp.shed)
                });
                outcomes.lock().unwrap().push(Outcome {
                    fraction,
                    floor,
                    result,
                });
            });
        }
    });

    println!(
        "{:>10}  {:>6}  {:>6}  {:>9}  {:>9}  {:>6}  {:>5}  {:>6}",
        "deadline", "floor", "served", "samples", "SNR (dB)", "final", "shed", "reject"
    );
    let outcomes = outcomes.into_inner().unwrap();
    for &fraction in &fractions {
        for &floor in &floors {
            let class: Vec<_> = outcomes
                .iter()
                .filter(|o| o.fraction == fraction && o.floor == floor)
                .collect();
            let served: Vec<_> = class
                .iter()
                .filter_map(|o| o.result.as_ref().ok())
                .collect();
            let rejected = class
                .iter()
                .filter(|o| {
                    matches!(
                        o.result,
                        Err(CoreError::AdmissionRejected { .. } | CoreError::QueueFull { .. })
                    )
                })
                .count();
            let mean = |f: &dyn Fn(&Served) -> f64| {
                served.iter().map(|r| f(r)).sum::<f64>() / served.len().max(1) as f64
            };
            println!(
                "{:>9.2}x  {:>6.1}  {:>6}  {:>8.1}%  {:>9.1}  {:>6}  {:>5}  {:>6}",
                fraction,
                floor,
                served.len(),
                100.0 * mean(&|r| r.0),
                mean(&|r| r.1),
                served.iter().filter(|r| r.2 == ServeStatus::Final).count(),
                served.iter().filter(|r| r.3).count(),
                rejected,
            );
        }
    }

    let stats = pool.shutdown();
    println!(
        "\npool: {} admitted ({} completed, {} failed), {} rejected, {} shed, \
         {} retried, deadline hit rate {:.1}%, live runs after shutdown: {}",
        stats.admitted,
        stats.completed,
        stats.failed,
        stats.rejected,
        stats.shed,
        stats.retried,
        100.0 * stats.deadline.hit_rate(),
        stats.live_runs,
    );
    println!(
        "overload degraded quality, not availability: {}/{} admitted requests \
         answered, budgets the backlog could not meet rejected at submit",
        stats.completed, stats.admitted
    );

    if let Some(chrome_path) = trace_out {
        let log = recorder.drain();
        let jsonl_path = chrome_path.with_extension("jsonl");
        let prom_path = chrome_path.with_extension("prom");
        std::fs::write(&chrome_path, log.to_chrome_json())?;
        std::fs::write(&jsonl_path, log.to_jsonl())?;
        std::fs::write(&prom_path, pool.prometheus())?;
        println!(
            "\ntrace: {} events ({} dropped) -> {} (Chrome), {} (JSONL), {} (Prometheus)",
            log.events().len(),
            log.dropped(),
            chrome_path.display(),
            jsonl_path.display(),
            prom_path.display(),
        );
    }
    Ok(())
}
