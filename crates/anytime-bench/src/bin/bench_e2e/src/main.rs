//! `bench_e2e`: the end-to-end benchmark of the Anytime Automaton.
//!
//! One invocation runs one workload for `--seconds` after set-up, prints
//! every metric by name with its unit, and ends with one JSON line. With
//! `--trace 1` the same workload runs with timestamps taken around the
//! public calls of each layer, and the JSON carries the per-layer metrics
//! instead; the spans go to `results/bench_e2e/<workload>.spans.jsonl`.
//! The exit code is 1 when any output was wrong. See README.md.

#![forbid(unsafe_code)]

mod anytime;
mod apps;
mod calibrate;
mod report;
mod serve;
mod stats;
mod trace;

use anytime_core::{PipelineBuilder, Precise, RuntimeHandle, StageOptions};
use anytime_img::Kernel;
use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "anytime-conv2d",
    "anytime-histeq",
    "serve-throughput",
    "serve-deadline",
];

/// No-op pipelines launched after the traced load (`dispatch.noop_p50_us`).
const NOOP_PROBES: usize = 200;

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                workload = Some(WORKLOADS.into_iter().find(|&k| k == w).ok_or(format!(
                    "unknown workload `{w}` (known: {})",
                    WORKLOADS.join(", ")
                ))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            // `--trace` alone, or `--trace 0|1`.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Launch → final of a one-stage pipeline that does no work.
fn noop_probes() -> Vec<f64> {
    let mut lat = Vec::with_capacity(NOOP_PROBES);
    for _ in 0..NOOP_PROBES {
        let mut pb = PipelineBuilder::new();
        let reader = pb.source(
            "noop",
            0u8,
            Precise::new(|x: &u8| *x),
            StageOptions::default(),
        );
        let t = Instant::now();
        let probe = pb.build().launch().and_then(|auto| {
            reader.wait_final_timeout(Duration::from_secs(10))?;
            let took = t.elapsed();
            auto.join()?;
            Ok(took)
        });
        match probe {
            Ok(took) => lat.push(stats::us(took)),
            Err(e) => eprintln!("no-op probe failed: {e}"),
        }
    }
    lat
}

/// Peak resident set size in MiB, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            eprintln!(
                "usage: bench_e2e --workload <{}> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "bench_e2e workload={} seed={} seconds={} trace={} runtime_workers={} available_parallelism={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        RuntimeHandle::global().workers()
    );
    let seconds = Duration::from_secs(args.seconds);
    let seed = args.seed;
    let mut out = Outcome::default();
    let report::Measured {
        e2e,
        mut layers,
        spans,
    } = match args.workload {
        "anytime-conv2d" => {
            let make = || apps::App::conv2d(512, Kernel::gaussian(9, 2.0), 32, seed);
            anytime::run(&make, seconds, &mut out)
        }
        "anytime-histeq" => anytime::run(&|| apps::App::histeq(seed), seconds, &mut out),
        "serve-throughput" => serve::run(
            &serve::Params::throughput(),
            seed,
            seconds,
            args.trace,
            &mut out,
        ),
        "serve-deadline" => serve::run(
            &serve::Params::deadline(),
            seed,
            seconds,
            args.trace,
            &mut out,
        ),
        _ => unreachable!("parse admits only known workloads"),
    };
    if args.trace {
        let noop = noop_probes();
        layers.p50("dispatch.noop_p50_us", noop);
    }
    let rss = peak_rss_mb().unwrap_or_else(|| {
        out.violation("VmHWM missing from /proc/self/status".into());
        0.0
    });
    let (gated, reported) = e2e.sheets(rss);
    let (gated, reported) = (gated.into_metrics(), reported.into_metrics());
    if args.trace {
        println!("end-to-end, traced (compare with an untraced run for the tracing overhead):");
        let traced = Outcome {
            metrics: gated.into_iter().chain(reported).collect(),
            ..Outcome::default()
        };
        print!("{}", traced.lines());
        out.metrics = layers.into_metrics();
        println!("per-layer:");
        let path = Path::new("results/bench_e2e").join(format!("{}.spans.jsonl", args.workload));
        match spans.write_jsonl(
            &path,
            spans.spans.first().map_or_else(Instant::now, |s| s.start),
        ) {
            Ok(()) => println!("spans: {} written to {}", spans.spans.len(), path.display()),
            Err(e) => eprintln!("bench_e2e: writing {}: {e}", path.display()),
        }
    } else {
        println!("reported, not gated:");
        print!(
            "{}",
            Outcome {
                metrics: reported,
                ..Outcome::default()
            }
            .lines()
        );
        out.metrics = gated;
        println!("end-to-end:");
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        let what = format!("metric {} is not a finite number", m.name);
        out.violation(what);
    }
    print!("{}", out.lines());
    for v in &out.violations {
        println!("VIOLATION: {v}");
    }
    println!(
        "attempted {}, failed {}, correct {}",
        out.attempted,
        out.failed,
        out.correct()
    );
    let json = out.json();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("bench_e2e: writing {}: {e}", path.display());
        }
    }
    println!("{json}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_trace_with_and_without_a_value() {
        let a = args("--workload serve-deadline --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve-deadline", 7, 3, true)
        );
        let a = args("--workload anytime-conv2d --trace 0").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (1, 20, false));
        let a = args("--workload anytime-histeq --trace --seed 2").unwrap();
        assert_eq!((a.trace, a.seed), (true, 2));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload anytime-conv2d --seconds 0").is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly these
    /// workloads and metrics, with these units.
    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "metric {name} [{unit}]"
            );
        }
    }
}
