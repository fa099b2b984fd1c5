//! Validates the artifact set `serve_demo --trace out.json` writes:
//!
//! - `out.json` — Chrome `trace_event` JSON (structural check);
//! - `out.jsonl` — JSONL event log (parse + accuracy-vs-time table);
//! - `out.prom` — Prometheus text exposition, cross-checked against the
//!   serving-plane counts derived from the JSONL.
//!
//! ```sh
//! cargo run -p anytime-bench --bin trace_check -- out.json out.jsonl out.prom
//! ```
//!
//! Exits nonzero with a diagnostic on the first inconsistency, so CI can
//! gate on it.

use anytime_bench::traceview::{
    accuracy_table, check_chrome, parse_jsonl, parse_prometheus, prom_value, summarize,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [chrome_path, jsonl_path, prom_path] = match args.as_slice() {
        [a, b, c] => [a, b, c],
        _ => {
            eprintln!("usage: trace_check <chrome.json> <events.jsonl> <metrics.prom>");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(chrome_path, jsonl_path, prom_path) {
        eprintln!("trace_check: {e}");
        std::process::exit(1);
    }
}

fn run(chrome_path: &str, jsonl_path: &str, prom_path: &str) -> Result<(), String> {
    let chrome = std::fs::read_to_string(chrome_path).map_err(|e| format!("{chrome_path}: {e}"))?;
    let jsonl = std::fs::read_to_string(jsonl_path).map_err(|e| format!("{jsonl_path}: {e}"))?;
    let prom = std::fs::read_to_string(prom_path).map_err(|e| format!("{prom_path}: {e}"))?;

    // 1. Chrome JSON is structurally loadable.
    let timeline_events = check_chrome(&chrome).map_err(|e| format!("{chrome_path}: {e}"))?;
    if timeline_events == 0 {
        return Err(format!("{chrome_path}: no timeline events"));
    }
    println!("{chrome_path}: OK ({timeline_events} timeline events)");

    // 2. The JSONL parses and carries the same event population.
    let records = parse_jsonl(&jsonl).map_err(|e| format!("{jsonl_path}: {e}"))?;
    if records.len() != timeline_events {
        return Err(format!(
            "event count mismatch: {} JSONL records vs {} Chrome timeline events",
            records.len(),
            timeline_events
        ));
    }
    let summary = summarize(&records);
    println!(
        "{jsonl_path}: OK ({} events; {} admitted, {} rejected, {} shed, {} hedged, \
         {} completed, {} failed)",
        records.len(),
        summary.admitted,
        summary.rejected,
        summary.shed,
        summary.hedged,
        summary.completed,
        summary.failed,
    );

    // 3. The Prometheus exposition parses and reconciles with the trace:
    // every serving-plane counter equals the count of its events.
    let samples = parse_prometheus(&prom).map_err(|e| format!("{prom_path}: {e}"))?;
    for (event, expected) in [
        ("admitted", summary.admitted),
        ("rejected", summary.rejected),
        ("shed", summary.shed),
        ("hedged", summary.hedged),
        ("retried", summary.retried),
        ("completed", summary.completed),
        ("failed", summary.failed),
    ] {
        let name = format!("anytime_serve_requests_total{{event=\"{event}\"}}");
        let got = prom_value(&samples, &name)
            .ok_or_else(|| format!("{prom_path}: missing sample {name}"))?;
        if got != expected as f64 {
            return Err(format!(
                "{name}: Prometheus says {got}, trace says {expected}"
            ));
        }
    }
    let live = prom_value(&samples, "anytime_serve_live_runs")
        .ok_or_else(|| format!("{prom_path}: missing anytime_serve_live_runs"))?;
    if live != 0.0 {
        return Err(format!("anytime_serve_live_runs is {live}, expected 0"));
    }
    // Worker lifecycle counters reconcile with their trace events: each
    // add/drain emits exactly one event.
    for (event, expected) in [
        ("worker_added", summary.worker_added),
        ("worker_drained", summary.worker_drained),
    ] {
        let name = format!("anytime_serve_governor_total{{event=\"{event}\"}}");
        let got = prom_value(&samples, &name)
            .ok_or_else(|| format!("{prom_path}: missing sample {name}"))?;
        if got != expected as f64 {
            return Err(format!(
                "{name}: Prometheus says {got}, trace says {expected}"
            ));
        }
    }
    // The worker-state gauges are present (every pool exports them).
    for state in ["live", "draining", "target"] {
        let name = format!("anytime_serve_workers{{state=\"{state}\"}}");
        prom_value(&samples, &name).ok_or_else(|| format!("{prom_path}: missing sample {name}"))?;
    }
    // Per-replica breaker gauges, when exported, sit on the documented
    // 0 (closed) / 1 (half-open) / 2 (open) scale.
    for (name, value) in samples
        .iter()
        .filter(|(n, _)| n.starts_with("anytime_serve_breaker_state{"))
    {
        if value.fract() != 0.0 || !(0.0..=2.0).contains(value) {
            return Err(format!("{name}: {value} is not a breaker state (0, 1, 2)"));
        }
    }
    println!(
        "{prom_path}: OK ({} samples, counters and worker lifecycle reconcile)",
        samples.len()
    );

    // 4. The accuracy-vs-time table regenerates and is monotone.
    let budgets: Vec<u64> = (1..=8).map(|i| i * 25_000).collect();
    let table = accuracy_table(&records, &budgets);
    let populated = table.iter().filter(|r| r.requests > 0).count();
    if populated == 0 {
        return Err("accuracy-vs-time table is empty: no quality observations".into());
    }
    println!("\naccuracy vs time (from {jsonl_path}):");
    println!("{:>10}  {:>9}  {:>8}", "budget", "accuracy", "requests");
    for row in &table {
        println!(
            "{:>8}ms  {:>8.1}%  {:>8}",
            row.budget_us / 1000,
            100.0 * row.mean_accuracy,
            row.requests
        );
    }
    for w in table.windows(2) {
        if w[1].requests > 0 && w[0].requests > 0 && w[1].mean_accuracy < w[0].mean_accuracy - 1e-9
        {
            return Err(format!(
                "accuracy table not monotone: {}ms -> {}ms",
                w[0].budget_us / 1000,
                w[1].budget_us / 1000
            ));
        }
    }
    println!("\ntrace_check: all checks passed");
    Ok(())
}
