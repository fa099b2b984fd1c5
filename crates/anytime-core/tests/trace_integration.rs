//! Integration tests for the trace/observability subsystem: live drains
//! during a run, bounded-ring overflow behavior under a real pipeline,
//! disabled-recorder zero-cost semantics, and golden-file stability of the
//! Chrome and JSONL exports.

use anytime_core::trace::{EventKind, TraceEvent, TraceLog};
use anytime_core::{Diffusive, PipelineBuilder, Recorder, StageOptions, StepOutcome, Supervision};
use std::time::Duration;

fn slow_counter(n: u64, delay: Duration) -> Diffusive<(), u64> {
    Diffusive::new(
        move |_: &()| 0u64,
        move |_: &(), out: &mut u64, step| {
            std::thread::sleep(delay);
            *out += 1;
            if step + 1 == n {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        },
    )
}

/// The collector can drain while publishers are still running: drains
/// partition the event stream (no duplicates, the merged log stays
/// time-sorted), and every publication of the run is either in the
/// merged log or counted as dropped. A push that finds a drain holding
/// its ring's lock is dropped and counted, never waited for, so a mid-run
/// drain may cost an event; it may never lose one silently.
#[test]
fn drain_during_active_run_partitions_events() {
    let recorder = Recorder::enabled(1 << 14);
    let mut pb = PipelineBuilder::new().with_recorder(recorder.clone());
    let f = pb.source(
        "f",
        (),
        slow_counter(200, Duration::from_micros(200)),
        StageOptions::with_publish_every(1),
    );
    let auto = pb.build().launch().unwrap();
    let mut merged = TraceLog::default();
    // Drain repeatedly mid-run; each drain returns only new events.
    while !auto.is_done() {
        let part = auto.trace();
        merged.merge(part);
        std::thread::sleep(Duration::from_millis(2));
    }
    auto.join().unwrap();
    merged.merge(recorder.drain());
    let _ = f;

    for ev in merged.events() {
        assert_eq!(ev.kind, EventKind::Publish, "unexpected event {ev:?}");
        assert_eq!(merged.stage_name(ev.stage.unwrap()), "f");
    }
    let publishes: Vec<u64> = merged
        .events()
        .iter()
        .map(|ev| ev.version.unwrap())
        .collect();
    assert!(!publishes.is_empty(), "the drains saw no publication");
    let mut sorted = publishes.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        publishes.len(),
        "duplicate publish events across drains"
    );
    assert!(
        merged.events().windows(2).all(|w| w[0].at <= w[1].at),
        "merged log must stay time-sorted"
    );
    assert_eq!(
        publishes.len() as u64 + merged.dropped(),
        200,
        "every publication is either seen once or counted as dropped"
    );
}

/// A ring far smaller than the event volume drops oldest events, counts
/// every drop, and never blocks the publisher: the pipeline still reaches
/// its precise output and the newest events survive.
#[test]
fn overflowing_ring_drops_oldest_and_run_completes() {
    let recorder = Recorder::enabled(8);
    let mut pb = PipelineBuilder::new().with_recorder(recorder.clone());
    let f = pb.source(
        "f",
        (),
        slow_counter(500, Duration::ZERO),
        StageOptions::with_publish_every(1),
    );
    let report = pb.build().launch().unwrap().join().unwrap();
    assert!(report.all_final(), "tracing must never stall a publisher");
    assert!(f.latest().unwrap().is_final());
    let log = recorder.drain();
    assert!(log.events().len() <= 8, "ring capacity must bound the log");
    assert!(
        log.dropped() >= 490,
        "drops must be counted, got {}",
        log.dropped()
    );
    // Drop-oldest: the terminal publication is among the survivors.
    assert!(
        log.events()
            .iter()
            .any(|ev| ev.kind == EventKind::Publish && ev.terminal),
        "the newest (terminal) publish must survive overflow"
    );
}

/// A pipeline built without a recorder emits nothing, and the disabled
/// recorder never materializes events (the zero-overhead contract: one
/// branch, no closure call, no allocation).
#[test]
fn disabled_recorder_is_inert_end_to_end() {
    let recorder = Recorder::disabled();
    let mut pb = PipelineBuilder::new().with_recorder(recorder.clone());
    let _f = pb.source(
        "f",
        (),
        slow_counter(50, Duration::ZERO),
        StageOptions::with_publish_every(1),
    );
    let report = pb.build().launch().unwrap().join().unwrap();
    assert!(report.all_final());
    assert!(recorder.drain().is_empty());
    let mut materialized = false;
    recorder.emit_with(|at| {
        materialized = true;
        TraceEvent::new(at, EventKind::Publish)
    });
    assert!(
        !materialized,
        "disabled recorder must not invoke the event constructor"
    );
}

/// Supervision events land in the trace: a restarted stage contributes a
/// `restart` event alongside its publications.
#[test]
fn restart_appears_in_trace() {
    let recorder = Recorder::enabled(1 << 12);
    let mut armed = true;
    let flaky = Diffusive::new(
        move |_: &()| 0u64,
        move |_: &(), out: &mut u64, step| {
            if armed && step == 3 {
                armed = false;
                panic!("transient fault");
            }
            *out += 1;
            if step + 1 == 10 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        },
    );
    let mut pb = PipelineBuilder::new().with_recorder(recorder.clone());
    let _f = pb.source(
        "f",
        (),
        flaky,
        StageOptions::default().supervise(Supervision::restart(2, Duration::ZERO)),
    );
    let report = pb.build().launch().unwrap().join().unwrap();
    assert_eq!(report.stages[0].restarts, 1);
    let log = recorder.drain();
    let restarts = log
        .events()
        .iter()
        .filter(|ev| ev.kind == EventKind::Restart)
        .count();
    assert_eq!(restarts, 1, "the restart must be traced");
    assert_eq!(
        log.stage_name(
            log.events()
                .iter()
                .find(|ev| ev.kind == EventKind::Restart)
                .unwrap()
                .stage
                .unwrap()
        ),
        "f"
    );
}

/// Builds a fixed synthetic log covering every export feature: stage
/// instants, spans, quality observations, and flags.
fn golden_log() -> TraceLog {
    let at = Duration::from_micros;
    let mut events = Vec::new();
    let stage = |i: u32| {
        // StageId construction is crate-private; intern through a recorder
        // with a deterministic table instead.
        let rec = Recorder::enabled(16);
        let f = rec.stage("f");
        let g = rec.stage("g");
        [f, g][i as usize]
    };
    let mut publish = |t: u64, v: u64, steps: u64, terminal: bool| {
        let mut ev = TraceEvent::new(at(t), EventKind::Publish);
        ev.stage = Some(stage(0));
        ev.version = Some(v);
        ev.steps = Some(steps);
        ev.terminal = terminal;
        events.push(ev);
    };
    publish(100, 1, 16, false);
    publish(250, 2, 32, false);
    publish(400, 3, 48, true);
    let mut observe = TraceEvent::new(at(300), EventKind::Observe);
    observe.stage = Some(stage(1));
    observe.version = Some(2);
    observe.req = Some(7);
    observe.accuracy = Some(0.5);
    events.push(observe);
    let mut admit = TraceEvent::new(at(50), EventKind::Admit);
    admit.req = Some(7);
    events.push(admit);
    let mut done = TraceEvent::new(at(450), EventKind::RequestDone);
    done.req = Some(7);
    done.stage = Some(stage(1));
    done.dur = Some(at(400));
    done.accuracy = Some(1.0);
    done.terminal = true;
    events.push(done);
    let mut degrade = TraceEvent::new(at(500), EventKind::Degrade);
    degrade.stage = Some(stage(0));
    degrade.degraded = true;
    events.push(degrade);
    events.sort_by_key(|ev| ev.at);
    TraceLog::from_parts(events, vec!["f".into(), "g".into()], 3)
}

/// Regenerates a golden file when `TRACE_GOLDEN_REGEN=1` (for intentional
/// format changes), then compares.
fn check_golden(rendered: &str, golden: &str, rel_path: &str) {
    if std::env::var_os("TRACE_GOLDEN_REGEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join(rel_path);
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    assert_eq!(
        rendered, golden,
        "trace export changed; rerun with TRACE_GOLDEN_REGEN=1 to update \
         tests/{rel_path} only if the format change is intentional"
    );
}

/// The Chrome export is byte-stable against its golden file — the format
/// downstream tooling (Perfetto, `trace_check`) depends on.
#[test]
fn chrome_export_matches_golden_file() {
    check_golden(
        &golden_log().to_chrome_json(),
        include_str!("golden/trace_chrome.json"),
        "golden/trace_chrome.json",
    );
}

/// The JSONL export is byte-stable against its golden file.
#[test]
fn jsonl_export_matches_golden_file() {
    check_golden(
        &golden_log().to_jsonl(),
        include_str!("golden/trace_events.jsonl"),
        "golden/trace_events.jsonl",
    );
}
