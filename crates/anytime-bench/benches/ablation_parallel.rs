//! Ablation: intra-stage worker count (paper §IV-C1).
//!
//! The same 2dconv automaton with its tree sample order divided cyclically
//! into 1, 2, and 4 shares ("workers"), each share a task on the shared
//! runtime's workers. Time-to-precise scales with the share count up to
//! the runtime's worker count; past it, or on a single core, the variants
//! expose the coordination overhead of the merge channel instead — both
//! are the quantities a deployment would tune against. A share convolves
//! pixel by pixel, while `serial_stage` convolves a chunk at a time, so
//! the serial stage stays faster than one share.

use anytime_bench::workloads::{self, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let app = workloads::conv2d(Scale::Quick);
    let gran = workloads::granularity(app.image().pixel_count());
    let mut group = c.benchmark_group("ablation_parallel");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("serial_stage", |b| {
        b.iter(|| {
            let (pipeline, out) = app.automaton(gran).expect("build");
            let auto = pipeline.launch().expect("launch");
            let snap = out
                .wait_final_timeout(Duration::from_secs(120))
                .expect("final");
            black_box(snap.steps());
            auto.join().expect("join");
        })
    });
    for workers in [1usize, 2, 4] {
        group.bench_function(format!("parallel_{workers}_workers"), |b| {
            b.iter(|| {
                let (pipeline, out) = app.automaton_parallel(gran, workers).expect("build");
                let auto = pipeline.launch().expect("launch");
                let snap = out
                    .wait_final_timeout(Duration::from_secs(120))
                    .expect("final");
                black_box(snap.steps());
                auto.join().expect("join");
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
