//! Ablation: intra-stage worker count (paper §IV-C1).
//!
//! The same 2dconv automaton on private runtimes of 1, 2 and 4 workers.
//! The stage task and one helper task per other worker claim batches of
//! chunks of the tree order and the stage task merges them in sample
//! order, so time-to-precise scales with the worker count up to the
//! host's cores; on one worker it is the stage alone, and past the core
//! count the variants expose the claim-and-merge overhead instead.

use anytime_bench::workloads::{self, Scale};
use anytime_core::Runtime;
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
    for workers in [1usize, 2, 4] {
        let rt = Runtime::new(workers);
        group.bench_function(format!("runtime_{workers}_workers"), |b| {
            b.iter(|| {
                let (pipeline, out) = app.automaton(gran).expect("build");
                let auto = pipeline.on_runtime(rt.handle()).launch().expect("launch");
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
