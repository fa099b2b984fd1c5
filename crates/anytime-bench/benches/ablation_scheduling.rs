//! Ablation: publication granularity across a multi-stage pipeline
//! (paper §IV-C2).
//!
//! The paper frames pipeline scheduling as a trade between the time to
//! the first whole output and the gap between consecutive outputs. Here
//! every stage is a task on the default runtime, whose pick order is
//! fixed (DESIGN.md §15), so the trade is made by each stage's
//! `publish_every`. A fine histogram stage (a version every 64th of the
//! image) streams many versions, and each one re-runs the non-anytime
//! stages and restarts the output map. A coarse histogram (one version,
//! its final) runs them once, so the output reaches precise sooner. This
//! bench measures histeq's time to the first output and to precise under
//! both granularities; the output map publishes every 16th of the image
//! in both. EXPERIMENTS.md "Pipeline scheduling (§IV-C2)" has its numbers.

use anytime_bench::workloads::{self, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let app = workloads::histeq(Scale::Quick);
    let n = app.image().pixel_count() as u64;
    let mut group = c.benchmark_group("ablation_scheduling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (label, hist_gran) in [("fine_hist", (n / 64).max(1)), ("coarse_hist", n)] {
        let map_gran = (n / 16).max(1);
        group.bench_function(format!("{label}/to_first"), |b| {
            b.iter(|| {
                let (pipeline, out) = app.automaton(hist_gran, map_gran).expect("build");
                let auto = pipeline.launch().expect("launch");
                let snap = out
                    .wait_newer_timeout(None, Duration::from_secs(60))
                    .expect("first output");
                black_box(snap.version());
                auto.stop_and_join().expect("join");
            })
        });
        group.bench_function(format!("{label}/to_precise"), |b| {
            b.iter(|| {
                let (pipeline, out) = app.automaton(hist_gran, map_gran).expect("build");
                let auto = pipeline.launch().expect("launch");
                let snap = out
                    .wait_final_timeout(Duration::from_secs(120))
                    .expect("final");
                black_box(snap.version());
                auto.join().expect("join");
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
