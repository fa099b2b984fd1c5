//! Microbenchmarks of the model's primitives: buffer publication, snapshot
//! reads, control-token stop checks, permutation generation, and the
//! bit-serial dot product. These set the floor for how fine-grained a
//! stage's steps can be before runtime overhead dominates.

use anytime_approx::BitSerialDot;
use anytime_core::{buffer, ControlToken};
use anytime_permute::{Lfsr, Permutation, Tree2d};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_primitives");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    group.bench_function("buffer_publish_4kb", |b| {
        let payload = vec![0u8; 4096];
        b.iter_with_setup(
            || buffer::versioned::<Vec<u8>>("bench"),
            |(mut w, r)| {
                for i in 0..100u64 {
                    w.publish(payload.clone(), i);
                }
                black_box(r.latest());
            },
        )
    });

    group.bench_function("buffer_latest", |b| {
        let (mut w, r) = buffer::versioned::<Vec<u8>>("bench");
        w.publish(vec![7u8; 4096], 1);
        b.iter(|| black_box(r.latest().map(|s| s.version())))
    });

    group.bench_function("control_is_stopped", |b| {
        let ctl = ControlToken::new();
        b.iter(|| black_box(ctl.is_stopped()))
    });

    group.bench_function("tree2d_materialize_64k", |b| {
        let p = Tree2d::new(256, 256).expect("valid dims");
        b.iter(|| black_box(p.materialize().len()))
    });

    group.bench_function("lfsr_materialize_64k", |b| {
        let p = Lfsr::with_len(65_536).expect("supported size");
        b.iter(|| black_box(p.materialize().len()))
    });

    group.bench_function("bit_serial_dot_1k_x_8_planes", |b| {
        let input: Vec<i64> = (0..1024).map(|i| (i % 251) as i64).collect();
        let weights: Vec<i64> = (0..1024).map(|i| (i * 7 % 256) as i64).collect();
        b.iter(|| {
            let dot = BitSerialDot::new(input.clone(), weights.clone(), 8).expect("valid");
            black_box(dot.finish())
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
