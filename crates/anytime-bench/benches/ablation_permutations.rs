//! Ablation: sampling-permutation choice (paper §III-B2 / §IV-C3).
//!
//! Runs the same full 2-D convolution map under sequential, Morton, tree,
//! and LFSR sample orders. All orders do identical arithmetic; runtime
//! differences are cache locality — the overhead the paper attributes to
//! non-sequential sampling (and proposes deterministic prefetching to
//! recover) — plus the cost of materializing each order. Every iteration
//! builds a fresh permutation: clones of one share a materialized order,
//! so they would time that cost only once.

use anytime_core::{AnytimeBody, SampledMap, StepOutcome};
use anytime_img::{synth, ImageBuf, Kernel};
use anytime_permute::{DynPermutation, Lfsr, Morton2d, Sequential, Tree2d};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn run_full_map(input: &ImageBuf<u8>, kernel: &Kernel, perm: DynPermutation) -> ImageBuf<u8> {
    let kernel = kernel.clone();
    let mut body = SampledMap::new(
        perm,
        |input: &ImageBuf<u8>| {
            ImageBuf::new(input.width(), input.height(), input.channels()).expect("valid dims")
        },
        move |input: &ImageBuf<u8>, out: &mut ImageBuf<u8>, idx| {
            let (x, y) = input.pixel_coords(idx);
            let px = kernel.apply_at(input, x, y);
            out.set_pixel(x, y, &px);
        },
    );
    let mut out = body.init(input);
    let mut step = 0;
    while body.step(input, &mut out, step) == StepOutcome::Continue {
        step += 1;
    }
    out
}

/// A fresh permutation of the named kind over a `side` × `side` grid.
fn permutation(name: &str, side: usize) -> DynPermutation {
    match name {
        "sequential" => DynPermutation::new(Sequential::new(side * side)),
        "morton" => DynPermutation::new(Morton2d::new(side, side).unwrap()),
        "tree" => DynPermutation::new(Tree2d::new(side, side).unwrap()),
        "lfsr" => DynPermutation::new(Lfsr::with_len(side * side).unwrap()),
        _ => unreachable!("no permutation named {name}"),
    }
}

fn bench(c: &mut Criterion) {
    let side = 128usize;
    let input = synth::value_noise(side, side, 5);
    let kernel = Kernel::gaussian(5, 1.2);
    let mut group = c.benchmark_group("ablation_permutations");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for name in ["sequential", "morton", "tree", "lfsr"] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_full_map(&input, &kernel, permutation(name, side))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
