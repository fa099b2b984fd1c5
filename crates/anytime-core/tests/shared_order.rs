//! Sampled stages built from clones of one permutation share its sample
//! order: it is materialized once, when the first body is constructed,
//! and never again by the bodies themselves. Its blocked orders are built
//! from that one order, once per window.

use anytime_core::{AnytimeBody, SampledMap, SampledReduce, StepOutcome};
use anytime_permute::{DynPermutation, Lfsr, Permutation};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An LFSR order that counts its materializations.
struct Counting {
    inner: Lfsr,
    materialized: Arc<AtomicUsize>,
}

impl Permutation for Counting {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn index(&self, i: usize) -> usize {
        self.inner.index(i)
    }

    fn materialize(&self) -> Vec<usize> {
        // relaxed: a test counter, read after the threads that bump it join
        self.materialized.fetch_add(1, Ordering::Relaxed);
        self.inner.materialize()
    }
}

fn run_to_completion<B: AnytimeBody>(mut body: B, input: &B::Input) -> B::Output {
    let mut out = body.init(input);
    let mut step = 0;
    while body.step(input, &mut out, step) == StepOutcome::Continue {
        step += 1;
    }
    out
}

#[test]
fn clones_of_one_permutation_materialize_once() {
    let materialized = Arc::new(AtomicUsize::new(0));
    let perm = DynPermutation::new(Counting {
        inner: Lfsr::with_len(300).unwrap(),
        materialized: Arc::clone(&materialized),
    });
    let input: Vec<u64> = (0..300).collect();
    let expected: Vec<u64> = input.iter().map(|x| x * 5 + 1).collect();
    let mut blocked = Vec::new();
    for chunk in [1, 7, 64] {
        let map = SampledMap::new(
            perm.clone(),
            |i: &Vec<u64>| vec![0u64; i.len()],
            |i, out: &mut Vec<u64>, idx| out[idx] = i[idx] * 5 + 1,
        )
        .with_chunk(chunk);
        // Publishing every four steps: a window of four chunks.
        let window = chunk * 4;
        let sorted = SampledMap::new(
            perm.clone().blocked(window),
            |i: &Vec<u64>| vec![0u64; i.len()],
            |i, out: &mut Vec<u64>, idx| out[idx] = i[idx] * 5 + 1,
        )
        .with_chunk(chunk);
        assert_eq!(run_to_completion(sorted, &input), expected, "chunk {chunk}");
        blocked.push((window, perm.clone().blocked(window).order()));
        let sum = SampledReduce::new(
            perm.clone(),
            |_| 0u64,
            |acc, i: &Vec<u64>, idx| *acc += i[idx],
        )
        .with_chunk(chunk);
        assert_eq!(run_to_completion(map, &input), expected, "chunk {chunk}");
        assert_eq!(
            run_to_completion(sum, &input),
            299 * 300 / 2,
            "chunk {chunk}"
        );
    }
    // relaxed: every materializing thread has joined (or was this one)
    assert_eq!(materialized.load(Ordering::Relaxed), 1);
    // One blocked order per window, shared by every clone.
    for (window, order) in &blocked {
        assert!(Arc::ptr_eq(&perm.clone().blocked(*window).order(), order));
    }
    assert!(!Arc::ptr_eq(&blocked[0].1, &blocked[1].1));
}
