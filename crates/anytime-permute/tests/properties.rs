//! Property-based tests: every permutation in the crate must be a bijection
//! of `[0, n)`, partitions must cover the sample order exactly once, and a
//! blocked order must hold its plain order's set at every cut point.

use anytime_permute::{
    partition, BitReverse, DynPermutation, Interleaved, Lcg, Lfsr, Morton2d, Permutation, Restrict,
    Reversed, Sequential, Tree1d, Tree2d, TreeNd,
};
use proptest::prelude::*;

fn assert_bijective<P: Permutation>(p: &P) {
    let mut seen: Vec<usize> = p.iter().collect();
    assert_eq!(seen.len(), p.len(), "length mismatch");
    seen.sort_unstable();
    assert_eq!(seen, (0..p.len()).collect::<Vec<_>>(), "not a bijection");
}

/// Checks `p.blocked(window)` against `p.order()`: a bijection whose
/// segments between cut points (the multiples of `window` and the powers
/// of two) ascend, and whose prefix ending at every cut point holds the
/// same set of indices as the plain order's.
fn assert_blocked(p: &DynPermutation, window: usize) {
    let plain = p.order();
    let blocked = p.blocked(window).order();
    let n = plain.len();
    let mut seen: Vec<u32> = blocked.to_vec();
    seen.sort_unstable();
    assert_eq!(seen, (0..n as u32).collect::<Vec<_>>(), "not a bijection");
    let mut cuts: Vec<usize> = (1..=n / window)
        .map(|k| k * window)
        .chain((0..usize::BITS).map(|b| 1usize << b).take_while(|&c| c < n))
        .chain([n])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    // Both prefixes hold `end` distinct indices, so they hold the same set
    // once every blocked one is among the plain prefix's.
    let mut in_plain = vec![false; n];
    let mut start = 0;
    for end in cuts {
        let segment = &blocked[start..end];
        assert!(
            segment.windows(2).all(|w| w[0] < w[1]),
            "segment {start}..{end} does not ascend (window {window})"
        );
        for &idx in &plain[start..end] {
            in_plain[idx as usize] = true;
        }
        assert!(
            segment.iter().all(|&idx| in_plain[idx as usize]),
            "the prefix ending at {end} differs from the plain order's (window {window})"
        );
        start = end;
    }
}

proptest! {
    #[test]
    fn blocked_tree2d_keeps_its_cut_sets(r in 1usize..48, c in 1usize..48, w in 1usize..3000) {
        assert_blocked(&DynPermutation::new(Tree2d::new(r, c).unwrap()), w);
    }

    #[test]
    fn blocked_lfsr_keeps_its_cut_sets(n in 1usize..3000, seed in 1u32..u32::MAX, w in 1usize..4000) {
        assert_blocked(&DynPermutation::new(Lfsr::with_seed(n, seed).unwrap()), w);
    }

    #[test]
    fn sequential_bijective(n in 0usize..2000) {
        assert_bijective(&Sequential::new(n));
    }

    #[test]
    fn reversed_bijective(n in 0usize..2000) {
        assert_bijective(&Reversed::new(n));
    }

    #[test]
    fn interleaved_bijective(n in 0usize..500, s in 1usize..40) {
        assert_bijective(&Interleaved::new(n, s).unwrap());
    }

    #[test]
    fn bitrev_bijective(bits in 0u32..12) {
        assert_bijective(&BitReverse::with_bits(bits).unwrap());
    }

    #[test]
    fn tree2d_bijective(r in 1usize..40, c in 1usize..40) {
        assert_bijective(&Tree2d::new(r, c).unwrap());
    }

    #[test]
    fn treend_bijective(a in 1usize..8, b in 1usize..8, c in 1usize..8) {
        assert_bijective(&TreeNd::new(&[a, b, c]).unwrap());
    }

    #[test]
    fn lfsr_bijective(n in 1usize..3000) {
        assert_bijective(&Lfsr::with_len(n).unwrap());
    }

    #[test]
    fn lfsr_bijective_any_seed(n in 1usize..512, seed in 0u32..u32::MAX) {
        assert_bijective(&Lfsr::with_seed(n, seed).unwrap());
    }

    #[test]
    fn lcg_bijective(n in 1usize..3000, seed in 0u64..u64::MAX) {
        assert_bijective(&Lcg::with_seed(n, seed).unwrap());
    }

    #[test]
    fn morton_bijective(rb in 0u32..6, cb in 0u32..6) {
        assert_bijective(&Morton2d::new(1 << rb, 1 << cb).unwrap());
    }

    #[test]
    fn restrict_bijective(bits in 1u32..10, frac in 0.01f64..1.0) {
        let full = 1usize << bits;
        let n = ((full as f64 * frac) as usize).max(1);
        assert_bijective(&Restrict::new(BitReverse::with_bits(bits).unwrap(), n).unwrap());
    }

    #[test]
    fn cyclic_partitions_cover(n in 1usize..600, workers in 1usize..9) {
        let p = Lfsr::with_len(n).unwrap();
        let shares = partition::split_cyclic(&p, workers);
        let mut all: Vec<usize> = shares.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn block_partitions_cover(n in 1usize..600, workers in 1usize..9) {
        let p = Tree2d::new(n.div_ceil(10).max(1), 10.min(n)).unwrap();
        let len = p.len();
        let shares = partition::split_blocks(&p, workers);
        let mut all: Vec<usize> = shares.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..len).collect::<Vec<_>>());
    }

    #[test]
    fn tree1d_prefixes_are_uniform(bits in 1u32..11) {
        // After 2^k samples the visited set is an arithmetic progression of
        // stride 2^(bits-k): the "progressively increasing resolution"
        // property of paper Figure 4.
        let n = 1usize << bits;
        let p = Tree1d::new(n).unwrap();
        let order: Vec<usize> = p.iter().collect();
        for k in 0..=bits {
            let count = 1usize << k;
            let stride = n >> k;
            let mut prefix: Vec<usize> = order[..count].to_vec();
            prefix.sort_unstable();
            prop_assert_eq!(prefix, (0..n).step_by(stride).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tree2d_square_prefixes_are_grids(bits in 1u32..5) {
        // After 4^k samples of a 2^b x 2^b image the visited pixels form a
        // 2^k x 2^k uniform grid: paper Figure 5.
        let side = 1usize << bits;
        let p = Tree2d::new(side, side).unwrap();
        let order: Vec<usize> = p.iter().collect();
        for k in 0..=bits {
            let count = 1usize << (2 * k);
            let stride = side >> k;
            let mut prefix: Vec<usize> = order[..count].to_vec();
            prefix.sort_unstable();
            let expected: Vec<usize> = (0..side)
                .step_by(stride)
                .flat_map(|r| (0..side).step_by(stride).map(move |c| r * side + c))
                .collect();
            prop_assert_eq!(prefix, expected);
        }
    }
}
