use crate::stage::{AnytimeBody, StepOutcome};
use anytime_permute::DynPermutation;
use std::sync::Arc;

/// An output-sampled map: the paper's anytime recipe for map computations
/// (§III-B2).
///
/// A map generates a set of distinct output elements, each computed from
/// some input element(s). Because the elements are independent, they can be
/// *produced* in any bijective order; every prefix of the order leaves the
/// output partially filled — a valid approximation whose resolution grows
/// with the sample size. With a tree permutation on image pixels, after
/// `4^k` samples a `2^k × 2^k` uniform grid of the image is exact (paper
/// Figure 5); the remaining pixels hold whatever the `init` seed put there
/// (zeros, a coarse interpolation, a previous frame…).
///
/// The permutation runs over *output element indices*; its length is the
/// number of output elements. Its sample order is taken
/// ([`DynPermutation::order`]) when the map is constructed, so maps built
/// from clones of one permutation share one materialized order.
///
/// # Examples
///
/// Squaring a vector element-wise in bit-reverse order:
///
/// ```
/// use anytime_core::{SampledMap, AnytimeBody, StepOutcome};
/// use anytime_permute::{DynPermutation, Tree1d};
///
/// let mut body = SampledMap::new(
///     DynPermutation::new(Tree1d::new(8).unwrap()),
///     |input: &Vec<i32>| vec![0; input.len()],
///     |input, out: &mut Vec<i32>, idx| out[idx] = input[idx] * input[idx],
/// );
/// let input: Vec<i32> = (0..8).collect();
/// let mut out = body.init(&input);
/// body.step(&input, &mut out, 0);
/// body.step(&input, &mut out, 1);
/// assert_eq!(out, vec![0, 0, 0, 0, 16, 0, 0, 0]); // indices 0 and 4 done
/// ```
pub struct SampledMap<I, O> {
    order: Arc<[u32]>,
    chunk: usize,
    init: InitFn<I, O>,
    body: ChunkFn<I, O>,
}

/// Boxed initial-output constructor.
type InitFn<I, O> = Box<dyn FnMut(&I) -> O + Send>;
/// Boxed chunk writer: `(input, out, data_indices, first_sample_position)`.
type ChunkFn<I, O> = Box<dyn FnMut(&I, &mut O, &[u32], usize) + Send>;

impl<I, O> SampledMap<I, O> {
    /// Creates an output-sampled map.
    ///
    /// `init` builds the initial output (every element will eventually be
    /// overwritten); `apply(input, out, idx)` computes output element `idx`
    /// precisely and stores it in `out`.
    ///
    /// # Panics
    ///
    /// Panics if the permutation's order must be materialized and holds an
    /// index that does not fit `u32` (see [`DynPermutation::order`]).
    pub fn new(
        perm: impl Into<DynPermutation>,
        init: impl FnMut(&I) -> O + Send + 'static,
        mut apply: impl FnMut(&I, &mut O, usize) + Send + 'static,
    ) -> Self {
        Self::with_positions(perm, init, move |input, out, idx, _pos| {
            apply(input, out, idx)
        })
    }

    /// Creates an output-sampled map whose `apply` also receives the
    /// element's *sample-order position*.
    ///
    /// `apply(input, out, idx, pos)` computes output element `idx`, knowing
    /// it is the `pos`-th element sampled. The position lets progressive
    /// renderers size the region a sample stands in for — e.g. painting the
    /// [`anytime_permute::Tree2d::block`] a tree sample owns, so every
    /// intermediate output is a complete image at the current resolution
    /// (paper Figures 5 and 16).
    ///
    /// # Panics
    ///
    /// As [`SampledMap::new`].
    pub fn with_positions(
        perm: impl Into<DynPermutation>,
        init: impl FnMut(&I) -> O + Send + 'static,
        mut apply: impl FnMut(&I, &mut O, usize, usize) + Send + 'static,
    ) -> Self {
        Self::chunked(perm, init, move |input, out, indices, first| {
            for (pos, &idx) in (first..).zip(indices) {
                apply(input, out, idx as usize, pos);
            }
        })
    }

    /// Creates an output-sampled map whose body computes a whole chunk of
    /// the sample order per call: `body(input, out, indices, first)`
    /// computes the output elements `indices` (a run of the sample order,
    /// as data indices), where `indices[0]` is the `first`-th element
    /// sampled. Each anytime step makes exactly one call, covering
    /// [`SampledMap::chunk`] elements (fewer on the last step).
    /// [`SampledMap::with_positions`] wraps its per-element closure in it.
    ///
    /// A chunk body can read its input and output through one slice each
    /// for the whole chunk, where a per-element closure's store may alias
    /// them and force a reload on every element.
    ///
    /// # Panics
    ///
    /// As [`SampledMap::new`].
    pub fn chunked(
        perm: impl Into<DynPermutation>,
        init: impl FnMut(&I) -> O + Send + 'static,
        body: impl FnMut(&I, &mut O, &[u32], usize) + Send + 'static,
    ) -> Self {
        Self {
            order: perm.into().order(),
            chunk: 1,
            init: Box::new(init),
            body: Box::new(body),
        }
    }

    /// Processes `chunk` elements per anytime step.
    ///
    /// One intermediate computation then covers a chunk of the sample
    /// order, amortizing the runtime's per-step costs (checkpointing,
    /// dispatch) and the body's boxed call over many cheap elements.
    /// Interruption granularity coarsens accordingly.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk must be non-zero");
        self.chunk = chunk;
        self
    }

    /// The number of output elements the permutation covers.
    pub fn items(&self) -> usize {
        self.order.len()
    }

    /// Elements processed per step.
    pub fn chunk(&self) -> usize {
        self.chunk
    }
}

impl<I, O> AnytimeBody for SampledMap<I, O>
where
    I: Send + Sync + 'static,
    O: Clone + Send + Sync + 'static,
{
    type Input = I;
    type Output = O;

    fn init(&mut self, input: &I) -> O {
        (self.init)(input)
    }

    fn step(&mut self, input: &I, out: &mut O, step: u64) -> StepOutcome {
        let start = step as usize * self.chunk;
        let end = (start + self.chunk).min(self.order.len());
        (self.body)(input, out, &self.order[start..end], start);
        if end == self.order.len() {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }

    fn total_steps(&self, _input: &I) -> Option<u64> {
        Some((self.order.len() as u64).div_ceil(self.chunk as u64))
    }

    fn progress(&self, steps_done: u64, _input: &I) -> u64 {
        (steps_done * self.chunk as u64).min(self.order.len() as u64)
    }
}

impl<I, O> std::fmt::Debug for SampledMap<I, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampledMap")
            .field("items", &self.order.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anytime_permute::{Lfsr, Permutation, Sequential, Tree1d};

    #[test]
    fn full_map_is_precise_in_any_order() {
        let input: Vec<u64> = (0..50).collect();
        for perm in [
            DynPermutation::new(Sequential::new(50)),
            DynPermutation::new(Lfsr::with_len(50).unwrap()),
        ] {
            let mut body = SampledMap::new(
                perm,
                |i: &Vec<u64>| vec![u64::MAX; i.len()],
                |i, out: &mut Vec<u64>, idx| out[idx] = i[idx] + 1,
            );
            let mut out = body.init(&input);
            let mut step = 0;
            while body.step(&input, &mut out, step) == StepOutcome::Continue {
                step += 1;
            }
            let expected: Vec<u64> = (1..=50).collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn partial_map_fills_sampled_indices_only() {
        let input: Vec<u64> = (0..16).collect();
        let mut body = SampledMap::new(
            DynPermutation::new(Tree1d::new(16).unwrap()),
            |i: &Vec<u64>| vec![0; i.len()],
            |i, out: &mut Vec<u64>, idx| out[idx] = i[idx] * 10,
        );
        let mut out = body.init(&input);
        for step in 0..4 {
            body.step(&input, &mut out, step);
        }
        // Tree order visits 0, 8, 4, 12 first.
        let mut expected = vec![0u64; 16];
        for idx in [0usize, 8, 4, 12] {
            expected[idx] = idx as u64 * 10;
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn progress_is_monotone_in_correct_elements() {
        // The number of precisely computed elements grows by one per step —
        // the essence of diffusive accuracy growth.
        let input: Vec<u64> = (0..32).collect();
        let reference: Vec<u64> = input.iter().map(|x| x * 3).collect();
        let mut body = SampledMap::new(
            DynPermutation::new(Lfsr::with_len(32).unwrap()),
            |i: &Vec<u64>| vec![0; i.len()],
            |i, out: &mut Vec<u64>, idx| out[idx] = i[idx] * 3,
        );
        let mut out = body.init(&input);
        let mut last_correct = 0;
        for step in 0..32 {
            body.step(&input, &mut out, step);
            let correct = out.iter().zip(&reference).filter(|(a, b)| a == b).count();
            assert!(correct > last_correct || correct == reference.len());
            last_correct = correct;
        }
        assert_eq!(out, reference);
    }

    #[test]
    fn total_steps_is_item_count() {
        let body: SampledMap<Vec<u64>, Vec<u64>> = SampledMap::new(
            DynPermutation::new(Sequential::new(9)),
            |_| vec![],
            |_, _, _| {},
        );
        assert_eq!(body.total_steps(&vec![]), Some(9));
        assert_eq!(body.items(), 9);
    }

    #[test]
    fn chunked_map_matches_unchunked() {
        let input: Vec<u64> = (0..23).collect();
        let run = |chunk: usize| {
            let mut body = SampledMap::new(
                DynPermutation::new(Lfsr::with_len(23).unwrap()),
                |i: &Vec<u64>| vec![0u64; i.len()],
                |i, out: &mut Vec<u64>, idx| out[idx] = i[idx] * 7,
            )
            .with_chunk(chunk);
            let mut out = body.init(&input);
            let mut step = 0;
            let mut steps_taken = 0;
            while body.step(&input, &mut out, step) == StepOutcome::Continue {
                step += 1;
                steps_taken += 1;
            }
            (out, steps_taken + 1)
        };
        let (unchunked, s1) = run(1);
        let (chunked, s5) = run(5);
        assert_eq!(unchunked, chunked);
        assert_eq!(s1, 23);
        assert_eq!(s5, 5); // ceil(23 / 5)
    }

    #[test]
    fn chunked_progress_reports_elements() {
        let body: SampledMap<Vec<u64>, Vec<u64>> = SampledMap::new(
            DynPermutation::new(Sequential::new(23)),
            |_| vec![],
            |_, _, _| {},
        )
        .with_chunk(5);
        assert_eq!(body.chunk(), 5);
        assert_eq!(body.total_steps(&vec![]), Some(5));
        assert_eq!(body.progress(1, &vec![]), 5);
        assert_eq!(body.progress(4, &vec![]), 20);
        assert_eq!(body.progress(5, &vec![]), 23); // clamped to item count
    }

    #[test]
    fn positions_are_passed_in_sample_order() {
        let input: Vec<u64> = (0..16).collect();
        let mut body = SampledMap::with_positions(
            DynPermutation::new(Tree1d::new(16).unwrap()),
            |_: &Vec<u64>| Vec::<(usize, usize)>::new(),
            |_, out: &mut Vec<(usize, usize)>, idx, pos| out.push((pos, idx)),
        )
        .with_chunk(3);
        let mut out = body.init(&input);
        let mut step = 0;
        while body.step(&input, &mut out, step) == StepOutcome::Continue {
            step += 1;
        }
        // Positions must be 0..16 in order, regardless of chunking.
        let positions: Vec<usize> = out.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, (0..16).collect::<Vec<_>>());
        // And indices must match the permutation's order.
        let indices: Vec<usize> = out.iter().map(|&(_, i)| i).collect();
        assert_eq!(indices, Tree1d::new(16).unwrap().iter().collect::<Vec<_>>());
    }

    #[test]
    fn chunked_body_gets_one_call_per_step() {
        // Each step hands the body one run of the sample order and the
        // position of its first element; the last chunk is short.
        let input: Vec<u64> = (0..16).collect();
        let mut body = SampledMap::chunked(
            DynPermutation::new(Tree1d::new(16).unwrap()),
            |_: &Vec<u64>| Vec::<(usize, Vec<u32>)>::new(),
            |_, out: &mut Vec<(usize, Vec<u32>)>, indices: &[u32], first| {
                out.push((first, indices.to_vec()));
            },
        )
        .with_chunk(5);
        let mut out = body.init(&input);
        let mut step = 0;
        while body.step(&input, &mut out, step) == StepOutcome::Continue {
            step += 1;
        }
        let order: Vec<u32> = Tree1d::new(16).unwrap().iter().map(|i| i as u32).collect();
        let expected: Vec<(usize, Vec<u32>)> = order
            .chunks(5)
            .enumerate()
            .map(|(i, chunk)| (i * 5, chunk.to_vec()))
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    #[should_panic(expected = "chunk must be non-zero")]
    fn zero_chunk_rejected() {
        let _ = SampledMap::<Vec<u64>, Vec<u64>>::new(
            DynPermutation::new(Sequential::new(4)),
            |_| vec![],
            |_, _, _| {},
        )
        .with_chunk(0);
    }
}
