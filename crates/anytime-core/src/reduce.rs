use crate::stage::{AnytimeBody, StepOutcome};
use anytime_permute::DynPermutation;
use std::sync::Arc;

/// An input-sampled reduction: the paper's anytime recipe for commutative
/// reductions (§III-B2, Figure 3).
///
/// A reduction folds input elements into an accumulator with a commutative
/// operator, so the elements can be processed in *any* bijective order and
/// every prefix of that order is a valid sample of the input set. The body:
///
/// - visits input elements in the order of a [`DynPermutation`] (use a
///   pseudo-random permutation for unordered data to avoid memory-order
///   bias);
/// - folds each visited element into the working accumulator;
/// - optionally *normalizes* published values: for non-idempotent operators
///   (like `+`) the accumulator over a sample of size `i` underestimates the
///   population value, so the paper publishes the weighted
///   `O'_i = O_i × n / i` instead. Idempotent operators (`min`, `max`,
///   bitwise or, set union) need no normalization.
///
/// The caller must make the permutation's length equal the number of
/// input items: the body cannot check it, since it cannot see how many
/// items a generic input holds. A shorter order leaves items out of the
/// "precise" output, and a longer one makes `fold` index past the input.
///
/// The sample order is taken ([`DynPermutation::order`]) when the
/// reduction is constructed, so reductions built from clones of one
/// permutation share one materialized order.
///
/// # Examples
///
/// An anytime sum with weighting:
///
/// ```
/// use anytime_core::{SampledReduce, AnytimeBody, StepOutcome};
/// use anytime_permute::{Lfsr, DynPermutation};
///
/// let input: Vec<f64> = (0..100).map(f64::from).collect();
/// let mut body = SampledReduce::new(
///     DynPermutation::new(Lfsr::with_len(100).unwrap()),
///     |_| 0.0f64,
///     |acc, input: &Vec<f64>, idx| *acc += input[idx],
/// )
/// .with_chunk(5)
/// .with_weighting();
///
/// let mut acc = body.init(&input);
/// for step in 0..10 {
///     body.step(&input, &mut acc, step);
/// }
/// // 10 steps × 5 elements per chunk = a half sample of 50 elements. The
/// // weighting hook receives the *element* count (50), not the step count
/// // (10), so the render extrapolates to approximate the full sum (4950).
/// let approx = body.render(&acc, &input, 10);
/// assert!((approx - 4950.0).abs() / 4950.0 < 0.3);
/// ```
pub struct SampledReduce<I, A> {
    order: Arc<[u32]>,
    chunk: usize,
    init: InitFn<I, A>,
    fold: FoldFn<I, A>,
    render: Option<RenderFn<I, A>>,
}

/// Boxed identity-accumulator constructor.
type InitFn<I, A> = Box<dyn FnMut(&I) -> A + Send>;
/// Boxed commutative fold over one chunk: `(acc, input, data_indices)`.
type FoldFn<I, A> = Box<dyn FnMut(&mut A, &I, &[u32]) + Send>;
/// Boxed publication renderer: `(acc, input, elements_done, total_elements)`.
/// Both counts are in input *elements* (sample sizes), never runner steps —
/// [`AnytimeBody::render`] converts before invoking the hook.
type RenderFn<I, A> = Box<dyn Fn(&A, &I, u64, u64) -> A + Send>;

impl<I, A> SampledReduce<I, A> {
    /// Creates an input-sampled reduction.
    ///
    /// `init` builds the identity accumulator; `fold(acc, input, idx)`
    /// combines input element `idx` into the accumulator. The fold operator
    /// must be commutative for sampling to be unbiased and for the final
    /// output to be precise regardless of order.
    ///
    /// # Panics
    ///
    /// Panics if the permutation's order must be materialized and holds an
    /// index that does not fit `u32` (see [`DynPermutation::order`]).
    pub fn new(
        perm: impl Into<DynPermutation>,
        init: impl FnMut(&I) -> A + Send + 'static,
        mut fold: impl FnMut(&mut A, &I, usize) + Send + 'static,
    ) -> Self {
        // One boxed call per chunk: `fold` is inlined into the loop.
        Self::chunked(perm, init, move |acc, input, indices| {
            for &idx in indices {
                fold(acc, input, idx as usize);
            }
        })
    }

    /// Creates an input-sampled reduction whose fold takes a whole chunk
    /// of the sample order per call: `fold(acc, input, indices)` combines
    /// the input elements `indices` (a run of the sample order, as data
    /// indices) into the accumulator. Each anytime step makes exactly one
    /// call, as [`crate::SampledMap::chunked`] does.
    ///
    /// # Panics
    ///
    /// As [`SampledReduce::new`].
    pub fn chunked(
        perm: impl Into<DynPermutation>,
        init: impl FnMut(&I) -> A + Send + 'static,
        fold: impl FnMut(&mut A, &I, &[u32]) + Send + 'static,
    ) -> Self {
        Self {
            order: perm.into().order(),
            chunk: 1,
            init: Box::new(init),
            fold: Box::new(fold),
            render: None,
        }
    }

    /// Folds `chunk` elements per anytime step, amortizing per-step runtime
    /// costs over many cheap folds (see [`crate::SampledMap::with_chunk`]).
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk must be non-zero");
        self.chunk = chunk;
        self
    }

    /// Publishes custom renders: `render(acc, input, elements_done,
    /// total_elements)`.
    ///
    /// The hook is invoked at publication time with the number of input
    /// *elements* folded so far and the population size — not runner
    /// steps. With [`SampledReduce::with_chunk`] each step folds several
    /// elements, and weighting-style extrapolation must divide by the
    /// sample size, so the conversion (`elements = steps × chunk`, capped
    /// at the population) happens before the hook runs.
    pub fn with_render(mut self, render: impl Fn(&A, &I, u64, u64) -> A + Send + 'static) -> Self {
        self.render = Some(Box::new(render));
        self
    }

    /// The number of items the permutation covers.
    pub fn items(&self) -> usize {
        self.order.len()
    }
}

impl<I, A> SampledReduce<I, A>
where
    A: Scalable,
{
    /// Enables the paper's `O'_i = O_i × n / i` weighting for non-idempotent
    /// operators, extrapolating partial accumulations to the population
    /// size.
    pub fn with_weighting(self) -> Self {
        self.with_render(|acc, _input, done, total| {
            if done == 0 {
                acc.scale(0.0)
            } else {
                acc.scale(total as f64 / done as f64)
            }
        })
    }
}

/// Values that can be extrapolated by a scalar factor, used by
/// [`SampledReduce::with_weighting`].
pub trait Scalable {
    /// Returns this value scaled by `factor`.
    fn scale(&self, factor: f64) -> Self;
}

impl Scalable for f64 {
    fn scale(&self, factor: f64) -> Self {
        self * factor
    }
}

impl Scalable for f32 {
    fn scale(&self, factor: f64) -> Self {
        (f64::from(*self) * factor) as f32
    }
}

impl Scalable for u64 {
    fn scale(&self, factor: f64) -> Self {
        (*self as f64 * factor).round() as u64
    }
}

impl Scalable for i64 {
    fn scale(&self, factor: f64) -> Self {
        (*self as f64 * factor).round() as i64
    }
}

impl<T: Scalable> Scalable for Vec<T> {
    fn scale(&self, factor: f64) -> Self {
        self.iter().map(|x| x.scale(factor)).collect()
    }
}

impl<I, A> AnytimeBody for SampledReduce<I, A>
where
    I: Send + Sync + 'static,
    A: Clone + Send + Sync + 'static,
{
    type Input = I;
    type Output = A;

    fn init(&mut self, input: &I) -> A {
        (self.init)(input)
    }

    fn step(&mut self, input: &I, out: &mut A, step: u64) -> StepOutcome {
        let start = step as usize * self.chunk;
        let end = (start + self.chunk).min(self.order.len());
        (self.fold)(out, input, &self.order[start..end]);
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

    fn render(&self, out: &A, input: &I, steps_done: u64) -> A {
        match &self.render {
            // The render hook works in *elements* (sample sizes), not
            // runner steps, so weighting stays correct under chunking.
            Some(f) => {
                let total = self.order.len() as u64;
                let done = (steps_done * self.chunk as u64).min(total);
                f(out, input, done, total)
            }
            None => out.clone(),
        }
    }
}

impl<I, A> std::fmt::Debug for SampledReduce<I, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampledReduce")
            .field("items", &self.order.len())
            .field("weighted", &self.render.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anytime_permute::{Lfsr, Permutation, Sequential};

    fn step_to_completion<B: AnytimeBody>(body: &mut B, input: &B::Input) -> (B::Output, u64) {
        let mut out = body.init(input);
        let mut step = 0;
        while body.step(input, &mut out, step) == StepOutcome::Continue {
            step += 1;
        }
        (out, step + 1)
    }

    #[test]
    fn full_reduction_is_precise_in_any_order() {
        let input: Vec<u64> = (1..=100).collect();
        for perm in [
            DynPermutation::new(Sequential::new(100)),
            DynPermutation::new(Lfsr::with_len(100).unwrap()),
        ] {
            let mut body =
                SampledReduce::new(perm, |_| 0u64, |acc, i: &Vec<u64>, idx| *acc += i[idx]);
            let (out, steps) = step_to_completion(&mut body, &input);
            assert_eq!(out, 5050);
            assert_eq!(steps, 100);
        }
    }

    #[test]
    fn histogram_construction_like_figure_3() {
        // Build a histogram by pseudo-random input sampling; the full pass
        // must be exact, and a half pass must already resemble it.
        let input: Vec<u8> = (0..1000).map(|i| (i % 4) as u8).collect();
        let mut body = SampledReduce::new(
            DynPermutation::new(Lfsr::with_len(1000).unwrap()),
            |_| vec![0u64; 4],
            |acc: &mut Vec<u64>, input: &Vec<u8>, idx| acc[input[idx] as usize] += 1,
        );
        let mut acc = body.init(&input);
        for step in 0..500 {
            body.step(&input, &mut acc, step);
        }
        // Uniform input: each bucket should hold roughly 125 of 500 samples.
        for &count in &acc {
            assert!((75..=175).contains(&count), "biased sample: {acc:?}");
        }
        for step in 500..1000 {
            body.step(&input, &mut acc, step);
        }
        assert_eq!(acc, vec![250, 250, 250, 250]);
    }

    #[test]
    fn weighting_extrapolates_sums() {
        let input: Vec<f64> = vec![2.0; 64];
        let mut body = SampledReduce::new(
            DynPermutation::new(Sequential::new(64)),
            |_| 0.0f64,
            |acc, i: &Vec<f64>, idx| *acc += i[idx],
        )
        .with_weighting();
        let mut acc = body.init(&input);
        for step in 0..16 {
            body.step(&input, &mut acc, step);
        }
        // Sample sum is 32; weighted render extrapolates to 128.
        assert_eq!(body.render(&acc, &input, 16), 128.0);
        // Zero-sample render does not divide by zero.
        assert_eq!(body.render(&acc, &input, 0), 0.0);
    }

    #[test]
    fn render_hook_receives_elements_not_steps() {
        // Regression for the render arity/doc mismatch: with chunking, the
        // hook's `done`/`total` arguments are element counts, so weighting
        // divides by the sample size rather than the step count.
        let input: Vec<f64> = vec![1.0; 64];
        let mut body = SampledReduce::new(
            DynPermutation::new(Sequential::new(64)),
            |_| 0.0f64,
            |acc, i: &Vec<f64>, idx| *acc += i[idx],
        )
        .with_chunk(8)
        .with_weighting();
        let mut acc = body.init(&input);
        for step in 0..4 {
            body.step(&input, &mut acc, step);
        }
        // 4 steps x 8 elements = 32 elements, sum 32; extrapolated to 64.
        // (Had the hook seen steps, it would wrongly render 32 * 64/4.)
        assert_eq!(body.render(&acc, &input, 4), 64.0);
        // A past-the-end step count is capped at the population size.
        assert_eq!(body.render(&acc, &input, 1000), 32.0);

        // The hook observes exactly the documented arguments.
        let probe = SampledReduce::new(
            DynPermutation::new(Sequential::new(10)),
            |_| 0.0f64,
            |_, _: &Vec<f64>, _| {},
        )
        .with_chunk(3)
        .with_render(|_, _, done, total| (done * 100 + total) as f64);
        let probe_input: Vec<f64> = vec![0.0; 10];
        // 2 steps x 3 elements = 6 elements of 10.
        assert_eq!(probe.render(&0.0, &probe_input, 2), 610.0);
    }

    #[test]
    fn idempotent_reduction_needs_no_weighting() {
        let input: Vec<u64> = vec![3, 9, 1, 7];
        let mut body = SampledReduce::new(
            DynPermutation::new(Lfsr::with_len(4).unwrap()),
            |_| 0u64,
            |acc, i: &Vec<u64>, idx| *acc = (*acc).max(i[idx]),
        );
        let (out, _) = step_to_completion(&mut body, &input);
        assert_eq!(out, 9);
    }

    #[test]
    fn scalable_impls() {
        assert_eq!(2.0f64.scale(1.5), 3.0);
        assert_eq!(2.0f32.scale(0.5), 1.0);
        assert_eq!(10u64.scale(0.25), 3); // rounds
        assert_eq!((-4i64).scale(0.5), -2);
        assert_eq!(vec![1.0f64, 2.0].scale(2.0), vec![2.0, 4.0]);
    }

    #[test]
    fn total_steps_is_item_count() {
        let body: SampledReduce<Vec<u64>, u64> = SampledReduce::new(
            DynPermutation::new(Sequential::new(42)),
            |_| 0,
            |_, _, _| {},
        );
        assert_eq!(body.total_steps(&vec![]), Some(42));
        assert_eq!(body.items(), 42);
    }

    #[test]
    fn chunked_fold_gets_one_call_per_step() {
        // Each step hands the fold one run of the sample order; the last
        // chunk is short.
        let mut body = SampledReduce::chunked(
            DynPermutation::new(Lfsr::with_len(23).unwrap()),
            |_| Vec::<Vec<u32>>::new(),
            |acc: &mut Vec<Vec<u32>>, _: &(), indices: &[u32]| acc.push(indices.to_vec()),
        )
        .with_chunk(5);
        let (calls, steps) = step_to_completion(&mut body, &());
        let order: Vec<u32> = Lfsr::with_len(23)
            .unwrap()
            .iter()
            .map(|i| i as u32)
            .collect();
        let expected: Vec<Vec<u32>> = order.chunks(5).map(<[u32]>::to_vec).collect();
        assert_eq!(calls, expected);
        assert_eq!(steps, 5);
    }
}
