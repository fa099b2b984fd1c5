//! `2dconv` — 2-D convolution (PERFECT), the paper's flagship benchmark.
//!
//! A blur kernel is applied to an image via per-pixel dot products. The
//! application is a pure map over output pixels, so its automaton is a
//! single **diffusive** stage using output sampling with a 2-D tree
//! permutation (paper §IV-A2): pixels are filtered at progressively
//! increasing resolution, and at 100 % sample size the output is exactly
//! the precise convolution.
//!
//! Two technique variants reproduce the paper's sensitivity studies:
//!
//! - [`Conv2d::sample_accuracy_with_precision`] masks pixels to their top
//!   `k` bits (Figure 19: 8/6/4/2-bit precision);
//! - [`Conv2d::sample_accuracy_with_storage`] reads the input through a
//!   drowsy-SRAM model that destructively flips bits (Figure 20: read-upset
//!   probabilities 0 / 1e-7 / 1e-5).

use crate::error::Result;
use anytime_approx::quantize_u8;
use anytime_core::{BufferReader, Pipeline, PipelineBuilder, SampledMap, StageOptions};
use anytime_img::{convolve, ImageBuf, Kernel};
use anytime_permute::DynPermutation;
use anytime_sim::ReadInjector;

/// Pixels filtered per anytime step: amortizes the runtime's per-step
/// costs while keeping interruption granularity fine (~0.025 % of a
/// 512×512 image).
pub const CHUNK: usize = 64;

/// The `2dconv` benchmark: an image, a kernel, and ways to run both the
/// precise baseline and the anytime automaton.
///
/// # Examples
///
/// ```
/// use anytime_apps::Conv2d;
/// use anytime_img::{synth, Kernel};
/// use std::time::Duration;
///
/// let app = Conv2d::new(synth::value_noise(64, 64, 1), Kernel::box_blur(5));
/// let precise = app.precise();
/// let (pipeline, out) = app.automaton(1024)?;
/// let auto = pipeline.launch()?;
/// let snap = out.wait_final_timeout(Duration::from_secs(60))?;
/// assert_eq!(snap.value(), &precise);
/// auto.join()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    image: ImageBuf<u8>,
    kernel: Kernel,
    perm: DynPermutation,
}

impl Conv2d {
    /// Creates the benchmark over an input image and kernel.
    ///
    /// The image's tree permutation is built here, once: every automaton
    /// built from this value or its clones shares its sample order, which
    /// the first build materializes.
    ///
    /// # Panics
    ///
    /// Never for an image [`ImageBuf`] accepts: the tree permutation
    /// fails only on an empty image.
    pub fn new(image: ImageBuf<u8>, kernel: Kernel) -> Self {
        Self {
            perm: crate::tree_permutation(&image),
            image,
            kernel,
        }
    }

    /// The input image.
    pub fn image(&self) -> &ImageBuf<u8> {
        &self.image
    }

    /// The convolution kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The precise baseline output.
    pub fn precise(&self) -> ImageBuf<u8> {
        convolve(&self.image, &self.kernel)
    }

    /// Builds the single-stage anytime automaton.
    ///
    /// `publish_every` controls output granularity in *pixels* filtered
    /// between publications (rounded to whole [`CHUNK`]s).
    ///
    /// # Errors
    ///
    /// Does not fail: the permutation is built once, by [`Conv2d::new`].
    ///
    /// # Panics
    ///
    /// The first build materializes the sample order, which panics for an
    /// image of 2³² pixels or more (indices are narrowed to `u32`).
    pub fn automaton(&self, publish_every: u64) -> Result<(Pipeline, BufferReader<ImageBuf<u8>>)> {
        self.automaton_traced(publish_every, &anytime_core::Recorder::disabled())
    }

    /// [`Conv2d::automaton`] with a trace recorder: the pipeline's buffer
    /// publishes and stage events land in `recorder`, merging into one
    /// timeline with whatever else (e.g. a serving pool) shares it.
    ///
    /// # Errors
    ///
    /// As [`Conv2d::automaton`].
    ///
    /// # Panics
    ///
    /// As [`Conv2d::automaton`].
    pub fn automaton_traced(
        &self,
        publish_every: u64,
        recorder: &anytime_core::Recorder,
    ) -> Result<(Pipeline, BufferReader<ImageBuf<u8>>)> {
        let kernel = self.kernel.clone();
        let mut pb = PipelineBuilder::new().with_recorder(recorder.clone());
        let out = pb.source(
            "2dconv",
            self.image.clone(),
            SampledMap::new(
                self.perm.clone(),
                |input: &ImageBuf<u8>| {
                    ImageBuf::new(input.width(), input.height(), input.channels())
                        .expect("input image has valid dimensions")
                },
                move |input: &ImageBuf<u8>, out: &mut ImageBuf<u8>, idx| {
                    let (x, y) = input.pixel_coords(idx);
                    if input.channels() == 1 {
                        // Allocation-free hot path: gray inputs dominate
                        // the paper's workloads and the serving demo.
                        out.set_pixel(x, y, &[kernel.apply_at_gray(input, x, y)]);
                    } else {
                        let px = kernel.apply_at(input, x, y);
                        out.set_pixel(x, y, &px);
                    }
                },
            )
            .with_chunk(CHUNK),
            StageOptions::with_publish_every(publish_every.div_ceil(CHUNK as u64)),
        );
        Ok((pb.build(), out))
    }

    /// Builds the automaton with the sampling work spread over `workers`
    /// threads (paper §IV-C1): the tree permutation is divided cyclically,
    /// so all workers cooperate on the coarsest unfinished resolution and
    /// low-resolution completeness arrives as early as the machine allows.
    ///
    /// `publish_every` is in pixels. Functionally identical to
    /// [`Conv2d::automaton`]; on multicore hosts the sampling throughput
    /// scales with `workers`.
    ///
    /// # Errors
    ///
    /// As [`Conv2d::automaton`].
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn automaton_parallel(
        &self,
        publish_every: u64,
        workers: usize,
    ) -> Result<(Pipeline, BufferReader<ImageBuf<u8>>)> {
        let kernel = self.kernel.clone();
        let mut pb = PipelineBuilder::new();
        let out = anytime_core::ParallelSampledMap::new(
            "2dconv-par",
            self.image.clone(),
            self.perm.clone(),
            workers,
            CHUNK,
            |input: &ImageBuf<u8>| {
                ImageBuf::new(input.width(), input.height(), input.channels())
                    .expect("input image has valid dimensions")
            },
            move |input: &ImageBuf<u8>, idx| {
                let (x, y) = input.pixel_coords(idx);
                kernel.apply_at(input, x, y)
            },
            |out: &mut ImageBuf<u8>, idx, px: Vec<u8>| {
                out.set_pixel_at(idx, &px);
            },
        )
        .register(&mut pb, StageOptions::with_publish_every(publish_every));
        Ok((pb.build(), out))
    }

    /// Drives the sampled map synchronously, recording the output after
    /// each requested sample size — the deterministic sample-size sweeps
    /// behind Figures 19 and 20 (no timing involved).
    ///
    /// `transform` maps each input read to the value actually used
    /// (identity for the plain sweep, quantization or upset injection for
    /// the variants).
    fn sample_sweep(
        &self,
        sample_sizes: &[usize],
        mut read: impl FnMut(&mut ImageBuf<u8>, usize, usize) -> f64,
    ) -> Result<Vec<(usize, ImageBuf<u8>)>> {
        let order = self.perm.order();
        let total = order.len();
        let mut working = self.image.clone(); // cells holding the input
        let mut out = ImageBuf::<u8>::new(
            self.image.width(),
            self.image.height(),
            self.image.channels(),
        )?;
        let mut results = Vec::new();
        let mut sizes: Vec<usize> = sample_sizes.iter().map(|&s| s.min(total)).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let r = self.kernel.radius();
        let channels = self.image.channels();
        let mut next_size = 0usize;
        for (done, &idx) in order.iter().enumerate() {
            let idx = idx as usize;
            let (x, y) = (idx % self.image.width(), idx / self.image.width());
            let mut acc = vec![0.0f64; channels];
            for dy in -r..=r {
                for dx in -r..=r {
                    let w = self.kernel.weight(dx, dy);
                    let cx = (x as isize + dx).clamp(0, self.image.width() as isize - 1) as usize;
                    let cy = (y as isize + dy).clamp(0, self.image.height() as isize - 1) as usize;
                    let base = working.sample_index(cx, cy);
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a += w * read(&mut working, base, c);
                    }
                }
            }
            let px: Vec<u8> = acc
                .iter()
                .map(|&a| a.round().clamp(0.0, 255.0) as u8)
                .collect();
            out.set_pixel(x, y, &px);
            while next_size < sizes.len() && done + 1 >= sizes[next_size] {
                results.push((sizes[next_size], out.clone()));
                next_size += 1;
            }
        }
        Ok(results)
    }

    /// SNR-vs-sample-size sweep at reduced pixel precision (Figure 19).
    ///
    /// Input pixels are masked to their top `bits` bits before the dot
    /// product; outputs are compared against the full-precision precise
    /// baseline.
    ///
    /// # Errors
    ///
    /// Does not fail: the permutation is built once, by [`Conv2d::new`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8`.
    pub fn sample_accuracy_with_precision(
        &self,
        bits: u32,
        sample_sizes: &[usize],
    ) -> Result<Vec<(usize, f64)>> {
        let reference = self.precise();
        let outputs = self.sample_sweep(sample_sizes, |img, base, c| {
            f64::from(quantize_u8(img.as_slice()[base + c], bits))
        })?;
        Ok(outputs
            .into_iter()
            .map(|(n, img)| {
                let preview = crate::preview::nearest_upsample(&img, n as u64);
                (n, anytime_img::metrics::snr_db(&preview, &reference))
            })
            .collect())
    }

    /// SNR-vs-sample-size sweep with the input held in drowsy SRAM
    /// (Figure 20).
    ///
    /// Every input read passes through a [`ReadInjector`] with the given
    /// per-bit upset probability; flips persist in the input cells
    /// (data-destructive), so — as the paper observes — the number of bit
    /// flips tracks the number of elements processed and the curves line up
    /// at small sample sizes.
    ///
    /// # Errors
    ///
    /// Does not fail: the permutation is built once, by [`Conv2d::new`].
    pub fn sample_accuracy_with_storage(
        &self,
        upset_probability: f64,
        seed: u64,
        sample_sizes: &[usize],
    ) -> Result<Vec<(usize, f64)>> {
        let reference = self.precise();
        let mut injector = ReadInjector::new(upset_probability, seed);
        let outputs = self.sample_sweep(sample_sizes, move |img, base, c| {
            let slice = img.as_mut_slice();
            f64::from(injector.read_byte(&mut slice[base + c]))
        })?;
        Ok(outputs
            .into_iter()
            .map(|(n, img)| {
                let preview = crate::preview::nearest_upsample(&img, n as u64);
                (n, anytime_img::metrics::snr_db(&preview, &reference))
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anytime_img::{metrics, synth};
    use std::time::Duration;

    fn app() -> Conv2d {
        Conv2d::new(synth::value_noise(32, 32, 5), Kernel::box_blur(3))
    }

    #[test]
    fn automaton_reaches_precise_output() {
        let app = app();
        let precise = app.precise();
        let (pipeline, out) = app.automaton(256).unwrap();
        let auto = pipeline.launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(snap.value(), &precise);
        assert!(snap.is_final());
        auto.join().unwrap();
    }

    #[test]
    fn automata_from_one_app_share_its_order() {
        let app = app();
        let precise = app.precise();
        let clone = app.clone();
        for source in [&app, &clone] {
            let (pipeline, out) = source.automaton(256).unwrap();
            let auto = pipeline.launch().unwrap();
            let snap = out.wait_final_timeout(Duration::from_secs(60)).unwrap();
            assert_eq!(snap.value(), &precise);
            auto.join().unwrap();
        }
        assert!(std::sync::Arc::ptr_eq(
            &app.perm.order(),
            &clone.perm.order()
        ));
    }

    #[test]
    fn interrupted_automaton_yields_partial_output() {
        let app = Conv2d::new(synth::value_noise(64, 64, 5), Kernel::gaussian(9, 2.0));
        let (pipeline, out) = app.automaton(64).unwrap();
        let auto = pipeline.launch().unwrap();
        // Stop after the first few publications.
        out.wait_newer_timeout(None, Duration::from_secs(30))
            .unwrap();
        auto.stop();
        auto.join().unwrap();
        let snap = out.latest().expect("approximate output exists");
        assert!(!snap.is_final() || snap.steps() == 64 * 64);
    }

    #[test]
    fn parallel_automaton_matches_serial() {
        let app = app();
        let precise = app.precise();
        for workers in [1usize, 3] {
            let (pipeline, out) = app.automaton_parallel(256, workers).unwrap();
            let auto = pipeline.launch().unwrap();
            let snap = out.wait_final_timeout(Duration::from_secs(120)).unwrap();
            assert_eq!(snap.value(), &precise, "workers={workers}");
            auto.join().unwrap();
        }
    }

    #[test]
    fn snr_grows_with_sample_size() {
        let app = app();
        let reference = app.precise();
        let sizes = [64usize, 256, 512, 1024];
        let outputs = app
            .sample_sweep(&sizes, |img, base, c| f64::from(img.as_slice()[base + c]))
            .unwrap();
        let mut last = f64::NEG_INFINITY;
        for (n, img) in outputs {
            let snr = metrics::snr_db(&img, &reference);
            assert!(snr >= last, "sample {n}: {snr} < {last}");
            last = snr;
        }
        assert_eq!(last, f64::INFINITY); // full sample == precise
    }

    #[test]
    fn precision_sweep_orders_by_bits() {
        let app = app();
        let full = 32 * 32;
        let s8 = app.sample_accuracy_with_precision(8, &[full]).unwrap();
        let s6 = app.sample_accuracy_with_precision(6, &[full]).unwrap();
        let s4 = app.sample_accuracy_with_precision(4, &[full]).unwrap();
        let s2 = app.sample_accuracy_with_precision(2, &[full]).unwrap();
        assert_eq!(s8[0].1, f64::INFINITY); // 8-bit == baseline precision
        assert!(s6[0].1 > s4[0].1);
        assert!(s4[0].1 > s2[0].1);
        // Paper's ballpark: 6-bit ≈ 37.9 dB, 4-bit ≈ 24.2 dB.
        assert!((25.0..50.0).contains(&s6[0].1), "6-bit: {}", s6[0].1);
        assert!((15.0..35.0).contains(&s4[0].1), "4-bit: {}", s4[0].1);
    }

    #[test]
    fn storage_sweep_zero_probability_is_exact() {
        let app = app();
        let full = 32 * 32;
        let rows = app.sample_accuracy_with_storage(0.0, 1, &[full]).unwrap();
        assert_eq!(rows[0].1, f64::INFINITY);
    }

    #[test]
    fn storage_sweep_higher_upsets_hurt() {
        // Use a large image so flips are statistically reliable.
        let app = Conv2d::new(synth::value_noise(64, 64, 2), Kernel::box_blur(3));
        let full = 64 * 64;
        let low = app.sample_accuracy_with_storage(1e-5, 7, &[full]).unwrap()[0].1;
        let high = app.sample_accuracy_with_storage(1e-3, 7, &[full]).unwrap()[0].1;
        assert!(high < low, "more upsets must lower SNR: {high} vs {low}");
    }
}
