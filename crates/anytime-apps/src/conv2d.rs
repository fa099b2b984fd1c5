//! `2dconv` — 2-D convolution (PERFECT), the paper's flagship benchmark.
//!
//! A blur kernel is applied to an image via per-pixel dot products. The
//! application is a pure map over output pixels, so its automaton is a
//! single **diffusive** stage using output sampling with a 2-D tree
//! permutation (paper §IV-A2): pixels are filtered at progressively
//! increasing resolution, and at 100 % sample size the output is exactly
//! the precise convolution. The stage samples on every worker of the
//! runtime it runs on (paper §IV-C1, [`anytime_core::ParallelSampledMap`])
//! and merges in sample order, so its versions do not depend on how many
//! workers that is.
//!
//! Between two publications the stage filters its samples in data order:
//! it samples the tree order blocked by its publication window
//! ([`anytime_permute::DynPermutation::blocked`]), so its gathers sweep
//! the image forward, and every version it publishes is the plain tree
//! order's.
//!
//! A gray input is padded by the kernel's radius once, in [`Conv2d::new`]
//! ([`PaddedGray`]). The automaton's chunk body and the precise baseline
//! both read that plane, so every pixel, border pixels included, goes
//! through an 8-lane kernel with no clamped tap; both stay bit-identical
//! to [`Kernel::apply_at`]. RGB inputs take the per-pixel
//! [`Kernel::apply_at_into`] path.
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
use anytime_core::{BufferReader, ParallelSampledMap, Pipeline, PipelineBuilder, StageOptions};
use anytime_img::{convolve, convolve_padded, ImageBuf, Kernel, PaddedGray};
use anytime_permute::DynPermutation;
use anytime_sim::ReadInjector;
use std::sync::Arc;

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
    input: Arc<Input>,
    kernel: Kernel,
    perm: DynPermutation,
}

/// What every clone and automaton of one [`Conv2d`] reads.
#[derive(Debug)]
struct Input {
    image: ImageBuf<u8>,
    /// A gray image padded by the kernel's radius; `None` for RGB.
    plane: Option<PaddedGray>,
}

impl Conv2d {
    /// Creates the benchmark over an input image and kernel.
    ///
    /// The image's tree permutation and, for a gray image, its padded
    /// plane are built here, once: every automaton built from this value
    /// or its clones shares them, and shares the sample order, which the
    /// first build materializes.
    ///
    /// # Panics
    ///
    /// Never for an image [`ImageBuf`] accepts: the tree permutation
    /// fails only on an empty image.
    pub fn new(image: ImageBuf<u8>, kernel: Kernel) -> Self {
        let plane = (image.channels() == 1)
            .then(|| PaddedGray::new(&image, kernel.radius().unsigned_abs()));
        Self {
            perm: crate::tree_permutation(&image),
            input: Arc::new(Input { image, plane }),
            kernel,
        }
    }

    /// The input image.
    pub fn image(&self) -> &ImageBuf<u8> {
        &self.input.image
    }

    /// The convolution kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The precise baseline output.
    pub fn precise(&self) -> ImageBuf<u8> {
        match &self.input.plane {
            Some(plane) => convolve_padded(plane, &self.kernel),
            None => convolve(&self.input.image, &self.kernel),
        }
    }

    /// Builds the single-stage anytime automaton.
    ///
    /// `publish_every` controls output granularity in *pixels* filtered
    /// between publications (rounded to whole [`CHUNK`]s). The stage is a
    /// [`ParallelSampledMap`]: every worker of the runtime the pipeline
    /// launches on filters chunks of the sample order (paper §IV-C1), and
    /// the stage task merges them in sample order, so each version is the
    /// same as a one-thread run's at the same sample count.
    ///
    /// The sample order is the tree order blocked by the publication
    /// window ([`anytime_permute::DynPermutation::blocked`]): the pixels
    /// between two publications are filtered in data order. A version
    /// published at a multiple of the window, and the precise output, are
    /// the plain tree order's, bit for bit. A stop publishes the merged
    /// chunks of its window in data order; its preview
    /// ([`crate::preview::nearest_upsample`]) is the plain order's, since
    /// every power-of-two prefix holds the same pixels.
    ///
    /// # Errors
    ///
    /// Does not fail: the permutation is built once, by [`Conv2d::new`].
    ///
    /// # Panics
    ///
    /// The first build for a publication window materializes the sample
    /// order, which panics for an image of 2³² pixels or more (indices are
    /// narrowed to `u32`).
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
        let opts = StageOptions::with_publish_every(publish_every.div_ceil(CHUNK as u64));
        Ok(self.pipeline(opts, recorder))
    }

    /// The automaton's pipeline, with its stage's options spelled out.
    fn pipeline(
        &self,
        opts: StageOptions,
        recorder: &anytime_core::Recorder,
    ) -> (Pipeline, BufferReader<ImageBuf<u8>>) {
        let kernel = self.kernel.clone();
        let mut pb = PipelineBuilder::new().with_recorder(recorder.clone());
        let out = ParallelSampledMap::new(
            "2dconv",
            Arc::clone(&self.input),
            self.perm.blocked(crate::publication_window(CHUNK, &opts)),
            CHUNK,
            |input: &Arc<Input>| {
                let image = &input.image;
                ImageBuf::new(image.width(), image.height(), image.channels())
                    .expect("input image has valid dimensions")
            },
            move |input: &Arc<Input>, indices: &[u32], values: &mut Vec<u8>| {
                let image = &input.image;
                let channels = image.channels();
                values.resize(indices.len() * channels, 0);
                match &input.plane {
                    // Eight pixels at a time: gray inputs dominate the
                    // paper's workloads and the serving demo.
                    Some(plane) => kernel.apply_gray_indices(plane, indices, values),
                    None => {
                        for (&idx, px) in indices.iter().zip(values.chunks_exact_mut(channels)) {
                            let (x, y) = image.pixel_coords(idx as usize);
                            kernel.apply_at_into(image, x, y, px);
                        }
                    }
                }
            },
            |out: &mut ImageBuf<u8>, indices: &[u32], values: &[u8]| {
                let channels = out.channels();
                let samples = out.as_mut_slice();
                if channels == 1 {
                    // One byte a pixel: a store, not a `memcpy` call.
                    for (&idx, &v) in indices.iter().zip(values) {
                        samples[idx as usize] = v;
                    }
                    return;
                }
                for (&idx, px) in indices.iter().zip(values.chunks_exact(channels)) {
                    let at = idx as usize * channels;
                    samples[at..at + channels].copy_from_slice(px);
                }
            },
        )
        .register(&mut pb, opts);
        (pb.build(), out)
    }

    /// Drives the sampled map synchronously over `order`, recording the
    /// output after each requested sample size — the deterministic
    /// sample-size sweeps behind Figures 19 and 20 (no timing involved),
    /// which take the plain tree order.
    ///
    /// `read` maps each input read to the value actually used (identity
    /// for the plain sweep, quantization or upset injection for the
    /// variants).
    fn sample_sweep(
        &self,
        order: &[u32],
        sample_sizes: &[usize],
        mut read: impl FnMut(&mut ImageBuf<u8>, usize, usize) -> f64,
    ) -> Result<Vec<(usize, ImageBuf<u8>)>> {
        let total = order.len();
        let image = self.image();
        let mut working = image.clone(); // cells holding the input
        let mut out = ImageBuf::<u8>::new(image.width(), image.height(), image.channels())?;
        let mut results = Vec::new();
        let mut sizes: Vec<usize> = sample_sizes.iter().map(|&s| s.min(total)).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let r = self.kernel.radius();
        let channels = image.channels();
        let mut next_size = 0usize;
        for (done, &idx) in order.iter().enumerate() {
            let idx = idx as usize;
            let (x, y) = (idx % image.width(), idx / image.width());
            let mut acc = vec![0.0f64; channels];
            for dy in -r..=r {
                for dx in -r..=r {
                    let w = self.kernel.weight(dx, dy);
                    let cx = (x as isize + dx).clamp(0, image.width() as isize - 1) as usize;
                    let cy = (y as isize + dy).clamp(0, image.height() as isize - 1) as usize;
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
        let outputs = self.sample_sweep(&self.perm.order(), sample_sizes, |img, base, c| {
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
        let outputs =
            self.sample_sweep(&self.perm.order(), sample_sizes, move |img, base, c| {
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
    use crate::preview::nearest_upsample;
    use anytime_core::{Precise, Runtime};
    use anytime_img::{metrics, synth};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
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
        assert!(Arc::ptr_eq(&app.perm.order(), &clone.perm.order()));
        // Publishing every 256 pixels: the builds shared one blocked order.
        assert!(Arc::ptr_eq(
            &app.perm.blocked(256).order(),
            &clone.perm.blocked(256).order()
        ));
        assert!(Arc::ptr_eq(&app.input, &clone.input));
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
    fn automaton_versions_match_the_sample_sweep() {
        // 96×80 pads its tree order to 128×128, and a 9×9 kernel puts
        // about one pixel in five on the clamped border; 64×64 and 64×32
        // are power-of-two shapes, whose previews reconstruct. Publishing
        // every 3 chunks, the stage samples the tree order blocked by a
        // 192-pixel window, so it cuts at powers of two between multiples
        // of the window too. On every worker count, every version of a whole
        // run and of a run stopped after its first must be, bit for bit,
        // the sweep's output over the blocked order at the same sample
        // size; a version at a multiple of the window must be the plain
        // tree order's, and every version's preview the plain order's
        // preview. The sweep keeps its own per-pixel loop.
        let history = || StageOptions::with_publish_every(3).keep_history();
        let window = crate::publication_window(CHUNK, &history());
        let off = anytime_core::Recorder::disabled();
        let identity =
            |img: &mut ImageBuf<u8>, base: usize, c: usize| f64::from(img.as_slice()[base + c]);
        for image in [
            synth::value_noise(96, 80, 11),
            synth::rgb_scene(96, 80, 11),
            synth::value_noise(64, 64, 12),
            synth::rgb_scene(64, 32, 12),
        ] {
            let shape = format!("{}x{}x{}", image.width(), image.height(), image.channels());
            let previews = image.width().is_power_of_two() && image.height().is_power_of_two();
            let app = Conv2d::new(image, Kernel::gaussian(9, 2.0));
            // Versions fall on whole chunks: one sweep an order serves
            // every run.
            let pixels = app.image().pixel_count();
            let sizes: Vec<usize> = (CHUNK..pixels + CHUNK).step_by(CHUNK).collect();
            let plain = app
                .sample_sweep(&app.perm.order(), &sizes, identity)
                .unwrap();
            let blocked = app
                .sample_sweep(&app.perm.blocked(window).order(), &sizes, identity)
                .unwrap();
            let at = |sweep: &[(usize, ImageBuf<u8>)], steps: u64| {
                let (_, out) = sweep.iter().find(|(n, _)| *n as u64 == steps).unwrap();
                out.clone()
            };
            for workers in [1usize, 2, 4] {
                let rt = Runtime::new(workers);
                let (pipeline, whole) = app.pipeline(history(), &off);
                pipeline
                    .on_runtime(rt.handle())
                    .launch()
                    .unwrap()
                    .join()
                    .unwrap();
                let (pipeline, cut) = app.pipeline(history(), &off);
                let auto = pipeline.on_runtime(rt.handle()).launch().unwrap();
                cut.wait_newer_timeout(None, Duration::from_secs(60))
                    .unwrap();
                auto.stop_and_join().unwrap();
                let whole = whole.history().unwrap();
                for snap in whole.iter().chain(&cut.history().unwrap()) {
                    let steps = snap.steps();
                    let case = format!("{shape}, {workers} worker(s), at {steps} samples");
                    assert_eq!(snap.value(), &at(&blocked, steps), "{case}");
                    let reference = at(&plain, steps);
                    if steps.is_multiple_of(window as u64) || steps == pixels as u64 {
                        assert_eq!(snap.value(), &reference, "{case}");
                    }
                    // Other shapes have no preview: it is the sparse image.
                    if previews {
                        assert_eq!(
                            nearest_upsample(snap.value(), steps),
                            nearest_upsample(&reference, steps),
                            "{case}: preview"
                        );
                    }
                }
                assert_eq!(
                    whole.len(),
                    pixels.div_ceil(window),
                    "{shape}, {workers} worker(s)"
                );
                let last = whole.last().unwrap();
                assert!(last.is_final());
                assert_eq!(last.value(), &app.precise());
            }
        }
    }

    #[test]
    fn stage_task_alone_finishes_when_the_other_worker_is_busy() {
        // A stage that holds one worker of a 2-worker runtime until
        // released: the conv2d stage task runs on the other worker, and
        // its helper waits behind the hog for the whole run.
        let rt = Runtime::new(2);
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (s, r) = (Arc::clone(&started), Arc::clone(&release));
        let mut pb = PipelineBuilder::new().with_runtime(rt.handle());
        pb.source(
            "hog",
            (),
            Precise::new(move |_: &()| {
                s.store(true, Ordering::SeqCst);
                while !r.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }),
            StageOptions::default(),
        );
        let hog = pb.build().launch().unwrap();
        while !started.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let app = app();
        let (pipeline, out) = app.automaton(256).unwrap();
        let auto = pipeline.on_runtime(rt.handle()).launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(snap.value(), &app.precise());
        // The hog, the conv2d stage task and its helper.
        assert_eq!(rt.stats().tasks_spawned, 3);
        release.store(true, Ordering::SeqCst);
        auto.join().unwrap();
        hog.join().unwrap();
    }

    #[test]
    fn snr_grows_with_sample_size() {
        let app = app();
        let reference = app.precise();
        let sizes = [64usize, 256, 512, 1024];
        let outputs = app
            .sample_sweep(&app.perm.order(), &sizes, |img, base, c| {
                f64::from(img.as_slice()[base + c])
            })
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
