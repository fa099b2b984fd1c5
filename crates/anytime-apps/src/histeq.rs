//! `histeq` — histogram equalization (PERFECT).
//!
//! Enhances image contrast by remapping intensities through the normalized
//! cumulative distribution of the histogram. The automaton follows the
//! paper's four-stage asynchronous pipeline (§IV-A2):
//!
//! 1. **hist** (diffusive): builds the intensity histogram by pseudo-random
//!    (LFSR) *input sampling* — the paper's Figure 3 pattern;
//! 2. **cdf** (non-anytime): cumulative sum of the histogram;
//! 3. **lut** (non-anytime): normalizes the CDF into a 256-entry lookup
//!    table;
//! 4. **equalize** (diffusive): generates the output image by tree-order
//!    *output sampling*, mapping each pixel through the latest table.
//!
//! Both anytime stages sample their order blocked by their publication
//! window ([`anytime_permute::DynPermutation::blocked`]): between two
//! publications they visit their pixels in data order, and every version
//! published at a window boundary is the plain order's, bit for bit.
//!
//! - **equalize** maps the tree order's pixels. A stop publishes the
//!   chunks mapped so far in the current window.
//! - **hist** counts the LFSR order's pixels. A stop publishes nothing past
//!   the last whole window: the part of a window counted so far holds its
//!   lowest data indices, the window's top rows, a spatially biased sample
//!   ([`anytime_core::AnytimeBody::publishes_stop_progress`]). A window in
//!   data order repeats values (a blob's run of equal pixels), so the fold
//!   counts round-robin into four counter tables, and each publication
//!   sums them into the 256-bin histogram.
//! - The precise [`histogram`] keeps its one-table loop over the image.
//!   It is the reference the tests hold the anytime histograms to, and the
//!   precise baseline the automaton's runtime is measured against.
//!
//! The two small non-anytime stages re-run on every histogram version —
//! which is exactly why the paper reports histeq reaching its precise
//! output only well after the baseline runtime (≈6×), while acceptable
//! output arrives at ≈60%.

use crate::error::Result;
use anytime_core::{
    BufferReader, Pipeline, PipelineBuilder, Precise, SampledMap, SampledReduce, StageOptions,
};
use anytime_img::ImageBuf;
use anytime_permute::{DynPermutation, Lfsr};
use std::sync::Arc;

/// Number of intensity bins (8-bit images).
pub const BINS: usize = 256;

/// Pixels processed per anytime step in the sampled stages.
pub const CHUNK: usize = 256;

/// Counter tables the `hist` stage counts into, round-robin. A window in
/// data order repeats values (a blob image's runs of equal pixels), and
/// in one table each repeat would wait on the previous increment of the
/// same counter.
const TABLES: usize = 4;

/// Computes the intensity histogram of a grayscale image.
///
/// # Panics
///
/// Panics if `img` is not single-channel.
pub fn histogram(img: &ImageBuf<u8>) -> Vec<u64> {
    assert_eq!(img.channels(), 1, "histogram expects grayscale");
    let mut hist = vec![0u64; BINS];
    for &v in img.as_slice() {
        hist[v as usize] += 1;
    }
    hist
}

/// Cumulative sum of a histogram.
pub fn cumulative(hist: &[u64]) -> Vec<u64> {
    let mut cdf = Vec::with_capacity(hist.len());
    let mut acc = 0u64;
    for &h in hist {
        acc += h;
        cdf.push(acc);
    }
    cdf
}

/// Builds the equalization lookup table from a CDF:
/// `lut[v] = round((cdf[v] − cdf_min) / (n − cdf_min) × 255)`.
///
/// An all-zero CDF (no samples yet) yields the identity table, so early
/// pipeline versions degrade gracefully.
pub fn equalization_lut(cdf: &[u64]) -> Vec<u8> {
    assert_eq!(cdf.len(), BINS, "cdf must have one entry per bin");
    let total = *cdf.last().expect("BINS entries");
    if total == 0 {
        return (0..BINS as u16).map(|v| v as u8).collect();
    }
    let cdf_min = cdf.iter().copied().find(|&c| c > 0).unwrap_or(0);
    let denom = total.saturating_sub(cdf_min).max(1) as f64;
    cdf.iter()
        .map(|&c| {
            let num = c.saturating_sub(cdf_min) as f64;
            (num / denom * 255.0).round().clamp(0.0, 255.0) as u8
        })
        .collect()
}

/// Applies a lookup table to every pixel: the precise equalization pass.
pub fn apply_lut(img: &ImageBuf<u8>, lut: &[u8]) -> ImageBuf<u8> {
    assert_eq!(lut.len(), BINS, "lut must have one entry per bin");
    img.map(|v| lut[v as usize])
}

/// The `histeq` benchmark over a grayscale image.
#[derive(Debug, Clone)]
pub struct Histeq {
    /// The input, shared by every clone and automaton.
    image: Arc<ImageBuf<u8>>,
    /// LFSR input-sampling order of the histogram stage.
    hist_perm: DynPermutation,
    /// Tree output-sampling order of the equalize stage.
    map_perm: DynPermutation,
}

impl Histeq {
    /// Creates the benchmark, with LFSR seed 1.
    ///
    /// Both sampling permutations are built here, once: every automaton
    /// built from this value or its clones shares the image and the
    /// sample orders, which the first build (for a publication window)
    /// materializes.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not single-channel, or if it has 2³² pixels or
    /// more (the LFSR's widest register). The tree permutation fails only
    /// on an empty image, which [`ImageBuf`] rejects.
    pub fn new(image: ImageBuf<u8>) -> Self {
        assert_eq!(image.channels(), 1, "histeq expects grayscale");
        Self {
            hist_perm: lfsr(&image, 1),
            map_perm: crate::tree_permutation(&image),
            image: Arc::new(image),
        }
    }

    /// Sets the LFSR seed for the input-sampling permutation.
    ///
    /// Builds a new permutation: clones made before this call keep the
    /// previous seed's order.
    pub fn with_seed(mut self, seed: u32) -> Self {
        self.hist_perm = lfsr(&self.image, seed);
        self
    }

    /// The input image.
    pub fn image(&self) -> &ImageBuf<u8> {
        &self.image
    }

    /// The precise baseline output.
    pub fn precise(&self) -> ImageBuf<u8> {
        let lut = equalization_lut(&cumulative(&histogram(&self.image)));
        apply_lut(&self.image, &lut)
    }

    /// Builds the four-stage automaton.
    ///
    /// `hist_publish_every` / `map_publish_every` set the anytime stages'
    /// output granularities in sampled *pixels* (rounded to [`CHUNK`]s).
    /// Every histogram version re-runs the two non-anytime stages and
    /// restarts the output map, so a coarse histogram granularity is the
    /// lever that bounds histeq's redundant work.
    ///
    /// # Errors
    ///
    /// Does not fail: the permutations are built once, by [`Histeq::new`]
    /// and [`Histeq::with_seed`], which panic where their construction
    /// fails.
    pub fn automaton(
        &self,
        hist_publish_every: u64,
        map_publish_every: u64,
    ) -> Result<(Pipeline, BufferReader<ImageBuf<u8>>)> {
        let every = |pixels: u64| StageOptions::with_publish_every(pixels.div_ceil(CHUNK as u64));
        Ok(self.pipeline(every(hist_publish_every), every(map_publish_every)))
    }

    /// The automaton's pipeline, with its anytime stages' options spelled
    /// out; `equalize` always restarts eagerly.
    fn pipeline(
        &self,
        hist_opts: StageOptions,
        map_opts: StageOptions,
    ) -> (Pipeline, BufferReader<ImageBuf<u8>>) {
        let mut pb = PipelineBuilder::new();
        // Stage 1: anytime histogram via pseudo-random input sampling.
        let hist = pb.source(
            "hist",
            Arc::clone(&self.image),
            self.hist(crate::publication_window(CHUNK, &hist_opts)),
            hist_opts,
        );
        // Stage 2: non-anytime cumulative distribution.
        let cdf = pb.stage(
            "cdf",
            &hist,
            Precise::new(|h: &Vec<u64>| cumulative(h)),
            StageOptions::default(),
        );
        // Stage 3: non-anytime normalization into a lookup table.
        let lut = pb.stage(
            "lut",
            &cdf,
            Precise::new(|c: &Vec<u64>| equalization_lut(c)),
            StageOptions::default(),
        );
        // Stage 4: anytime output generation via tree output sampling.
        let out = pb.stage(
            "equalize",
            &lut,
            self.equalize(crate::publication_window(CHUNK, &map_opts)),
            // Eager restart: abandon a half-finished map as soon as a newer
            // table arrives instead of re-processing the whole image per
            // intermediate table.
            map_opts.restart(anytime_core::RestartPolicy::Eager),
        );
        (pb.build(), out)
    }

    /// The `hist` stage's body: counts the pixels of the LFSR order blocked
    /// by the stage's publication `window`, round-robin into [`TABLES`]
    /// counter tables, and publishes their sum, the 256-bin histogram.
    fn hist(&self, window: usize) -> SampledReduce<Arc<ImageBuf<u8>>, Vec<u64>> {
        SampledReduce::chunked(
            self.hist_perm.blocked(window),
            |_: &Arc<ImageBuf<u8>>| vec![0u64; TABLES * BINS],
            |acc: &mut Vec<u64>, img: &Arc<ImageBuf<u8>>, indices: &[u32]| {
                let pixels = img.as_slice();
                let tables: &mut [[u64; BINS]; TABLES] = acc
                    .as_chunks_mut()
                    .0
                    .try_into()
                    .expect("four tables of one count per bin");
                let [t0, t1, t2, t3] = tables;
                let (quads, rest) = indices.as_chunks::<TABLES>();
                for &[a, b, c, d] in quads {
                    t0[usize::from(pixels[a as usize])] += 1;
                    t1[usize::from(pixels[b as usize])] += 1;
                    t2[usize::from(pixels[c as usize])] += 1;
                    t3[usize::from(pixels[d as usize])] += 1;
                }
                for (table, &idx) in [t0, t1, t2].into_iter().zip(rest) {
                    table[usize::from(pixels[idx as usize])] += 1;
                }
            },
        )
        .with_chunk(CHUNK)
        .with_render(|acc: &Vec<u64>, _: &Arc<ImageBuf<u8>>, _, _| {
            let tables = acc.as_chunks::<BINS>().0;
            (0..BINS)
                .map(|bin| tables.iter().map(|table| table[bin]).sum())
                .collect()
        })
    }

    /// The `equalize` stage's body: maps pixels through the latest table,
    /// in the tree order blocked by the stage's publication `window`. The
    /// (constant) input image is captured; the varying input is the table.
    fn equalize(&self, window: usize) -> SampledMap<Vec<u8>, ImageBuf<u8>> {
        let (width, height) = (self.image.width(), self.image.height());
        let image = Arc::clone(&self.image);
        SampledMap::chunked(
            self.map_perm.blocked(window),
            move |_lut: &Vec<u8>| {
                ImageBuf::new(width, height, 1).expect("input image has valid dimensions")
            },
            move |lut: &Vec<u8>, out: &mut ImageBuf<u8>, indices: &[u32], _first| {
                let (pixels, out) = (image.as_slice(), out.as_mut_slice());
                let lut: &[u8; BINS] = lut.as_slice().try_into().expect("one entry per bin");
                for &idx in indices {
                    let idx = idx as usize;
                    out[idx] = lut[usize::from(pixels[idx])];
                }
            },
        )
        .with_chunk(CHUNK)
    }
}

/// The LFSR input-sampling permutation over `image`'s pixels.
fn lfsr(image: &ImageBuf<u8>, seed: u32) -> DynPermutation {
    DynPermutation::new(Lfsr::with_seed(image.pixel_count(), seed).expect("fewer than 2^32 pixels"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preview::nearest_upsample;
    use anytime_core::{AnytimeBody, Runtime, StepOutcome};
    use anytime_img::{metrics, synth};
    use proptest::prelude::*;
    use std::time::Duration;

    fn app() -> Histeq {
        Histeq::new(synth::blobs(32, 32, 4, 13))
    }

    #[test]
    fn histogram_counts_pixels() {
        let img = ImageBuf::filled(4, 4, 1, 7u8).unwrap();
        let h = histogram(&img);
        assert_eq!(h[7], 16);
        assert_eq!(h.iter().sum::<u64>(), 16);
    }

    #[test]
    fn cumulative_is_monotone_and_totals() {
        let h = histogram(&app().image);
        let c = cumulative(&h);
        assert!(c.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*c.last().unwrap(), 32 * 32);
    }

    #[test]
    fn lut_is_monotone_and_spans_range() {
        let lut = equalization_lut(&cumulative(&histogram(&app().image)));
        assert!(lut.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*lut.last().unwrap(), 255);
    }

    #[test]
    fn empty_cdf_gives_identity_lut() {
        let lut = equalization_lut(&vec![0u64; BINS]);
        assert_eq!(lut[0], 0);
        assert_eq!(lut[128], 128);
        assert_eq!(lut[255], 255);
    }

    #[test]
    fn equalization_stretches_contrast() {
        let app = app();
        let out = app.precise();
        let in_min = *app.image().as_slice().iter().min().unwrap();
        let in_max = *app.image().as_slice().iter().max().unwrap();
        let out_min = *out.as_slice().iter().min().unwrap();
        let out_max = *out.as_slice().iter().max().unwrap();
        assert!(
            u16::from(out_max) - u16::from(out_min) >= u16::from(in_max) - u16::from(in_min),
            "contrast should not shrink"
        );
        assert_eq!(out_max, 255);
    }

    #[test]
    fn automaton_reaches_precise_output() {
        let app = app();
        let precise = app.precise();
        let (pipeline, out) = app.automaton(128, 128).unwrap();
        let auto = pipeline.launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(120)).unwrap();
        assert_eq!(snap.value(), &precise);
        auto.join().unwrap();
    }

    #[test]
    fn automaton_versions_match_the_sample_sweep() {
        // With the histogram published once, `equalize` maps one table,
        // the precise one. Publishing every 3 chunks, it samples the tree
        // order blocked by a 768-pixel window. Its output after every step
        // (what a stop publishes) and every version of a whole run and of a
        // run stopped after its first must be that table applied to the
        // blocked order's prefix of its sample count; one at a multiple of
        // the window must be the plain tree order's, and every one's
        // preview the plain order's preview.
        let opts = |every: u64| StageOptions::with_publish_every(every).keep_history();
        let map = opts(3);
        let window = crate::publication_window(CHUNK, &map);
        for image in [synth::blobs(64, 64, 4, 21), synth::blobs(48, 40, 3, 22)] {
            let (width, height) = (image.width(), image.height());
            let previews = width.is_power_of_two() && height.is_power_of_two();
            let app = Histeq::new(image);
            let pixels = app.image().pixel_count();
            let lut = equalization_lut(&cumulative(&histogram(app.image())));
            let sweep = |order: &[u32], steps: u64| {
                let mut out = ImageBuf::new(width, height, 1).unwrap();
                for &idx in &order[..steps as usize] {
                    let idx = idx as usize;
                    out.as_mut_slice()[idx] = lut[usize::from(app.image().as_slice()[idx])];
                }
                out
            };
            let (plain, blocked) = (app.map_perm.order(), app.map_perm.blocked(window).order());
            let check = |value: &ImageBuf<u8>, steps: u64, case: &str| {
                assert_eq!(value, &sweep(&blocked, steps), "{case}");
                let reference = sweep(&plain, steps);
                if steps.is_multiple_of(window as u64) || steps == pixels as u64 {
                    assert_eq!(value, &reference, "{case}");
                }
                // Other shapes have no preview: it is the sparse image.
                if previews {
                    assert_eq!(
                        nearest_upsample(value, steps),
                        nearest_upsample(&reference, steps),
                        "{case}: preview"
                    );
                }
            };
            let mut body = app.equalize(window);
            let mut out = body.init(&lut);
            for step in 0.. {
                let done = body.step(&lut, &mut out, step) == StepOutcome::Done;
                let steps = body.progress(step + 1, &lut);
                check(
                    &out,
                    steps,
                    &format!("{width}x{height}, after {steps} samples"),
                );
                if done {
                    break;
                }
            }
            let hist = opts(pixels.div_ceil(CHUNK) as u64);
            for workers in [1usize, 2] {
                let rt = Runtime::new(workers);
                let (pipeline, whole) = app.pipeline(hist, map);
                pipeline
                    .on_runtime(rt.handle())
                    .launch()
                    .unwrap()
                    .join()
                    .unwrap();
                let (pipeline, cut) = app.pipeline(hist, map);
                let auto = pipeline.on_runtime(rt.handle()).launch().unwrap();
                cut.wait_newer_timeout(None, Duration::from_secs(60))
                    .unwrap();
                auto.stop_and_join().unwrap();
                let whole = whole.history().unwrap();
                for snap in whole.iter().chain(&cut.history().unwrap()) {
                    let steps = snap.steps();
                    let case = format!("{width}x{height}, {workers} worker(s), at {steps} samples");
                    check(snap.value(), steps, &case);
                }
                assert_eq!(whole.len(), pixels.div_ceil(window), "{width}x{height}");
                let last = whole.last().unwrap();
                assert!(last.is_final());
                assert_eq!(last.value(), &app.precise());
            }
        }
    }

    proptest! {
        #[test]
        fn blocked_hist_publishes_the_plain_orders_histograms(
            width in 1usize..90,
            height in 1usize..90,
            blobs in 1usize..6,
            image_seed in 0u64..1_000,
            seed in 0u32..u32::MAX,
            every in 1u64..12,
        ) {
            // Publishing every `every` chunks, `hist` folds the LFSR order
            // blocked by `every × CHUNK` samples. At every window boundary
            // and at the end, what it publishes must be the one-table
            // histogram of the plain order's prefix.
            let app = Histeq::new(synth::blobs(width, height, blobs, image_seed)).with_seed(seed);
            let window = crate::publication_window(CHUNK, &StageOptions::with_publish_every(every));
            let (plain, image) = (app.hist_perm.order(), Arc::clone(&app.image));
            let mut body = app.hist(window);
            let mut acc = body.init(&image);
            let mut published = 0;
            for step in 0.. {
                let done = body.step(&image, &mut acc, step) == StepOutcome::Done;
                let samples = body.progress(step + 1, &image) as usize;
                if samples.is_multiple_of(window) || done {
                    let prefix: Vec<u8> = plain[..samples]
                        .iter()
                        .map(|&idx| image.as_slice()[idx as usize])
                        .collect();
                    let reference = histogram(&ImageBuf::from_vec(samples, 1, 1, prefix).unwrap());
                    prop_assert_eq!(
                        body.render(&acc, &image, step + 1),
                        reference,
                        "{}x{}, seed {}, window {}, at {} samples",
                        width, height, seed, window, samples
                    );
                    published += 1;
                }
                if done {
                    prop_assert_eq!(samples, width * height);
                    break;
                }
            }
            prop_assert_eq!(published, (width * height).div_ceil(window));
        }
    }

    #[test]
    fn with_seed_replaces_the_cached_order() {
        let app = app();
        let n = app.image().pixel_count();
        let narrow = |seed| -> Vec<u32> {
            use anytime_permute::Permutation;
            let order = Lfsr::with_seed(n, seed).unwrap().materialize();
            order.into_iter().map(|i| i as u32).collect()
        };
        // A build materializes and caches the seed-1 order first.
        let _ = app.automaton(128, 128).unwrap();
        let reseeded = app.clone().with_seed(7);
        assert_eq!(&*reseeded.hist_perm.order(), narrow(7).as_slice());
        assert_ne!(narrow(7), narrow(1));
        assert_eq!(&*app.hist_perm.order(), narrow(1).as_slice());
        // The output map's tree order and the image are untouched by the
        // seed.
        assert!(Arc::ptr_eq(
            &reseeded.map_perm.order(),
            &app.map_perm.order()
        ));
        assert!(Arc::ptr_eq(&reseeded.image, &app.image));
        let (pipeline, out) = reseeded.automaton(128, 128).unwrap();
        let auto = pipeline.launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(120)).unwrap();
        assert_eq!(snap.value(), &app.precise());
        auto.join().unwrap();
    }

    #[test]
    fn sampled_histogram_converges() {
        // A half-sample LUT already produces a close approximation of the
        // precise equalized image.
        let app = Histeq::new(synth::blobs(64, 64, 5, 3));
        let reference = app.precise();
        let n = app.image().pixel_count();
        let perm = Lfsr::with_len(n).unwrap();
        use anytime_permute::Permutation;
        let order = perm.materialize();
        let mut hist = vec![0u64; BINS];
        for &idx in order.iter().take(n / 2) {
            hist[app.image().as_slice()[idx] as usize] += 1;
        }
        let lut = equalization_lut(&cumulative(&hist));
        let approx = apply_lut(app.image(), &lut);
        let snr = metrics::snr_db(&approx, &reference);
        assert!(snr > 20.0, "half-sample equalization too far off: {snr}");
    }
}
