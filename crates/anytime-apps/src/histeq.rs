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
    /// sample orders, which the first build materializes.
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
        let mut pb = PipelineBuilder::new();
        // Stage 1: anytime histogram via pseudo-random input sampling.
        let hist = pb.source(
            "hist",
            Arc::clone(&self.image),
            SampledReduce::new(
                self.hist_perm.clone(),
                |_: &Arc<ImageBuf<u8>>| vec![0u64; BINS],
                |acc: &mut Vec<u64>, img: &Arc<ImageBuf<u8>>, idx| {
                    acc[img.as_slice()[idx] as usize] += 1;
                },
            )
            .with_chunk(CHUNK),
            StageOptions::with_publish_every(hist_publish_every.div_ceil(CHUNK as u64)),
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
        // Stage 4: anytime output generation via tree output sampling. The
        // (constant) input image is captured; the varying input is the
        // table.
        let (width, height) = (self.image.width(), self.image.height());
        let image = Arc::clone(&self.image);
        let out = pb.stage(
            "equalize",
            &lut,
            SampledMap::new(
                self.map_perm.clone(),
                move |_lut: &Vec<u8>| {
                    ImageBuf::new(width, height, 1).expect("input image has valid dimensions")
                },
                move |lut: &Vec<u8>, out: &mut ImageBuf<u8>, idx| {
                    let v = image.as_slice()[idx];
                    out.as_mut_slice()[idx] = lut[v as usize];
                },
            )
            .with_chunk(CHUNK),
            // Eager restart: abandon a half-finished map as soon as a newer
            // table arrives instead of re-processing the whole image per
            // intermediate table.
            StageOptions::with_publish_every(map_publish_every.div_ceil(CHUNK as u64))
                .restart(anytime_core::RestartPolicy::Eager),
        );
        Ok((pb.build(), out))
    }
}

/// The LFSR input-sampling permutation over `image`'s pixels.
fn lfsr(image: &ImageBuf<u8>, seed: u32) -> DynPermutation {
    DynPermutation::new(Lfsr::with_seed(image.pixel_count(), seed).expect("fewer than 2^32 pixels"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anytime_img::{metrics, synth};
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
