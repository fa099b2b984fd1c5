//! `debayer` — Bayer-filter demosaicing (PERFECT).
//!
//! Converts a single-sensor RGGB Bayer mosaic to a full RGB image via
//! bilinear interpolation. Structurally a sibling of `2dconv` — each output
//! pixel is an independent interpolation of a small input neighborhood —
//! so its automaton is the same single **diffusive** stage with tree-order
//! output sampling (paper §IV-A2), and its runtime–accuracy profile tracks
//! 2dconv's (paper Figure 14).

use crate::error::Result;
use anytime_core::{BufferReader, Pipeline, PipelineBuilder, SampledMap, StageOptions};
use anytime_img::ImageBuf;
use anytime_permute::DynPermutation;

/// Pixels demosaiced per anytime step (see [`crate::conv2d::CHUNK`]).
pub const CHUNK: usize = 64;

/// The color a Bayer site samples, in RGGB layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Red,
    GreenOnRedRow,
    GreenOnBlueRow,
    Blue,
}

fn site(x: usize, y: usize) -> Site {
    match (y % 2, x % 2) {
        (0, 0) => Site::Red,
        (0, 1) => Site::GreenOnRedRow,
        (1, 0) => Site::GreenOnBlueRow,
        _ => Site::Blue,
    }
}

/// Builds an RGGB mosaic from a full RGB image (the sensor simulation that
/// provides the benchmark's input).
///
/// # Panics
///
/// Panics if `rgb` is not 3-channel.
pub fn mosaic_from_rgb(rgb: &ImageBuf<u8>) -> ImageBuf<u8> {
    assert_eq!(rgb.channels(), 3, "mosaic source must be RGB");
    let mut out = ImageBuf::new(rgb.width(), rgb.height(), 1).expect("same non-zero dims");
    for y in 0..rgb.height() {
        for x in 0..rgb.width() {
            let px = rgb.pixel(x, y);
            let v = match site(x, y) {
                Site::Red => px[0],
                Site::GreenOnRedRow | Site::GreenOnBlueRow => px[1],
                Site::Blue => px[2],
            };
            out.set_pixel(x, y, &[v]);
        }
    }
    out
}

fn avg(values: &[u8]) -> u8 {
    if values.is_empty() {
        return 0;
    }
    let sum: u32 = values.iter().map(|&v| u32::from(v)).sum();
    ((sum as f64 / values.len() as f64).round()) as u8
}

/// Reflects an out-of-range coordinate back into `[0, n)` preserving
/// parity — essential for Bayer data, where clamping would land on a
/// wrong-color site.
fn mirror(k: isize, n: usize) -> usize {
    let n = n as isize;
    let mut k = k;
    loop {
        if k < 0 {
            k = -k;
        } else if k >= n {
            k = 2 * (n - 1) - k;
        } else {
            return k as usize;
        }
    }
}

/// Bilinearly demosaics one pixel of an RGGB mosaic (mirrored borders).
pub fn demosaic_at(mosaic: &ImageBuf<u8>, x: usize, y: usize) -> [u8; 3] {
    let (xi, yi) = (x as isize, y as isize);
    let at = |dx: isize, dy: isize| {
        let mx = mirror(xi + dx, mosaic.width());
        let my = mirror(yi + dy, mosaic.height());
        mosaic.pixel(mx, my)[0]
    };
    let cross = |f: &mut Vec<u8>| {
        f.extend_from_slice(&[at(-1, 0), at(1, 0), at(0, -1), at(0, 1)]);
    };
    match site(x, y) {
        Site::Red => {
            let mut g = Vec::with_capacity(4);
            cross(&mut g);
            let b = [at(-1, -1), at(1, -1), at(-1, 1), at(1, 1)];
            [at(0, 0), avg(&g), avg(&b)]
        }
        Site::Blue => {
            let mut g = Vec::with_capacity(4);
            cross(&mut g);
            let r = [at(-1, -1), at(1, -1), at(-1, 1), at(1, 1)];
            [avg(&r), avg(&g), at(0, 0)]
        }
        Site::GreenOnRedRow => {
            let r = [at(-1, 0), at(1, 0)];
            let b = [at(0, -1), at(0, 1)];
            [avg(&r), at(0, 0), avg(&b)]
        }
        Site::GreenOnBlueRow => {
            let r = [at(0, -1), at(0, 1)];
            let b = [at(-1, 0), at(1, 0)];
            [avg(&r), at(0, 0), avg(&b)]
        }
    }
}

/// Precise full-image demosaic: the baseline.
pub fn demosaic(mosaic: &ImageBuf<u8>) -> ImageBuf<u8> {
    let mut out = ImageBuf::new(mosaic.width(), mosaic.height(), 3).expect("non-zero dims");
    for y in 0..mosaic.height() {
        for x in 0..mosaic.width() {
            out.set_pixel(x, y, &demosaic_at(mosaic, x, y));
        }
    }
    out
}

/// The `debayer` benchmark over an RGGB mosaic.
#[derive(Debug, Clone)]
pub struct Debayer {
    mosaic: ImageBuf<u8>,
    perm: DynPermutation,
}

impl Debayer {
    /// Creates the benchmark from a mosaic image.
    ///
    /// The mosaic's tree permutation is built here, once: every automaton
    /// built from this value or its clones shares its sample order, which
    /// the first build materializes.
    ///
    /// # Panics
    ///
    /// Panics if `mosaic` is not single-channel. The tree permutation
    /// fails only on an empty image, which [`ImageBuf`] rejects.
    pub fn new(mosaic: ImageBuf<u8>) -> Self {
        assert_eq!(mosaic.channels(), 1, "mosaic must be single-channel");
        Self {
            perm: crate::tree_permutation(&mosaic),
            mosaic,
        }
    }

    /// Creates the benchmark by mosaicing an RGB scene.
    pub fn from_rgb(rgb: &ImageBuf<u8>) -> Self {
        Self::new(mosaic_from_rgb(rgb))
    }

    /// The mosaic input.
    pub fn mosaic(&self) -> &ImageBuf<u8> {
        &self.mosaic
    }

    /// The precise baseline output.
    pub fn precise(&self) -> ImageBuf<u8> {
        demosaic(&self.mosaic)
    }

    /// Builds the single-diffusive-stage automaton (tree output sampling).
    ///
    /// `publish_every` is in pixels, rounded to whole [`CHUNK`]s.
    ///
    /// # Errors
    ///
    /// Does not fail: the permutation is built once, by [`Debayer::new`].
    ///
    /// # Panics
    ///
    /// The first build materializes the sample order, which panics for a
    /// mosaic of 2³² pixels or more (indices are narrowed to `u32`).
    pub fn automaton(&self, publish_every: u64) -> Result<(Pipeline, BufferReader<ImageBuf<u8>>)> {
        let mut pb = PipelineBuilder::new();
        let out = pb.source(
            "debayer",
            self.mosaic.clone(),
            SampledMap::new(
                self.perm.clone(),
                |input: &ImageBuf<u8>| {
                    ImageBuf::new(input.width(), input.height(), 3)
                        .expect("input image has valid dimensions")
                },
                |input: &ImageBuf<u8>, out: &mut ImageBuf<u8>, idx| {
                    let (x, y) = input.pixel_coords(idx);
                    out.set_pixel(x, y, &demosaic_at(input, x, y));
                },
            )
            .with_chunk(CHUNK),
            StageOptions::with_publish_every(publish_every.div_ceil(CHUNK as u64)),
        );
        Ok((pb.build(), out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anytime_img::{metrics, synth};
    use anytime_permute::Tree2d;
    use std::time::Duration;

    fn scene() -> ImageBuf<u8> {
        synth::rgb_scene(32, 32, 21)
    }

    #[test]
    fn mosaic_samples_rggb() {
        let rgb = scene();
        let m = mosaic_from_rgb(&rgb);
        assert_eq!(m.pixel(0, 0)[0], rgb.pixel(0, 0)[0]); // R
        assert_eq!(m.pixel(1, 0)[0], rgb.pixel(1, 0)[1]); // G
        assert_eq!(m.pixel(0, 1)[0], rgb.pixel(0, 1)[1]); // G
        assert_eq!(m.pixel(1, 1)[0], rgb.pixel(1, 1)[2]); // B
    }

    #[test]
    fn demosaic_preserves_sampled_channel() {
        let m = mosaic_from_rgb(&scene());
        let out = demosaic(&m);
        // At an R site the red channel is the raw sample.
        assert_eq!(out.pixel(2, 2)[0], m.pixel(2, 2)[0]);
        // At a B site the blue channel is the raw sample.
        assert_eq!(out.pixel(3, 3)[2], m.pixel(3, 3)[0]);
    }

    #[test]
    fn demosaic_of_uniform_scene_is_exact() {
        let mut rgb = ImageBuf::<u8>::new(8, 8, 3).unwrap();
        for i in 0..rgb.pixel_count() {
            rgb.set_pixel_at(i, &[120, 80, 200]);
        }
        let out = demosaic(&mosaic_from_rgb(&rgb));
        assert_eq!(out, rgb);
    }

    #[test]
    fn demosaic_roughly_recovers_smooth_scenes() {
        let rgb = scene();
        let out = demosaic(&mosaic_from_rgb(&rgb));
        let snr = metrics::snr_db(&out, &rgb);
        assert!(snr > 15.0, "demosaic too lossy: {snr} dB");
    }

    #[test]
    fn automaton_reaches_precise_output() {
        let app = Debayer::from_rgb(&scene());
        let precise = app.precise();
        let (pipeline, out) = app.automaton(256).unwrap();
        let auto = pipeline.launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(snap.value(), &precise);
        auto.join().unwrap();
    }

    #[test]
    fn partial_output_improves_with_samples() {
        let app = Debayer::from_rgb(&synth::rgb_scene(64, 64, 8));
        let reference = app.precise();
        // Drive the body synchronously for determinism.
        let perm = DynPermutation::new(Tree2d::new(64, 64).unwrap());
        let mut body = SampledMap::new(
            perm,
            |input: &ImageBuf<u8>| ImageBuf::new(input.width(), input.height(), 3).unwrap(),
            |input: &ImageBuf<u8>, out: &mut ImageBuf<u8>, idx| {
                let (x, y) = input.pixel_coords(idx);
                out.set_pixel(x, y, &demosaic_at(input, x, y));
            },
        );
        use anytime_core::{AnytimeBody, StepOutcome};
        let input = app.mosaic().clone();
        let mut out = body.init(&input);
        let mut snrs = Vec::new();
        for step in 0..64 * 64u64 {
            let outcome = body.step(&input, &mut out, step);
            if (step + 1) % 1024 == 0 || outcome == StepOutcome::Done {
                snrs.push(metrics::snr_db(&out, &reference));
            }
        }
        for w in snrs.windows(2) {
            assert!(w[1] >= w[0], "SNR regressed: {snrs:?}");
        }
        assert_eq!(*snrs.last().unwrap(), f64::INFINITY);
    }
}
