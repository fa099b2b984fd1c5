//! Convolution kernels and a precise 2-D convolution, the substrate of the
//! paper's `2dconv` benchmark (a blur filter applied via per-pixel dot
//! products).
//!
//! [`Kernel::apply_at`] is the reference: one pixel, clamping each tap to
//! the image. The gray kernels, the automaton's gather
//! ([`Kernel::apply_gray_indices`]) and the precise baseline
//! ([`convolve_padded`]), instead read a [`PaddedGray`] plane, whose
//! padding repeats the border once: every pixel goes through an 8-lane
//! group with no clamped tap and no border path, bit-identically. The
//! gather reads each tap's `f64` from a 256-entry table of `f64::from(b)`,
//! one load a lane where converting would first pack eight scattered
//! bytes into vectors; every byte converts exactly, so the table changes
//! no value.

use crate::image::ImageBuf;
use crate::padded::PaddedGray;
use crate::simd::LANES;

/// `f64::from(b)` at index `b`, for every byte: the gather's taps read
/// their values here. Each entry is the exact conversion (every `u8` is
/// an `f64`), so a lookup is bit-identical to converting.
static BYTE_F64: [f64; 256] = {
    let mut table = [0.0; 256];
    let mut b = 0;
    while b < table.len() {
        table[b] = b as f64;
        b += 1;
    }
    table
};

/// A square convolution kernel with `f64` weights.
///
/// # Examples
///
/// ```
/// use anytime_img::Kernel;
/// let k = Kernel::box_blur(3);
/// assert_eq!(k.size(), 3);
/// let total: f64 = k.weights().iter().sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    size: usize,
    weights: Vec<f64>,
}

impl Kernel {
    /// Creates a kernel from row-major weights.
    ///
    /// # Panics
    ///
    /// Panics if `size` is even or zero, or if `weights.len() != size²`.
    pub fn new(size: usize, weights: Vec<f64>) -> Self {
        assert!(size % 2 == 1, "kernel size must be odd");
        assert_eq!(weights.len(), size * size, "size² weights required");
        Self { size, weights }
    }

    /// A normalized `size x size` box blur.
    ///
    /// # Panics
    ///
    /// Panics if `size` is even or zero.
    pub fn box_blur(size: usize) -> Self {
        assert!(size % 2 == 1 && size > 0, "kernel size must be odd");
        let w = 1.0 / (size * size) as f64;
        Self::new(size, vec![w; size * size])
    }

    /// A normalized Gaussian blur of the given size and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `size` is even or zero, or `sigma <= 0`.
    pub fn gaussian(size: usize, sigma: f64) -> Self {
        assert!(size % 2 == 1 && size > 0, "kernel size must be odd");
        assert!(sigma > 0.0, "sigma must be positive");
        let half = (size / 2) as isize;
        let mut weights = Vec::with_capacity(size * size);
        for dy in -half..=half {
            for dx in -half..=half {
                let d2 = (dx * dx + dy * dy) as f64;
                weights.push((-d2 / (2.0 * sigma * sigma)).exp());
            }
        }
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        Self::new(size, weights)
    }

    /// A 3×3 sharpening kernel.
    pub fn sharpen() -> Self {
        Self::new(3, vec![0.0, -1.0, 0.0, -1.0, 5.0, -1.0, 0.0, -1.0, 0.0])
    }

    /// Kernel side length (odd).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Half the kernel size, rounded down (the filter radius).
    pub fn radius(&self) -> isize {
        (self.size / 2) as isize
    }

    /// The row-major weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The weight at kernel offset `(dx, dy)`, each in `[-radius, radius]`.
    ///
    /// # Panics
    ///
    /// Panics if the offset is outside the kernel.
    pub fn weight(&self, dx: isize, dy: isize) -> f64 {
        let r = self.radius();
        assert!(dx.abs() <= r && dy.abs() <= r, "offset outside kernel");
        self.weights[((dy + r) as usize) * self.size + (dx + r) as usize]
    }

    /// Convolves one pixel of `img` (with border clamping) and returns the
    /// filtered channel values.
    pub fn apply_at(&self, img: &ImageBuf<u8>, x: usize, y: usize) -> Vec<u8> {
        let mut px = vec![0; img.channels()];
        self.apply_at_into(img, x, y, &mut px);
        px
    }

    /// [`Kernel::apply_at`] into `px`, one value per channel, without
    /// allocating. Each channel's accumulator walks the taps in
    /// `apply_at`'s order, so the bytes are the same.
    ///
    /// # Panics
    ///
    /// Panics if `px` does not hold one value per channel.
    pub fn apply_at_into(&self, img: &ImageBuf<u8>, x: usize, y: usize, px: &mut [u8]) {
        assert_eq!(px.len(), img.channels(), "one value per channel");
        let r = self.radius();
        for (c, out) in px.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for dy in -r..=r {
                for dx in -r..=r {
                    let w = self.weight(dx, dy);
                    acc += w * f64::from(img.pixel_clamped(x as isize + dx, y as isize + dy)[c]);
                }
            }
            *out = acc.round().clamp(0.0, 255.0) as u8;
        }
    }

    /// Convolves the pixels at `indices` (row-major pixel indices) of a
    /// padded single-channel image, writing the result for `indices[i]`
    /// to `values[i]` — the chunk body of the `2dconv` sampled map.
    ///
    /// Bit-identical to [`Kernel::apply_at`] on every pixel. The pixels
    /// go [`LANES`] at a time, each with its own `f64` accumulator that
    /// walks `apply_at`'s taps in its order (`dy`-outer, `dx`-inner,
    /// `acc += w * px`), so every output byte sees the same operation
    /// sequence; the lanes only make the pixels' dependency chains
    /// independent of each other. Each lane reads `px` as `f64::from(px)`
    /// through a 256-entry table, one load per tap; the table holds the
    /// exact conversion of every byte, so the values are the same. The
    /// plane puts every window inside it, border pixels' too, so no tap
    /// is clamped, and a short last group repeats its last pixel in its
    /// spare lanes and keeps only its own values.
    ///
    /// # Panics
    ///
    /// Panics if the plane is not padded by the kernel's radius, if
    /// `values` does not hold one value per index, or if an index is past
    /// the last pixel.
    pub fn apply_gray_indices(&self, plane: &PaddedGray, indices: &[u32], values: &mut [u8]) {
        assert_eq!(values.len(), indices.len(), "one value per index");
        self.assert_padding(plane);
        let (w, h) = (plane.width(), plane.height());
        for (group, out) in indices.chunks(LANES).zip(values.chunks_mut(LANES)) {
            let origins = std::array::from_fn(|lane| {
                let idx = group[lane.min(group.len() - 1)] as usize;
                assert!(idx < w * h, "pixel index {idx} outside {w}x{h}");
                plane.window_origin(idx % w, idx / w)
            });
            let lanes = self.convolve_lanes(plane.samples(), plane.stride(), &origins);
            out.copy_from_slice(&lanes[..out.len()]);
        }
    }

    /// Checks that the plane is padded by this kernel's radius, so every
    /// window lies inside it.
    pub(crate) fn assert_padding(&self, plane: &PaddedGray) {
        assert_eq!(
            plane.pad(),
            self.size / 2,
            "the plane must be padded by the radius of a {0}x{0} kernel",
            self.size
        );
    }

    /// Convolves [`LANES`] pixels of a padded single-channel image whose
    /// windows start (top-left tap) at `origins` in its samples, one
    /// accumulator per pixel. Each lane reads a kernel row's taps through
    /// one slice of a padded row, cut once per kernel row, and each tap's
    /// `f64` from [`BYTE_F64`].
    fn convolve_lanes(&self, data: &[u8], stride: usize, origins: &[usize; LANES]) -> [u8; LANES] {
        let mut acc = [0.0f64; LANES];
        for (ky, wrow) in self.weights.chunks_exact(self.size).enumerate() {
            let rows: [&[u8]; LANES] = std::array::from_fn(|lane| {
                let start = origins[lane] + ky * stride;
                &data[start..start + wrow.len()]
            });
            for (kx, &wt) in wrow.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += wt * BYTE_F64[usize::from(row[kx])];
                }
            }
        }
        acc.map(|a| a.round().clamp(0.0, 255.0) as u8)
    }

    /// Accumulates the weighted window around `(x, y)` into `acc` (one
    /// slot per channel), without rounding. `acc` must be zeroed by the
    /// caller; taps run `dy`-outer / `dx`-inner, as in `apply_at`.
    fn accumulate_at(&self, img: &ImageBuf<u8>, x: usize, y: usize, acc: &mut [f64]) {
        let r = self.radius();
        for dy in -r..=r {
            for dx in -r..=r {
                let w = self.weight(dx, dy);
                let px = img.pixel_clamped(x as isize + dx, y as isize + dy);
                for (a, &s) in acc.iter_mut().zip(px) {
                    *a += w * f64::from(s);
                }
            }
        }
    }
}

/// Precise full-image convolution: the `2dconv` baseline.
///
/// Single-channel images are padded by the kernel's radius
/// ([`PaddedGray`]) and go through [`convolve_padded`]. Multi-channel
/// images take the per-pixel path with a reused accumulator (no
/// per-pixel allocation). Either way every byte is [`Kernel::apply_at`]'s.
pub fn convolve(img: &ImageBuf<u8>, kernel: &Kernel) -> ImageBuf<u8> {
    if img.channels() == 1 {
        let plane = PaddedGray::new(img, kernel.radius().unsigned_abs());
        return convolve_padded(&plane, kernel);
    }
    let mut out = img.clone();
    let channels = img.channels();
    let mut acc = vec![0.0f64; channels];
    for y in 0..img.height() {
        for x in 0..img.width() {
            acc.fill(0.0);
            kernel.accumulate_at(img, x, y, &mut acc);
            let base = img.sample_index(x, y);
            for (c, &a) in acc.iter().enumerate() {
                out.as_mut_slice()[base + c] = a.round().clamp(0.0, 255.0) as u8;
            }
        }
    }
    out
}

/// [`convolve`] of a padded single-channel image: every row through the
/// row kernel ([`crate::simd::convolve_row_gray`]), which vectorizes
/// across adjacent output pixels under `--features simd` and is
/// bit-identical to [`Kernel::apply_at`] either way.
///
/// # Panics
///
/// Panics if the plane is not padded by the kernel's radius.
pub fn convolve_padded(plane: &PaddedGray, kernel: &Kernel) -> ImageBuf<u8> {
    let w = plane.width();
    let mut out = ImageBuf::new(w, plane.height(), 1).expect("a plane pads a non-empty image");
    for (y, row) in out.as_mut_slice().chunks_exact_mut(w).enumerate() {
        crate::simd::convolve_row_gray(plane, kernel, y, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use anytime_permute::{DynPermutation, Tree2d};

    #[test]
    fn box_blur_preserves_constant_images() {
        let img = ImageBuf::filled(8, 8, 1, 100u8).unwrap();
        let out = convolve(&img, &Kernel::box_blur(3));
        assert_eq!(out, img);
    }

    #[test]
    fn gaussian_sums_to_one_and_peaks_center() {
        let k = Kernel::gaussian(5, 1.0);
        let total: f64 = k.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(k.weight(0, 0) > k.weight(2, 2));
    }

    #[test]
    fn blur_smooths_checkerboard() {
        let img = synth::checkerboard(16, 16, 1);
        let out = convolve(&img, &Kernel::box_blur(3));
        // A 1-pixel checkerboard under a 3x3 box blur lands mid-range.
        let interior = out.pixel(8, 8)[0];
        assert!((90..=170).contains(&interior), "got {interior}");
    }

    #[test]
    fn sharpening_identity_on_flat_regions() {
        let img = ImageBuf::filled(6, 6, 1, 55u8).unwrap();
        let out = convolve(&img, &Kernel::sharpen());
        assert_eq!(out, img);
    }

    #[test]
    fn border_clamping_keeps_range() {
        let img = synth::gradient(16, 16);
        let out = convolve(&img, &Kernel::gaussian(9, 2.0));
        assert_eq!(out.width(), 16);
        // Blurring a horizontal ramp keeps each row non-decreasing.
        for x in 1..16 {
            assert!(out.pixel(x, 8)[0] >= out.pixel(x - 1, 8)[0]);
        }
    }

    #[test]
    fn rgb_convolution_filters_channels_independently() {
        let mut img = ImageBuf::<u8>::new(5, 5, 3).unwrap();
        img.set_pixel(2, 2, &[255, 0, 0]);
        let out = convolve(&img, &Kernel::box_blur(3));
        let p = out.pixel(2, 2);
        assert!(p[0] > 0, "red energy spread");
        assert_eq!(p[1], 0);
        assert_eq!(p[2], 0);
    }

    #[test]
    fn gather_kernel_matches_per_pixel_path_exactly() {
        // Chunks of a tree order (and of its reverse) hit border and
        // interior pixels, full groups of LANES and remainders; each value
        // must be apply_at's byte for the pixel at its position.
        for (w, h) in [(1usize, 1usize), (5, 3), (11, 9), (64, 12), (96, 80)] {
            let img = synth::value_noise(w, h, 3);
            let tree = DynPermutation::new(Tree2d::new(h, w).unwrap()).order();
            let reversed: Vec<u32> = tree.iter().rev().copied().collect();
            for kernel in [
                Kernel::box_blur(1),
                Kernel::box_blur(3),
                Kernel::gaussian(5, 1.2),
                Kernel::gaussian(9, 2.0),
                Kernel::sharpen(),
            ] {
                let plane = PaddedGray::new(&img, kernel.radius().unsigned_abs());
                let expected: Vec<u8> = (0..w * h)
                    .map(|i| kernel.apply_at(&img, i % w, i / w)[0])
                    .collect();
                for order in [&tree[..], &reversed[..]] {
                    kernel.apply_gray_indices(&plane, &[], &mut []);
                    for len in [1usize, 7, 8, 9, 64] {
                        for chunk in order.chunks(len) {
                            // Poisoned, so an unwritten value shows.
                            let mut values: Vec<u8> =
                                chunk.iter().map(|&i| !expected[i as usize]).collect();
                            kernel.apply_gray_indices(&plane, chunk, &mut values);
                            for (&idx, &v) in chunk.iter().zip(&values) {
                                assert_eq!(
                                    v,
                                    expected[idx as usize],
                                    "pixel {idx}, k{} chunks of {len} in {w}x{h}",
                                    kernel.size()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn byte_table_holds_each_bytes_exact_conversion() {
        // A one-ulp error in one entry almost never moves a rounded byte,
        // so the kernel tests cannot see it: compare the bits.
        for b in 0..=u8::MAX {
            let entry = BYTE_F64[usize::from(b)];
            assert_eq!(entry.to_bits(), f64::from(b).to_bits(), "entry {b}");
        }
    }

    #[test]
    fn apply_at_into_matches_apply_at() {
        let img = synth::rgb_scene(13, 11, 5);
        for kernel in [Kernel::box_blur(3), Kernel::gaussian(5, 1.2)] {
            let mut px = [0u8; 3];
            for y in 0..11 {
                for x in 0..13 {
                    kernel.apply_at_into(&img, x, y, &mut px);
                    let mut acc = [0.0f64; 3];
                    kernel.accumulate_at(&img, x, y, &mut acc);
                    let want = acc.map(|a| a.round().clamp(0.0, 255.0) as u8);
                    assert_eq!(px, want, "({x}, {y})");
                    assert_eq!(kernel.apply_at(&img, x, y), want);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one value per index")]
    fn gather_kernel_rejects_short_values() {
        let plane = PaddedGray::new(&ImageBuf::<u8>::new(8, 8, 1).unwrap(), 1);
        Kernel::box_blur(3).apply_gray_indices(&plane, &[0, 1], &mut [0u8; 1]);
    }

    #[test]
    #[should_panic(expected = "outside 8x8")]
    fn gather_kernel_rejects_indices_past_the_image() {
        let plane = PaddedGray::new(&ImageBuf::<u8>::new(8, 8, 1).unwrap(), 1);
        Kernel::box_blur(3).apply_gray_indices(&plane, &[64], &mut [0u8; 1]);
    }

    #[test]
    #[should_panic(expected = "radius of a 5x5 kernel")]
    fn gather_kernel_rejects_a_plane_padded_for_another_kernel() {
        let plane = PaddedGray::new(&ImageBuf::<u8>::new(8, 8, 1).unwrap(), 1);
        Kernel::box_blur(5).apply_gray_indices(&plane, &[0], &mut [0u8; 1]);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_size_panics() {
        Kernel::box_blur(4);
    }

    #[test]
    #[should_panic(expected = "size² weights")]
    fn wrong_weight_count_panics() {
        Kernel::new(3, vec![1.0; 8]);
    }
}
