//! Data-plane kernels with portable-SIMD fast paths (`--features simd`,
//! nightly) and bit-identical scalar fallbacks (the default, stable).
//!
//! Bit-identity across the two paths is by construction, not by tolerance:
//!
//! - the reductions ([`sum_sq_u8`], [`sum_sq_diff_u8`]) accumulate into
//!   [`LANES`] striped partial sums in **both** paths — lane `i` always
//!   folds elements `i, i+LANES, i+2·LANES, …` in index order, and the
//!   final horizontal sum is a left fold over the lane array — so the
//!   floating-point operation sequence per lane is identical;
//! - the convolution row kernel ([`convolve_row_gray`]) reads a
//!   [`PaddedGray`] plane, assigns each output pixel its own lane and walks
//!   the kernel taps in the same `dy`-outer / `dx`-inner order as
//!   [`Kernel::apply_at`], so every pixel, border pixels included, sees
//!   the exact scalar operation sequence.
//!
//! Everything here is safe code; the crate-wide `#![forbid(unsafe_code)]`
//! applies to both cfgs.

use crate::kernel::Kernel;
use crate::padded::PaddedGray;

#[cfg(feature = "simd")]
use std::simd::{num::SimdUint, Simd};

/// Accumulator stripe width shared by the SIMD and scalar paths. Eight
/// `f64` lanes (one AVX-512 register, two AVX2 registers) — the scalar
/// fallback uses the same stripe count so results match bit for bit.
pub const LANES: usize = 8;

/// Sum of squares `Σ v²` over `data`, each sample widened to `f64`.
///
/// The signal term of [`crate::metrics::snr_db`].
pub fn sum_sq_u8(data: &[u8]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut chunks = data.chunks_exact(LANES);
    #[cfg(feature = "simd")]
    {
        let mut acc = Simd::from_array(lanes);
        for chunk in chunks.by_ref() {
            let v = Simd::<u8, LANES>::from_slice(chunk).cast::<f64>();
            acc += v * v;
        }
        lanes = acc.to_array();
    }
    #[cfg(not(feature = "simd"))]
    for chunk in chunks.by_ref() {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            let f = f64::from(v);
            *lane += f * f;
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        let f = f64::from(v);
        *lane += f * f;
    }
    lanes.iter().sum()
}

/// Sum of squared differences `Σ (a − b)²` over two equal-length slices.
///
/// The noise term of [`crate::metrics::snr_db`] and the numerator of
/// [`crate::metrics::mse`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sum_sq_diff_u8(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "equal-length slices required");
    let mut lanes = [0.0f64; LANES];
    let mut a_chunks = a.chunks_exact(LANES);
    let mut b_chunks = b.chunks_exact(LANES);
    #[cfg(feature = "simd")]
    {
        let mut acc = Simd::from_array(lanes);
        for (ca, cb) in a_chunks.by_ref().zip(b_chunks.by_ref()) {
            let va = Simd::<u8, LANES>::from_slice(ca).cast::<f64>();
            let vb = Simd::<u8, LANES>::from_slice(cb).cast::<f64>();
            let d = va - vb;
            acc += d * d;
        }
        lanes = acc.to_array();
    }
    #[cfg(not(feature = "simd"))]
    for (ca, cb) in a_chunks.by_ref().zip(b_chunks.by_ref()) {
        for (lane, (&va, &vb)) in lanes.iter_mut().zip(ca.iter().zip(cb)) {
            let d = f64::from(va) - f64::from(vb);
            *lane += d * d;
        }
    }
    for (lane, (&va, &vb)) in lanes
        .iter_mut()
        .zip(a_chunks.remainder().iter().zip(b_chunks.remainder()))
    {
        let d = f64::from(va) - f64::from(vb);
        *lane += d * d;
    }
    lanes.iter().sum()
}

/// Convolves row `y` of a padded single-channel image into `row`, one
/// output sample per pixel, vectorizing across adjacent output pixels.
///
/// The row goes in groups of [`LANES`] adjacent pixels, border pixels and
/// narrow images included: the plane holds every pixel's window, so no
/// tap is clamped and there is no border path. Each lane owns one output
/// pixel and accumulates the taps in [`Kernel::apply_at`]'s order, so the
/// result is bit-identical to it. A short last group reads on into the
/// padding (or the plane's spare bytes) and keeps only its own pixels.
///
/// # Panics
///
/// Panics if the plane is not padded by the kernel's radius, if `y` is
/// not a row of the image, or if `row` is not one full row.
pub fn convolve_row_gray(plane: &PaddedGray, kernel: &Kernel, y: usize, row: &mut [u8]) {
    assert_eq!(row.len(), plane.width(), "row buffer must span the image");
    assert!(y < plane.height(), "row {y} outside the image");
    kernel.assert_padding(plane);
    let stride = plane.stride();
    let data = plane.samples();
    let origin = plane.window_origin(0, y);
    let size = kernel.size();
    for (x, out) in (0..).step_by(LANES).zip(row.chunks_mut(LANES)) {
        #[cfg(feature = "simd")]
        let lanes = {
            let mut acc = Simd::<f64, LANES>::splat(0.0);
            for (ky, wrow) in kernel.weights().chunks_exact(size).enumerate() {
                let base = origin + ky * stride + x;
                for (kx, &weight) in wrow.iter().enumerate() {
                    let start = base + kx;
                    let v =
                        Simd::<u8, LANES>::from_slice(&data[start..start + LANES]).cast::<f64>();
                    acc += Simd::splat(weight) * v;
                }
            }
            acc.to_array()
        };
        #[cfg(not(feature = "simd"))]
        let lanes = {
            let mut acc = [0.0f64; LANES];
            for (ky, wrow) in kernel.weights().chunks_exact(size).enumerate() {
                let base = origin + ky * stride + x;
                for (kx, &weight) in wrow.iter().enumerate() {
                    let start = base + kx;
                    for (lane, &v) in acc.iter_mut().zip(&data[start..start + LANES]) {
                        *lane += weight * f64::from(v);
                    }
                }
            }
            acc
        };
        for (out, a) in out.iter_mut().zip(lanes) {
            *out = a.round().clamp(0.0, 255.0) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    /// Independent striped-accumulator reference: both the SIMD and the
    /// scalar build of the kernels must match it *exactly* — that is the
    /// bit-identity contract between the two paths.
    fn striped_sum(terms: impl Iterator<Item = f64>) -> f64 {
        let mut lanes = [0.0f64; LANES];
        for (i, t) in terms.enumerate() {
            lanes[i % LANES] += t;
        }
        lanes.iter().sum()
    }

    #[test]
    fn sum_sq_matches_striped_reference_exactly() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1024, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let expect = striped_sum(data.iter().map(|&v| {
                let f = f64::from(v);
                f * f
            }));
            assert_eq!(sum_sq_u8(&data), expect, "len {len}");
        }
    }

    #[test]
    fn sum_sq_diff_matches_striped_reference_exactly() {
        for len in [0usize, 1, 8, 13, 64, 100, 999] {
            let a: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 17 + 5) as u8).collect();
            let expect = striped_sum(a.iter().zip(&b).map(|(&x, &y)| {
                let d = f64::from(x) - f64::from(y);
                d * d
            }));
            assert_eq!(sum_sq_diff_u8(&a, &b), expect, "len {len}");
        }
    }

    #[test]
    fn convolve_row_matches_per_pixel_path_exactly() {
        // Every row — border and interior, vector body and remainder —
        // must equal the scalar per-pixel path bit for bit.
        for (w, h) in [(5usize, 5usize), (16, 16), (33, 9), (64, 12)] {
            let img = synth::value_noise(w, h, 3);
            for kernel in [
                Kernel::box_blur(3),
                Kernel::gaussian(5, 1.2),
                Kernel::sharpen(),
            ] {
                let plane = PaddedGray::new(&img, kernel.radius().unsigned_abs());
                let mut row = vec![0u8; w];
                for y in 0..h {
                    convolve_row_gray(&plane, &kernel, y, &mut row);
                    for (x, &actual) in row.iter().enumerate() {
                        assert_eq!(
                            actual,
                            kernel.apply_at(&img, x, y)[0],
                            "({x},{y}) {w}x{h} k{}",
                            kernel.size()
                        );
                    }
                }
            }
        }
    }
}
