//! Image substrate for the Anytime Automaton evaluation.
//!
//! The paper's five benchmarks (§IV-A2) all operate on images; this crate
//! provides everything they need without external dependencies:
//!
//! - [`ImageBuf`]: a row-major raster container (grayscale or RGB);
//! - [`io`]: a minimal binary PGM/PPM codec for dumping sample outputs
//!   (paper Figures 16–18);
//! - [`synth`]: deterministic synthetic input images, substituting for the
//!   non-redistributable PERFECT/AxBench input sets;
//! - [`metrics`]: the paper's accuracy metric — SNR in decibels relative to
//!   the precise output, ∞ dB when identical;
//! - [`Kernel`]: convolution kernels and the precise `2dconv` baseline;
//! - [`PaddedGray`]: a gray image padded by a kernel's radius, which the
//!   gray convolution kernels read so that no tap is clamped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(feature = "simd", feature(portable_simd))]

mod error;
mod image;
pub mod io;
mod kernel;
pub mod metrics;
mod padded;
pub mod simd;
pub mod synth;

pub use error::{ImgError, Result};
pub use image::{GrayImage, ImageBuf, RgbImage};
pub use kernel::{convolve, convolve_padded, Kernel};
pub use padded::PaddedGray;
