//! The Anytime Automaton evaluation applications (paper §IV).
//!
//! Five approximate applications from PERFECT and AxBench, each available
//! as a precise baseline and as an anytime automaton:
//!
//! | Benchmark | Pipeline | Technique |
//! |---|---|---|
//! | [`Conv2d`] (2dconv) | 1 diffusive stage | tree output sampling (+ reduced precision, approximate storage variants) |
//! | [`Histeq`] | 4-stage async pipeline | LFSR input sampling → 2 non-anytime stages → tree output sampling |
//! | [`Dwt53`] | 1 iterative stage | loop perforation, strides 8/4/2/1 |
//! | [`Debayer`] | 1 diffusive stage | tree output sampling |
//! | [`Kmeans`] | 2-stage async pipeline | tree output sampling + non-anytime reduction |
//!
//! Inputs are deterministic synthetic images from
//! [`anytime_img::synth`] (substituting for the non-redistributable
//! PERFECT/AxBench sets); accuracy is SNR in dB against each benchmark's
//! own precise output, as in the paper. The [`profile`](mod@profile) module implements
//! the halt-and-measure runtime–accuracy sweep behind Figures 11–15.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv2d;
pub mod debayer;
pub mod dwt53;
mod error;
pub mod histeq;
pub mod kmeans;
pub mod preview;
pub mod profile;

pub use conv2d::Conv2d;
pub use debayer::Debayer;
pub use dwt53::Dwt53;
pub use error::{AppError, Result};
pub use histeq::Histeq;
pub use kmeans::{ClusteredFrame, Kmeans};
pub use profile::{profile, time_baseline, RuntimeAccuracyCurve, RuntimeAccuracyPoint};

use anytime_img::ImageBuf;
use anytime_permute::{DynPermutation, Tree2d};

/// The tree permutation over `image`'s pixels. Each app builds it once,
/// in `new`, and every automaton it builds shares its sample order.
fn tree_permutation(image: &ImageBuf<u8>) -> DynPermutation {
    DynPermutation::new(
        Tree2d::new(image.height(), image.width())
            .expect("Tree2d fails only on an empty grid, which ImageBuf rejects"),
    )
}
