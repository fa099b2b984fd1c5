//! Bijective sampling permutations for anytime computations.
//!
//! The Anytime Automaton (San Miguel & Enright Jerger, ISCA 2016) applies
//! approximate-computing techniques *diffusively*: a computation stage
//! processes the elements of its input or output data set one at a time, in an
//! order chosen so that every prefix of the order is a useful sample of the
//! whole set. The order is described by a **bijective permutation** of the
//! index set `[0, n)` — bijectivity is what guarantees that the stage
//! eventually processes every element exactly once and therefore reaches the
//! precise output.
//!
//! The paper identifies three families of permutations (§III-B2):
//!
//! - **Sequential** ([`Sequential`], [`Reversed`]) for priority-ordered data
//!   sets (e.g. bit planes of a fixed-point number, most-significant first).
//! - **Tree** ([`Tree1d`], [`Tree2d`], [`TreeNd`]) — an N-dimensional
//!   bit-reverse order that samples ordered data sets (images, audio) at
//!   progressively increasing resolution (paper Figures 4 and 5).
//! - **Pseudo-random** ([`Lfsr`], [`Lcg`]) for unordered data sets
//!   (histograms, k-means), avoiding the bias of memory order. The paper uses
//!   a linear-feedback shift register; we also provide a full-period LCG.
//!
//! Permutations whose natural domain is a power of two are adapted to
//! arbitrary lengths with [`Restrict`] (cycle walking: out-of-range indices
//! are skipped, preserving bijectivity onto `[0, n)`).
//!
//! Multi-threaded sampling (paper §IV-C1) divides one permutation sequence
//! among threads cyclically or in blocks; see [`partition`].
//!
//! Non-sequential orders destroy cache locality (§IV-C3). A stage that
//! publishes every `window` samples may apply the samples between two
//! publications in any order; [`DynPermutation::blocked`] sorts them by
//! data index, keeping every prefix that ends at a publication (or at a
//! power of two) the plain order's.
//!
//! # Examples
//!
//! ```
//! use anytime_permute::{Permutation, Tree1d};
//!
//! // Paper Figure 4: 1-D tree permutation of 16 elements.
//! let p = Tree1d::new(16).unwrap();
//! let order: Vec<usize> = p.iter().collect();
//! assert_eq!(&order[..4], &[0, 8, 4, 12]);
//! // Bijective: every index appears exactly once.
//! let mut sorted = order.clone();
//! sorted.sort_unstable();
//! assert_eq!(sorted, (0..16).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitrev;
mod error;
mod interleaved;
mod lcg;
mod lfsr;
mod morton;
pub mod partition;
mod restrict;
mod sequential;
mod traits;
mod tree;

pub use bitrev::BitReverse;
pub use error::PermutationError;
pub use interleaved::Interleaved;
pub use lcg::Lcg;
pub use lfsr::{max_len_taps, Lfsr, LfsrReg};
pub use morton::{deinterleave, interleave, Morton2d};
pub use partition::{BlockPartition, CyclicPartition};
pub use restrict::Restrict;
pub use sequential::{Reversed, Sequential};
pub use traits::{DynPermutation, Indices, Permutation};
pub use tree::{Tree1d, Tree2d, TreeNd};

/// The data-set shape that guides the paper's recommended permutation choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Elements are ordered by priority/significance; sample in memory order.
    Priority,
    /// Elements are ordered (positions matter) along one dimension.
    Ordered1d,
    /// Elements are ordered along two dimensions (`rows`, `cols`).
    Ordered2d {
        /// Number of rows in the data set.
        rows: usize,
        /// Number of columns in the data set.
        cols: usize,
    },
    /// Elements are unordered; sample pseudo-randomly.
    Unordered,
}

/// Builds the permutation the paper recommends for `n` elements of the given
/// data-set family (§III-B2).
///
/// - [`Family::Priority`] → [`Sequential`]
/// - [`Family::Ordered1d`] → [`Tree1d`] (restricted to `n`)
/// - [`Family::Ordered2d`] → [`Tree2d`]
/// - [`Family::Unordered`] → [`Lfsr`] (restricted to `n`)
///
/// # Errors
///
/// Returns [`PermutationError::EmptyDomain`] if `n == 0`, or
/// [`PermutationError::DimensionMismatch`] if a 2-D family's `rows * cols`
/// does not equal `n`.
///
/// # Examples
///
/// ```
/// use anytime_permute::{recommended, Family, Permutation};
/// let p = recommended(100, Family::Unordered)?;
/// assert_eq!(p.len(), 100);
/// # Ok::<(), anytime_permute::PermutationError>(())
/// ```
pub fn recommended(n: usize, family: Family) -> Result<DynPermutation, PermutationError> {
    if n == 0 {
        return Err(PermutationError::EmptyDomain);
    }
    Ok(match family {
        Family::Priority => DynPermutation::new(Sequential::new(n)),
        Family::Ordered1d => {
            DynPermutation::new(Restrict::new(Tree1d::new(n.next_power_of_two())?, n)?)
        }
        Family::Ordered2d { rows, cols } => {
            if rows.checked_mul(cols) != Some(n) {
                return Err(PermutationError::DimensionMismatch {
                    expected: n,
                    got: rows.saturating_mul(cols),
                });
            }
            DynPermutation::new(Tree2d::new(rows, cols)?)
        }
        Family::Unordered => DynPermutation::new(Lfsr::with_len(n)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_families_are_bijective() {
        for n in [1usize, 2, 3, 7, 16, 100] {
            for fam in [Family::Priority, Family::Ordered1d, Family::Unordered] {
                let p = recommended(n, fam).unwrap();
                let mut seen: Vec<usize> = p.iter().collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} fam={fam:?}");
            }
        }
        let p = recommended(12, Family::Ordered2d { rows: 3, cols: 4 }).unwrap();
        let mut seen: Vec<usize> = p.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn recommended_rejects_empty() {
        assert!(matches!(
            recommended(0, Family::Unordered),
            Err(PermutationError::EmptyDomain)
        ));
    }

    #[test]
    fn recommended_rejects_dim_mismatch() {
        assert!(matches!(
            recommended(10, Family::Ordered2d { rows: 3, cols: 4 }),
            Err(PermutationError::DimensionMismatch { .. })
        ));
    }
}
