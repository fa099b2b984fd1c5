use crate::error::PermutationError;
use crate::traits::{Indices, Permutation};

/// Maximal-length Galois LFSR feedback masks for register widths 2..=32.
///
/// Entry `w - 2` is the feedback mask for a `w`-bit register: bit `t - 1` is
/// set for each tap `t` of a primitive polynomial (taps follow the classic
/// Xilinx XAPP052 table), so the register cycles through all `2^w - 1`
/// non-zero states.
const GALOIS_MASKS: [u32; 31] = [
    mask(&[2, 1]),           // 2
    mask(&[3, 2]),           // 3
    mask(&[4, 3]),           // 4
    mask(&[5, 3]),           // 5
    mask(&[6, 5]),           // 6
    mask(&[7, 6]),           // 7
    mask(&[8, 6, 5, 4]),     // 8
    mask(&[9, 5]),           // 9
    mask(&[10, 7]),          // 10
    mask(&[11, 9]),          // 11
    mask(&[12, 6, 4, 1]),    // 12
    mask(&[13, 4, 3, 1]),    // 13
    mask(&[14, 5, 3, 1]),    // 14
    mask(&[15, 14]),         // 15
    mask(&[16, 15, 13, 4]),  // 16
    mask(&[17, 14]),         // 17
    mask(&[18, 11]),         // 18
    mask(&[19, 6, 2, 1]),    // 19
    mask(&[20, 17]),         // 20
    mask(&[21, 19]),         // 21
    mask(&[22, 21]),         // 22
    mask(&[23, 18]),         // 23
    mask(&[24, 23, 22, 17]), // 24
    mask(&[25, 22]),         // 25
    mask(&[26, 6, 2, 1]),    // 26
    mask(&[27, 5, 2, 1]),    // 27
    mask(&[28, 25]),         // 28
    mask(&[29, 27]),         // 29
    mask(&[30, 6, 4, 1]),    // 30
    mask(&[31, 28]),         // 31
    mask(&[32, 22, 2, 1]),   // 32
];

const fn mask(taps: &[u32]) -> u32 {
    let mut m = 0u32;
    let mut i = 0;
    while i < taps.len() {
        m |= 1u32 << (taps[i] - 1);
        i += 1;
    }
    m
}

/// Returns the maximal-length feedback mask for a `bits`-wide Galois LFSR.
///
/// # Errors
///
/// Returns [`PermutationError::UnsupportedWidth`] unless `2 <= bits <= 32`.
///
/// # Examples
///
/// ```
/// use anytime_permute::max_len_taps;
/// // 8-bit register: taps 8, 6, 5, 4 -> 0b1011_1000.
/// assert_eq!(max_len_taps(8)?, 0b1011_1000);
/// # Ok::<(), anytime_permute::PermutationError>(())
/// ```
pub fn max_len_taps(bits: u32) -> Result<u32, PermutationError> {
    if (2..=32).contains(&bits) {
        Ok(GALOIS_MASKS[(bits - 2) as usize])
    } else {
        Err(PermutationError::UnsupportedWidth { bits })
    }
}

/// A raw maximal-length Galois linear-feedback shift register.
///
/// Cycles through all `2^bits - 1` non-zero states. The paper uses an LFSR
/// as its hardware-friendly pseudo-random permutation generator (§III-B2);
/// [`Lfsr`] turns this register into a bijective [`Permutation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LfsrReg {
    state: u32,
    mask: u32,
    bits: u32,
}

impl LfsrReg {
    /// Creates a register of the given width seeded with `seed`.
    ///
    /// The seed is reduced to the register width; a zero seed (the one
    /// lock-up state) is mapped to 1.
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::UnsupportedWidth`] unless
    /// `2 <= bits <= 32`.
    pub fn new(bits: u32, seed: u32) -> Result<Self, PermutationError> {
        let mask = max_len_taps(bits)?;
        let width_mask = width_mask(bits);
        let mut state = seed & width_mask;
        if state == 0 {
            state = 1;
        }
        Ok(Self { state, mask, bits })
    }

    /// The current register state (never zero).
    pub fn state(&self) -> u32 {
        self.state
    }

    /// The register width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Advances the register one step and returns the new state.
    pub fn step(&mut self) -> u32 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb != 0 {
            self.state ^= self.mask;
        }
        self.state
    }

    /// The cycle length: `2^bits - 1`.
    pub fn period(&self) -> u64 {
        (1u64 << self.bits) - 1
    }
}

fn width_mask(bits: u32) -> u32 {
    if bits == 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// A pseudo-random bijective permutation of `[0, n)` generated by a
/// maximal-length LFSR.
///
/// The register width is the smallest `w` with `2^w - 1 >= n`; the sequence
/// of states `s` is mapped to data indices `s - 1`, and indices `>= n` are
/// skipped (cycle walking). A true random permutation would not be bijective
/// reproducibly; the LFSR gives the paper's deterministic, hardware-cheap
/// stand-in (§III-B2, Figure 3).
///
/// Different seeds rotate the same underlying cycle, giving distinct but
/// equally unbiased sample orders.
///
/// [`Permutation::index`] costs `O(i)` here; use [`Permutation::iter`] or
/// [`Permutation::materialize`] for sequential consumption.
///
/// # Examples
///
/// ```
/// use anytime_permute::{Lfsr, Permutation};
/// let p = Lfsr::with_len(100)?;
/// let mut order: Vec<usize> = p.iter().collect();
/// order.sort_unstable();
/// assert_eq!(order, (0..100).collect::<Vec<_>>());
/// # Ok::<(), anytime_permute::PermutationError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lfsr {
    len: usize,
    bits: u32,
    seed: u32,
}

impl Lfsr {
    /// Creates a pseudo-random permutation of `[0, len)` with seed 1.
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::EmptyDomain`] if `len == 0` and
    /// [`PermutationError::UnsupportedWidth`] if `len` needs a register
    /// wider than 32 bits.
    pub fn with_len(len: usize) -> Result<Self, PermutationError> {
        Self::with_seed(len, 1)
    }

    /// Creates a pseudo-random permutation of `[0, len)` with the given seed.
    ///
    /// # Errors
    ///
    /// Same as [`Lfsr::with_len`].
    pub fn with_seed(len: usize, seed: u32) -> Result<Self, PermutationError> {
        if len == 0 {
            return Err(PermutationError::EmptyDomain);
        }
        let bits = required_bits(len)?;
        Ok(Self { len, bits, seed })
    }

    /// The register width used for this domain.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

fn required_bits(len: usize) -> Result<u32, PermutationError> {
    // Smallest w in 2..=32 with 2^w - 1 >= len.
    for w in 2..=32u32 {
        let capacity = (1u64 << w) - 1;
        if capacity >= len as u64 {
            return Ok(w);
        }
    }
    Err(PermutationError::UnsupportedWidth { bits: 33 })
}

impl Permutation for Lfsr {
    fn len(&self) -> usize {
        self.len
    }

    fn index(&self, i: usize) -> usize {
        assert!(i < self.len, "position {i} out of range 0..{}", self.len);
        self.iter()
            .nth(i)
            .expect("maximal-length cycle yields len valid indices")
    }

    fn iter(&self) -> Indices<'_> {
        let len = self.len;
        let mut reg = LfsrReg::new(self.bits, self.seed).expect("validated width");
        let period = reg.period();
        let first = reg.state();
        let states = std::iter::once(first)
            .chain(std::iter::repeat_with(move || reg.step()).take((period - 1) as usize));
        Indices {
            inner: Box::new(states.filter_map(move |s| {
                let idx = (s - 1) as usize;
                (idx < len).then_some(idx)
            })),
        }
    }

    fn materialize(&self) -> Vec<usize> {
        // Tight register loop instead of the boxed iterator: this is the
        // set-up cost of an app's first automaton build.
        let mut order = Vec::with_capacity(self.len);
        let mut reg = LfsrReg::new(self.bits, self.seed).expect("validated width");
        let period = reg.period();
        let mut state = reg.state();
        for _ in 0..period {
            let idx = (state - 1) as usize;
            if idx < self.len {
                order.push(idx);
            }
            state = reg.step();
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_are_maximal_length_small_widths() {
        for bits in 2..=16u32 {
            let mut reg = LfsrReg::new(bits, 1).unwrap();
            let start = reg.state();
            let mut count = 1u64;
            loop {
                let s = reg.step();
                assert_ne!(s, 0, "lock-up state reached at width {bits}");
                if s == start {
                    break;
                }
                count += 1;
                assert!(count <= reg.period(), "cycle longer than period");
            }
            assert_eq!(count, reg.period(), "width {bits} not maximal length");
        }
    }

    #[test]
    fn zero_seed_is_coerced() {
        let reg = LfsrReg::new(8, 0).unwrap();
        assert_eq!(reg.state(), 1);
    }

    #[test]
    fn permutation_is_bijective() {
        for len in [1usize, 2, 3, 4, 7, 8, 100, 257] {
            let p = Lfsr::with_len(len).unwrap();
            let mut seen: Vec<usize> = p.iter().collect();
            assert_eq!(seen.len(), len);
            seen.sort_unstable();
            assert_eq!(seen, (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn different_seeds_differ_but_are_bijective() {
        let a: Vec<usize> = Lfsr::with_seed(50, 1).unwrap().iter().collect();
        let b: Vec<usize> = Lfsr::with_seed(50, 37).unwrap().iter().collect();
        assert_ne!(a, b);
        let mut bs = b.clone();
        bs.sort_unstable();
        assert_eq!(bs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn materialize_matches_iter() {
        for len in [1usize, 7, 100, 257] {
            let p = Lfsr::with_seed(len, 5).unwrap();
            assert_eq!(p.materialize(), p.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn index_matches_iter() {
        let p = Lfsr::with_len(20).unwrap();
        let order: Vec<usize> = p.iter().collect();
        for (i, &idx) in order.iter().enumerate() {
            assert_eq!(p.index(i), idx);
        }
    }

    #[test]
    fn sequence_is_scrambled() {
        // Not a randomness test, just a sanity check that the order is far
        // from sequential.
        let order: Vec<usize> = Lfsr::with_len(64).unwrap().iter().collect();
        let ascending_runs = order.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(ascending_runs < 16, "suspiciously sequential: {order:?}");
    }

    #[test]
    fn rejects_empty_and_oversized() {
        assert!(Lfsr::with_len(0).is_err());
        assert!(max_len_taps(1).is_err());
        assert!(max_len_taps(33).is_err());
    }
}
