//! Percentiles and unit conversions.

use std::time::Duration;

/// Percentiles in basis points (1/100 of a percent), so that rank
/// arithmetic stays in integers.
pub const P50: u32 = 5_000;
pub const P99: u32 = 9_900;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [u32; 3] = [9_990, 9_900, 9_000];

/// A tail percentile is reported only with at least this many samples
/// strictly beyond its rank.
const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `bp` in `n` samples: the smallest
/// rank whose share of samples at or below it reaches `bp`.
fn rank(n: usize, bp: u32) -> usize {
    (n * bp as usize).div_ceil(10_000).max(1)
}

/// Nearest-rank percentile of ascending `sorted`, or `None` when empty.
pub fn percentile(sorted: &[f64], bp: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), bp) - 1])
}

/// The highest ladder percentile with at least ten samples beyond it in
/// `n` samples; the median when even p90 lacks them.
pub fn tail_bp(n: usize) -> u32 {
    TAIL_LADDER
        .into_iter()
        .find(|&bp| n >= rank(n, bp) + TAIL_BEYOND)
        .unwrap_or(P50)
}

/// Renders a basis-point percentile as `p99.9`, `p99`, `p50`.
pub fn bp_label(bp: u32) -> String {
    if bp.is_multiple_of(100) {
        format!("p{}", bp / 100)
    } else {
        format!("p{}.{}", bp / 100, (bp % 100) / 10)
    }
}

/// Sorts `values` ascending (NaN-free by construction: every sample is a
/// duration or a ratio of counts).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank median, 0 for no samples.
pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), P50).unwrap_or(0.0)
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Duration in milliseconds / microseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), Some(50.0));
        assert_eq!(percentile(&v, 9_000), Some(90.0));
        assert_eq!(percentile(&v, P99), Some(99.0));
        assert_eq!(percentile(&v, 10_000), Some(100.0));
        // Ranks round up: p50 of 5 samples is the 3rd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], P50), Some(3.0));
        assert_eq!(percentile(&[7.0], P99), Some(7.0));
        assert_eq!(percentile(&[], P50), None);
        // p99.9 of 10 000 samples is the 9 990th, exactly.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&big, 9_990), Some(9_990.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_bp(99), P50);
        assert_eq!(tail_bp(100), 9_000);
        assert_eq!(tail_bp(999), 9_000);
        assert_eq!(tail_bp(1_000), P99);
        assert_eq!(tail_bp(9_999), P99);
        assert_eq!(tail_bp(10_000), 9_990);
        assert_eq!(tail_bp(1_000_000), 9_990);
        for n in [100usize, 1_000, 10_000, 123_457] {
            let bp = tail_bp(n);
            assert!(n - rank(n, bp) >= TAIL_BEYOND, "n={n}");
        }
        assert_eq!(bp_label(9_990), "p99.9");
        assert_eq!(bp_label(P99), "p99");
        assert_eq!(bp_label(9_000), "p90");
    }
}
