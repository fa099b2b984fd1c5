//! Regeneration of the paper's evaluation figures (11–20) plus the §IV-C3
//! locality study. Each function returns structured data; the `figures`
//! binary writes it under `results/` as CSV (and PPM/PGM for the sample
//! outputs of Figures 16–18).

use crate::workloads::{self, Scale, SWEEP_FRACTIONS};
use anytime_apps::preview::nearest_upsample;
use anytime_apps::{profile, time_baseline, Dwt53, RuntimeAccuracyCurve};
use anytime_img::{metrics, ImageBuf};
use anytime_permute::{DynPermutation, Lfsr, Morton2d, Permutation, Sequential, Tree2d};
use anytime_sim::prefetch::compare_prefetch;
use anytime_sim::RowBuffer;
use std::time::Duration;

/// Number of baseline timing runs.
const BASELINE_RUNS: usize = 3;

/// Figure 11: 2dconv runtime–accuracy profile.
pub fn fig11(scale: Scale) -> anytime_apps::Result<RuntimeAccuracyCurve> {
    let app = workloads::conv2d(scale);
    let (reference, baseline) = time_baseline(BASELINE_RUNS, || app.precise());
    let gran = workloads::granularity(app.image().pixel_count());
    profile(
        &reference,
        baseline,
        &SWEEP_FRACTIONS,
        || app.automaton(gran),
        |snap| nearest_upsample(snap.value(), snap.steps()),
    )
}

/// Runtime fractions for histeq: its precise baseline is two trivial
/// passes over the image, so the automaton's fixed costs (threads,
/// permutation generation) push all interesting behaviour beyond 1x —
/// the paper saw the same effect at a smaller magnitude (precise at 6x).
const HISTEQ_FRACTIONS: [f64; 12] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 24.0,
];

/// Figure 12: histeq runtime–accuracy profile.
pub fn fig12(scale: Scale) -> anytime_apps::Result<RuntimeAccuracyCurve> {
    let app = workloads::histeq(scale);
    let (reference, baseline) = time_baseline(BASELINE_RUNS, || app.precise());
    let n = app.image().pixel_count() as u64;
    profile(
        &reference,
        baseline,
        &HISTEQ_FRACTIONS,
        // A coarse histogram granularity bounds how often the two
        // non-anytime stages and the output map re-run.
        || app.automaton(n / 8, n / 8),
        |snap| nearest_upsample(snap.value(), snap.steps()),
    )
}

/// Figure 13: dwt53 runtime–accuracy profile (iterative perforation).
pub fn fig13(scale: Scale) -> anytime_apps::Result<RuntimeAccuracyCurve> {
    let app = workloads::dwt53(scale);
    let (reference, baseline) = time_baseline(BASELINE_RUNS, || app.precise());
    profile(
        &reference,
        baseline,
        &SWEEP_FRACTIONS,
        || app.automaton(),
        |snap| Dwt53::reconstruct(snap.value()),
    )
}

/// Figure 14: debayer runtime–accuracy profile.
pub fn fig14(scale: Scale) -> anytime_apps::Result<RuntimeAccuracyCurve> {
    let app = workloads::debayer(scale);
    let (reference, baseline) = time_baseline(BASELINE_RUNS, || app.precise());
    let gran = workloads::granularity(app.mosaic().pixel_count());
    profile(
        &reference,
        baseline,
        &SWEEP_FRACTIONS,
        || app.automaton(gran),
        |snap| nearest_upsample(snap.value(), snap.steps()),
    )
}

/// Figure 15: kmeans runtime–accuracy profile.
pub fn fig15(scale: Scale) -> anytime_apps::Result<RuntimeAccuracyCurve> {
    let app = workloads::kmeans(scale);
    let (reference, baseline) = time_baseline(BASELINE_RUNS, || app.precise());
    // Each version re-runs the non-anytime reduce/render stage; cap the
    // version count at 8.
    let gran = (app.image().pixel_count() / 8).max(1) as u64;
    let composer = app.clone();
    profile(
        &reference,
        baseline,
        &SWEEP_FRACTIONS,
        || app.automaton(gran),
        move |snap| composer.compose(snap.value()),
    )
}

/// A halted sample output and its score: the payload of Figures 16–18.
#[derive(Debug, Clone)]
pub struct SampleOutput {
    /// Requested halt point as a fraction of the baseline runtime.
    pub fraction: f64,
    /// SNR of the halted output against the precise baseline.
    pub snr_db: f64,
    /// The halted approximate output.
    pub approx: ImageBuf<u8>,
    /// The precise baseline output.
    pub precise: ImageBuf<u8>,
}

fn halt_at<O: Send + Sync + 'static>(
    fraction: f64,
    baseline: Duration,
    reference: &ImageBuf<u8>,
    build: impl Fn() -> anytime_apps::Result<(anytime_core::Pipeline, anytime_core::BufferReader<O>)>,
    to_image: impl Fn(&anytime_core::Snapshot<O>) -> ImageBuf<u8>,
) -> anytime_apps::Result<SampleOutput> {
    let (pipeline, out) = build()?;
    let auto = pipeline.launch().map_err(anytime_apps::AppError::from)?;
    auto.run_for(Duration::from_secs_f64(baseline.as_secs_f64() * fraction))
        .map_err(anytime_apps::AppError::from)?;
    let approx = match out.latest() {
        Some(snap) => to_image(&snap),
        None => ImageBuf::new(reference.width(), reference.height(), reference.channels())
            .expect("reference has valid dimensions"),
    };
    Ok(SampleOutput {
        fraction,
        snr_db: metrics::snr_db(&approx, reference),
        approx,
        precise: reference.clone(),
    })
}

/// Figure 16: 2dconv sample output at 21 % of the baseline runtime
/// (paper: SNR 15.8 dB).
pub fn fig16(scale: Scale) -> anytime_apps::Result<SampleOutput> {
    let app = workloads::conv2d(scale);
    let (reference, baseline) = time_baseline(BASELINE_RUNS, || app.precise());
    let gran = workloads::granularity(app.image().pixel_count());
    halt_at(
        0.21,
        baseline,
        &reference,
        || app.automaton(gran),
        |snap| nearest_upsample(snap.value(), snap.steps()),
    )
}

/// Figure 17: dwt53 sample output at 78 % of the baseline runtime
/// (paper: SNR 16.8 dB).
pub fn fig17(scale: Scale) -> anytime_apps::Result<SampleOutput> {
    let app = workloads::dwt53(scale);
    let (reference, baseline) = time_baseline(BASELINE_RUNS, || app.precise());
    halt_at(
        0.78,
        baseline,
        &reference,
        || app.automaton(),
        |snap| Dwt53::reconstruct(snap.value()),
    )
}

/// Figure 18: kmeans sample output at 63 % of the baseline runtime
/// (paper: SNR 16.7 dB).
pub fn fig18(scale: Scale) -> anytime_apps::Result<SampleOutput> {
    let app = workloads::kmeans(scale);
    let (reference, baseline) = time_baseline(BASELINE_RUNS, || app.precise());
    let gran = workloads::granularity(app.image().pixel_count());
    let composer = app.clone();
    halt_at(
        0.63,
        baseline,
        &reference,
        || app.automaton(gran),
        move |snap| composer.compose(snap.value()),
    )
}

/// One series of a sample-size–accuracy figure.
#[derive(Debug, Clone)]
pub struct SampleSizeSeries {
    /// Series label ("8 bits", "0.001%", …).
    pub label: String,
    /// `(sample_size, snr_db)` points, ascending sample size.
    pub points: Vec<(usize, f64)>,
}

/// Sample sizes swept by Figures 19 and 20: powers of four up to the full
/// pixel count (matching the tree permutation's resolution levels).
pub fn sample_sizes(pixels: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = Vec::new();
    let mut s = 4usize;
    while s < pixels {
        sizes.push(s);
        s *= 4;
    }
    sizes.push(pixels);
    sizes
}

/// Figure 19: 2dconv accuracy vs. sample size at 8/6/4/2-bit pixel
/// precision.
pub fn fig19(scale: Scale) -> anytime_apps::Result<Vec<SampleSizeSeries>> {
    let app = workloads::conv2d(scale);
    let sizes = sample_sizes(app.image().pixel_count());
    [8u32, 6, 4, 2]
        .iter()
        .map(|&bits| {
            Ok(SampleSizeSeries {
                label: format!("{bits} bits"),
                points: app.sample_accuracy_with_precision(bits, &sizes)?,
            })
        })
        .collect()
}

/// Figure 20: 2dconv accuracy vs. sample size at SRAM read-upset
/// probabilities 0 / 1e-7 / 1e-5 (the paper's 0 %, 0.00001 %, 0.001 %).
pub fn fig20(scale: Scale) -> anytime_apps::Result<Vec<SampleSizeSeries>> {
    let app = workloads::conv2d(scale);
    let sizes = sample_sizes(app.image().pixel_count());
    [(0.0f64, "0%"), (1e-7, "0.00001%"), (1e-5, "0.001%")]
        .iter()
        .map(|&(p, label)| {
            Ok(SampleSizeSeries {
                label: label.to_string(),
                points: app.sample_accuracy_with_storage(p, 42, &sizes)?,
            })
        })
        .collect()
}

/// One row of the §IV-C3 locality study.
#[derive(Debug, Clone)]
pub struct LocalityRow {
    /// Sampling permutation name.
    pub permutation: &'static str,
    /// Prefetch depth (0 = demand only).
    pub prefetch_depth: usize,
    /// Cache demand miss rate in `[0, 1]`.
    pub miss_rate: f64,
    /// DRAM row-buffer miss rate in `[0, 1]` (demand stream, no prefetch).
    pub row_miss_rate: f64,
}

/// The data-locality study: miss rates of the sampling permutations on a
/// 32 KiB / 64 B / 8-way cache, with and without the deterministic
/// permutation prefetcher. `tree-blocked` is the tree order sorted by data
/// index within each 1/32 of it (and between powers of two), the order a
/// stage publishing 32 versions samples ([`DynPermutation::blocked`]).
pub fn locality(scale: Scale) -> anytime_sim::Result<Vec<LocalityRow>> {
    let side = match scale {
        Scale::Paper => 512usize,
        Scale::Quick => 128,
    };
    let n = side * side;
    let tree = DynPermutation::new(Tree2d::new(side, side).expect("valid dims"));
    let perms: Vec<(&'static str, DynPermutation)> = vec![
        ("sequential", DynPermutation::new(Sequential::new(n))),
        (
            "morton",
            DynPermutation::new(Morton2d::new(side, side).expect("power-of-two side")),
        ),
        ("tree-blocked", tree.blocked(n / 32)),
        ("tree", tree),
        (
            "lfsr",
            DynPermutation::new(Lfsr::with_len(n).expect("supported size")),
        ),
    ];
    let mut rows = Vec::new();
    for (name, perm) in &perms {
        // Model 4-byte pixels so even the quick-scale working set exceeds
        // the cache and capacity behaviour is visible.
        let trace: Vec<u64> = perm.iter().map(|idx| idx as u64 * 4).collect();
        let mut rb = RowBuffer::new(8192, 8)?;
        let row_miss_rate = rb.run_trace(trace.iter().copied()).miss_rate();
        for depth in [0usize, 1] {
            let (base, pf) = compare_prefetch(32 * 1024, 64, 8, &trace, depth)?;
            let stats = if depth == 0 { base } else { pf };
            rows.push(LocalityRow {
                permutation: name,
                prefetch_depth: depth,
                miss_rate: stats.miss_rate(),
                row_miss_rate,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_sizes_end_at_full() {
        let sizes = sample_sizes(96 * 96);
        assert_eq!(*sizes.last().unwrap(), 96 * 96);
        assert!(sizes.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn fig19_quick_orders_series() {
        let series = fig19(Scale::Quick).unwrap();
        assert_eq!(series.len(), 4);
        // At the full sample, more bits => higher SNR.
        let finals: Vec<f64> = series.iter().map(|s| s.points.last().unwrap().1).collect();
        assert_eq!(finals[0], f64::INFINITY); // 8 bits = precise
        assert!(finals[1] > finals[2]);
        assert!(finals[2] > finals[3]);
    }

    #[test]
    fn fig20_quick_curves_line_up_early() {
        let series = fig20(Scale::Quick).unwrap();
        assert_eq!(series.len(), 3);
        // The paper's observation: at small sample sizes few bits have been
        // read, so the low-probability curve tracks the clean one.
        let clean = &series[0].points;
        let low = &series[1].points;
        assert_eq!(clean[0].0, low[0].0);
        assert!(
            (clean[0].1 - low[0].1).abs() < 3.0,
            "early points diverged: {} vs {}",
            clean[0].1,
            low[0].1
        );
        // The clean series ends precise.
        assert_eq!(clean.last().unwrap().1, f64::INFINITY);
    }

    #[test]
    fn locality_quick_ranks_sequential_best() {
        let rows = locality(Scale::Quick).unwrap();
        let rate = |name: &str, depth: usize| {
            rows.iter()
                .find(|r| r.permutation == name && r.prefetch_depth == depth)
                .unwrap()
                .miss_rate
        };
        assert!(rate("sequential", 0) < rate("tree", 0));
        assert!(rate("sequential", 0) < rate("lfsr", 0));
        // Sorting each publication's samples restores a forward sweep.
        assert!(rate("tree-blocked", 0) < rate("tree", 0));
        // The deterministic prefetcher recovers the tree permutation.
        assert!(rate("tree", 1) < rate("tree", 0));
    }
}
