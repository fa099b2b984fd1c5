//! The host's speed, measured between operations with a fixed workload
//! that never touches the program under test.
//!
//! The host is shared, and its speed drifts by tens of percent over
//! minutes. It does not drift alike for all work: between runs in which
//! the anytime convolution took 80 % longer, a streaming `f64` sum over
//! 1 MiB (the pass `bench_record` calibrates against) took 25 % longer. So
//! the pass here is the benchmark's own copy of the per-pixel work of an
//! anytime convolution, and each operation is divided by the passes taken
//! around it, not by a whole-run average: an episode then slows both
//! sides of the ratio alike.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Passes are taken at most this often, so that they cost a few percent
/// of a run whatever the operation rate.
const EVERY: Duration = Duration::from_millis(20);

/// Passes behind [`Calibration::recent_ms`]: the last ~0.3 s.
const RECENT: usize = 15;

/// Passes on each side of an operation that [`Calibration::normalize`]
/// divides it by.
const AROUND: usize = 2;

/// Side of the pass's input image. At 512×512, the size of the anytime
/// convolution's own input, the pass tracked the convolution's slowdowns
/// less closely.
const SIDE: usize = 1024;
/// Taps per side of the pass's kernel.
const TAPS: usize = 9;
/// Output pixels one pass computes.
const PIXELS: usize = 4096;

/// A scalar 9×9 `f64` dot product at 4096 scattered pixels of a fixed
/// 1024×1024 image, with the kernel size known only at run time, as in
/// `Kernel::apply_at_gray`. With the size a compile-time constant the
/// loops unroll, and the pass missed most of the convolution's slowdowns.
#[derive(Debug)]
pub struct Calibration {
    img: Vec<u8>,
    out: Vec<u8>,
    /// The interior pixels a pass visits, in order.
    pixels: Vec<usize>,
    weights: [f64; TAPS * TAPS],
    /// (end of the pass, its time in ms), in the order taken.
    passes: Vec<(Instant, f64)>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let img = (0..SIDE * SIDE)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
            })
            .collect();
        // A stride coprime with the interior's size scatters the visits
        // over the whole image, as tree sampling does.
        let r = TAPS / 2;
        let inner = SIDE - 2 * r;
        let pixels = (0..PIXELS)
            .map(|i| {
                let k = (i * 7_919) % (inner * inner);
                (r + k / inner) * SIDE + r + k % inner
            })
            .collect();
        let mut weights = [0.0; TAPS * TAPS];
        for (i, w) in weights.iter_mut().enumerate() {
            let (dx, dy) = ((i % TAPS) as f64 - 4.0, (i / TAPS) as f64 - 4.0);
            *w = (-(dx * dx + dy * dy) / 8.0).exp() / 25.0;
        }
        Calibration {
            img,
            out: vec![0; SIDE * SIDE],
            pixels,
            weights,
            passes: Vec::new(),
        }
    }

    /// Times one pass unless one was taken within the last [`EVERY`].
    pub fn between_ops(&mut self) {
        if self
            .passes
            .last()
            .is_none_or(|&(t, _)| t.elapsed() >= EVERY)
        {
            self.pass();
        }
    }

    /// Median of the most recent passes, taking one first if there are
    /// none yet.
    pub fn recent_ms(&mut self) -> f64 {
        if self.passes.is_empty() {
            self.pass();
        }
        let from = self.passes.len().saturating_sub(RECENT);
        crate::stats::median(self.passes[from..].iter().map(|p| p.1).collect())
    }

    /// Forgets every pass taken so far.
    pub fn clear(&mut self) {
        self.passes.clear();
    }

    pub fn passes_ms(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.1).collect()
    }

    /// `value_ms`, the time of an operation that ended at `at`, in
    /// passes: divided by the median of the [`AROUND`] passes taken
    /// before `at` and the [`AROUND`] after.
    ///
    /// # Panics
    ///
    /// Panics when no pass was taken: a bug in this benchmark.
    pub fn normalize(&self, at: Instant, value_ms: f64) -> f64 {
        let j = self.passes.partition_point(|p| p.0 < at);
        let near = &self.passes[j.saturating_sub(AROUND)..(j + AROUND).min(self.passes.len())];
        assert!(!near.is_empty(), "no calibration pass to divide by");
        value_ms / crate::stats::median(near.iter().map(|p| p.1).collect())
    }

    fn pass(&mut self) {
        let t = Instant::now();
        let img = black_box(&self.img);
        let taps = black_box(TAPS);
        let r = taps / 2;
        for &p in black_box(&self.pixels) {
            let mut acc = 0.0f64;
            for (ky, wrow) in self.weights.chunks_exact(taps).enumerate() {
                let base = p - r * SIDE - r + ky * SIDE;
                for (&w, &px) in wrow.iter().zip(&img[base..base + taps]) {
                    acc += w * f64::from(px);
                }
            }
            self.out[p] = acc.round().clamp(0.0, 255.0) as u8;
        }
        black_box(&self.out);
        let end = Instant::now();
        self.passes.push((end, crate::stats::ms(end - t)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An operation is divided by the passes around it, not by passes
    /// taken long before or after.
    #[test]
    fn normalize_uses_the_passes_around_the_operation() {
        let mut c = Calibration::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        c.passes = [1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (at(10 * i as u64), v))
            .collect();
        assert_eq!(c.normalize(at(5), 8.0), 8.0);
        assert_eq!(c.normalize(at(65), 8.0), 2.0);
        // At the edges only the passes on one side exist.
        assert_eq!(c.normalize(at(100), 8.0), 2.0);
        assert_eq!(c.normalize(t0, 8.0), 8.0);
    }

    #[test]
    fn passes_are_spaced_and_take_time() {
        let mut c = Calibration::new();
        c.between_ops();
        c.between_ops();
        assert_eq!(c.passes_ms().len(), 1, "a second pass within EVERY");
        assert!(c.recent_ms() > 0.0);
    }
}
