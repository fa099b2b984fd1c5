//! The applications under test, their inputs, and output scoring.

use crate::report::Outcome;
use crate::stats::ms;
use anytime_apps::preview::nearest_upsample;
use anytime_apps::{Conv2d, Histeq};
use anytime_core::{BufferReader, CoreError, Pipeline, Snapshot};
use anytime_img::{metrics::snr_db, synth, ImageBuf, Kernel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// An output is acceptable from this SNR on. 40 dB rather than the
/// paper's lower thresholds because the synthetic inputs are smoother
/// than its photographs; at 40 dB the crossing falls a quarter of the way
/// into a conv2d run for every seed, not on its first version.
pub const ACCEPTABLE_DB: f64 = 40.0;

/// The two anytime applications the benchmark runs.
#[derive(Debug, Clone)]
pub enum App {
    /// One diffusive stage, publishing every `publish_every` pixels.
    Conv2d { app: Conv2d, publish_every: u64 },
    /// Four stages: hist → cdf → lut → equalize, with eager restarts.
    Histeq(Histeq),
}

impl App {
    /// `Conv2d` over `side`² value noise, publishing `versions` times.
    pub fn conv2d(side: usize, kernel: Kernel, versions: u64, seed: u64) -> Self {
        let pixels = (side * side) as u64;
        App::Conv2d {
            app: Conv2d::new(synth::value_noise(side, side, seed), kernel),
            publish_every: pixels / versions,
        }
    }

    /// `Histeq` over 512² blobs, both anytime stages publishing every
    /// eighth of the image.
    pub fn histeq(seed: u64) -> Self {
        App::Histeq(Histeq::new(synth::blobs(512, 512, 8, seed)))
    }

    pub fn precise(&self) -> ImageBuf<u8> {
        match self {
            App::Conv2d { app, .. } => app.precise(),
            App::Histeq(app) => app.precise(),
        }
    }

    pub fn pixels(&self) -> u64 {
        match self {
            App::Conv2d { app, .. } => app.image().pixel_count() as u64,
            App::Histeq(app) => app.image().pixel_count() as u64,
        }
    }

    /// Builds a fresh automaton.
    pub fn automaton(&self) -> anytime_core::Result<(Pipeline, BufferReader<ImageBuf<u8>>)> {
        let built = match self {
            App::Conv2d { app, publish_every } => app.automaton(*publish_every),
            App::Histeq(app) => {
                let eighth = app.image().pixel_count() as u64 / 8;
                app.automaton(eighth, eighth)
            }
        };
        built.map_err(|e| CoreError::InvalidConfig(e.to_string()))
    }

    /// `true` when an output is a pure function of its step count, so its
    /// score can be looked up instead of computed: conv2d's tree sampling
    /// always fills the same pixels first. Histeq's output also depends on
    /// which histogram version the map ran on.
    pub fn score_is_function_of_steps(&self) -> bool {
        matches!(self, App::Conv2d { .. })
    }
}

/// Timed calls of the precise baseline per set-up (`kernel.precise_ms`).
const PRECISE_CALLS: usize = 10;

/// The precise reference output, and how long each of `PRECISE_CALLS`
/// further calls took; each must return the same output.
pub fn reference(app: &App, out: &mut Outcome) -> (ImageBuf<u8>, Vec<f64>) {
    let precise = app.precise();
    let mut times_ms = Vec::with_capacity(PRECISE_CALLS);
    for _ in 0..PRECISE_CALLS {
        let t = Instant::now();
        let again = black_box(app.precise());
        times_ms.push(ms(t.elapsed()));
        if again != precise {
            out.violation("precise baseline is not deterministic".into());
        }
    }
    (precise, times_ms)
}

/// Every version one run of `app` publishes that its reader observes, in
/// order.
pub fn observe_all(app: &App) -> Result<Vec<Snapshot<ImageBuf<u8>>>, String> {
    let (pipeline, reader) = app.automaton().map_err(|e| format!("build: {e}"))?;
    let auto = pipeline.launch().map_err(|e| format!("launch: {e}"))?;
    let mut out = Vec::new();
    let mut seen = None;
    loop {
        let snap = reader
            .wait_newer_timeout(seen, Duration::from_secs(10))
            .map_err(|e| format!("wait: {e}"))?;
        seen = Some(snap.version());
        let done = snap.is_terminal();
        out.push(snap);
        if done {
            break;
        }
    }
    auto.join().map_err(|e| format!("join: {e}"))?;
    Ok(out)
}

/// Steps → SNR for an app whose output is a function of its step count,
/// built from one run and checked against a second.
pub fn snr_table(app: &App, precise: &ImageBuf<u8>, out: &mut Outcome) -> SnrTable {
    let mut table = SnrTable::default();
    for _ in 0..2 {
        match observe_all(app) {
            Ok(snaps) => {
                for snap in snaps {
                    if let Err(e) = table.record(snap.steps(), snap.value(), precise) {
                        out.violation(e);
                    }
                }
            }
            Err(e) => out.violation(format!("set-up run: {e}")),
        }
    }
    table
}

/// SNR of the progressive preview of `value` (with `steps` samples done)
/// against the precise output: the Fig 11–12 method.
pub fn preview_snr(value: &ImageBuf<u8>, steps: u64, precise: &ImageBuf<u8>) -> f64 {
    snr_db(&nearest_upsample(value, steps), precise)
}

/// Steps → SNR for outputs that are a pure function of their step count,
/// filled from observed snapshots outside every timed interval.
#[derive(Debug, Default)]
pub struct SnrTable {
    by_steps: BTreeMap<u64, f64>,
}

impl SnrTable {
    pub fn get(&self, steps: u64) -> Option<f64> {
        self.by_steps.get(&steps).copied()
    }

    /// Scores `value` and records it. When `steps` is already known, the
    /// new score must equal the recorded one bit for bit; otherwise the
    /// output is not a function of its step count and the error says so.
    pub fn record(
        &mut self,
        steps: u64,
        value: &ImageBuf<u8>,
        precise: &ImageBuf<u8>,
    ) -> Result<f64, String> {
        let snr = preview_snr(value, steps, precise);
        match self.by_steps.insert(steps, snr) {
            Some(old) if old.to_bits() != snr.to_bits() => Err(format!(
                "output at {steps} steps scored {snr} dB, earlier {old} dB"
            )),
            _ => Ok(snr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_table_matches_a_second_run() {
        let app = App::conv2d(64, Kernel::gaussian(9, 2.0), 32, 3);
        let precise = app.precise();
        let mut table = SnrTable::default();
        for snap in observe_all(&app).unwrap() {
            table.record(snap.steps(), snap.value(), &precise).unwrap();
        }
        for snap in observe_all(&app).unwrap() {
            let known = table.get(snap.steps());
            let again = table.record(snap.steps(), snap.value(), &precise).unwrap();
            if let Some(known) = known {
                assert_eq!(known.to_bits(), again.to_bits());
            }
        }
        assert_eq!(table.get(app.pixels()), Some(f64::INFINITY));
    }

    #[test]
    fn table_rejects_a_different_output_at_known_steps() {
        let app = App::conv2d(32, Kernel::box_blur(3), 4, 1);
        let precise = app.precise();
        let mut table = SnrTable::default();
        let half = app.pixels() / 2;
        let blank = ImageBuf::new(32, 32, 1).unwrap();
        table.record(half, &precise, &precise).unwrap();
        assert!(table.record(half, &blank, &precise).is_err());
    }

    #[test]
    fn conv2d_crosses_the_threshold_a_quarter_in() {
        let app = App::conv2d(512, Kernel::gaussian(9, 2.0), 32, 1);
        let precise = app.precise();
        let quarter = app.pixels() / 4;
        let crossing = observe_all(&app)
            .unwrap()
            .iter()
            .find(|s| preview_snr(s.value(), s.steps(), &precise) >= ACCEPTABLE_DB)
            .map(|s| s.steps());
        assert_eq!(
            crossing.map(|s| s >= quarter && s < quarter * 2),
            Some(true)
        );
    }
}
