//! Named metrics, their human-readable lines, and the one-line JSON result.

use crate::calibrate::Calibration;
use crate::stats::{bp_label, mean, median, percentile, sorted, tail_bp, P50};
use anytime_core::RuntimeStats;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics (tracing off), printed by every workload. The
/// names and units match `BENCHMARK.json`. Times are in calibration
/// passes (`cal`, see [`crate::calibrate`]): the median over operations
/// of each operation's time divided by the passes timed around it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("first_output_cal", "cal"),
    ("acceptable_cal", "cal"),
    ("latency_p50_cal", "cal"),
    ("quality_mean", "ratio"),
];

/// Printed with the end-to-end metrics but not gated: the same times in
/// milliseconds, which drift with the host's speed, and measures whose
/// run-to-run spread is wider than any usable bound.
const REPORTED: &[(&str, &str)] = &[
    ("first_output_ms", "ms"),
    ("acceptable_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("calibration_ms", "ms"),
    ("throughput_ops", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), printed by every workload; a layer
/// the workload's operations do not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("build.p50_us", "us"),
    ("dispatch.launch_p50_us", "us"),
    ("dispatch.noop_p50_us", "us"),
    ("compute.first_p50_ms", "ms"),
    ("compute.rest_p50_ms", "ms"),
    ("kernel.precise_ms", "ms"),
    ("kernel.precise_ratio", "ratio"),
    ("publish.versions_mean", "count"),
    ("observe.lag_p50_us", "us"),
    ("observe.lag_p99_us", "us"),
    ("observe.useful_ratio", "ratio"),
    ("buffer.wakeups_per_run", "count"),
    ("buffer.spurious_ratio", "ratio"),
    ("buffer.publish_to_observe_mean_us", "us"),
    ("runtime.polls_per_op", "count"),
    ("runtime.yields_per_op", "count"),
    ("runtime.steals_per_op", "count"),
    ("runtime.parks_per_op", "count"),
    ("runtime.wakes_per_op", "count"),
    ("respond.join_p50_us", "us"),
    ("queue.p50_us", "us"),
    ("queue.p99_us", "us"),
    ("run.p50_us", "us"),
    ("run.p99_us", "us"),
    ("respond.p50_us", "us"),
    ("respond.p99_us", "us"),
    ("respond.after_deadline_p50_us", "us"),
    ("admit.refused_share", "ratio"),
    ("admit.refused_p50_us", "us"),
    ("serve.final_share", "ratio"),
    ("serve.at_deadline_share", "ratio"),
    ("serve.degraded_share", "ratio"),
    ("serve.deadline_hit_rate", "ratio"),
    ("quality.acceptable_share", "ratio"),
    ("layers.sum_error_max", "ratio"),
];

/// A fixed list of metrics, every one present: those a workload does not
/// set keep the value 0 and say why.
#[derive(Debug)]
pub struct Sheet(Vec<Metric>);

impl Sheet {
    pub fn new(list: &[(&'static str, &'static str)], unset: &str) -> Self {
        Sheet(
            list.iter()
                .map(|&(name, unit)| Metric::new(name, 0.0, unit).note(unset))
                .collect(),
        )
    }

    /// Sets a metric of the list.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the list: a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not on this sheet"));
        m.value = value;
        m.note = note.into();
    }

    /// Sets `name` to the p50 of `values`.
    pub fn p50(&mut self, name: &str, values: Vec<f64>) {
        self.percentile(name, values, P50);
    }

    /// Sets `name` to percentile `bp` of `values`; 0 with no samples.
    pub fn percentile(&mut self, name: &str, values: Vec<f64>, bp: u32) {
        let n = values.len();
        let v = percentile(&sorted(values), bp).unwrap_or(0.0);
        self.set(name, v, format!("{}, n={n}", bp_label(bp)));
    }

    /// Sets `name` to the highest percentile with ten samples beyond it.
    pub fn tail(&mut self, name: &str, values: Vec<f64>) {
        let bp = tail_bp(values.len());
        self.percentile(name, values, bp);
    }

    /// Sets the `runtime.*_per_op` metrics from two snapshots of the
    /// runtime's counters taken around the load phase.
    pub fn runtime(&mut self, before: &RuntimeStats, after: &RuntimeStats, ops: u64) {
        let note = format!("RuntimeStats delta / {ops} ops");
        for (name, a, b) in [
            ("runtime.polls_per_op", before.polls, after.polls),
            ("runtime.yields_per_op", before.yields, after.yields),
            ("runtime.steals_per_op", before.steals, after.steals),
            ("runtime.parks_per_op", before.parks, after.parks),
            ("runtime.wakes_per_op", before.wakes, after.wakes),
        ] {
            self.set(name, (b - a) as f64 / ops.max(1) as f64, note.clone());
        }
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.0
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What a workload's run hands back to `main`.
#[derive(Debug)]
pub struct Measured {
    pub e2e: EndToEnd,
    pub layers: Sheet,
    pub spans: crate::trace::Spans,
}

/// One answered operation's times in ms, and when it ended.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub end: Instant,
    pub first_output_ms: f64,
    /// `None` when the answer never reached the acceptable SNR.
    pub acceptable_ms: Option<f64>,
    pub latency_ms: f64,
}

/// The end-to-end samples every workload collects.
#[derive(Debug)]
pub struct EndToEnd {
    /// One duration per set-up repetition.
    pub setups: Vec<Duration>,
    /// Operations answered during the load phase, and its length.
    pub ops: Vec<Op>,
    pub load: Duration,
    /// Share of the output computed in each attempted operation's answer:
    /// 1 for a precise answer, 0 for none.
    pub quality: Vec<f64>,
    /// Calibration passes timed between the operations of the load phase.
    pub cal: Calibration,
}

impl EndToEnd {
    pub fn new() -> Self {
        EndToEnd {
            setups: Vec::new(),
            ops: Vec::new(),
            load: Duration::ZERO,
            quality: Vec::new(),
            cal: Calibration::new(),
        }
    }

    pub fn answered(&self) -> u64 {
        self.ops.len() as u64
    }

    /// The gated metrics, and the reported-only ones.
    pub fn sheets(self, peak_rss_mb: f64) -> (Sheet, Sheet) {
        let passes = self.cal.passes_ms();
        let n_cal = passes.len();
        let mut s = Sheet::new(END_TO_END, "");
        let mut r = Sheet::new(REPORTED, "");
        let setups: Vec<f64> = self.setups.iter().map(Duration::as_secs_f64).collect();
        let n = setups.len();
        s.set("setup_s", median(setups), format!("median of {n} set-ups"));
        let latency_ms: Vec<f64> = self.ops.iter().map(|o| o.latency_ms).collect();
        for (name, times) in [
            (
                "first_output",
                self.ops
                    .iter()
                    .map(|o| (o.end, o.first_output_ms))
                    .collect(),
            ),
            (
                "acceptable",
                self.ops
                    .iter()
                    .filter_map(|o| o.acceptable_ms.map(|v| (o.end, v)))
                    .collect(),
            ),
            (
                "latency_p50",
                self.ops
                    .iter()
                    .map(|o| (o.end, o.latency_ms))
                    .collect::<Vec<_>>(),
            ),
        ] {
            let (raw, cal): (Vec<f64>, Vec<f64>) = times
                .iter()
                .map(|&(end, v)| (v, self.cal.normalize(end, v)))
                .unzip();
            let note = format!("p50, n={}", raw.len());
            s.set(
                &format!("{name}_cal"),
                median(cal),
                format!("{note}, each / the calibration passes around it"),
            );
            r.set(&format!("{name}_ms"), median(raw), note);
        }
        s.set(
            "quality_mean",
            mean(&self.quality),
            format!("n={}", self.quality.len()),
        );
        r.tail("latency_tail_ms", latency_ms);
        r.set("calibration_ms", median(passes), format!("p50, n={n_cal}"));
        r.set(
            "throughput_ops",
            self.ops.len() as f64 / self.load.as_secs_f64(),
            format!(
                "{} answered in {:.3} s",
                self.ops.len(),
                self.load.as_secs_f64()
            ),
        );
        r.set("peak_rss_mb", peak_rss_mb, "VmHWM at exit");
        (s, r)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile used, or why the value reads 0.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The outcome of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs and broken invariants; any entry makes the run
    /// incorrect.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records a violation, keeping the first few verbatim and counting
    /// the rest.
    pub fn violation(&mut self, what: String) {
        const KEEP: usize = 20;
        if self.violations.len() < KEEP {
            self.violations.push(what);
        } else if self.violations.len() == KEEP {
            self.violations.push("further violations omitted".into());
        }
    }

    /// The human-readable lines: one per metric, with its unit and note.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<34} {:>14.4} {}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                let _ = write!(out, "  ({})", m.note);
            }
            out.push('\n');
        }
        out
    }

    /// The result object, on one line: `correct`, `attempted`, `failed`
    /// and `metrics` (name → value and unit). Values keep every digit
    /// (`{}` prints the shortest string that reads back as the same f64).
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// JSON has no NaN or infinity; a non-finite value is a benchmark bug and
/// renders as `null` so that the result fails to parse as a number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut o = Outcome {
            attempted: 1000,
            failed: 2,
            ..Outcome::default()
        };
        o.metrics
            .push(Metric::new("latency_p50_ms", 1.2034, "ms").note("n=998"));
        o.metrics.push(Metric::new("setup_s", 0.8127, "s"));
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 2, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        o.violation("wrong output".into());
        assert!(o.json().starts_with("{\"correct\": false,"));
        assert!(!o.json().contains('\n'));
    }

    #[test]
    fn json_keeps_every_digit_and_rejects_non_finite() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn violations_are_capped() {
        let mut o = Outcome::default();
        for i in 0..50 {
            o.violation(format!("v{i}"));
        }
        assert_eq!(o.violations.len(), 21);
        assert!(!o.correct());
    }
}
