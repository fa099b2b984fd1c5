//! Recorded benchmark trajectories: schema-stable `BENCH_<date>.json`
//! reports and the regression gate that compares two of them.
//!
//! The vendored criterion shim reports to stdout only, so recorded
//! trajectories use this module's own timing loops instead: batched
//! wall-clock measurement with a fastest-of-passes estimator, plus a
//! **calibration scalar** — the measured cost of a fixed streaming
//! floating-point workload on the recording host. Every entry stores both its raw `mean_ns` and
//! its dimensionless `norm` (mean ÷ calibration), so two reports recorded
//! on different machines still compare: a hot path whose *normalized* cost
//! grew is slower relative to the host it ran on, not merely running on a
//! slower host.
//!
//! The JSON schema is stable by construction — [`Report::to_json`] emits a
//! fixed key set in a fixed order, and [`Report::from_json`] is a minimal
//! recursive-descent parser for exactly that shape (no external
//! dependencies). `bench_record` writes reports; `bench_diff` gates on
//! them (see the crate's `src/bin/`).

use std::hint::black_box;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Schema version stamped into every report.
pub const SCHEMA_VERSION: u32 = 1;

/// One measured benchmark entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Stable entry name, e.g. `kernel/conv2d_256`.
    pub name: String,
    /// Whether this entry is a gated hot path: `bench_diff` fails on a
    /// normalized regression in hot entries and only reports the rest.
    pub hot: bool,
    /// Mean wall-clock nanoseconds per operation on the recording host.
    pub mean_ns: f64,
    /// Total timed operations behind the mean.
    pub iters: u64,
    /// Mean ÷ a calibration measurement: dimensionless, cross-machine.
    /// [`Report::record`] pairs each entry with its own calibration taken
    /// back-to-back; [`Report::push`] normalizes against the report-level
    /// scalar.
    pub norm: f64,
}

/// A recorded benchmark report: the unit of the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version ([`SCHEMA_VERSION`] when written by this code).
    pub schema: u32,
    /// UTC date the report was recorded, `YYYY-MM-DD`.
    pub recorded: String,
    /// Measured calibration-workload cost on the recording host (ns).
    pub calibration_ns: f64,
    /// The measured entries, in recording order.
    pub entries: Vec<Entry>,
}

impl Report {
    /// Creates an empty report stamped with today's UTC date and the given
    /// calibration measurement.
    pub fn new(calibration_ns: f64) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            recorded: today_utc(),
            calibration_ns,
            entries: Vec::new(),
        }
    }

    /// Measures `f` with [`measure`] and appends the entry, normalizing
    /// against a calibration measurement taken back-to-back with it.
    ///
    /// The pairing matters: host throughput phases (co-tenant load,
    /// frequency residency) drift on second timescales, so a single
    /// calibration taken at startup can land in a different phase than an
    /// entry measured later and corrupt its norm. Measuring the
    /// calibration immediately after the entry keeps both inside the same
    /// phase window.
    pub fn record<F: FnMut()>(&mut self, name: &str, hot: bool, opts: &MeasureOptions, f: F) {
        let m = measure(f, opts);
        let cal = calibration_ns(opts);
        self.entries.push(Entry {
            name: name.to_string(),
            hot,
            mean_ns: m.mean_ns,
            iters: m.iters,
            norm: m.mean_ns / cal,
        });
    }

    /// Appends an already-measured entry (for scenario benches that time
    /// themselves, e.g. end-to-end serve throughput), normalizing against
    /// this report's calibration scalar.
    pub fn push(&mut self, name: &str, hot: bool, mean_ns: f64, iters: u64) {
        self.entries.push(Entry {
            name: name.to_string(),
            hot,
            mean_ns,
            iters,
            norm: mean_ns / self.calibration_ns,
        });
    }

    /// Merges repeated recordings of the same suite into one report by
    /// keeping, per entry, the repetition with the *median* normalized
    /// cost.
    ///
    /// The estimator stack is deliberate: *within* a repetition each entry
    /// is a fastest-of-passes measurement (interference only adds time),
    /// while *across* repetitions the median sheds whole-repetition flukes
    /// in either direction — a background-load spike that inflated one
    /// repetition, or a lucky calibration pairing that deflated one. A
    /// genuine code regression slows every repetition and survives the
    /// merge to trip the gate.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty or the reports' entry names differ.
    pub fn merge_median(reports: Vec<Report>) -> Report {
        let mut merged = reports
            .first()
            .expect("merge_median requires at least one report")
            .clone();
        for rep in &reports[1..] {
            assert_eq!(
                rep.entries.iter().map(|e| &e.name).collect::<Vec<_>>(),
                merged.entries.iter().map(|e| &e.name).collect::<Vec<_>>(),
                "merge_median requires identical entry sets"
            );
        }
        for (i, entry) in merged.entries.iter_mut().enumerate() {
            let mut candidates: Vec<&Entry> = reports.iter().map(|r| &r.entries[i]).collect();
            candidates.sort_by(|a, b| a.norm.total_cmp(&b.norm));
            *entry = candidates[candidates.len() / 2].clone();
        }
        merged
    }

    /// Renders the report as schema-stable JSON (fixed keys, fixed order,
    /// one entry per line).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 128 * self.entries.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", self.schema));
        out.push_str(&format!("  \"recorded\": \"{}\",\n", self.recorded));
        out.push_str(&format!(
            "  \"calibration_ns\": {:.3},\n",
            self.calibration_ns
        ));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"hot\": {}, \"mean_ns\": {:.3}, \"iters\": {}, \"norm\": {:.6}}}{}\n",
                e.name,
                e.hot,
                e.mean_ns,
                e.iters,
                e.norm,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report written by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let obj = value.as_object("top-level")?;
        let mut report = Report {
            schema: json::get(obj, "schema")?.as_f64("schema")? as u32,
            recorded: json::get(obj, "recorded")?.as_str("recorded")?.to_string(),
            calibration_ns: json::get(obj, "calibration_ns")?.as_f64("calibration_ns")?,
            entries: Vec::new(),
        };
        if report.calibration_ns <= 0.0 {
            return Err("calibration_ns must be positive".into());
        }
        for (i, item) in json::get(obj, "entries")?
            .as_array("entries")?
            .iter()
            .enumerate()
        {
            let ctx = format!("entries[{i}]");
            let e = item.as_object(&ctx)?;
            report.entries.push(Entry {
                name: json::get(e, "name")?.as_str(&ctx)?.to_string(),
                hot: json::get(e, "hot")?.as_bool(&ctx)?,
                mean_ns: json::get(e, "mean_ns")?.as_f64(&ctx)?,
                iters: json::get(e, "iters")?.as_f64(&ctx)? as u64,
                norm: json::get(e, "norm")?.as_f64(&ctx)?,
            });
        }
        Ok(report)
    }
}

/// Controls a [`measure`] run.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOptions {
    /// Minimum wall-clock time per timed batch; batches grow (powers of
    /// two) until one takes at least this long, amortizing timer overhead.
    pub batch_floor: Duration,
    /// Number of timed passes; the reported mean is the *fastest* pass
    /// mean. Interference (scheduling, co-tenants, thermal dips) only ever
    /// adds time, so the minimum is the stablest estimate of the true cost
    /// on a shared host — a median would absorb sustained background load
    /// into the record and trip the gate on the next quiet run.
    pub passes: usize,
    /// Warmup operations before anything is timed.
    pub warmup: u64,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        Self {
            batch_floor: Duration::from_millis(2),
            passes: 21,
            warmup: 5,
        }
    }
}

impl MeasureOptions {
    /// A faster profile for CI gates: fewer passes, smaller batches.
    pub fn quick() -> Self {
        Self {
            batch_floor: Duration::from_millis(1),
            passes: 15,
            warmup: 3,
        }
    }
}

/// A [`measure`] result.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Fastest-pass mean nanoseconds per operation.
    pub mean_ns: f64,
    /// Total timed operations across all passes.
    pub iters: u64,
}

/// Times `f`: grows a batch until it runs for at least
/// [`MeasureOptions::batch_floor`], takes [`MeasureOptions::passes`] timed
/// batches, and reports the fastest pass as nanoseconds per operation.
pub fn measure<F: FnMut()>(mut f: F, opts: &MeasureOptions) -> Measurement {
    for _ in 0..opts.warmup {
        f();
    }
    let mut batch = 1u64;
    let mut elapsed = time_batch(&mut f, batch);
    while elapsed < opts.batch_floor && batch < (1 << 30) {
        batch *= 2;
        elapsed = time_batch(&mut f, batch);
    }
    let mut means = vec![elapsed.as_nanos() as f64 / batch as f64];
    for _ in 1..opts.passes.max(1) {
        let t = time_batch(&mut f, batch);
        means.push(t.as_nanos() as f64 / batch as f64);
    }
    means.sort_by(|a, b| a.total_cmp(b));
    Measurement {
        mean_ns: means[0],
        iters: batch * means.len() as u64,
    }
}

fn time_batch<F: FnMut()>(f: &mut F, batch: u64) -> Duration {
    let t0 = Instant::now();
    for _ in 0..batch {
        f();
    }
    t0.elapsed()
}

/// Calibration buffer size: 1 MiB, larger than L1/L2 so the workload
/// exercises the memory hierarchy like the data-plane kernels do.
const CALIBRATION_BYTES: usize = 1 << 20;

/// Measures the calibration workload: a striped `f64` sum of squares over
/// a fixed pseudo-random 1 MiB byte buffer.
///
/// The workload is deliberately shaped like the gated kernels — streaming
/// loads plus pipelined floating-point accumulation into independent
/// stripes — so it consumes the same host resources (memory and FP
/// throughput) without touching the code under test. A serial integer
/// chain would miss throughput-only slowdowns (co-tenant memory pressure,
/// sustained background load) and let them masquerade as kernel
/// regressions in the normalized costs.
pub fn calibration_ns(opts: &MeasureOptions) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let buf: Vec<u8> = (0..CALIBRATION_BYTES)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
        })
        .collect();
    let m = measure(
        || {
            let mut lanes = [0.0f64; 8];
            for chunk in buf.chunks_exact(8) {
                for (lane, &b) in lanes.iter_mut().zip(chunk) {
                    let f = f64::from(b);
                    *lane += f * f;
                }
            }
            black_box(lanes.iter().sum::<f64>());
        },
        opts,
    );
    m.mean_ns
}

/// One comparison row from [`diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Entry name.
    pub name: String,
    /// Whether the entry is a gated hot path.
    pub hot: bool,
    /// Baseline normalized cost (`None` if the entry is new).
    pub old_norm: Option<f64>,
    /// Current normalized cost (`None` if the entry disappeared).
    pub new_norm: Option<f64>,
    /// `new/old - 1`, when both sides exist.
    pub change: Option<f64>,
    /// Whether this row fails the gate.
    pub regressed: bool,
}

/// Compares two reports entry-by-entry on their *normalized* costs.
///
/// A hot entry regresses when its normalized cost grew by more than
/// `threshold` (e.g. `0.10` = 10%), or when it exists in the baseline but
/// is missing from the current report (the gate must not pass by silently
/// losing coverage). Non-hot entries are reported but never regress.
pub fn diff(old: &Report, new: &Report, threshold: f64) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    for o in &old.entries {
        let found = new.entries.iter().find(|n| n.name == o.name);
        let (new_norm, change) = match found {
            Some(n) => (Some(n.norm), Some(n.norm / o.norm - 1.0)),
            None => (None, None),
        };
        rows.push(DiffRow {
            name: o.name.clone(),
            hot: o.hot,
            old_norm: Some(o.norm),
            new_norm,
            change,
            regressed: o.hot && change.is_none_or(|c| c > threshold),
        });
    }
    for n in &new.entries {
        if !old.entries.iter().any(|o| o.name == n.name) {
            rows.push(DiffRow {
                name: n.name.clone(),
                hot: n.hot,
                old_norm: None,
                new_norm: Some(n.norm),
                change: None,
                regressed: false,
            });
        }
    }
    rows
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock alone.
pub fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_secs();
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Proleptic-Gregorian date for a day count since 1970-01-01 (Howard
/// Hinnant's `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Minimal recursive-descent JSON, sufficient for the report schema.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number, as `f64`.
        Num(f64),
        /// A string (escapes decoded).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The value as an object, or an error naming `ctx`.
        pub fn as_object(&self, ctx: &str) -> Result<&[(String, Value)], String> {
            match self {
                Value::Obj(pairs) => Ok(pairs),
                _ => Err(format!("{ctx}: expected an object")),
            }
        }

        /// The value as an array, or an error naming `ctx`.
        pub fn as_array(&self, ctx: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err(format!("{ctx}: expected an array")),
            }
        }

        /// The value as a number, or an error naming `ctx`.
        pub fn as_f64(&self, ctx: &str) -> Result<f64, String> {
            match self {
                Value::Num(n) => Ok(*n),
                _ => Err(format!("{ctx}: expected a number")),
            }
        }

        /// The value as a bool, or an error naming `ctx`.
        pub fn as_bool(&self, ctx: &str) -> Result<bool, String> {
            match self {
                Value::Bool(b) => Ok(*b),
                _ => Err(format!("{ctx}: expected a bool")),
            }
        }

        /// The value as a string, or an error naming `ctx`.
        pub fn as_str(&self, ctx: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                _ => Err(format!("{ctx}: expected a string")),
            }
        }
    }

    /// Looks up `key` in an object.
    pub fn get<'v>(obj: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key \"{key}\""))
    }

    /// Parses `text` as a single JSON value (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == ch {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", ch as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {pos}"))
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut pairs = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            pairs.push((key, parse_value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        _ => return Err(format!("unsupported escape at byte {pos}")),
                    }
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report {
            schema: SCHEMA_VERSION,
            recorded: "2026-08-08".to_string(),
            calibration_ns: 1000.0,
            entries: Vec::new(),
        };
        r.push("kernel/conv2d_256", true, 2500.0, 64);
        r.push("kernel/reduction_1m", true, 900.0, 512);
        r.push("serve/unbatched_request", false, 50_000.0, 32);
        r
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let report = sample_report();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.schema, report.schema);
        assert_eq!(parsed.recorded, report.recorded);
        assert_eq!(parsed.entries.len(), report.entries.len());
        for (a, b) in parsed.entries.iter().zip(&report.entries) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.hot, b.hot);
            assert!((a.mean_ns - b.mean_ns).abs() < 1e-3);
            assert!((a.norm - b.norm).abs() < 1e-6);
            assert_eq!(a.iters, b.iters);
        }
    }

    #[test]
    fn parser_rejects_malformed_reports() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("{\"schema\": 1").is_err());
        let negative = sample_report().to_json().replace("1000.000", "-1.0");
        assert!(Report::from_json(&negative).is_err());
    }

    #[test]
    fn merge_median_sheds_flukes_in_both_directions() {
        let base = sample_report();
        // Repetition 2: conv2d hit a background-load spike, reduction got
        // a lucky calibration pairing. Repetition 3 matches repetition 1.
        let mut rep2 = base.clone();
        rep2.entries[0].mean_ns *= 1.4;
        rep2.entries[0].norm *= 1.4;
        rep2.entries[1].mean_ns *= 0.8;
        rep2.entries[1].norm *= 0.8;
        let merged = Report::merge_median(vec![base.clone(), rep2, base.clone()]);
        for (m, b) in merged.entries.iter().zip(&base.entries) {
            assert_eq!(m.norm, b.norm, "{}", m.name);
        }
        // A genuine slowdown hits every repetition and survives the merge.
        let mut slow = base.clone();
        for e in &mut slow.entries {
            e.norm *= 1.25;
        }
        let merged = Report::merge_median(vec![slow.clone(), slow.clone(), slow]);
        assert!(diff(&base, &merged, 0.10).iter().any(|r| r.regressed));
    }

    #[test]
    #[should_panic(expected = "identical entry sets")]
    fn merge_median_rejects_mismatched_entries() {
        let a = sample_report();
        let mut b = sample_report();
        b.entries[0].name = "kernel/other".to_string();
        Report::merge_median(vec![a, b]);
    }

    #[test]
    fn diff_passes_on_identical_reports() {
        let r = sample_report();
        let rows = diff(&r, &r, 0.10);
        assert!(rows.iter().all(|row| !row.regressed));
    }

    #[test]
    fn diff_fails_on_injected_25_percent_slowdown() {
        // The gate's acceptance test: a 25% normalized slowdown on a hot
        // path must trip a 10% threshold.
        let old = sample_report();
        let mut slow = old.clone();
        for e in &mut slow.entries {
            e.mean_ns *= 1.25;
            e.norm *= 1.25;
        }
        let rows = diff(&old, &slow, 0.10);
        let regressed: Vec<_> = rows.iter().filter(|r| r.regressed).collect();
        assert_eq!(regressed.len(), 2, "both hot paths regress: {rows:?}");
        assert!(regressed.iter().all(|r| r.hot));
        // The non-hot serve entry is reported but does not gate.
        assert!(rows
            .iter()
            .any(|r| !r.hot && !r.regressed && r.change.is_some()));
    }

    #[test]
    fn diff_tolerates_slowdown_within_threshold() {
        let old = sample_report();
        let mut slightly = old.clone();
        for e in &mut slightly.entries {
            e.norm *= 1.05;
        }
        assert!(diff(&old, &slightly, 0.10).iter().all(|r| !r.regressed));
    }

    #[test]
    fn diff_fails_when_hot_entry_disappears() {
        let old = sample_report();
        let mut gutted = old.clone();
        gutted.entries.retain(|e| !e.hot);
        let rows = diff(&old, &gutted, 0.10);
        assert_eq!(rows.iter().filter(|r| r.regressed).count(), 2);
    }

    #[test]
    fn normalization_cancels_uniform_host_speed_change() {
        // The same code on a 2x-slower host: raw means double, but so does
        // the calibration scalar — normalized costs are unchanged.
        let fast = sample_report();
        let mut slow_host = fast.clone();
        slow_host.calibration_ns *= 2.0;
        slow_host.entries = Vec::new();
        for e in &fast.entries {
            slow_host.push(&e.name, e.hot, e.mean_ns * 2.0, e.iters);
        }
        assert!(diff(&fast, &slow_host, 0.10).iter().all(|r| !r.regressed));
    }

    #[test]
    fn civil_date_matches_known_anchors() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        // Leap day 2024 is day 19_782.
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn measure_returns_plausible_timings() {
        let opts = MeasureOptions {
            batch_floor: Duration::from_micros(50),
            passes: 3,
            warmup: 1,
        };
        let m = measure(
            || {
                black_box(std::hint::black_box(3u64).wrapping_mul(7));
            },
            &opts,
        );
        assert!(m.mean_ns > 0.0);
        assert!(m.iters > 0);
    }

    #[test]
    fn calibration_is_stable_within_a_run() {
        let opts = MeasureOptions::quick();
        let a = calibration_ns(&opts);
        let b = calibration_ns(&opts);
        assert!(a > 0.0 && b > 0.0);
        // Same host, same workload: the two measurements agree loosely
        // even on a noisy box.
        let ratio = if a > b { a / b } else { b / a };
        assert!(ratio < 3.0, "calibration unstable: {a} vs {b}");
    }
}
