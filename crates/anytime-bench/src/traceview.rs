//! Parsing and analysis of the trace artifacts the core runtime emits:
//! JSONL event logs, Chrome `trace_event` JSON, and Prometheus text
//! exposition.
//!
//! The workspace is offline (no serde), so this module carries a minimal
//! hand-rolled JSON parser — enough to validate and consume the exact
//! formats [`anytime_core::trace::TraceLog`] produces. From a JSONL event
//! log it regenerates the serving layer's **accuracy-vs-time** curves:
//! every `observe` event with a request id and accuracy is a point on that
//! request's quality trajectory, and [`accuracy_table`] folds them into
//! the monotone best-accuracy-by-deadline table the paper's evaluation
//! plots.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, with its byte
    /// offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an integer, if whole and in range.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => parse_object(bytes, pos),
        b'[' => parse_array(bytes, pos),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected byte {:?} at offset {}",
            other as char, *pos
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        *pos += 4;
                        // Surrogates don't occur in our own emitters; map
                        // them to the replacement character if seen.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            c => {
                // Collect the full UTF-8 sequence starting at this byte.
                let width = match c {
                    0x00..=0x7f => {
                        out.push(c as char);
                        continue;
                    }
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let start = *pos - 1;
                let end = start + width;
                let s = bytes
                    .get(start..end)
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .ok_or("invalid UTF-8 in string")?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// One event from a trace JSONL log (the output of
/// `TraceLog::to_jsonl`), with absent fields as `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Microseconds since the recorder's epoch.
    pub at_us: u64,
    /// The event kind name (`publish`, `observe`, `admit`, …).
    pub kind: String,
    /// Stage or replica name, when the event names one.
    pub stage: Option<String>,
    /// Published/observed version.
    pub version: Option<u64>,
    /// Cumulative anytime steps at publication.
    pub steps: Option<u64>,
    /// Quality score, on the emitter's accuracy scale.
    pub accuracy: Option<f64>,
    /// Serve-layer request id.
    pub req: Option<u64>,
    /// Span duration in microseconds (request-end events).
    pub dur_us: Option<u64>,
    /// The event's output was terminal.
    pub terminal: bool,
    /// The event's output was degraded.
    pub degraded: bool,
}

/// Parses a JSONL event log: one JSON object per non-empty line.
///
/// # Errors
///
/// Returns the first malformed line (1-based) and why.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let at_us = value
            .get("at_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {}: missing at_us", i + 1))?;
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing kind", i + 1))?
            .to_owned();
        records.push(TraceRecord {
            at_us,
            kind,
            stage: value.get("stage").and_then(Json::as_str).map(str::to_owned),
            version: value.get("version").and_then(Json::as_u64),
            steps: value.get("steps").and_then(Json::as_u64),
            accuracy: value.get("accuracy").and_then(Json::as_f64),
            req: value.get("req").and_then(Json::as_u64),
            dur_us: value.get("dur_us").and_then(Json::as_u64),
            terminal: value
                .get("terminal")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            degraded: value
                .get("degraded")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        });
    }
    Ok(records)
}

/// One point on a request's accuracy trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPoint {
    /// Microseconds since the recorder's epoch.
    pub at_us: u64,
    /// Quality at that moment.
    pub accuracy: f64,
}

/// Per-request accuracy-vs-time curves: every `observe` event carrying a
/// request id and an accuracy, grouped by request and time-ordered.
pub fn accuracy_curves(records: &[TraceRecord]) -> BTreeMap<u64, Vec<AccuracyPoint>> {
    let mut curves: BTreeMap<u64, Vec<AccuracyPoint>> = BTreeMap::new();
    for r in records {
        if r.kind != "observe" {
            continue;
        }
        let (Some(req), Some(accuracy)) = (r.req, r.accuracy) else {
            continue;
        };
        curves.entry(req).or_default().push(AccuracyPoint {
            at_us: r.at_us,
            accuracy,
        });
    }
    for points in curves.values_mut() {
        points.sort_by_key(|p| p.at_us);
    }
    curves
}

/// One row of the accuracy-vs-time table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyRow {
    /// Time budget (µs into each request) this row summarizes.
    pub budget_us: u64,
    /// Mean best accuracy reached within the budget, over requests with
    /// at least one observation by then.
    pub mean_accuracy: f64,
    /// Requests contributing to the mean.
    pub requests: usize,
}

/// Regenerates the accuracy-vs-time table from a trace: for each budget,
/// the mean (over requests) of the best accuracy observed within that many
/// microseconds of the request's *first* observation-bearing event.
///
/// Budgets are relative to each request's own start, so open-loop arrival
/// jitter does not smear the curve. Rows are monotone nondecreasing in
/// accuracy by construction (best-so-far within a growing budget).
pub fn accuracy_table(records: &[TraceRecord], budgets_us: &[u64]) -> Vec<AccuracyRow> {
    let curves = accuracy_curves(records);
    // A request starts at its admit event when present, else its first
    // observation.
    let mut starts: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if r.kind == "admit" {
            if let Some(req) = r.req {
                starts.entry(req).or_insert(r.at_us);
            }
        }
    }
    budgets_us
        .iter()
        .map(|&budget_us| {
            let mut sum = 0.0;
            let mut requests = 0usize;
            for (req, points) in &curves {
                let start = starts
                    .get(req)
                    .copied()
                    .or_else(|| points.first().map(|p| p.at_us))
                    .unwrap_or(0);
                let best = points
                    .iter()
                    .filter(|p| p.at_us.saturating_sub(start) <= budget_us)
                    .map(|p| p.accuracy)
                    .fold(f64::NEG_INFINITY, f64::max);
                if best.is_finite() {
                    sum += best;
                    requests += 1;
                }
            }
            AccuracyRow {
                budget_us,
                mean_accuracy: if requests > 0 {
                    sum / requests as f64
                } else {
                    0.0
                },
                requests,
            }
        })
        .collect()
}

/// Serving-plane event counts derived from a JSONL trace, for
/// reconciliation against the pool's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// `admit` events.
    pub admitted: u64,
    /// `reject` events.
    pub rejected: u64,
    /// `shed` events.
    pub shed: u64,
    /// `hedge` events.
    pub hedged: u64,
    /// `retry` events.
    pub retried: u64,
    /// `request_done` events.
    pub completed: u64,
    /// `request_failed` events.
    pub failed: u64,
    /// `publish` events.
    pub publishes: u64,
    /// `worker_added` events (resize scale-up grew the pool).
    pub worker_added: u64,
    /// `worker_drained` events (resize scale-down retired a worker).
    pub worker_drained: u64,
}

/// Counts the serving-plane events in a trace.
pub fn summarize(records: &[TraceRecord]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for r in records {
        match r.kind.as_str() {
            "admit" => s.admitted += 1,
            "reject" => s.rejected += 1,
            "shed" => s.shed += 1,
            "hedge" => s.hedged += 1,
            "retry" => s.retried += 1,
            "request_done" => s.completed += 1,
            "request_failed" => s.failed += 1,
            "publish" => s.publishes += 1,
            "worker_added" => s.worker_added += 1,
            "worker_drained" => s.worker_drained += 1,
            _ => {}
        }
    }
    s
}

/// Validates a Chrome `trace_event` JSON document: a top-level array whose
/// elements all carry `name`/`ph`/`pid`, with timestamps on every
/// non-metadata event. Returns the number of non-metadata events.
///
/// # Errors
///
/// Describes the first structural violation.
pub fn check_chrome(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let events = doc.as_array().ok_or("top level is not an array")?;
    let mut timeline_events = 0usize;
    let mut saw_process_name = false;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        ev.get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        match ph {
            "M" => {
                saw_process_name |= name == "process_name";
            }
            "i" | "X" => {
                ev.get("ts")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: missing ts"))?;
                if ph == "X" {
                    ev.get("dur")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("event {i}: X without dur"))?;
                }
                timeline_events += 1;
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    if !saw_process_name {
        return Err("no process_name metadata event".into());
    }
    Ok(timeline_events)
}

/// Parses Prometheus text exposition into `(sample_name, value)` pairs,
/// where the sample name keeps its label set verbatim
/// (`anytime_serve_requests_total{event="admitted"}`).
///
/// # Errors
///
/// Returns the first malformed sample line.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value", i + 1))?;
        let value = value
            .parse::<f64>()
            .map_err(|e| format!("line {}: bad value: {e}", i + 1))?;
        samples.push((name.trim().to_owned(), value));
    }
    Ok(samples)
}

/// Looks up one Prometheus sample by its full name-with-labels.
pub fn prom_value(samples: &[(String, f64)], name_with_labels: &str) -> Option<f64> {
    samples
        .iter()
        .find(|(n, _)| n == name_with_labels)
        .map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_jsonl_events() {
        let text = concat!(
            "{\"at_us\":10,\"kind\":\"publish\",\"stage\":\"f\",\"version\":1,",
            "\"steps\":16,\"terminal\":true}\n",
            "\n",
            "{\"at_us\":20,\"kind\":\"observe\",\"stage\":\"replica-0\",",
            "\"version\":1,\"accuracy\":0.5,\"req\":3}\n",
        );
        let records = parse_jsonl(text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, "publish");
        assert_eq!(records[0].stage.as_deref(), Some("f"));
        assert!(records[0].terminal);
        assert_eq!(records[1].req, Some(3));
        assert_eq!(records[1].accuracy, Some(0.5));
    }

    #[test]
    fn rejects_malformed_jsonl() {
        assert!(parse_jsonl("{\"kind\":\"publish\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
    }

    #[test]
    fn accuracy_table_is_monotone() {
        let mut text = String::new();
        // Two requests admitted at t=0 and t=100, improving over time.
        text.push_str("{\"at_us\":0,\"kind\":\"admit\",\"req\":0}\n");
        text.push_str("{\"at_us\":100,\"kind\":\"admit\",\"req\":1}\n");
        for (t, a) in [(10u64, 0.2f64), (50, 0.6), (90, 1.0)] {
            text.push_str(&format!(
                "{{\"at_us\":{t},\"kind\":\"observe\",\"req\":0,\"version\":1,\"accuracy\":{a}}}\n"
            ));
            text.push_str(&format!(
                "{{\"at_us\":{},\"kind\":\"observe\",\"req\":1,\"version\":1,\"accuracy\":{a}}}\n",
                t + 100
            ));
        }
        let records = parse_jsonl(&text).unwrap();
        let table = accuracy_table(&records, &[20, 60, 100]);
        assert_eq!(table.len(), 3);
        assert_eq!(table[0].requests, 2);
        assert!((table[0].mean_accuracy - 0.2).abs() < 1e-12);
        assert!((table[1].mean_accuracy - 0.6).abs() < 1e-12);
        assert!((table[2].mean_accuracy - 1.0).abs() < 1e-12);
        for w in table.windows(2) {
            assert!(w[1].mean_accuracy >= w[0].mean_accuracy);
        }
    }

    #[test]
    fn chrome_checker_accepts_real_output() {
        use anytime_core::Recorder;
        let rec = Recorder::enabled(256);
        let f = rec.stage("f");
        rec.publish(f, 1, 16, false, false);
        rec.request_end(
            anytime_core::trace::EventKind::RequestDone,
            0,
            Some(f),
            std::time::Duration::from_micros(250),
            Some(0.75),
            true,
            false,
        );
        let json = rec.drain().to_chrome_json();
        let n = check_chrome(&json).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn chrome_checker_rejects_garbage() {
        assert!(check_chrome("{}").is_err());
        assert!(check_chrome("[{\"ph\":\"i\"}]").is_err());
    }

    #[test]
    fn prometheus_parser_round_trips() {
        let text = "# HELP x\n# TYPE anytime_serve_requests_total counter\n\
                    anytime_serve_requests_total{event=\"admitted\"} 42\n\
                    anytime_serve_live_runs 0\n";
        let samples = parse_prometheus(text).unwrap();
        assert_eq!(
            prom_value(&samples, "anytime_serve_requests_total{event=\"admitted\"}"),
            Some(42.0)
        );
        assert_eq!(prom_value(&samples, "anytime_serve_live_runs"), Some(0.0));
        assert_eq!(prom_value(&samples, "missing"), None);
    }

    #[test]
    fn summary_counts_serving_events() {
        let text = "{\"at_us\":0,\"kind\":\"admit\",\"req\":0}\n\
                    {\"at_us\":1,\"kind\":\"shed\",\"req\":0}\n\
                    {\"at_us\":2,\"kind\":\"request_done\",\"req\":0,\"dur_us\":2}\n\
                    {\"at_us\":3,\"kind\":\"reject\",\"req\":1}\n";
        let s = summarize(&parse_jsonl(text).unwrap());
        assert_eq!(s.admitted, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.failed, 0);
    }

    #[test]
    fn summary_counts_worker_lifecycle_events() {
        let text = "{\"at_us\":2,\"kind\":\"worker_drained\",\"stage\":\"replica-1\"}\n\
                    {\"at_us\":3,\"kind\":\"worker_added\",\"stage\":\"replica-2\"}\n\
                    {\"at_us\":4,\"kind\":\"worker_added\",\"stage\":\"replica-3\"}\n";
        let s = summarize(&parse_jsonl(text).unwrap());
        assert_eq!(s.worker_added, 2);
        assert_eq!(s.worker_drained, 1);
    }
}
