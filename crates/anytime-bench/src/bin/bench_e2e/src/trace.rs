//! Layer spans recorded from outside the program: each operation's
//! latency is cut at timestamps taken around public calls (or read from
//! public return values) into consecutive segments, one per layer.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Cuts `start ..= marks.last()` into consecutive segments: each layer
/// runs from the previous mark (or `start`) to its own. The durations add
/// up to the whole interval exactly when the marks are in order; a mark
/// that precedes its predecessor yields a zero-length segment, and the
/// sum then overshoots, which [`sum_error`] reports.
pub fn segments(
    start: Instant,
    marks: &[(&'static str, Instant)],
) -> Vec<(&'static str, Duration)> {
    let mut prev = start;
    marks
        .iter()
        .map(|&(layer, at)| {
            let d = at.saturating_duration_since(prev);
            prev = at;
            (layer, d)
        })
        .collect()
}

/// `|Σ segments − latency| / latency`: how far the layer split is from
/// the latency the client measured.
pub fn sum_error(segs: &[(&'static str, Duration)], latency: Duration) -> f64 {
    let sum: Duration = segs.iter().map(|&(_, d)| d).sum();
    let diff = sum.abs_diff(latency);
    if latency.is_zero() {
        if diff.is_zero() {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        diff.as_secs_f64() / latency.as_secs_f64()
    }
}

/// One span of one operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Layer of the enclosing span; `None` for the operation's root span.
    pub parent: Option<&'static str>,
}

/// Spans kept in memory during the traced run and written when it ends.
#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    /// Records one operation: its root span (`op`) from `start` to the
    /// last mark, the consecutive layer segments under it, and `nested`
    /// spans under the named layer.
    pub fn op(
        &mut self,
        req: u64,
        start: Instant,
        marks: &[(&'static str, Instant)],
        nested: &[(&'static str, &'static str, Instant, Instant)],
    ) {
        let end = marks.last().map_or(start, |&(_, at)| at);
        self.spans.push(Span {
            req,
            layer: "op",
            start,
            end,
            parent: None,
        });
        let mut prev = start;
        for &(layer, at) in marks {
            self.spans.push(Span {
                req,
                layer,
                start: prev,
                end: at.max(prev),
                parent: Some("op"),
            });
            prev = at.max(prev);
        }
        for &(layer, parent, s, e) in nested {
            self.spans.push(Span {
                req,
                layer,
                start: s,
                end: e,
                parent: Some(parent),
            });
        }
    }

    /// Writes one JSON object per line (`req`, `layer`, `start_us`,
    /// `end_us`, `parent`), times in microseconds since `origin`.
    pub fn write_jsonl(&self, path: &Path, origin: Instant) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                w,
                "{{\"req\": {}, \"layer\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {}}}",
                s.req,
                s.layer,
                offset_us(origin, s.start),
                offset_us(origin, s.end),
                parent
            )?;
        }
        w.flush()
    }
}

/// Signed microseconds from `origin` to `at` (set-up spans precede it).
fn offset_us(origin: Instant, at: Instant) -> f64 {
    if at >= origin {
        (at - origin).as_secs_f64() * 1e6
    } else {
        -((origin - at).as_secs_f64() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_add_up_exactly_to_the_latency() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let marks = [
            ("queue", at(120)),
            ("build", at(155)),
            ("run", at(498)),
            ("respond", at(731)),
        ];
        let segs = segments(t0, &marks);
        assert_eq!(
            segs.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            [120, 35, 343, 233].map(Duration::from_micros)
        );
        assert_eq!(segs.iter().map(|&(_, d)| d).sum::<Duration>(), at(731) - t0);
        assert_eq!(sum_error(&segs, at(731) - t0), 0.0);
        // A client latency that disagrees with the marks shows as error.
        let err = sum_error(&segs, Duration::from_micros(1_000));
        assert!((err - 0.269).abs() < 1e-9, "{err}");
    }

    #[test]
    fn out_of_order_marks_show_as_error() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        // `run` ends before `build`: its segment clamps to zero, and the
        // sum overshoots the interval by the inversion.
        let segs = segments(
            t0,
            &[("build", at(300)), ("run", at(200)), ("respond", at(400))],
        );
        assert_eq!(segs[1].1, Duration::ZERO);
        assert!(sum_error(&segs, at(400) - t0) > 0.2);
    }

    #[test]
    fn spans_nest_under_their_layer() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut s = Spans::default();
        s.op(
            7,
            t0,
            &[("build", at(10)), ("run", at(50))],
            &[("dispatch", "run", at(10), at(12))],
        );
        let layers: Vec<_> = s.spans.iter().map(|s| (s.layer, s.parent)).collect();
        assert_eq!(
            layers,
            [
                ("op", None),
                ("build", Some("op")),
                ("run", Some("op")),
                ("dispatch", Some("run"))
            ]
        );
        assert_eq!(s.spans[0].end, at(50));
    }
}
