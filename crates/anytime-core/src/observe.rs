//! The Prometheus text exposition shared by every metric set: the
//! [`write_type`] / [`write_sample`] writers, plus [`MetricStats`], the
//! uniform `absorb` / `is_clean` operations on metric snapshots.
//!
//! Each counter set in [`crate::metrics`] renders its snapshot through
//! these writers; [`crate::ServePool::prometheus`],
//! [`crate::RunReport::prometheus`] and
//! [`crate::RuntimeStats::prometheus`] assemble the sets into one
//! exposition body. The event-stream half of observability (what happened
//! *when*) lives in [`crate::trace`].

use std::fmt;

/// Uniform operations on metric snapshots.
pub trait MetricStats: Clone + Default {
    /// Accumulates another snapshot into this one.
    fn absorb(&mut self, other: &Self);

    /// `true` if nothing was recorded (the snapshot equals its default).
    fn is_clean(&self) -> bool;
}

/// Writes a `# TYPE` header for a metric family.
pub fn write_type(out: &mut dyn fmt::Write, family: &str, kind: &str) -> fmt::Result {
    writeln!(out, "# TYPE {family} {kind}")
}

/// Writes one sample line: `family{labels} value`.
///
/// Label values are escaped per the exposition format (backslash, quote,
/// newline).
pub fn write_sample(
    out: &mut dyn fmt::Write,
    family: &str,
    labels: &[(&str, &str)],
    value: f64,
) -> fmt::Result {
    out.write_str(family)?;
    if !labels.is_empty() {
        out.write_char('{')?;
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            write!(out, "{k}=\"{}\"", escape_label(v))?;
        }
        out.write_char('}')?;
    }
    if value.is_finite() && value.fract() == 0.0 && value.abs() < 9e15 {
        writeln!(out, " {}", value as i64)
    } else if value.is_nan() {
        writeln!(out, " NaN")
    } else if value == f64::INFINITY {
        writeln!(out, " +Inf")
    } else if value == f64::NEG_INFINITY {
        writeln!(out, " -Inf")
    } else {
        writeln!(out, " {value}")
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_formatting() {
        let mut s = String::new();
        write_sample(&mut s, "m", &[], 2.0).unwrap();
        write_sample(&mut s, "m", &[], 0.25).unwrap();
        write_sample(&mut s, "m", &[], f64::INFINITY).unwrap();
        write_sample(&mut s, "m", &[("stage", "f\"g"), ("le", "1")], 3.0).unwrap();
        assert_eq!(s, "m 2\nm 0.25\nm +Inf\nm{stage=\"f\\\"g\",le=\"1\"} 3\n");
    }
}
