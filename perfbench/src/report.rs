//! The result of one run: named metrics with units, printed one per
//! line for people and as the final JSON line for tools.

use std::fmt::Write;

/// One metric's reading: a value, or the reason it has none on this
/// workload.
#[derive(Debug, Clone)]
pub enum Reading {
    Value(f64),
    NotApplicable(&'static str),
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub reading: Reading,
    /// Context printed after the value, e.g. the sample count behind a
    /// percentile.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, Reading::Value(value), String::new());
    }

    pub fn noted(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.push(name, unit, Reading::Value(value), note);
    }

    pub fn na(&mut self, name: &'static str, unit: &'static str, why: &'static str) {
        self.push(name, unit, Reading::NotApplicable(why), String::new());
    }

    fn push(&mut self, name: &'static str, unit: &'static str, reading: Reading, note: String) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            unit,
            reading,
            note,
        });
    }

    /// Human-readable lines, one metric each.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for m in &self.metrics {
            match &m.reading {
                Reading::Value(v) => {
                    let note = if m.note.is_empty() {
                        String::new()
                    } else {
                        format!("  ({})", m.note)
                    };
                    println!("  {:<36} {:>16} {:<8}{note}", m.name, fmt_value(*v), m.unit);
                }
                Reading::NotApplicable(why) => {
                    println!("  {:<36} {:>16} {:<8}  ({why})", m.name, "n/a", m.unit);
                }
            }
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6e}")
    } else {
        format!("{v:.4}")
    }
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// `wanted` metrics, each with its unit. A wanted metric without a value
/// is a benchmark defect and panics.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    report: &Report,
    wanted: &[&str],
) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    )
    .expect("writing to a String cannot fail");
    for (i, name) in wanted.iter().enumerate() {
        let metric = report
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let Reading::Value(v) = metric.reading else {
            panic!("metric {name} has no value on this workload");
        };
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(v),
            metric.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

fn json_number(v: f64) -> String {
    // Rust's shortest round-trip form keeps every digit of the reading.
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_only_the_wanted_metrics_with_units() {
        let mut r = Report::default();
        r.value("latency_ms", "ms", 1.25);
        r.value("setup_s", "s", 3.0);
        r.na("drain_ms", "ms", "no barriers");
        let line = json_line(true, 10, 0, &r, &["latency_ms", "setup_s"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
    }
}
