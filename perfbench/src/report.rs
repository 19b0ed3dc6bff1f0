//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` at the repository root declares every metric name and
//! unit of the result line; it is compiled in and read here, so the list
//! lives in one place.

use std::fmt::Write as _;

/// The repository's benchmark description.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` entries of the list `key` of `BENCHMARK.json`
/// (`"end_to_end"`, `"per_layer"` or `"workloads"`, whose unit is empty),
/// in file order. The file is the repository's own, with one flat object
/// per entry and no quote, brace or bracket inside a string.
pub fn declared(key: &str) -> Vec<(String, String)> {
    let at = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let list = &BENCHMARK_JSON[at..];
    let list = &list[..list.find(']').expect("the list is closed")];
    let field = |entry: &str, name: &str| -> String {
        entry
            .split_once(&format!("\"{name}\""))
            .and_then(|(_, rest)| rest.split('"').nth(1))
            .unwrap_or("")
            .to_string()
    };
    list.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[cfg(test)]
/// True if `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    unit: String,
    value: f64,
    /// Samples behind the value, for timings and counts drawn from a set.
    samples: Option<usize>,
    /// Free-form provenance printed next to the value.
    note: String,
}

/// The metrics of one run, in the order `BENCHMARK.json` declares them.
pub struct Metrics {
    table: Vec<(String, String)>,
    entries: Vec<Entry>,
}

impl Metrics {
    /// An empty set for the list `key` of `BENCHMARK.json` (`"end_to_end"`
    /// or `"per_layer"`).
    pub fn new(key: &str) -> Self {
        Metrics {
            table: declared(key),
            entries: Vec::new(),
        }
    }

    /// Records `name` (which must be declared in the list) with `value`.
    pub fn set(&mut self, name: &str, value: f64, samples: Option<usize>, note: impl Into<String>) {
        let (name, unit) = self
            .table
            .iter()
            .find(|(n, _)| n == name)
            .cloned()
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.entries.retain(|e| e.name != name);
        self.entries.push(Entry {
            name,
            unit,
            value,
            samples,
            note: note.into(),
        });
    }

    /// Declared names that were never set, or hold no finite value.
    pub fn missing(&self) -> Vec<&str> {
        self.table
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| {
                !self
                    .entries
                    .iter()
                    .any(|e| e.name == *n && e.value.is_finite())
            })
            .collect()
    }

    /// Human-readable lines, one per metric, with sample counts and notes.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, _) in &self.table {
            if let Some(e) = self.entries.iter().find(|e| &e.name == name) {
                let _ = write!(out, "metric {:<36} {:>16} {:<14}", e.name, e.value, e.unit);
                if let Some(n) = e.samples {
                    let _ = write!(out, " n={n}");
                }
                if !e.note.is_empty() {
                    let _ = write!(out, "  {}", e.note);
                }
                out.push('\n');
            }
        }
        out
    }

    /// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for (name, _) in &self.table {
            if let Some(e) = self.entries.iter().find(|e| &e.name == name) {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(
                    out,
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    e.name,
                    json_number(e.value),
                    e.unit
                );
            }
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// JSON has no non-finite numbers; [`Metrics::missing`] keeps those out of
/// a result line, and here they become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Quotes a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The note printed with a layer difference: the two rungs it is made of,
/// with their values, so a difference is never read without its bases.
pub fn difference_note(upper: (&str, f64), lower: (&str, f64)) -> String {
    format!(
        "= {} ({}) - {} ({})",
        upper.0,
        json_number(upper.1),
        lower.0,
        json_number(lower.1)
    )
}

/// The note printed with a ratio: numerator and denominator with values.
pub fn ratio_note(num: (&str, f64), den: (&str, f64)) -> String {
    format!(
        "= {} ({}) / {} ({})",
        num.0,
        json_number(num.1),
        den.0,
        json_number(den.1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_is_legal_and_unique() {
        for key in ["end_to_end", "per_layer", "workloads"] {
            let table = declared(key);
            assert!(!table.is_empty(), "{key}");
            for (i, (name, unit)) in table.iter().enumerate() {
                assert!(valid_name(name), "{name}");
                assert!(unit.len() <= 16, "{unit}");
                assert!(key == "workloads" || !unit.is_empty(), "{name} has no unit");
                assert!(
                    table[i + 1..].iter().all(|(n, _)| n != name),
                    "{name} twice"
                );
            }
        }
        assert!(valid_name("a.b-c_9"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name(""));
    }

    #[test]
    fn the_declared_lists_are_read_in_file_order() {
        let e2e = declared("end_to_end");
        assert_eq!(
            e2e[0],
            ("protect_cpu_ratio".to_string(), "ratio".to_string())
        );
        assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
        let layers = declared("per_layer");
        assert_eq!(layers[0].0, "sparse.spmv_ns");
        assert_eq!(layers.last().unwrap().0, "repeat.net_retransmits_spread");
        // Every listed workload runs here.
        let workloads = declared("workloads");
        assert!(workloads.len() >= 2);
        assert!(workloads
            .iter()
            .all(|(w, _)| crate::WORKLOADS.contains(&w.as_str())));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_name_cannot_be_printed() {
        Metrics::new("end_to_end").set("solve_s_p99", 1.0, None, "");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new("end_to_end");
        let table = declared("end_to_end");
        for (i, (name, _)) in table.iter().enumerate() {
            m.set(name, 0.125 + i as f64, Some(3), "");
        }
        assert!(m.missing().is_empty());
        let line = m.result_json(true, 4, 0);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"protect_cpu_ratio\": {\"value\": 0.125, \"unit\": \"ratio\"}"));
        assert!(line.ends_with("}}"));
        assert_eq!(line.matches("\"value\"").count(), table.len());
    }

    #[test]
    fn missing_metrics_are_reported() {
        let mut m = Metrics::new("end_to_end");
        m.set("setup_s", 1.0, None, "");
        m.set("protect_cpu_ratio", f64::NAN, None, "");
        assert_eq!(m.missing().len(), declared("end_to_end").len() - 1);
        assert!(!m.missing().contains(&"setup_s"));
        assert!(m.missing().contains(&"protect_cpu_ratio"));
    }

    #[test]
    fn ladder_differences_are_printed_with_their_bases() {
        let note = difference_note(("ladder.trivial_1w_s", 0.25), ("ladder.ideal_s", 0.125));
        assert_eq!(
            note,
            "= ladder.trivial_1w_s (0.25) - ladder.ideal_s (0.125)"
        );
        let mut m = Metrics::new("per_layer");
        m.set("layer.protect_s", 0.125, Some(5), note);
        let lines = m.lines();
        assert!(lines.contains("layer.protect_s"));
        assert!(lines.contains("ladder.trivial_1w_s (0.25)"));
        assert!(lines.contains("ladder.ideal_s (0.125)"));
        let ratio = ratio_note(("ladder.afeir_s", 3.0), ("ladder.ideal_s", 2.0));
        assert_eq!(ratio, "= ladder.afeir_s (3.0) / ladder.ideal_s (2.0)");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
