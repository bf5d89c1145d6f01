//! Experiment reporting: aligned text tables, paper-vs-measured checks, and
//! the `BENCH_*.json` artifact a full run records.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

use serde_json::{Number, Value};

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being compared (e.g. "P95 latency reduction").
    pub metric: String,
    /// The paper's reported value, as text.
    pub paper: String,
    /// Our measured value, as text.
    pub measured: String,
    /// Whether the measured value preserves the paper's shape.
    pub ok: bool,
}

impl Check {
    /// Builds a check.
    pub fn new(
        metric: &str,
        paper: impl fmt::Display,
        measured: impl fmt::Display,
        ok: bool,
    ) -> Self {
        Self {
            metric: metric.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
            ok,
        }
    }
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        widths
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// A complete experiment report.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Short id, e.g. "fig14".
    pub id: String,
    /// Human title.
    pub title: String,
    /// The regenerated table/series.
    pub table: TextTable,
    /// Paper-vs-measured shape checks.
    pub checks: Vec<Check>,
    /// Free-form notes (calibration, scale substitutions).
    pub notes: Vec<String>,
    /// What a full run records; `None` for quick runs and for experiments
    /// that record nothing.
    pub artifact: Option<Artifact>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            table: TextTable::default(),
            checks: Vec::new(),
            notes: Vec::new(),
            artifact: None,
        }
    }

    /// Whether every check passed.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        writeln!(f)?;
        write!(f, "{}", self.table)?;
        if !self.checks.is_empty() {
            writeln!(f)?;
            let mut t = TextTable::new(&["metric", "paper", "measured", "shape"]);
            for c in &self.checks {
                t.row(vec![
                    c.metric.clone(),
                    c.paper.clone(),
                    c.measured.clone(),
                    if c.ok { "OK".into() } else { "MISMATCH".into() },
                ]);
            }
            write!(f, "{t}")?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

/// A `BENCH_*.json` file at the workspace root: what a full run writes, and
/// what `bench <name> --check` compares a fresh run against.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// File name at the workspace root, e.g. `BENCH_cluster.json`.
    pub file: &'static str,
    /// The results: deterministic numbers only, so a fresh run reproduces
    /// them byte for byte on any host.
    pub json: Value,
}

impl Artifact {
    /// Where the committed copy lives.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(self.file)
    }

    /// The bytes a full run writes.
    pub fn text(&self) -> String {
        render(&self.json)
    }

    /// Compares this fresh result with the committed file; a missing or
    /// unparseable file is an error like any mismatch.
    pub fn check_committed(&self) -> Result<(), String> {
        let committed = std::fs::read_to_string(self.path())
            .map_err(|e| format!("{}: cannot read the committed file: {e}", self.file))?;
        self.check(&committed)
    }

    /// Compares this fresh result with `committed`, the text of the
    /// committed file: it must be exactly what the writer produces, and
    /// byte for byte the fresh result.
    pub fn check(&self, committed: &str) -> Result<(), String> {
        let parsed = serde_json::parse_value(committed)
            .map_err(|e| format!("{}: committed file is unparseable: {e}", self.file))?;
        if let Some(d) = first_diff(committed, &render(&parsed)) {
            return Err(format!("{}: not what a full run writes, {d}", self.file));
        }
        match first_diff(committed, &self.text()) {
            None => Ok(()),
            Some(d) => Err(format!("{} differs from the fresh run, {d}", self.file)),
        }
    }
}

/// Pretty JSON plus a trailing newline: the one artifact format.
fn render(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a Value always serializes") + "\n"
}

/// The first line where `committed` and `fresh` differ, with both sides.
fn first_diff(committed: &str, fresh: &str) -> Option<String> {
    let (want, got): (Vec<&str>, Vec<&str>) =
        (committed.split('\n').collect(), fresh.split('\n').collect());
    let i = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i))?;
    Some(format!(
        "line {}: committed `{}`, fresh `{}`",
        i + 1,
        want.get(i).map_or("<end of file>", |l| l.trim()),
        got.get(i).map_or("<end of file>", |l| l.trim())
    ))
}

/// A JSON object from `(key, value)` pairs.
pub(crate) fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// A JSON unsigned integer.
pub(crate) fn num_u(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// A JSON float.
pub(crate) fn num_f(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["a", "bbbb"]);
        t.row(vec!["xxx".into(), "y".into()]);
        let s = t.to_string();
        assert!(s.contains("| a   | bbbb |"));
        assert!(s.contains("| xxx | y    |"));
    }

    fn artifact(json: Value) -> Artifact {
        Artifact {
            file: "BENCH_test.json",
            json,
        }
    }

    #[test]
    fn the_check_is_byte_exact() {
        let fresh = artifact(obj(vec![("a", num_u(1)), ("b", num_f(0.5))]));
        assert_eq!(fresh.check(&fresh.text()), Ok(()));
        let err = fresh.check(&fresh.text().replace('1', "2")).unwrap_err();
        assert!(
            err.contains("committed `\"a\": 2,`, fresh `\"a\": 1,`"),
            "{err}"
        );
        // Same value, other bytes: not what the writer produces.
        let err = fresh
            .check(&fresh.text().replace("  ", "    "))
            .unwrap_err();
        assert!(err.contains("not what a full run writes"), "{err}");
        let err = fresh.check(fresh.text().trim_end()).unwrap_err();
        assert!(err.contains("<end of file>"), "{err}");
    }

    #[test]
    fn a_missing_or_unparseable_committed_file_fails_the_check() {
        let fresh = artifact(obj(vec![("a", num_u(1))]));
        let err = fresh.check_committed().unwrap_err();
        assert!(err.contains("cannot read the committed file"), "{err}");
        let err = fresh.check("{\"a\": ").unwrap_err();
        assert!(err.contains("unparseable"), "{err}");
    }

    #[test]
    fn report_summarizes_checks() {
        let mut r = ExperimentReport::new("fig1", "test");
        r.checks.push(Check::new("m", "10%", "11%", true));
        assert!(r.all_ok());
        r.checks.push(Check::new("m2", "x", "y", false));
        assert!(!r.all_ok());
        let s = r.to_string();
        assert!(s.contains("MISMATCH") && s.contains("OK"));
    }
}
