//! Markdown-ish table rendering for experiment output.

use alphonse::trace::json_escape;
use alphonse::HistogramSnapshot;
use std::fmt;

/// Renders quantile readouts of a latency histogram as table cells: one
/// cell per `q`, each `h.percentile(q) / per_unit` with one decimal (pass
/// `per_unit = 1e3` for ns→µs, `1.0` for histograms already in the target
/// unit). An empty histogram renders `-` cells so a metrics-off build still
/// produces well-formed rows.
pub fn percentile_cells(h: &HistogramSnapshot, qs: &[f64], per_unit: f64) -> Vec<String> {
    qs.iter()
        .map(|&q| {
            if h.count() == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", h.percentile(q) as f64 / per_unit)
            }
        })
        .collect()
}

/// A printable experiment result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id + claim, printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// The merged metrics snapshot of the run, as its JSON document, for
    /// experiments that keep one (`alphonse-trace metrics` reads it).
    pub metrics: Option<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            metrics: None,
        }
    }

    /// Appends a row (stringifies each cell).
    pub fn row<T: fmt::Display>(&mut self, cells: &[T]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Appends a pre-stringified row.
    pub fn row_strings(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Serializes the table as JSON: the title plus one object per row
    /// keyed by column header. Cells that parse as numbers are emitted as
    /// JSON numbers so downstream tooling can chart the perf trajectory.
    /// Hand-rolled because the workspace builds offline without serde.
    pub fn to_json(&self) -> String {
        fn cell_value(s: &str) -> String {
            if let Ok(v) = s.parse::<i64>() {
                return v.to_string();
            }
            if let Ok(v) = s.parse::<f64>() {
                if v.is_finite() {
                    return format!("{v}");
                }
            }
            format!("\"{}\"", json_escape(s))
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"title\": \"{}\",\n", json_escape(&self.title)));
        out.push_str("  \"rows\": [\n");
        for (ri, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            for (ci, (header, cell)) in self.headers.iter().zip(row).enumerate() {
                if ci > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "\"{}\": {}",
                    json_escape(header),
                    cell_value(cell)
                ));
            }
            out.push('}');
            if ri + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl Table {
    /// Writes the table to `BENCH_<id>.json` in the current directory and,
    /// when the run kept a metrics snapshot, that snapshot to
    /// `METRICS_<id>.json` beside it, naming each file on stderr. A sidecar
    /// is only ever written with its table, so the two always come from
    /// the same run.
    ///
    /// # Panics
    ///
    /// Panics if a file cannot be written.
    pub fn write_files(&self, id: &str) {
        let table = self.to_json();
        let sidecar = (self.metrics.as_deref()).map(|m| (format!("METRICS_{id}.json"), m));
        for (path, body) in std::iter::once((format!("BENCH_{id}.json"), &*table)).chain(sidecar) {
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:>width$} |", c, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("E0 — demo", &["n", "work"]);
        t.row(&[1, 10]);
        t.row(&[100, 2000]);
        let s = t.to_string();
        assert!(s.contains("## E0 — demo"));
        assert!(s.contains("|   n | work |"));
        assert!(s.contains("| 100 | 2000 |"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_is_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&[1]);
    }

    #[test]
    fn percentile_cells_scale_and_handle_empty() {
        let h = alphonse::Histogram::new();
        assert_eq!(
            percentile_cells(&h.snapshot(), &[0.5, 0.99], 1e3),
            vec!["-", "-"]
        );
        for _ in 0..100 {
            h.record(2_000);
        }
        let cells = percentile_cells(&h.snapshot(), &[0.5, 1.0], 1e3);
        // 2000 ns = 2 µs, up to one log-bucket of quantization.
        for c in &cells {
            let v: f64 = c.parse().unwrap();
            assert!((2.0..=2.7).contains(&v), "cell {c} out of range");
        }
    }
}
