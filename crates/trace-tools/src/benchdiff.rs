//! Comparison of two bench-table JSON files (`BENCH_<id>.json`).
//!
//! Every experiment in `crates/bench` serializes its result table as
//! `{"title": …, "rows": [{header: cell, …}, …]}` (see `Table::to_json`),
//! with numeric cells as JSON numbers and descriptive cells (workload
//! names, modes) as strings. This module reads two such files — a baseline
//! and a candidate — matches rows by their string cells, and reports the
//! percent change of every numeric column, flagging changes in the
//! *bad* direction as regressions:
//!
//! * columns whose header suggests a rate (`…/s`, `throughput`, `speedup`,
//!   `hits`) regress when they **drop**;
//! * everything else (times, byte counts, work counters) regresses when it
//!   **grows**.
//!
//! `alphonse-trace bench-diff a.json b.json --threshold 5` exits nonzero
//! when any column regresses by more than 5%, which is how CI gates a perf
//! trajectory without bespoke per-experiment scripting.

use crate::json::Json;
use std::fmt::Write as _;

/// One cell of a bench table: numbers diff, strings identify the row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A measured quantity.
    Num(f64),
    /// A descriptive label (workload, mode, unit); part of the row key.
    Str(String),
}

/// A parsed bench table: title plus rows of `(header, cell)` pairs in
/// document order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTable {
    /// The experiment's title line.
    pub title: String,
    /// Rows in document order; each row keeps its columns in order.
    pub rows: Vec<Vec<(String, Cell)>>,
}

impl BenchTable {
    /// Parses one `BENCH_<id>.json` document.
    pub fn parse(text: &str) -> Result<BenchTable, String> {
        let doc = Json::parse(text)?;
        let title = doc
            .get("title")
            .and_then(Json::as_str)
            .ok_or("not a bench table (no `title` string)")?
            .to_string();
        let mut rows = Vec::new();
        for (i, row) in doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("not a bench table (no `rows` array)")?
            .iter()
            .enumerate()
        {
            let Json::Obj(fields) = row else {
                return Err(format!("row {i} is not an object"));
            };
            let mut cells = Vec::with_capacity(fields.len());
            for (header, v) in fields {
                let cell = match v {
                    Json::Num(n) => Cell::Num(*n),
                    Json::Str(s) => Cell::Str(s.clone()),
                    other => return Err(format!("row {i} `{header}`: unsupported cell {other:?}")),
                };
                cells.push((header.clone(), cell));
            }
            rows.push(cells);
        }
        Ok(BenchTable { title, rows })
    }

    /// The identity of a row: its string cells joined with ` / `, so the
    /// same workload/mode matches across files even if row order or the
    /// measured numbers changed. Rows with no string cells fall back to
    /// their position.
    fn row_key(row: &[(String, Cell)], index: usize) -> String {
        let parts: Vec<&str> = row
            .iter()
            .filter_map(|(_, c)| match c {
                Cell::Str(s) => Some(s.as_str()),
                Cell::Num(_) => None,
            })
            .collect();
        if parts.is_empty() {
            format!("row {index}")
        } else {
            parts.join(" / ")
        }
    }
}

/// Whether a larger value of this column is an improvement, decided by
/// the unit suffix first and the stem only when the header has no time
/// unit:
///
/// - a rate improves upward: the header ends in `/s`, `_s` or `per_sec`.
///   `_s` is read as "per second" (`kwrites_s`, `waves_s`), because the
///   tables spell durations `_us`, `_ms` or `_ns`;
/// - a duration improves downward: any `_`/`/`-separated part of the
///   header is `us`, `ms` or `ns` (`hits_us`, `set_us/wave`,
///   `ns/update`), whatever its stem says;
/// - otherwise throughput, speedup and hit counts (`cache_hits`) improve
///   upward, and byte counts and work counters downward.
fn higher_is_better(header: &str) -> bool {
    let h = header.to_ascii_lowercase();
    if h.ends_with("/s") || h.ends_with("_s") || h.ends_with("per_sec") {
        return true;
    }
    if h.split(['_', '/'])
        .any(|part| matches!(part, "us" | "ms" | "ns"))
    {
        return false;
    }
    h.contains("throughput") || h.contains("speedup") || h.contains("hit")
}

/// One numeric column's change between baseline and candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct ColDelta {
    /// Column header.
    pub header: String,
    /// Baseline value.
    pub before: f64,
    /// Candidate value.
    pub after: f64,
    /// Percent change, `(after - before) / before * 100`; `None` when the
    /// baseline is zero (no meaningful percentage).
    pub pct: Option<f64>,
    /// Direction sense for regression classification.
    pub higher_is_better: bool,
}

impl ColDelta {
    /// Percent change in the *bad* direction: positive when the column got
    /// worse, regardless of its direction sense.
    pub fn regression_pct(&self) -> f64 {
        match self.pct {
            Some(p) if self.higher_is_better => -p,
            Some(p) => p,
            None => 0.0,
        }
    }
}

/// One matched row's numeric deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct RowDiff {
    /// The row identity (string cells joined).
    pub key: String,
    /// Per-column changes, in column order.
    pub cols: Vec<ColDelta>,
}

/// The full comparison of two bench tables.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Baseline title.
    pub before_title: String,
    /// Candidate title.
    pub after_title: String,
    /// Matched rows in candidate order.
    pub rows: Vec<RowDiff>,
    /// Row keys present only in the baseline.
    pub only_before: Vec<String>,
    /// Row keys present only in the candidate.
    pub only_after: Vec<String>,
}

/// Compares `after` (candidate) against `before` (baseline), matching rows
/// by key and diffing every numeric column the two sides share.
pub fn diff(before: &BenchTable, after: &BenchTable) -> DiffReport {
    let keyed_before: Vec<(String, &Vec<(String, Cell)>)> = before
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| (BenchTable::row_key(r, i), r))
        .collect();
    let mut matched_before: Vec<bool> = vec![false; keyed_before.len()];
    let mut rows = Vec::new();
    let mut only_after = Vec::new();
    for (i, row) in after.rows.iter().enumerate() {
        let key = BenchTable::row_key(row, i);
        // Rows sharing a key (E14's `scaling` column repeats) pair up in
        // order of occurrence.
        let Some(bi) = keyed_before
            .iter()
            .zip(&matched_before)
            .position(|((k, _), &m)| !m && *k == key)
        else {
            only_after.push(key);
            continue;
        };
        matched_before[bi] = true;
        let base = keyed_before[bi].1;
        let mut cols = Vec::new();
        for (header, cell) in row {
            let Cell::Num(a) = cell else { continue };
            let Some(Cell::Num(b)) = base
                .iter()
                .find(|(h, _)| h == header)
                .map(|(_, c)| c.clone())
            else {
                continue;
            };
            let pct = (b != 0.0).then(|| (a - b) / b * 100.0);
            cols.push(ColDelta {
                header: header.clone(),
                before: b,
                after: *a,
                pct,
                higher_is_better: higher_is_better(header),
            });
        }
        rows.push(RowDiff { key, cols });
    }
    let only_before = keyed_before
        .iter()
        .zip(&matched_before)
        .filter(|(_, m)| !**m)
        .map(|((k, _), _)| k.clone())
        .collect();
    DiffReport {
        before_title: before.title.clone(),
        after_title: after.title.clone(),
        rows,
        only_before,
        only_after,
    }
}

impl DiffReport {
    /// The largest bad-direction change across all rows and columns, in
    /// percent (0 when nothing regressed).
    pub fn worst_regression_pct(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| r.cols.iter())
            .map(ColDelta::regression_pct)
            .fold(0.0, f64::max)
    }

    /// Renders the human-readable comparison. Each matched row lists its
    /// numeric columns as `before → after (±pct%)`, tagging bad-direction
    /// changes beyond `threshold` percent with `REGRESSION`.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# bench-diff: {} → {}",
            self.before_title, self.after_title
        );
        for row in &self.rows {
            let _ = writeln!(out, "\n## {}", row.key);
            for c in &row.cols {
                let change = match c.pct {
                    Some(p) => format!("{p:+.1}%"),
                    None => "baseline 0".to_string(),
                };
                let flag = if c.regression_pct() > threshold {
                    "  REGRESSION"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{:<24} {} → {} ({change}){flag}",
                    c.header,
                    fmt_num(c.before),
                    fmt_num(c.after),
                );
            }
        }
        for key in &self.only_before {
            let _ = writeln!(out, "\nonly in baseline: {key}");
        }
        for key in &self.only_after {
            let _ = writeln!(out, "\nonly in candidate: {key}");
        }
        let worst = self.worst_regression_pct();
        let _ = writeln!(
            out,
            "\nworst regression: {worst:.1}% (threshold {threshold:.1}%)"
        );
        out
    }
}

/// Formats a measured value compactly: integers stay integral, fractions
/// keep three significant decimals.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "title": "E1 chain",
      "rows": [
        {"workload": "chain", "mode": "incremental", "ns/update": 100, "updates/s": 1000},
        {"workload": "chain", "mode": "scratch", "ns/update": 500, "updates/s": 200}
      ]
    }"#;

    #[test]
    fn parses_and_keys_rows() {
        let t = BenchTable::parse(BASE).unwrap();
        assert_eq!(t.title, "E1 chain");
        assert_eq!(t.rows.len(), 2);
        assert_eq!(BenchTable::row_key(&t.rows[0], 0), "chain / incremental");
    }

    #[test]
    fn clean_diff_has_no_regression() {
        let t = BenchTable::parse(BASE).unwrap();
        let d = diff(&t, &t);
        assert_eq!(d.rows.len(), 2);
        assert_eq!(d.worst_regression_pct(), 0.0);
        let rendered = d.render(5.0);
        assert!(rendered.contains("chain / incremental"));
        assert!(!rendered.contains("REGRESSION"));
    }

    #[test]
    fn injected_regression_is_flagged_with_direction_sense() {
        let t = BenchTable::parse(BASE).unwrap();
        // Candidate: latency up 20% (bad), rate up 20% (good).
        let cand = BenchTable::parse(
            r#"{
          "title": "E1 chain",
          "rows": [
            {"workload": "chain", "mode": "incremental", "ns/update": 120, "updates/s": 1200},
            {"workload": "chain", "mode": "scratch", "ns/update": 500, "updates/s": 200}
          ]
        }"#,
        )
        .unwrap();
        let d = diff(&t, &cand);
        let worst = d.worst_regression_pct();
        assert!((worst - 20.0).abs() < 1e-9, "worst = {worst}");
        let rendered = d.render(5.0);
        assert!(rendered.contains("REGRESSION"));
        // The improved rate must NOT be flagged.
        let rate_line = rendered.lines().find(|l| l.contains("updates/s")).unwrap();
        assert!(!rate_line.contains("REGRESSION"), "got: {rate_line}");
    }

    #[test]
    fn dropped_rate_regresses() {
        let t = BenchTable::parse(BASE).unwrap();
        let cand = BenchTable::parse(
            r#"{
          "title": "E1 chain",
          "rows": [
            {"workload": "chain", "mode": "incremental", "ns/update": 100, "updates/s": 800}
          ]
        }"#,
        )
        .unwrap();
        let d = diff(&t, &cand);
        assert!((d.worst_regression_pct() - 20.0).abs() < 1e-9);
        assert_eq!(d.only_before, vec!["chain / scratch".to_string()]);
    }

    #[test]
    fn unmatched_rows_are_reported_not_diffed() {
        let t = BenchTable::parse(BASE).unwrap();
        let cand = BenchTable::parse(
            r#"{"title": "E1 chain", "rows": [
              {"workload": "tree", "mode": "incremental", "ns/update": 1}
            ]}"#,
        )
        .unwrap();
        let d = diff(&t, &cand);
        assert!(d.rows.is_empty());
        assert_eq!(d.only_after, vec!["tree / incremental".to_string()]);
        assert_eq!(d.only_before.len(), 2);
        assert_eq!(d.worst_regression_pct(), 0.0);
    }

    #[test]
    fn zero_baseline_is_not_a_percentage() {
        let base =
            BenchTable::parse(r#"{"title": "t", "rows": [{"w": "x", "count": 0}]}"#).unwrap();
        let cand =
            BenchTable::parse(r#"{"title": "t", "rows": [{"w": "x", "count": 7}]}"#).unwrap();
        let d = diff(&base, &cand);
        assert_eq!(d.rows[0].cols[0].pct, None);
        assert_eq!(d.worst_regression_pct(), 0.0);
        assert!(d.render(5.0).contains("baseline 0"));
    }

    #[test]
    fn time_unit_suffix_beats_hit_stem() {
        // E8's hit-path latency: slower is worse despite the "hit" stem.
        assert!(!higher_is_better("hits_us"));
        assert!(higher_is_better("cache_hits"));
    }

    #[test]
    fn underscore_s_suffix_is_a_rate() {
        // E14 and E15 throughput columns.
        assert!(higher_is_better("kwrites_s"));
        assert!(higher_is_better("waves_s"));
        assert!(higher_is_better("knodes/s"));
        assert!(!higher_is_better("set_us/wave"));
        assert!(!higher_is_better("elapsed_ms"));
    }

    #[test]
    fn slower_hits_and_fewer_kwrites_regress() {
        let base = BenchTable::parse(
            r#"{"title": "t", "rows": [{"w": "x", "hits_us": 10, "kwrites_s": 100}]}"#,
        )
        .unwrap();
        let cand = BenchTable::parse(
            r#"{"title": "t", "rows": [{"w": "x", "hits_us": 15, "kwrites_s": 50}]}"#,
        )
        .unwrap();
        let d = diff(&base, &cand);
        let worst = d.worst_regression_pct();
        assert!((worst - 50.0).abs() < 1e-9, "worst = {worst}");
        for col in &d.rows[0].cols {
            assert!(col.regression_pct() > 0.0, "{} not flagged", col.header);
        }
    }

    #[test]
    fn rows_with_repeated_keys_pair_in_order() {
        let t = BenchTable::parse(
            r#"{"title": "t", "rows": [
              {"scaling": "1.00x", "threads": 1},
              {"scaling": "1.00x", "threads": 2}
            ]}"#,
        )
        .unwrap();
        let d = diff(&t, &t);
        assert_eq!(d.rows.len(), 2);
        assert!(d.only_before.is_empty());
        assert_eq!(d.worst_regression_pct(), 0.0);
    }

    #[test]
    fn rejects_non_table_documents() {
        assert!(BenchTable::parse("{}").is_err());
        assert!(BenchTable::parse(r#"{"title": "t"}"#).is_err());
        assert!(BenchTable::parse(r#"{"title": "t", "rows": [3]}"#).is_err());
    }
}
