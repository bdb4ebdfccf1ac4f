//! Span-carrying diagnostics for the static analyses.
//!
//! The lint pass ([`crate::lints`]) and the `alphonse-check` tool report
//! their findings as [`Diagnostic`] values: an error code, a severity, a
//! one-line message anchored at a source position, and optional notes.
//! Two renderings are provided — a human one with a source excerpt and a
//! caret, and a machine-readable JSON one for CI.

use crate::token::Span;
use std::fmt::Write as _;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is judged wrong: incremental and conventional execution
    /// can observably diverge, or execution cannot terminate.
    Error,
    /// The program is suspicious but may be intentional.
    Warning,
}

impl Severity {
    /// Lowercase label used in both renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding of the static analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`W01`…`W05`, or `E00` for front-end failures).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// One-line description.
    pub message: String,
    /// Anchor position (may be [`Span::NONE`] when unknown).
    pub span: Span,
    /// Additional context lines, each rendered as a `note:`.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Appends a `note:` line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic for humans, excerpting the offending line of
    /// `source` with a caret under the anchor column:
    ///
    /// ```text
    /// warning[W02]: message …
    ///   --> demo.alf:3:12
    ///    |
    ///  3 |     RETURN (*UNCHECKED*) rate * n;
    ///    |            ^
    ///    = note: …
    /// ```
    pub fn render(&self, file: &str, source: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}[{}]: {}",
            self.severity.label(),
            self.code,
            self.message
        );
        if self.span.is_known() {
            let _ = writeln!(out, "  --> {file}:{}", self.span);
            if let Some(text) = source.lines().nth(self.span.line as usize - 1) {
                let line_no = self.span.line.to_string();
                let gutter = " ".repeat(line_no.len());
                let _ = writeln!(out, " {gutter} |");
                let _ = writeln!(out, " {line_no} | {text}");
                let caret_pad = " ".repeat(self.span.col.saturating_sub(1) as usize);
                let _ = writeln!(out, " {gutter} | {caret_pad}^");
            }
        } else {
            let _ = writeln!(out, "  --> {file}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "   = note: {note}");
        }
        out
    }

    /// Renders the diagnostic as one JSON object.
    pub fn to_json(&self, file: &str) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"code\":{},\"severity\":{},\"message\":{},\"file\":{},\"line\":{},\"col\":{},",
            json_str(self.code),
            json_str(self.severity.label()),
            json_str(&self.message),
            json_str(file),
            self.span.line,
            self.span.col
        );
        out.push_str("\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(n));
        }
        out.push_str("]}");
        out
    }
}

/// Sorts diagnostics into the stable reporting order: by position, then
/// severity (errors first), then code, then message.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.span, a.severity, a.code, &a.message).cmp(&(b.span, b.severity, b.code, &b.message))
    });
}

/// Renders a whole report as a JSON document:
/// `{"file": …, "diagnostics": [...], "errors": n, "warnings": n}`.
pub fn report_json(file: &str, diags: &[Diagnostic]) -> String {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    let body: Vec<String> = diags.iter().map(|d| d.to_json(file)).collect();
    format!(
        "{{\"file\":{},\"diagnostics\":[{}],\"errors\":{errors},\"warnings\":{warnings}}}",
        json_str(file),
        body.join(",")
    )
}

/// Escapes `s` as a JSON string literal (quotes included).
pub(crate) fn json_str(s: &str) -> String {
    format!("\"{}\"", alphonse::trace::json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_excerpts_the_line_with_a_caret() {
        let src = "VAR g : INTEGER;\nPROCEDURE F() : INTEGER =\nBEGIN RETURN g; END F;\n";
        let d = Diagnostic::warning("W02", Span::new(3, 14), "read of mutable `g`")
            .with_note("g is written by Mutator");
        let r = d.render("demo.alf", src);
        assert!(r.contains("warning[W02]: read of mutable `g`"), "{r}");
        assert!(r.contains("--> demo.alf:3:14"), "{r}");
        assert!(r.contains(" 3 | BEGIN RETURN g; END F;"), "{r}");
        assert!(r.contains("   |              ^"), "{r}");
        assert!(r.contains("= note: g is written by Mutator"), "{r}");
    }

    #[test]
    fn unknown_spans_render_without_excerpt() {
        let d = Diagnostic::error("E00", Span::NONE, "boom");
        let r = d.render("x.alf", "line");
        assert!(r.contains("error[E00]: boom"), "{r}");
        assert!(!r.contains('^'), "{r}");
    }

    #[test]
    fn json_is_escaped_and_counted() {
        let d = Diagnostic::error("W05", Span::new(1, 2), "cycle \"a\"\n");
        let j = report_json("p.alf", &[d]);
        assert!(j.contains(r#""message":"cycle \"a\"\n""#), "{j}");
        assert!(j.contains(r#""errors":1,"warnings":0"#), "{j}");
    }

    #[test]
    fn sort_orders_by_position_then_severity() {
        let mut ds = vec![
            Diagnostic::warning("W04", Span::new(2, 1), "b"),
            Diagnostic::error("W01", Span::new(2, 1), "a"),
            Diagnostic::warning("W03", Span::new(1, 9), "c"),
        ];
        sort(&mut ds);
        let codes: Vec<_> = ds.iter().map(|d| d.code).collect();
        assert_eq!(codes, ["W03", "W01", "W04"]);
    }
}
