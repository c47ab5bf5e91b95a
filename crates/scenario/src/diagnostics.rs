//! Scenario diagnostics: the `KS1xx` code family.
//!
//! `*.scn.kalis` files get the same rustc-style treatment as Fig. 6
//! configuration files under `kalis-lint`: every rejection carries a
//! stable code and a source position, rendered with the offending line
//! echoed and a caret under the column. The codes live in their own
//! family (`KS` for *scenario*, vs the lint crate's `KL`) because they
//! describe contract violations of the scenario language, not of the
//! paper's configuration grammar.

use std::fmt;

use kalis_core::config::SourcePos;
use kalis_telemetry::json::write_quoted;

/// Every check the scenario parser can fail, with a stable code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    /// KS100 — the file is not syntactically a section/item document.
    Parse,
    /// KS101 — a section name the scenario language does not define.
    UnknownSection,
    /// KS102 — an item (attack, fault kind, directive) unknown to its
    /// section.
    UnknownItem,
    /// KS103 — a value or parameter of the wrong type, range, or shape.
    BadValue,
    /// KS104 — an expectation name the harness cannot evaluate.
    UnknownExpectation,
    /// KS105 — a `node` override rejected by the configuration linter.
    NodeContract,
    /// KS106 — no (or an empty) `expectations` section: a scenario that
    /// asserts nothing proves nothing.
    NoExpectations,
    /// KS107 — an expectation that the declared topology can never
    /// produce evidence for.
    TopologyMismatch,
    /// KS108 — sections or items that contradict each other.
    Conflict,
}

impl Code {
    /// The stable identifier fixtures pin (`# expect: KS103 @ 4:11`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Parse => "KS100",
            Code::UnknownSection => "KS101",
            Code::UnknownItem => "KS102",
            Code::BadValue => "KS103",
            Code::UnknownExpectation => "KS104",
            Code::NodeContract => "KS105",
            Code::NoExpectations => "KS106",
            Code::TopologyMismatch => "KS107",
            Code::Conflict => "KS108",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One scenario-file rejection. Every code is an error: a scenario
/// either runs exactly as written or does not run at all — silently
/// ignoring part of a file would fake coverage the run never had.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: Code,
    /// The one-line description.
    pub message: String,
    /// The scenario file, when known.
    pub file: Option<String>,
    /// Where in the file, when the rejection has a position.
    pub pos: Option<SourcePos>,
    /// Extra help lines (`did you mean`, valid alternatives).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with no source position (file-level problems).
    pub(crate) fn file_level(code: Code, file: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            message: message.into(),
            file: Some(file.to_owned()),
            pos: None,
            notes: Vec::new(),
        }
    }

    /// A diagnostic anchored at a source position.
    pub fn at(code: Code, file: &str, pos: SourcePos, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            message: message.into(),
            file: Some(file.to_owned()),
            pos: Some(pos),
            notes: Vec::new(),
        }
    }

    /// Attach a help note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Render in the rustc style. When `source` (the file's text) is
    /// given, the offending line is echoed with a caret under the
    /// column:
    ///
    /// ```text
    /// error[KS103]: `drop` must be a probability in [0, 1], got `1.5`
    ///   --> demo.scn.kalis:6:17
    ///    |
    ///  6 |   link (drop = 1.5)
    ///    |                ^
    ///    = help: fault probabilities are per-frame decision rates
    /// ```
    pub fn render(&self, source: Option<&str>) -> String {
        let mut out = format!("error[{}]: {}", self.code, self.message);
        if let (Some(file), Some(pos)) = (&self.file, self.pos) {
            out.push_str(&format!("\n  --> {file}:{pos}"));
            if let Some(line) = source.and_then(|s| s.lines().nth(pos.line.saturating_sub(1))) {
                let gutter = pos.line.to_string();
                let pad = " ".repeat(gutter.len());
                out.push_str(&format!("\n {pad} |"));
                out.push_str(&format!("\n {gutter} | {line}"));
                let spaces = " ".repeat(pos.column.saturating_sub(1));
                out.push_str(&format!("\n {pad} | {spaces}^"));
            }
        } else if let Some(file) = &self.file {
            out.push_str(&format!("\n  --> {file}"));
        }
        for note in &self.notes {
            out.push_str(&format!("\n   = help: {note}"));
        }
        out
    }

    /// One machine-readable JSON object (hand-rolled — the reporting
    /// path takes no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json_field(&mut out, "code", self.code.as_str());
        out.push(',');
        json_field(&mut out, "message", &self.message);
        if let Some(file) = &self.file {
            out.push(',');
            json_field(&mut out, "file", file);
        }
        if let Some(pos) = self.pos {
            out.push_str(&format!(",\"line\":{},\"column\":{}", pos.line, pos.column));
        }
        if !self.notes.is_empty() {
            out.push_str(",\"notes\":[");
            for (i, note) in self.notes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_quoted(note, &mut out);
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Append `"key":"escaped value"` to `out`.
fn json_field(out: &mut String, key: &str, value: &str) {
    write_quoted(key, out);
    out.push(':');
    write_quoted(value, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_echoes_line_with_caret() {
        let text = "scenario = {\n  duration = oops\n}\n";
        let diag = Diagnostic::at(
            Code::BadValue,
            "demo.scn.kalis",
            SourcePos {
                line: 2,
                column: 14,
            },
            "`duration` must be a positive integer of seconds",
        )
        .with_note("e.g. `duration = 90`");
        let rendered = diag.render(Some(text));
        assert!(rendered.starts_with("error[KS103]:"), "{rendered}");
        assert!(rendered.contains("--> demo.scn.kalis:2:14"), "{rendered}");
        assert!(rendered.contains("2 |   duration = oops"), "{rendered}");
        // The caret must sit exactly under column 14 of the echoed line:
        // both the echo line and the caret line share the same 5-char
        // gutter prefix (" 2 | " / "   | ").
        let echo_line = rendered
            .lines()
            .find(|l| l.contains("duration = oops"))
            .expect("echo line");
        let caret_line = rendered
            .lines()
            .find(|l| l.trim_end().ends_with('^'))
            .expect("caret line");
        let gutter = echo_line.find("| ").expect("gutter") + 2;
        assert_eq!(caret_line.find('^'), Some(gutter + 13), "{rendered}");
        assert!(rendered.contains("= help: e.g. `duration = 90`"));
    }

    #[test]
    fn json_escapes_and_carries_position() {
        let diag = Diagnostic::at(
            Code::Parse,
            "a\"b.scn.kalis",
            SourcePos { line: 3, column: 7 },
            "unexpected `\n`",
        );
        let json = diag.to_json();
        assert!(json.contains("\"code\":\"KS100\""), "{json}");
        assert!(json.contains("\"file\":\"a\\\"b.scn.kalis\""), "{json}");
        assert!(json.contains("\"line\":3,\"column\":7"), "{json}");
        assert!(json.contains("\\n"), "{json}");
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let all = [
            Code::Parse,
            Code::UnknownSection,
            Code::UnknownItem,
            Code::BadValue,
            Code::UnknownExpectation,
            Code::NodeContract,
            Code::NoExpectations,
            Code::TopologyMismatch,
            Code::Conflict,
        ];
        let mut seen: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), all.len());
        assert!(seen.iter().all(|s| s.starts_with("KS1")));
    }
}
