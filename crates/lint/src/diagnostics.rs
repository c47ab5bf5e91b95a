//! Diagnostic codes, severities, and rendering (rustc-style text and a
//! line-oriented JSON mode for CI consumption).

use core::fmt;

use kalis_core::config::SourcePos;
use kalis_telemetry::json::write_quoted;

/// Every check `kalis-lint` can report.
///
/// `KL0xx` codes come from the whole-system contract analysis (no source
/// file); `KL1xx` codes come from validating one configuration file;
/// `KL2xx` codes come from the knowledge dataflow-graph analysis (no
/// source file); `KL3xx` codes come from the source-invariant scanner
/// (spans into `.rs` files).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// A contract read with no producer anywhere in the module library.
    OrphanRead,
    /// Reader and writer of the same key disagree on the value type.
    TypeMismatch,
    /// An orphan read within small edit distance of a produced key — a
    /// likely typo.
    NearMissKey,
    /// A write no contract ever reads (and not marked exported).
    DeadWrite,
    /// Two modules write overlapping keys with incompatible types.
    ConflictingWriters,
    /// A module none of whose activation inputs has a producer: it can
    /// never activate, no matter the traffic.
    NeverActivatable,
    /// The configuration file does not parse (Fig. 6 grammar).
    ConfigParse,
    /// A configured module name is not in the registry.
    UnknownModule,
    /// A parameter value fails its declared type or range.
    BadParamValue,
    /// A parameter key the module does not declare.
    UnknownParam,
    /// An a-priori knowgget key no registered contract mentions.
    UnknownKnowgget,
    /// An a-priori knowgget value the reading contracts reject.
    KnowggetTypeMismatch,
    /// In the scope of this configuration's module set, a read has no
    /// producer (missing sensing module or a-priori knowgget).
    UnsatisfiedRead,
    /// An a-priori knowgget value outside the bounds a reading contract
    /// declares (e.g. `Trace.SampleRate` outside `[0, 1]`).
    KnowggetOutOfRange,
    /// A collective (peer-synchronized) write that no contract anywhere
    /// reads: sync bandwidth spent on knowledge nobody consumes.
    SyncWithoutConsumer,
    /// An exported key no module reads back — inventory of the
    /// operator-facing export surface (suppressed per key with a
    /// contract-level `allow`).
    ExportNeverRead,
    /// A write→read cycle through at least one activation input: the
    /// modules can switch each other on and off indefinitely.
    ActivationCycle,
    /// A detection module with no knowledge path back to any sensing
    /// writer (or the node contract): its inputs can only ever come
    /// from other unreachable modules.
    UnreachableDetection,
    /// Writer and reader of a shared per-entity key declare
    /// inconsistent `entity_budget`s (or one side declares none).
    EntityBudgetMismatch,
    /// A detection module whose descriptor declares no needed feature:
    /// the Module Manager cannot tell which knowledge its `required()`
    /// reads, so it re-evaluates the module on every knowledge change.
    WildcardSubscriber,
    /// A module whose descriptor needs a medium feature but reads no
    /// frame class that medium carries: routing never hands it a frame
    /// of the network portion that switches it on.
    NeededMediumUnread,
    /// A raw `HashMap`/`BTreeMap`/entity-keyed `Vec` in detection or
    /// sensing code outside `kalis_core::bounded` — unbounded
    /// per-entity state under adversarial cardinality.
    RawPerEntityState,
    /// Wall-clock (`Instant::now`/`SystemTime::now`) on the dispatch
    /// hot path — breaks time-compressed deterministic replay.
    WallClockOnHotPath,
    /// A `format!`-built knowgget key instead of typed `Key::scoped`.
    FormattedKnowggetKey,
    /// `unwrap()`/`expect()` in a module dispatch path — dispatch must
    /// not panic (the supervisor quarantines crash-looping modules).
    PanicInDispatchPath,
    /// Iteration over a std `HashMap`/`HashSet` in node, telemetry or
    /// scenario code — its order differs from process to process, and
    /// an order that reaches output breaks byte-identical runs.
    HashIterationOrder,
}

impl Code {
    /// The stable `KLxxx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::OrphanRead => "KL001",
            Code::TypeMismatch => "KL002",
            Code::NearMissKey => "KL003",
            Code::DeadWrite => "KL004",
            Code::ConflictingWriters => "KL005",
            Code::NeverActivatable => "KL006",
            Code::ConfigParse => "KL100",
            Code::UnknownModule => "KL101",
            Code::BadParamValue => "KL102",
            Code::UnknownParam => "KL103",
            Code::UnknownKnowgget => "KL104",
            Code::KnowggetTypeMismatch => "KL105",
            Code::UnsatisfiedRead => "KL106",
            Code::KnowggetOutOfRange => "KL107",
            Code::SyncWithoutConsumer => "KL201",
            Code::ExportNeverRead => "KL202",
            Code::ActivationCycle => "KL203",
            Code::UnreachableDetection => "KL204",
            Code::EntityBudgetMismatch => "KL205",
            Code::WildcardSubscriber => "KL206",
            Code::NeededMediumUnread => "KL207",
            Code::RawPerEntityState => "KL301",
            Code::WallClockOnHotPath => "KL302",
            Code::FormattedKnowggetKey => "KL303",
            Code::PanicInDispatchPath => "KL304",
            Code::HashIterationOrder => "KL305",
        }
    }

    /// The severity this code reports at.
    pub fn severity(self) -> Severity {
        match self {
            Code::DeadWrite
            | Code::UnknownParam
            | Code::ExportNeverRead
            | Code::WildcardSubscriber => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether a diagnostic fails the lint run (`kalis-lint` exits non-zero
/// only when at least one error is present).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but tolerated.
    Warning,
    /// A contract violation; the lint run fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding, with an optional source location and follow-up notes.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: Code,
    /// Error or warning (derived from the code).
    pub severity: Severity,
    /// The one-line description.
    pub message: String,
    /// The configuration file, for `KL1xx` findings.
    pub file: Option<String>,
    /// Position of the offending token within `file`.
    pub pos: Option<SourcePos>,
    /// `help:`/`note:` follow-up lines (e.g. "did you mean …").
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A system-level diagnostic (no source file).
    pub fn system(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            file: None,
            pos: None,
            notes: Vec::new(),
        }
    }

    /// A diagnostic anchored at a position in a configuration file.
    pub fn at(code: Code, file: &str, pos: SourcePos, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            file: Some(file.to_owned()),
            pos: Some(pos),
            notes: Vec::new(),
        }
    }

    /// Attach a `help:` note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Render in the rustc style. When `source` (the file's text) is
    /// given, the offending line is echoed with a caret under the column.
    ///
    /// ```text
    /// error[KL104]: unknown knowgget key `Mutlihop`
    ///   --> net.kalis:7:3
    ///    |
    ///  7 |   Mutlihop = true
    ///    |   ^
    ///    = help: did you mean `Multihop`?
    /// ```
    pub fn render(&self, source: Option<&str>) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if let (Some(file), Some(pos)) = (&self.file, self.pos) {
            out.push_str(&format!("\n  --> {file}:{pos}"));
            if let Some(line) = source.and_then(|s| s.lines().nth(pos.line.saturating_sub(1))) {
                let gutter = pos.line.to_string();
                let pad = " ".repeat(gutter.len());
                out.push_str(&format!("\n {pad}|\n {gutter}| {line}"));
                out.push_str(&format!(
                    "\n {pad}| {}^",
                    " ".repeat(pos.column.saturating_sub(1))
                ));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("\n   = help: {note}"));
        }
        out
    }

    /// Render as one JSON object (`--json` mode). Hand-rolled because the
    /// workspace is offline and deliberately carries no JSON dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json_field(&mut out, "code", self.code.as_str());
        out.push(',');
        json_field(&mut out, "severity", &self.severity.to_string());
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

fn json_field(out: &mut String, key: &str, value: &str) {
    write_quoted(key, out);
    out.push(':');
    write_quoted(value, out);
}

/// Whether any diagnostic is an error (the process exit criterion).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            Code::OrphanRead,
            Code::TypeMismatch,
            Code::NearMissKey,
            Code::DeadWrite,
            Code::ConflictingWriters,
            Code::NeverActivatable,
            Code::ConfigParse,
            Code::UnknownModule,
            Code::BadParamValue,
            Code::UnknownParam,
            Code::UnknownKnowgget,
            Code::KnowggetTypeMismatch,
            Code::UnsatisfiedRead,
            Code::KnowggetOutOfRange,
            Code::SyncWithoutConsumer,
            Code::ExportNeverRead,
            Code::ActivationCycle,
            Code::UnreachableDetection,
            Code::EntityBudgetMismatch,
            Code::RawPerEntityState,
            Code::WallClockOnHotPath,
            Code::FormattedKnowggetKey,
            Code::PanicInDispatchPath,
            Code::HashIterationOrder,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for code in all {
            assert!(seen.insert(code.as_str()), "duplicate code {code}");
            assert!(code.as_str().starts_with("KL"));
        }
    }

    #[test]
    fn render_points_at_the_column() {
        let source = "knowggets = {\n  Mutlihop = true\n}";
        let diag = Diagnostic::at(
            Code::UnknownKnowgget,
            "net.kalis",
            SourcePos { line: 2, column: 3 },
            "unknown knowgget key `Mutlihop`",
        )
        .with_note("did you mean `Multihop`?");
        let rendered = diag.render(Some(source));
        assert!(rendered.starts_with("error[KL104]: unknown knowgget key"));
        assert!(rendered.contains("--> net.kalis:2:3"));
        assert!(rendered.contains("2|   Mutlihop = true"));
        assert!(
            rendered.contains("|   ^"),
            "caret under column 3:\n{rendered}"
        );
        assert!(rendered.contains("help: did you mean `Multihop`?"));
    }

    #[test]
    fn json_escapes_and_carries_position() {
        let diag = Diagnostic::at(
            Code::ConfigParse,
            "a\"b.kalis",
            SourcePos { line: 1, column: 9 },
            "expected `}`",
        );
        let json = diag.to_json();
        assert!(json.contains("\"code\":\"KL100\""));
        assert!(json.contains("\"file\":\"a\\\"b.kalis\""));
        assert!(json.contains("\"line\":1,\"column\":9"));
    }

    #[test]
    fn severity_split_matches_design() {
        assert_eq!(Code::DeadWrite.severity(), Severity::Warning);
        assert_eq!(Code::UnknownParam.severity(), Severity::Warning);
        assert_eq!(Code::OrphanRead.severity(), Severity::Error);
        assert_eq!(Code::UnsatisfiedRead.severity(), Severity::Error);
    }
}
