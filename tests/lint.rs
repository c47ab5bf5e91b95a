//! The static-analysis gate, exercised the way CI runs it:
//!
//! * the whole-system contract analysis over the default module library,
//! * every shipped example configuration, which must lint clean,
//! * the `tests/lint_fixtures/` corpus of deliberately broken configs,
//!   each carrying a `# expect: KLxxx @ line:col` header asserting the
//!   exact diagnostic it must produce,
//! * the `tests/lint_fixtures/source/` corpus of `.rs` files pinning the
//!   `KL3xx` source invariants (`// expect: KLxxx @ line:col` headers,
//!   one per expected diagnostic, in emission order),
//! * the `tests/lint_fixtures/surface/` workspace pinning `KL306`,
//! * the knowledge dataflow graph over the default library (`KL2xx`
//!   clean, DOT and read-set artifacts deterministic),
//! * the `recommend_config()` round-trip: a configuration derived from
//!   learned knowledge must itself pass the lint.

use std::fs;
use std::path::{Path, PathBuf};

use kalis_core::modules::ModuleRegistry;
use kalis_core::{AttackKind, Kalis, KalisId};
use kalis_lint::{
    has_errors, lint_config, lint_graph, lint_system, scan_source, Diagnostic, KnowledgeGraph,
    ReadSets,
};
use kalis_packets::{CapturedPacket, Medium, ShortAddr, Timestamp};

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Every `.kalis` file in a directory, sorted for deterministic order.
fn kalis_files(dir: &str) -> Vec<PathBuf> {
    let dir = repo_path(dir);
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "kalis"))
        .collect();
    files.sort();
    files
}

#[test]
fn system_contracts_are_clean() {
    let diags = lint_system(&ModuleRegistry::with_defaults());
    assert!(
        diags.is_empty(),
        "the shipped module library must lint clean:\n{}",
        render_all(&diags)
    );
}

#[test]
fn shipped_example_configs_lint_clean() {
    let registry = ModuleRegistry::with_defaults();
    let files = kalis_files("examples/configs");
    assert!(files.len() >= 3, "expected shipped example configs");
    for path in files {
        let text = fs::read_to_string(&path).unwrap();
        let diags = lint_config(&path.display().to_string(), &text, &registry);
        assert!(
            diags.is_empty(),
            "{} must lint clean:\n{}",
            path.display(),
            render_all(&diags)
        );
    }
}

#[test]
fn bad_fixtures_fail_with_expected_code_and_span() {
    let registry = ModuleRegistry::with_defaults();
    let files = kalis_files("tests/lint_fixtures");
    assert!(files.len() >= 7, "expected the bad-config fixture corpus");
    for path in files {
        let text = fs::read_to_string(&path).unwrap();
        let (code, line, column) = parse_expectation(&path, &text);
        let diags = lint_config(&path.display().to_string(), &text, &registry);
        assert_eq!(
            diags.len(),
            1,
            "{} must produce exactly one diagnostic, got:\n{}",
            path.display(),
            render_all(&diags)
        );
        let diag = &diags[0];
        assert_eq!(diag.code.as_str(), code, "{}", path.display());
        assert_eq!(
            diag.severity,
            diag.code.severity(),
            "severity must be code-derived: {}",
            path.display()
        );
        let pos = diag.pos.expect("config diagnostics carry a position");
        assert_eq!(
            (pos.line, pos.column),
            (line, column),
            "{}: {code} expected at {line}:{column}, rendered as:\n{}",
            path.display(),
            diag.render(Some(&text))
        );
    }
}

/// Every `.rs` file under a directory, recursively, sorted.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn source_fixture_corpus_pins_exact_codes_and_spans() {
    let mut files = Vec::new();
    rs_files(&repo_path("tests/lint_fixtures/source"), &mut files);
    assert!(files.len() >= 6, "expected the source fixture corpus");
    let mut codes_seen = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path).unwrap();
        // `// expect: KLxxx @ line:col` headers, one per diagnostic, in
        // emission order; a fixture with no header must scan clean.
        let expected: Vec<(String, usize, usize)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("// expect: "))
            .map(|header| {
                let (code, pos) = header
                    .split_once(" @ ")
                    .unwrap_or_else(|| panic!("malformed expectation in {}", path.display()));
                let (line, column) = pos.trim().split_once(':').unwrap();
                (
                    code.trim().to_owned(),
                    line.parse().unwrap(),
                    column.parse().unwrap(),
                )
            })
            .collect();
        let diags = scan_source(&path.display().to_string(), &text);
        let got: Vec<(String, usize, usize)> = diags
            .iter()
            .map(|d| {
                let pos = d.pos.expect("source diagnostics carry a span");
                (d.code.as_str().to_owned(), pos.line, pos.column)
            })
            .collect();
        assert_eq!(
            got,
            expected,
            "{} diagnostics diverge from its expect headers:\n{}",
            path.display(),
            render_all(&diags)
        );
        for d in &diags {
            assert_eq!(d.severity, d.code.severity(), "{}", path.display());
            assert!(
                !d.notes.is_empty(),
                "every source diagnostic carries a remediation note: {}",
                path.display()
            );
        }
        codes_seen.extend(got.into_iter().map(|(code, _, _)| code));
    }
    // The corpus covers every source-invariant code.
    for code in ["KL301", "KL302", "KL303", "KL304", "KL305"] {
        assert!(
            codes_seen.iter().any(|c| c == code),
            "no fixture pins {code}"
        );
    }
}

/// `KL306` over the `tests/lint_fixtures/surface/` workspace: a `pub`
/// item no other unit names is flagged, as is one only a `pub use` or
/// a `text` block names; one named by its crate's own integration test
/// or by a doc-test, or covered by a pragma, is not. Each file's
/// `// expect:` headers list its hits.
#[test]
fn kl306_flags_pub_items_no_other_compilation_unit_names() {
    let scan = kalis_lint::scan_workspace(&repo_path("tests/lint_fixtures/surface")).unwrap();
    assert_eq!(scan.len(), 2, "the fixture crate's two source files");
    for (path, text, diags) in scan {
        let expected: Vec<String> = (text.lines())
            .filter_map(|l| l.strip_prefix("// expect: "))
            .map(str::to_owned)
            .collect();
        let got: Vec<String> = diags
            .iter()
            .map(|d| {
                let pos = d.pos.expect("KL306 carries a span");
                format!("{} @ {}:{}", d.code.as_str(), pos.line, pos.column)
            })
            .collect();
        assert_eq!(got, expected, "{path}:\n{}", render_all(&diags));
    }
}

#[test]
fn dataflow_graph_and_read_sets_are_clean_and_deterministic() {
    let registry = ModuleRegistry::with_defaults();
    let diags = lint_graph(&registry);
    assert!(
        diags.is_empty(),
        "the shipped library's dataflow graph must lint clean:\n{}",
        render_all(&diags)
    );
    // The CI artifacts are pure functions of the registry.
    let dot_a = KnowledgeGraph::from_registry(&registry).to_dot();
    let dot_b = KnowledgeGraph::from_registry(&registry).to_dot();
    assert_eq!(dot_a, dot_b);
    let sets = ReadSets::from_registry(&registry);
    assert_eq!(sets.to_json(), ReadSets::from_registry(&registry).to_json());
    // Every attack family the experiments harness drives has a
    // non-empty sync surface somewhere in the node-wide union.
    assert!(!sets.union.is_empty());
    for attack in AttackKind::all() {
        assert!(
            sets.family(attack.label()).is_some(),
            "family {} missing from the read-set artifact",
            attack.label()
        );
    }
}

/// Parse the `# expect: KLxxx @ line:col` header of a fixture.
fn parse_expectation(path: &Path, text: &str) -> (&'static str, usize, usize) {
    let header = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("# expect: "))
        .unwrap_or_else(|| panic!("{} lacks an `# expect:` header", path.display()));
    let (code, pos) = header
        .split_once(" @ ")
        .unwrap_or_else(|| panic!("malformed expectation in {}", path.display()));
    let (line, column) = pos
        .trim()
        .split_once(':')
        .unwrap_or_else(|| panic!("malformed position in {}", path.display()));
    // Leak the code string to 'static: fixture count is tiny and the
    // process is a test runner.
    (
        Box::leak(code.trim().to_owned().into_boxed_str()),
        line.parse().unwrap(),
        column.parse().unwrap(),
    )
}

/// Satellite: a configuration recommended from learned knowledge must
/// itself pass static analysis — the knowledge the node acts on and the
/// knowledge the contracts declare are the same graph.
#[test]
fn recommended_config_passes_lint() {
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    // Multi-hop CTP traffic: grows Multihop/CtpRoot/ProtocolSeen.*
    // knowledge and activates the routing detectors.
    for i in 0..5u64 {
        let raw = kalis_netsim::craft::ctp_data(
            ShortAddr(2),
            ShortAddr(1),
            (i % 250) as u8,
            ShortAddr(3),
            (i % 250) as u8,
            2,
            b"r",
        );
        kalis.ingest(CapturedPacket::capture(
            Timestamp::from_millis(i * 100),
            Medium::Ieee802154,
            Some(-55.0),
            "radio0",
            raw,
        ));
    }
    let recommended = kalis.recommend_config();
    assert!(
        !recommended.modules.is_empty(),
        "traffic must have activated modules"
    );
    let text = recommended.to_string();
    let registry = ModuleRegistry::with_defaults();
    let diags = lint_config("recommend_config", &text, &registry);
    assert!(
        !has_errors(&diags),
        "recommend_config() output must lint without errors; config:\n{text}\ndiagnostics:\n{}",
        render_all(&diags)
    );
    // Stronger: no warnings either — recommended knowledge is always
    // contract-registered.
    assert!(
        diags.is_empty(),
        "recommend_config() output must lint fully clean; config:\n{text}\ndiagnostics:\n{}",
        render_all(&diags)
    );
}

fn render_all(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.render(None))
        .collect::<Vec<_>>()
        .join("\n")
}
