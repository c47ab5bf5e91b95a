//! Tier-1 tests for the `*.scn.kalis` scenario language and the
//! expectation harness (`crates/scenario`).
//!
//! Covers: the golden diagnostic fixture corpus under
//! `tests/scenario_fixtures/` (exact `KS1xx` codes and caret spans,
//! mirroring `tests/lint_fixtures/`), the runnable examples under
//! `examples/scenarios/` (every expectation must hold across the seed
//! matrix, and verdicts must be bit-identical across two runs), parity
//! of the ported chaos scenario with the hand-coded
//! `run_sync_resilience` harness, parity of a ported `ScenarioKind`
//! with a hand-built node, the intentionally-broken runtime fixture
//! (fails with observed-vs-expected evidence), and a proptest sweep
//! proving the parser never panics on hostile input.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use kalis_bench::experiments::{run_knowledge_sharing, run_sync_resilience};
use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_bench::scoring::score;
use kalis_bench::Detection;
use kalis_core::config::SourcePos;
use kalis_core::{AttackKind, Kalis, KalisId};
use kalis_packets::Timestamp;
use kalis_scenario::report::render_json;
use kalis_scenario::{exec, parse_scenario, run_parsed, run_scenario};
use proptest::prelude::*;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// All `*.scn.kalis` files directly inside `rel`, name-sorted. Does
/// not descend: `scenario_fixtures/runtime/` is deliberately outside
/// the golden-span corpus.
fn scenario_files(rel: &str) -> Vec<PathBuf> {
    let dir = repo_path(rel);
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| {
            path.is_file()
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".scn.kalis"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures under {}", dir.display());
    files
}

/// Parse the `# expect: KS103 @ 4:16` pin from a fixture's first line.
fn parse_expectation(text: &str, file: &str) -> (String, SourcePos) {
    let header = text
        .lines()
        .next()
        .unwrap_or_else(|| panic!("{file}: empty fixture"));
    let rest = header
        .strip_prefix("# expect: ")
        .unwrap_or_else(|| panic!("{file}: first line must be `# expect: CODE @ line:col`"));
    let (code, pos) = rest
        .split_once(" @ ")
        .unwrap_or_else(|| panic!("{file}: malformed expectation `{rest}`"));
    let (line, column) = pos
        .split_once(':')
        .unwrap_or_else(|| panic!("{file}: malformed position `{pos}`"));
    (
        code.to_owned(),
        SourcePos {
            line: line.trim().parse().expect("line number"),
            column: column.trim().parse().expect("column number"),
        },
    )
}

#[test]
fn fixture_corpus_pins_codes_and_spans() {
    for path in scenario_files("tests/scenario_fixtures") {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("readable fixture");
        let (code, pos) = parse_expectation(&text, &name);
        let diags = parse_scenario(&name, &text).expect_err(&format!("{name}: must be rejected"));
        assert_eq!(
            diags.len(),
            1,
            "{name}: fixtures pin exactly one diagnostic, got {diags:#?}"
        );
        let diag = &diags[0];
        assert_eq!(diag.code.as_str(), code, "{name}: wrong code: {diag:?}");
        let got = diag
            .pos
            .unwrap_or_else(|| panic!("{name}: diagnostic must carry a span"));
        assert_eq!(
            (got.line, got.column),
            (pos.line, pos.column),
            "{name}: wrong span: {diag:?}"
        );
        // The rendered form must echo the offending line with a caret.
        let rendered = diag.render(Some(&text));
        assert!(rendered.contains(&format!("error[{code}]")), "{rendered}");
        assert!(rendered.contains('^'), "{name}: no caret: {rendered}");
    }
}

#[test]
fn example_scenarios_all_pass_across_the_seed_matrix() {
    let seeds = [1, 2, 3];
    let files = scenario_files("examples/scenarios");
    assert!(files.len() >= 10, "example corpus shrank: {files:?}");
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("readable example");
        let report = run_scenario(&name, &text, &seeds)
            .unwrap_or_else(|d| panic!("{name}: examples must parse clean: {d:#?}"));
        for run in &report.runs {
            for exp in &run.reports {
                assert!(
                    exp.passed,
                    "{name} seed {}: `{}` failed — expected {}, observed {}",
                    run.seed, exp.name, exp.expected, exp.observed
                );
            }
        }
    }
}

#[test]
fn example_verdicts_are_identical_across_two_runs() {
    let seeds = [1, 2];
    for path in scenario_files("examples/scenarios") {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("readable example");
        let spec = parse_scenario(&name, &text).expect("valid example");
        let a = run_parsed(&name, &spec, &seeds);
        let b = run_parsed(&name, &spec, &seeds);
        assert_eq!(
            render_json(&[a]),
            render_json(&[b]),
            "{name}: nondeterministic verdicts"
        );
    }
}

/// The ported chaos scenario must reproduce the hand-coded harness
/// exactly: same convergence verdict and instant, same degraded-mode
/// transitions, same retransmit and fault-injection counters, for the
/// same seeds `tests/chaos_sync.rs` uses.
#[test]
fn chaos_scenario_file_matches_the_hand_coded_harness() {
    let path = repo_path("examples/scenarios/chaos_sync.scn.kalis");
    let text = fs::read_to_string(&path).expect("chaos scenario");
    let spec = parse_scenario("chaos_sync.scn.kalis", &text).expect("valid chaos scenario");
    for seed in [7, 21, 1042] {
        let evidence = exec::execute(&spec, seed);
        let direct = run_sync_resilience(seed, 0.3, 0.1);
        assert_eq!(
            evidence.converged_at_secs.is_some(),
            direct.converged,
            "seed {seed}: convergence verdict diverged"
        );
        assert_eq!(
            evidence.converged_at_secs,
            direct.converged_at.map(|t| t.as_micros() / 1_000_000),
            "seed {seed}: convergence instant diverged"
        );
        assert_eq!(
            evidence.degraded_entered, direct.degraded_entered,
            "seed {seed}"
        );
        assert_eq!(
            evidence.degraded_exited, direct.degraded_exited,
            "seed {seed}"
        );
        assert_eq!(evidence.retransmits, direct.retransmits, "seed {seed}");
        assert_eq!(evidence.fault_stats, direct.fault_stats, "seed {seed}");
        assert!(
            evidence.fault_stats.dropped > 0,
            "seed {seed}: no drops injected"
        );
    }
}

/// The ported `ScenarioKind` example must score exactly what a
/// hand-built node over the same seeded trace scores.
#[test]
fn icmp_flood_scenario_file_matches_a_hand_built_node() {
    let path = repo_path("examples/scenarios/icmp_flood.scn.kalis");
    let text = fs::read_to_string(&path).expect("icmp flood scenario");
    let spec = parse_scenario("icmp_flood.scn.kalis", &text).expect("valid scenario");
    for seed in [1, 2, 3] {
        let evidence = exec::execute(&spec, seed);

        let scenario = Scenario::build(ScenarioKind::IcmpFlood, seed, 4);
        let mut node = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        let mut last = Timestamp::ZERO;
        for packet in scenario.captures {
            last = last.max(packet.timestamp);
            node.ingest(packet);
        }
        node.tick(last + Duration::from_secs(2));
        let detections: Vec<Detection> =
            node.alerts().iter().cloned().map(Detection::from).collect();
        let direct = score(&scenario.truth, &detections);

        assert_eq!(evidence.score, direct, "seed {seed}: scores diverged");
        assert_eq!(
            evidence.alerts.len(),
            node.alerts().len(),
            "seed {seed}: alert counts diverged"
        );
    }
}

/// The ported §VI-D knowledge-sharing scenario must reproduce the
/// hand-coded harness's collaborative leg exactly: the same detection
/// score over the same seeded two-tap trace, and the same wormhole
/// verdict — while the isolated baseline still cannot see it.
#[test]
fn knowledge_sharing_scenario_file_matches_the_hand_coded_harness() {
    let path = repo_path("examples/scenarios/knowledge_sharing.scn.kalis");
    let text = fs::read_to_string(&path).expect("knowledge sharing scenario");
    let spec = parse_scenario("knowledge_sharing.scn.kalis", &text).expect("valid scenario");
    for seed in [42, 7] {
        let evidence = exec::execute(&spec, seed);
        let direct = run_knowledge_sharing(seed, 25);
        assert_eq!(evidence.score, direct.score, "seed {seed}: scores diverged");
        assert_eq!(
            evidence.alerts.iter().any(|a| a.kind == "wormhole"),
            direct.wormhole_identified,
            "seed {seed}: wormhole verdict diverged"
        );
        assert!(
            direct.wormhole_identified,
            "seed {seed}: the pair must classify the wormhole"
        );
        assert!(
            !direct.isolated_kinds.contains(&AttackKind::Wormhole),
            "seed {seed}: isolated nodes must see only the local half"
        );
        assert!(direct.score.detection_rate() > 0.6, "seed {seed}");
    }
}

/// Pair alerts carry their real capture-clock time, so a deadline the
/// run misses fails: the chaos run's scripted wormhole evidence lands
/// at 5–6 s, and no alert can fire within the first second.
#[test]
fn chaos_scenario_fails_a_first_detection_deadline_it_misses() {
    let path = repo_path("examples/scenarios/chaos_sync.scn.kalis");
    let text = fs::read_to_string(&path).expect("chaos scenario").replace(
        "expectations = {",
        "expectations = {\n  first-detection-within = 1,",
    );
    let report = run_scenario("chaos_sync.scn.kalis", &text, &[42]).expect("valid scenario");
    let deadline = report.runs[0]
        .reports
        .iter()
        .find(|r| r.name == "first-detection-within")
        .expect("the deadline is evaluated");
    assert!(
        !deadline.passed,
        "no alert fires within 1 s: {}",
        deadline.observed
    );
}

#[test]
fn broken_runtime_fixture_fails_with_observed_vs_expected_evidence() {
    let path = repo_path("tests/scenario_fixtures/runtime/impossible_recall.scn.kalis");
    let text = fs::read_to_string(&path).expect("runtime fixture");
    let report = run_scenario("impossible_recall.scn.kalis", &text, &[1])
        .expect("the runtime fixture parses clean");
    assert!(!report.passed(), "the impossible scenario must fail");
    let failing: Vec<_> = report.runs[0]
        .reports
        .iter()
        .filter(|r| !r.passed)
        .collect();
    assert!(
        failing.iter().any(|r| r.name == "alerts"),
        "the wormhole alert demand must fail: {failing:#?}"
    );
    for f in &failing {
        assert!(!f.expected.is_empty(), "{}: no expected text", f.name);
        assert!(!f.observed.is_empty(), "{}: no observed text", f.name);
    }
}

proptest! {
    /// The parser must never panic: any input is either a valid spec
    /// or a list of positioned diagnostics. Random bytes (lossily
    /// decoded) reach the lexer's control-character and non-ASCII
    /// paths; the printable soup below reaches deeper grammar states.
    #[test]
    fn parser_never_panics_on_arbitrary_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..400)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_scenario("fuzz.scn.kalis", &text);
    }

    /// Hostile structured inputs: section/item soup with braces,
    /// parens, equals signs, and deep nesting.
    #[test]
    fn parser_never_panics_on_brace_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("attacks"), Just("expectations"), Just("faults"),
                Just("= {"), Just("}"), Just("("), Just(")"), Just("="),
                Just("link"), Just("drop = 0.5"), Just("min-recall = 0.9"),
                Just("\"unterminated"), Just(","), Just("{ { { {"),
                Just("\n"), Just("# comment"),
            ],
            0..60,
        )
    ) {
        let text = parts.join(" ");
        let _ = parse_scenario("soup.scn.kalis", &text);
    }

    /// Every truncation of a valid scenario parses or diagnoses —
    /// never panics, and diagnostics always carry renderable spans.
    #[test]
    fn parser_survives_truncation(cut in 0usize..400) {
        let full = "scenario = { name = \"t\" }\n\
                    attacks = { icmp-flood (symptoms = 4), state-exhaustion }\n\
                    faults = { link (drop = 0.3, until = 45) }\n\
                    node = { Multihop = true }\n\
                    expectations = { min-recall = 0.5, alerts (kind = scan) }\n";
        let cut = cut.min(full.len());
        if full.is_char_boundary(cut) {
            let text = &full[..cut];
            if let Err(diags) = parse_scenario("trunc.scn.kalis", text) {
                for diag in diags {
                    let _ = diag.render(Some(text));
                    let _ = diag.to_json();
                }
            }
        }
    }
}
