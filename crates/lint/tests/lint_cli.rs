//! End-to-end exit-code contract of the `kalis-lint` binary (mirrors
//! `crates/scenario/tests/runner_cli.rs`): `0` clean (warnings allowed),
//! `1` lint errors, `2` parse failures (`KL100`), usage errors, or I/O
//! problems — in both configuration and `--source` modes. Also pins the
//! `--json` output shape and the determinism of the `--graph` /
//! `--read-sets` artifacts.

use std::path::PathBuf;
use std::process::Command;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn linter() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kalis-lint"))
}

/// Minimal JSON well-formedness check for the hand-rolled emitters:
/// every `--json` document must survive a strict scan of strings,
/// escapes, and bracket nesting. (The workspace deliberately carries no
/// JSON dependency, so the test carries its own little validator.)
fn assert_json_parses(text: &str) {
    let mut depth: Vec<char> = Vec::new();
    let mut chars = text.trim().chars().peekable();
    let mut in_string = false;
    let mut saw_root = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    let escaped = chars.next().expect("dangling escape");
                    assert!(
                        matches!(
                            escaped,
                            '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u'
                        ),
                        "bad escape `\\{escaped}`"
                    );
                    if escaped == 'u' {
                        for _ in 0..4 {
                            let h = chars.next().expect("truncated \\u escape");
                            assert!(h.is_ascii_hexdigit(), "bad \\u digit `{h}`");
                        }
                    }
                }
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth.push('}'),
            '[' => depth.push(']'),
            '}' | ']' => {
                assert_eq!(depth.pop(), Some(c), "mismatched `{c}`");
                saw_root = true;
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string");
    assert!(depth.is_empty(), "unclosed brackets");
    assert!(saw_root, "no JSON structure found");
}

#[test]
fn clean_config_exits_zero() {
    let out = linter()
        .arg(repo_path("examples/configs/smart_home.kalis"))
        .output()
        .expect("linter spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn lint_error_config_exits_one_with_caret() {
    let out = linter()
        .arg(repo_path("tests/lint_fixtures/unknown_module.kalis"))
        .output()
        .expect("linter spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("error[KL101]"), "{stdout}");
    assert!(stdout.contains('^'), "caret render expected:\n{stdout}");
}

#[test]
fn parse_error_config_exits_two() {
    let out = linter()
        .arg(repo_path("tests/lint_fixtures/parse_error.kalis"))
        .output()
        .expect("linter spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stdout:\n{stdout}");
    assert!(stdout.contains("error[KL100]"), "{stdout}");
}

#[test]
fn missing_file_exits_two() {
    let out = linter()
        .arg("no/such/file.kalis")
        .output()
        .expect("linter spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn unknown_flag_exits_two_with_usage() {
    let out = linter()
        .arg("--frobnicate")
        .output()
        .expect("linter spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn config_json_mode_parses_and_carries_spans() {
    let out = linter()
        .args(["--json"])
        .arg(repo_path("tests/lint_fixtures/unknown_module.kalis"))
        .output()
        .expect("linter spawns");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert_json_parses(&json);
    assert!(json.contains("\"code\":\"KL101\""), "{json}");
    assert!(json.contains("\"line\":"), "{json}");
    assert!(json.contains("\"column\":"), "{json}");
}

#[test]
fn source_mode_clean_fixture_exits_zero() {
    let out = linter()
        .arg("--source")
        .arg(repo_path(
            "tests/lint_fixtures/source/detection/pragma_clean.rs",
        ))
        .output()
        .expect("linter spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(
        stdout.contains("source invariants over 1 file(s)"),
        "{stdout}"
    );
}

#[test]
fn source_mode_violation_exits_one_with_span() {
    let out = linter()
        .arg("--source")
        .arg(repo_path("tests/lint_fixtures/source/detection/raw_map.rs"))
        .output()
        .expect("linter spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("error[KL301]"), "{stdout}");
    assert!(stdout.contains('^'), "caret render expected:\n{stdout}");
}

#[test]
fn source_mode_missing_file_exits_two() {
    let out = linter()
        .args(["--source", "no/such/file.rs"])
        .output()
        .expect("linter spawns");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn source_json_mode_parses() {
    let out = linter()
        .args(["--source", "--json"])
        .arg(repo_path(
            "tests/lint_fixtures/source/detection/unwrap_dispatch.rs",
        ))
        .output()
        .expect("linter spawns");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert_json_parses(&json);
    assert!(json.contains("\"code\":\"KL304\""), "{json}");
}

#[test]
fn source_mode_over_workspace_is_clean() {
    // The CI static-analysis invocation: from the repo root, the whole
    // workspace must be clean (or pragma-annotated with justifications).
    let out = linter()
        .arg("--source")
        .current_dir(repo_path(""))
        .output()
        .expect("linter spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    // KL306 runs in the same pass, over every library crate.
    let surface = linter()
        .args(["--source", "--json"])
        .current_dir(repo_path("tests/lint_fixtures/surface"))
        .output()
        .expect("linter spawns");
    let json = String::from_utf8_lossy(&surface.stdout);
    assert_eq!(json.matches("\"code\":\"KL306\"").count(), 3, "{json}");
}

#[test]
fn graph_artifact_is_deterministic_dot() {
    let a = linter().arg("--graph").output().expect("linter spawns");
    let b = linter().arg("--graph").output().expect("linter spawns");
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(a.stdout, b.stdout, "DOT artifact must be deterministic");
    let dot = String::from_utf8_lossy(&a.stdout);
    assert!(dot.starts_with("digraph kalis_knowledge {"), "{dot}");
    assert!(dot.contains("WormholeModule"), "{dot}");
    assert!(dot.trim_end().ends_with('}'), "{dot}");
}

#[test]
fn read_sets_artifact_is_deterministic_json() {
    let a = linter().arg("--read-sets").output().expect("linter spawns");
    let b = linter().arg("--read-sets").output().expect("linter spawns");
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(
        a.stdout, b.stdout,
        "read-set artifact must be deterministic"
    );
    let json = String::from_utf8_lossy(&a.stdout);
    assert_json_parses(&json);
    assert!(
        json.contains("\"schema\": \"kalis.read-sets.v1\""),
        "{json}"
    );
    assert!(json.contains("\"families\""), "{json}");
    assert!(json.contains("\"wormhole\""), "{json}");
}
