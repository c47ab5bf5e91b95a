//! Golden renders of the scenario corpus: every
//! `examples/scenarios/*.scn.kalis` runs at seed 42, twice, and what it
//! leaves behind — alerts, journal kinds and digest, diag bundles,
//! score, readiness, Knowledge Base occupancy, fault and sync counters —
//! must read exactly as `tests/goldens/<name>-42.txt` says.
//!
//! A refactor that claims to change nothing proves it here. When a
//! change is meant to move these, rewrite the files with
//! `KALIS_BLESS=1 cargo test -p kalis-integration --test goldens` and
//! review the diff.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use kalis_scenario::exec;
use kalis_scenario::expect::Evidence;
use kalis_scenario::parse_scenario;

const SEED: u64 = 42;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// FNV-1a, 64-bit: a digest stable across platforms and releases.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The scenario's evidence, one fact a line.
fn render(evidence: &Evidence) -> String {
    let mut out = String::new();
    let score = &evidence.score;
    writeln!(
        out,
        "score instances={} detected={} correct_pairs={} total_pairs={} false_positives={}",
        score.instances,
        score.detected,
        score.correct_pairs,
        score.total_pairs,
        score.false_positives
    )
    .unwrap();
    for alert in &evidence.alerts {
        writeln!(
            out,
            "alert {} {} {} victim={}",
            alert.time_us, alert.kind, alert.module, alert.victim
        )
        .unwrap();
    }
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    let mut journal = String::new();
    for record in &evidence.journal {
        *kinds.entry(record.event.kind()).or_default() += 1;
        writeln!(journal, "{record:?}").unwrap();
    }
    for (kind, count) in kinds {
        writeln!(out, "journal {kind} {count}").unwrap();
    }
    writeln!(
        out,
        "journal records={} digest={:016x}",
        evidence.journal.len(),
        digest(journal.as_bytes())
    )
    .unwrap();
    for (id, json) in &evidence.diag_bundles {
        writeln!(out, "diag {id} {:016x}", digest(json.as_bytes())).unwrap();
    }
    writeln!(out, "readiness {:?}", evidence.readiness_reasons).unwrap();
    writeln!(out, "quarantined {:?}", evidence.unpinned_quarantined).unwrap();
    writeln!(
        out,
        "kb occupancy={} budget={}",
        evidence.kb_occupancy, evidence.kb_budget
    )
    .unwrap();
    for module in &evidence.modules {
        writeln!(
            out,
            "module {} occupancy={} budget={} evictions={}",
            module.name, module.occupancy, module.budget, module.evictions
        )
        .unwrap();
    }
    writeln!(out, "faults {:?}", evidence.fault_stats).unwrap();
    for (link, stats) in &evidence.link_faults {
        writeln!(out, "faults {link} {stats:?}").unwrap();
    }
    writeln!(out, "retransmits {}", evidence.retransmits).unwrap();
    writeln!(
        out,
        "converged_at_secs {:?} degraded_entered={} degraded_exited={}",
        evidence.converged_at_secs, evidence.degraded_entered, evidence.degraded_exited
    )
    .unwrap();
    out
}

fn scenario_files() -> Vec<PathBuf> {
    let dir = repo_path("examples/scenarios");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|entry| entry.path()))
        .filter(|path| path.to_str().is_some_and(|p| p.ends_with(".scn.kalis")))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scenarios under {}", dir.display());
    files
}

/// The lines of `want` and `got` that differ, `-`/`+` prefixed.
fn line_diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut out = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            if let Some(w) = w {
                writeln!(out, "{:>5} - {w}", i + 1).unwrap();
            }
            if let Some(g) = g {
                writeln!(out, "{:>5} + {g}", i + 1).unwrap();
            }
        }
    }
    out
}

fn golden_path(scenario: &Path) -> PathBuf {
    let name = scenario.file_name().and_then(|n| n.to_str()).unwrap();
    let stem = name.trim_end_matches(".scn.kalis");
    repo_path(&format!("tests/goldens/{stem}-{SEED}.txt"))
}

#[test]
fn scenario_corpus_renders_its_goldens() {
    let bless = std::env::var_os("KALIS_BLESS").is_some_and(|v| v == "1");
    let mut failures = Vec::new();
    for path in scenario_files() {
        let file = path.display().to_string();
        let text = fs::read_to_string(&path).unwrap();
        let spec = parse_scenario(&file, &text)
            .unwrap_or_else(|diags| panic!("{file} does not parse: {diags:?}"));
        let first = render(&exec::execute(&spec, SEED));
        let second = render(&exec::execute(&spec, SEED));
        if first != second {
            failures.push(format!(
                "{file} renders differently on two runs:\n{}",
                line_diff(&first, &second)
            ));
            continue;
        }
        let golden = golden_path(&path);
        if bless {
            fs::create_dir_all(golden.parent().unwrap()).unwrap();
            fs::write(&golden, &first).unwrap();
            continue;
        }
        match fs::read_to_string(&golden) {
            Ok(want) if want == first => {}
            Ok(want) => failures.push(format!(
                "{} differs (KALIS_BLESS=1 rewrites it):\n{}",
                golden.display(),
                line_diff(&want, &first)
            )),
            Err(e) => failures.push(format!(
                "{}: {e} (KALIS_BLESS=1 writes it)",
                golden.display()
            )),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
