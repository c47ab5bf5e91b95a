//! Golden render of the `experiments` binary. One fixed invocation —
//! Table II, Fig. 8, the extended set, reactivity, resilience, the
//! supervisor and knowledge sharing at seed 42 — must print exactly what
//! `tests/goldens/experiments-42.txt` says. A second, ignored by default
//! because a debug build takes about 14 s over it, pins the complete run
//! that EXPERIMENTS.md cites, `--all --extended --replication-runs 100
//! --seed 42`, to `experiments_output.txt` at the repository root; run
//! it with `cargo test --release -p kalis-bench --test experiments_golden
//! -- --ignored`.
//!
//! Only wall-clock figures are masked: the `p50=`/`p95=`/`p99=` values
//! of the "Telemetry (Kalis node)" histogram lines. The dispatch lines
//! are ordered hottest first by wall-clock time, so their block is
//! compared sorted. Everything else, the histograms' `n=` counts
//! included, is deterministic in the seed.
//!
//! When a change is meant to move this output, rewrite the files with
//! `KALIS_BLESS=1 cargo test -p kalis-bench --test experiments_golden
//! -- --include-ignored` and review the diff.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

const ARGS: &[&str] = &[
    "--table2",
    "--fig8",
    "--extended",
    "--reactivity",
    "--resilience",
    "--supervisor",
    "--knowledge-sharing",
    "--symptoms",
    "10",
    "--replication-runs",
    "4",
    "--seed",
    "42",
];

const FULL_ARGS: &[&str] = &[
    "--all",
    "--extended",
    "--replication-runs",
    "100",
    "--seed",
    "42",
];

/// `path` relative to the repository root.
fn repo_path(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

/// `name: n=N p50=Ans p95=Bns p99=Cns` → `name: n=N p50=_ p95=_ p99=_`;
/// any other line is `None`.
fn mask_histogram(line: &str) -> Option<String> {
    let (head, quantiles) = line.split_once(" p50=")?;
    let (_, count) = head.rsplit_once(": n=")?;
    if count.is_empty() || !count.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let figures: Vec<&str> = quantiles.split(' ').collect();
    let is_ns = |s: &str| {
        s.strip_suffix("ns")
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
    };
    let shaped = figures.len() == 3
        && is_ns(figures[0])
        && figures[1].strip_prefix("p95=").is_some_and(is_ns)
        && figures[2].strip_prefix("p99=").is_some_and(is_ns);
    shaped.then(|| format!("{head} p50=_ p95=_ p99=_"))
}

/// The binary's stdout with its wall-clock figures masked.
fn masked(stdout: &str) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut dispatch: Vec<String> = Vec::new();
    for line in stdout.lines() {
        match mask_histogram(line) {
            Some(m) if m.starts_with("dispatch.") => dispatch.push(m),
            other => {
                dispatch.sort();
                out.append(&mut dispatch);
                out.push(other.unwrap_or_else(|| line.to_owned()));
            }
        }
    }
    dispatch.sort();
    out.append(&mut dispatch);
    let mut text = out.join("\n");
    text.push('\n');
    text
}

#[test]
fn mask_covers_only_histogram_quantiles() {
    assert_eq!(
        mask_histogram("pipeline.ingest: n=1700 p50=2623ns p95=12031ns p99=18943ns").as_deref(),
        Some("pipeline.ingest: n=1700 p50=_ p95=_ p99=_")
    );
    assert_eq!(mask_histogram("kb: revision=2366 churn=2366"), None);
    assert_eq!(mask_histogram("x: n=3 p50=1ms p95=2ns p99=3ns"), None);
}

/// Run the binary with `args` and compare its masked stdout with the
/// file at `path` (rewrite it under `KALIS_BLESS=1`).
fn check(args: &[&str], path: PathBuf) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary");
    assert!(
        output.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let got = masked(&String::from_utf8(output.stdout).expect("utf-8 stdout"));
    if std::env::var_os("KALIS_BLESS").is_some_and(|v| v == "1") {
        fs::write(&path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (KALIS_BLESS=1 writes it)", path.display()));
    if want != got {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines().chain(std::iter::repeat("<missing>")))
            .enumerate()
            .filter(|(_, (w, g))| w != g)
            .map(|(i, (w, g))| format!("{:>5} - {w}\n{:>5} + {g}", i + 1, i + 1))
            .collect();
        panic!(
            "{} differs (KALIS_BLESS=1 rewrites it; {} vs {} lines):\n{}",
            path.display(),
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn experiments_output_matches_its_golden() {
    check(ARGS, repo_path("tests/goldens/experiments-42.txt"));
}

#[test]
#[ignore = "about 14 s in a debug build; CI runs it in release"]
fn the_complete_run_matches_experiments_output() {
    check(FULL_ARGS, repo_path("experiments_output.txt"));
}
