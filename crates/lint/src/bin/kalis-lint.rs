//! The `kalis-lint` command: knowgget-contract and source-invariant
//! static analysis.
//!
//! ```text
//! kalis-lint [--json] [--system-only] [CONFIG.kalis ...]
//! kalis-lint --graph                # knowledge dataflow graph as DOT
//! kalis-lint --read-sets            # per-peer sync read sets as JSON
//! kalis-lint --source [FILE.rs ...] # KL3xx source invariants
//! ```
//!
//! Default mode runs the whole-system contract analysis (`KL00x`) plus
//! the dataflow-graph checks (`KL2xx`), then validates any given
//! configuration files (`KL1xx`). `--source` runs the `KL3xx` source
//! scanner over `crates/*/src` (or over the listed `.rs` files, without
//! the workspace-wide `KL306`).
//!
//! Exit code contract (pinned by `crates/lint/tests/lint_cli.rs`):
//! 0 clean (warnings allowed), 1 when any error-severity diagnostic is
//! found, 2 on parse failures (`KL100`), usage errors, or I/O problems.

use std::process::ExitCode;

use kalis_core::modules::ModuleRegistry;
use kalis_lint::{
    has_errors, lint_config, lint_graph, lint_system, Code, Diagnostic, KnowledgeGraph, ReadSets,
    Severity,
};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Lint,
    Graph,
    ReadSets,
    Source,
}

struct Options {
    json: bool,
    system_only: bool,
    mode: Mode,
    files: Vec<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        system_only: false,
        mode: Mode::Lint,
        files: Vec::new(),
    };
    for arg in args {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--system-only" => opts.system_only = true,
            "--graph" => opts.mode = Mode::Graph,
            "--read-sets" => opts.mode = Mode::ReadSets,
            "--source" => opts.mode = Mode::Source,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            _ => opts.files.push(arg),
        }
    }
    Ok(opts)
}

const USAGE: &str = "usage: kalis-lint [--json] [--system-only] [CONFIG.kalis ...]
       kalis-lint --graph | --read-sets
       kalis-lint --source [--json] [FILE.rs ...]";

/// Render findings (text or JSON) and choose the exit code: 2 if any
/// parse diagnostic, 1 if any other error, 0 otherwise.
fn finish(json: bool, findings: Vec<(Diagnostic, Option<String>)>, scope: &str) -> ExitCode {
    let diags: Vec<Diagnostic> = findings.iter().map(|(d, _)| d.clone()).collect();
    if json {
        let mut out = String::from("[");
        for (i, diag) in diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&diag.to_json());
        }
        out.push(']');
        println!("{out}");
    } else {
        for (diag, source) in &findings {
            println!("{}\n", diag.render(source.as_deref()));
        }
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = diags.len() - errors;
        println!("kalis-lint: {scope}: {errors} error(s), {warnings} warning(s)");
    }
    if diags.iter().any(|d| d.code == Code::ConfigParse) {
        ExitCode::from(2)
    } else if has_errors(&diags) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_source(opts: &Options) -> ExitCode {
    let mut findings: Vec<(Diagnostic, Option<String>)> = Vec::new();
    let mut scanned = 0usize;
    if opts.files.is_empty() {
        let scan = match kalis_lint::scan_workspace(std::path::Path::new(".")) {
            Ok(scan) => scan,
            Err(err) => {
                eprintln!("kalis-lint: {err}");
                return ExitCode::from(2);
            }
        };
        for (_, text, diags) in scan {
            scanned += 1;
            for diag in diags {
                findings.push((diag, Some(text.clone())));
            }
        }
    } else {
        for file in &opts.files {
            let text = match std::fs::read_to_string(file) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("kalis-lint: cannot read {file}: {err}");
                    return ExitCode::from(2);
                }
            };
            scanned += 1;
            for diag in kalis_lint::scan_source(file, &text) {
                findings.push((diag, Some(text.clone())));
            }
        }
    }
    finish(
        opts.json,
        findings,
        &format!("source invariants over {scanned} file(s)"),
    )
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    match opts.mode {
        Mode::Graph => {
            let registry = ModuleRegistry::with_defaults();
            print!("{}", KnowledgeGraph::from_registry(&registry).to_dot());
            return ExitCode::SUCCESS;
        }
        Mode::ReadSets => {
            let registry = ModuleRegistry::with_defaults();
            print!("{}", ReadSets::from_registry(&registry).to_json());
            return ExitCode::SUCCESS;
        }
        Mode::Source => return run_source(&opts),
        Mode::Lint => {}
    }

    let registry = ModuleRegistry::with_defaults();
    // (diagnostic, source text for the caret line, if any)
    let mut findings: Vec<(Diagnostic, Option<String>)> = lint_system(&registry)
        .into_iter()
        .chain(lint_graph(&registry))
        .map(|d| (d, None))
        .collect();

    if !opts.system_only {
        for file in &opts.files {
            let text = match std::fs::read_to_string(file) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("kalis-lint: cannot read {file}: {err}");
                    return ExitCode::from(2);
                }
            };
            for diag in lint_config(file, &text, &registry) {
                findings.push((diag, Some(text.clone())));
            }
        }
    }

    let scope = if opts.files.is_empty() {
        "system contracts + dataflow graph".to_owned()
    } else {
        format!(
            "system contracts + dataflow graph + {} config file(s)",
            opts.files.len()
        )
    };
    finish(opts.json, findings, &scope)
}
