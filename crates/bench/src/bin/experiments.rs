//! The experiments binary: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! experiments [--table1] [--fig3] [--table2] [--fig8] [--reactivity]
//!             [--knowledge-sharing] [--lint] [--all]
//!             [--symptoms N] [--replication-runs N] [--seed N]
//!             [--json PATH]
//! ```
//!
//! `--lint` runs the knowgget-contract static analysis (`kalis-lint`)
//! over the module library as a preflight and exits non-zero on
//! contract errors — every experiment below activates modules through
//! the same knowledge graph the lint verifies. The preflight also runs
//! the dataflow-graph checks (KL2xx) and asserts that every attack
//! family with a shipped detector has a non-empty knowledge read set:
//! an experiment driving a family whose detectors read nothing would
//! measure an unactivatable module.
//!
//! `--json PATH` additionally writes a machine-readable `BENCH_*.json`
//! report (Table II rows plus the Kalis node's full telemetry snapshot:
//! per-stage latency histograms, KB churn, activation journal).
//!
//! `--exhaustion` runs the adversarial-cardinality experiment: a
//! ≥100k-fake-identity spray interleaved with a real ICMP flood, with
//! hard exit gates on occupancy ≤ budget, evictions > 0, no Knowledge
//! Base entity evicted, and recall matching the spray-free baseline. `--exhaustion-json PATH` writes
//! the machine-readable report (`BENCH_7.json`);
//! `--spray-identities N` sets the per-burst identity count (8 bursts
//! total).
//!
//! `--diag-overhead` measures the flight recorder: ingest throughput
//! with the diagnostics ring off vs on, plus a double seeded chaos run
//! asserting byte-identical `kalis.diag.v1` bundles, with hard exit
//! gates on captures ≥ 1, strict-checker validity, determinism, and a
//! ≤ 1% hot-path budget. `--diag-json PATH` writes the machine-readable
//! report (`BENCH_8.json`).
//!
//! Defaults to `--all` with the paper's 50 symptom instances and a
//! reduced 10 replication runs (pass `--replication-runs 100` for the
//! paper's full count).

use kalis_bench::experiments;
use kalis_bench::report;

#[derive(Debug, PartialEq)]
struct Args {
    table1: bool,
    fig3: bool,
    table2: bool,
    fig8: bool,
    reactivity: bool,
    knowledge_sharing: bool,
    resilience: bool,
    supervisor: bool,
    extended: bool,
    tracing_overhead: bool,
    ops_overhead: bool,
    diag_overhead: bool,
    exhaustion: bool,
    lint: bool,
    symptoms: u32,
    replication_runs: u32,
    seed: u64,
    spray_identities: u32,
    json: Option<String>,
    exhaustion_json: Option<String>,
    diag_json: Option<String>,
}

/// Parse the command line (without the program name). `--all` selects
/// the default set, added to whatever other selectors are named, in any
/// order; with no selector at all the default set runs too.
fn parse_args(mut iter: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        table1: false,
        fig3: false,
        table2: false,
        fig8: false,
        reactivity: false,
        knowledge_sharing: false,
        resilience: false,
        supervisor: false,
        extended: false,
        tracing_overhead: false,
        ops_overhead: false,
        diag_overhead: false,
        exhaustion: false,
        lint: false,
        symptoms: 50,
        replication_runs: 10,
        seed: 42,
        spray_identities: 13_000,
        json: None,
        exhaustion_json: None,
        diag_json: None,
    };
    let mut any = false;
    let mut all = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--table1" => {
                args.table1 = true;
                any = true;
            }
            "--fig3" => {
                args.fig3 = true;
                any = true;
            }
            "--table2" => {
                args.table2 = true;
                any = true;
            }
            "--fig8" => {
                args.fig8 = true;
                any = true;
            }
            "--reactivity" => {
                args.reactivity = true;
                any = true;
            }
            "--knowledge-sharing" => {
                args.knowledge_sharing = true;
                any = true;
            }
            "--resilience" => {
                args.resilience = true;
                any = true;
            }
            "--supervisor" => {
                args.supervisor = true;
                any = true;
            }
            "--extended" => {
                args.extended = true;
                any = true;
            }
            "--ops-overhead" => {
                args.ops_overhead = true;
                any = true;
            }
            "--tracing-overhead" => {
                args.tracing_overhead = true;
                any = true;
            }
            "--diag-overhead" => {
                args.diag_overhead = true;
                any = true;
            }
            "--diag-json" => {
                args.diag_json = Some(
                    iter.next()
                        .unwrap_or_else(|| die("--diag-json needs an output path")),
                );
                args.diag_overhead = true;
                any = true;
            }
            "--exhaustion" => {
                args.exhaustion = true;
                any = true;
            }
            "--spray-identities" => {
                args.spray_identities = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--spray-identities needs a number"));
            }
            "--exhaustion-json" => {
                args.exhaustion_json = Some(
                    iter.next()
                        .unwrap_or_else(|| die("--exhaustion-json needs an output path")),
                );
                args.exhaustion = true;
                any = true;
            }
            "--lint" => {
                args.lint = true;
                any = true;
            }
            "--all" => all = true,
            "--symptoms" => {
                args.symptoms = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--symptoms needs a number"));
            }
            "--replication-runs" => {
                args.replication_runs = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--replication-runs needs a number"));
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--json" => {
                args.json = Some(
                    iter.next()
                        .unwrap_or_else(|| die("--json needs an output path")),
                );
                // The JSON report is built from the Table II run;
                // the overhead comparisons ride along when their
                // flags are also given.
                args.table2 = true;
                any = true;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--table1|--fig3|--table2|--fig8|--reactivity|--knowledge-sharing|--resilience|--supervisor|--tracing-overhead|--ops-overhead|--diag-overhead|--exhaustion|--lint|--all]\n\
                     \x20                  [--symptoms N] [--replication-runs N] [--seed N] [--json PATH]\n\
                     \x20                  [--spray-identities N] [--exhaustion-json PATH] [--diag-json PATH]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
    }
    if all || !any {
        args.table1 = true;
        args.fig3 = true;
        args.table2 = true;
        args.fig8 = true;
        args.reactivity = true;
        args.knowledge_sharing = true;
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let tracing = args
        .tracing_overhead
        .then(|| experiments::run_tracing_overhead(args.seed, args.symptoms.max(50), 3));
    let ops = args
        .ops_overhead
        .then(|| experiments::run_ops_overhead(args.seed, args.symptoms.max(50), 5));

    if args.lint {
        println!("== kalis-lint: knowgget-contract analysis ==");
        let registry = kalis_core::modules::ModuleRegistry::with_defaults();
        let mut diags = kalis_lint::lint_system(&registry);
        diags.extend(kalis_lint::lint_graph(&registry));
        if diags.is_empty() {
            println!("module library contracts + dataflow graph: clean");
        } else {
            for diag in &diags {
                println!("{}", diag.render(None));
            }
        }
        if kalis_lint::has_errors(&diags) {
            std::process::exit(1);
        }
        // Per-family read-set assertion: each attack family the
        // experiments drive must rest on a non-empty knowledge surface.
        let sets = kalis_lint::ReadSets::from_registry(&registry);
        let mut bad = Vec::new();
        for attack in kalis_core::AttackKind::all() {
            let label = attack.label();
            match sets.knowledge.get(label) {
                None => println!("read-set [{label}]: no shipped detector (skipped)"),
                Some(keys) if keys.is_empty() => bad.push(label),
                Some(keys) => {
                    let sync = sets.family(label).map_or(0, <[String]>::len);
                    println!("read-set [{label}]: {} key(s), {sync} via sync", keys.len());
                }
            }
        }
        if !bad.is_empty() {
            eprintln!("error: empty knowledge read set for: {}", bad.join(", "));
            std::process::exit(1);
        }
        println!();
    }
    if args.table1 {
        println!("== Table I: taxonomy of IoT attacks by target ==");
        println!("{}", kalis_core::taxonomy::render_table1());
    }
    if args.fig3 {
        println!("== Fig. 3: taxonomy of feature/attack relationships ==");
        println!("{}", report::render_fig3());
    }
    if args.table2 {
        println!(
            "== Table II (symptoms={}, replication runs={}) ==",
            args.symptoms, args.replication_runs
        );
        let table = experiments::run_table2(args.seed, args.symptoms, args.replication_runs);
        println!("{}", report::render_table2(&table));
        // The countermeasure anecdote of §VI-B1.
        for sys in &table.icmp_flood.systems {
            if let Some(cm) = &sys.countermeasures {
                println!(
                    "countermeasures [{}]: revoked={} attackers-hit={} victim-revoked={} precision={}",
                    sys.name,
                    cm.revoked,
                    cm.revoked_attackers,
                    cm.victim_revoked,
                    report::pct(cm.precision()),
                );
            }
        }
        if let Some(snapshot) = table
            .icmp_flood
            .systems
            .iter()
            .find(|s| s.name == "Kalis")
            .and_then(|s| s.telemetry.as_ref())
        {
            println!();
            println!("{}", report::render_telemetry(snapshot));
        }
        if let Some(path) = &args.json {
            let json = report::bench_json(&table, tracing.as_ref(), ops.as_ref());
            std::fs::write(path, &json)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            println!("wrote {path} ({} bytes)", json.len());
        }
        println!();
    }
    if args.fig8 {
        println!("== Fig. 8 (symptoms={}) ==", args.symptoms);
        let results = experiments::run_fig8(args.seed, args.symptoms);
        println!("{}", report::render_fig8(&results));
    }
    if args.extended {
        println!("== Extended scenario set (symptoms={}) ==", args.symptoms);
        let results = experiments::run_extended(args.seed, args.symptoms);
        println!("{}", report::render_fig8(&results));
    }
    if args.reactivity {
        println!("== Reactivity (§VI-C) ==");
        let result = experiments::run_reactivity(args.seed, args.symptoms.min(30));
        println!("first symptom at      : {}", result.first_symptom);
        match result.first_detection {
            Some(t) => println!("first detection at    : {t}"),
            None => println!("first detection at    : never"),
        }
        println!(
            "detection rate        : {}",
            report::pct(result.detection_rate)
        );
        println!(
            "final active modules  : {}",
            result.final_active_modules.join(", ")
        );
        println!();
    }
    if args.resilience {
        println!("== Sync resilience under chaos (seed={}) ==", args.seed);
        let result = experiments::run_sync_resilience(args.seed, 0.3, 0.1);
        println!("kb converged after heal : {}", result.converged);
        println!(
            "degraded entered/exited : {}/{}",
            result.degraded_entered, result.degraded_exited
        );
        println!("retransmissions         : {}", result.retransmits);
        println!(
            "duplicates deduped      : {}",
            result.duplicates_dropped.iter().sum::<u64>()
        );
        println!(
            "queue-overflow dropped  : {}",
            result.queue_overflow_dropped
        );
        println!("wormhole alerts         : {}", result.wormhole_alerts);
        println!("frames faulted away     : {}", result.faults_dropped);
        println!();
    }
    if args.supervisor {
        println!("== Module supervisor under chaos (seed={}) ==", args.seed);
        let chaos = experiments::run_supervisor_chaos(args.seed);
        println!(
            "detection rate ctl/faulted : {} / {}",
            report::pct(chaos.control_detection_rate),
            report::pct(chaos.faulted_detection_rate),
        );
        println!("module panics caught       : {}", chaos.panics);
        println!(
            "quarantines / probations   : {}/{}",
            chaos.quarantines, chaos.probations
        );
        println!(
            "quarantined at end         : {}",
            if chaos.quarantined_at_end.is_empty() {
                "-".to_owned()
            } else {
                chaos.quarantined_at_end.join(", ")
            }
        );
        let burst = experiments::run_burst_shedding(args.seed);
        println!(
            "burst shed engaged/released: {}/{}",
            burst.shed_engaged, burst.shed_released
        );
        println!("dispatches shed            : {}", burst.shed_skips);
        println!(
            "pinned {} sheds : {}",
            burst.pinned_module, burst.pinned_sheds
        );
        println!(
            "detection rate calm/burst  : {} / {}",
            report::pct(burst.baseline_detection_rate),
            report::pct(burst.burst_detection_rate),
        );
        println!();
    }
    if args.exhaustion {
        println!(
            "== State exhaustion (seed={}, {} identities/burst) ==",
            args.seed, args.spray_identities
        );
        let result = experiments::run_state_exhaustion(args.seed, args.spray_identities);
        println!("{}", report::render_exhaustion(&result));
        if let Some(path) = &args.exhaustion_json {
            let json = report::exhaustion_json(&result);
            std::fs::write(path, &json)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            println!("wrote {path} ({} bytes)", json.len());
        }
        // Hard gates: the run is a failure if any budgeted structure
        // overflowed, nothing was evicted under a six-figure spray, an
        // identity heard once reached the Knowledge Base far enough to
        // evict an entity, or the spray cost recall on the concurrent real
        // attack.
        if !result.bounded() {
            die("state exhaustion: occupancy exceeded a configured budget");
        }
        if result.total_evictions() == 0 {
            die("state exhaustion: spray produced no evictions (budgets not exercised)");
        }
        if result.kb_evictions > 0 {
            die("state exhaustion: the spray evicted Knowledge Base entities");
        }
        if !result.recall_held() {
            die("state exhaustion: recall dropped below the spray-free baseline");
        }
        println!();
    }
    if let Some(result) = &tracing {
        println!("== Tracing overhead (seed={}) ==", args.seed);
        println!("{}", report::render_tracing_overhead(result));
    }
    if let Some(result) = &ops {
        println!("== Ops-surface overhead (seed={}) ==", args.seed);
        println!("{}", report::render_ops_overhead(result));
    }
    if args.diag_overhead {
        println!(
            "== Flight-recorder overhead + bundle determinism (seed={}) ==",
            args.seed
        );
        let result = experiments::run_diag_overhead(args.seed, args.symptoms.max(50), 5);
        println!("{}", report::render_diag_overhead(&result));
        if let Some(path) = &args.diag_json {
            let json = report::diag_json(&result);
            std::fs::write(path, &json)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            println!("wrote {path} ({} bytes)", json.len());
        }
        // Hard gates: the run is a failure if the chaos leg never
        // tripped a capture, a bundle failed the strict checker,
        // the double run diverged, or the recorder cost more than
        // the BENCH_8 hot-path budget.
        if result.captures == 0 {
            die("flight recorder: chaos leg captured no bundles");
        }
        if !result.bundles_valid {
            die("flight recorder: a captured bundle failed the strict checker");
        }
        if !result.deterministic {
            die("flight recorder: double run produced differing bundles");
        }
        if result.overhead_pct() > 1.0 {
            die(&format!(
                "flight recorder: hot-path overhead {:.2}% exceeds the 1% budget",
                result.overhead_pct()
            ));
        }
        println!();
    }
    if args.knowledge_sharing {
        println!("== Knowledge sharing (§VI-D) ==");
        let result = experiments::run_knowledge_sharing(args.seed, 30);
        let names = |kinds: &[kalis_core::AttackKind]| {
            kinds
                .iter()
                .map(|k| k.label())
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!("isolated verdicts     : {}", names(&result.isolated_kinds));
        println!(
            "collaborative verdicts: {}",
            names(&result.collaborative_kinds)
        );
        println!("wormhole identified   : {}", result.wormhole_identified);
        println!(
            "detection rate        : {}",
            report::pct(result.score.detection_rate())
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        parse_args(args.iter().map(|arg| (*arg).to_owned()))
    }

    #[test]
    fn all_selects_the_default_set_whatever_flags_follow() {
        let selection = parse(&["--all", "--extended"]);
        assert_eq!(selection, parse(&["--extended", "--all"]));
        assert!(selection.table1 && selection.knowledge_sharing && selection.extended);
        assert!(!selection.supervisor);
        assert_eq!(parse(&["--all"]), parse(&[]));
    }
}
