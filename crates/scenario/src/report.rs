//! Pass/fail reporting for scenario runs: the human table the runner
//! prints and the `--json` document CI archives.

use kalis_netsim::fault::FaultStats;
use kalis_telemetry::json::{quote, write_quoted};

use crate::expect::ExpectationReport;

/// One seeded execution's verdicts.
#[derive(Debug, Clone)]
// kalis-lint: allow(KL306): named by the `pub` signature of `ScenarioReport::runs`
pub struct SeedRun {
    /// The seed this run derived everything from.
    pub seed: u64,
    /// One report per declared expectation, in declaration order.
    pub reports: Vec<ExpectationReport>,
    /// Aggregate fault-injection counters observed by the run.
    pub fault_stats: FaultStats,
    /// Per-directed-link fault counters (`from->to` labels).
    pub link_faults: Vec<(String, FaultStats)>,
    /// `kalis.diag.v1` bundles retained by the run's flight recorders,
    /// `(bundle_id, json)` — written to disk by `--diag-out` when the
    /// run fails, so CI can archive the evidence.
    pub diag_bundles: Vec<(String, String)>,
}

impl SeedRun {
    /// Whether every expectation held.
    pub fn passed(&self) -> bool {
        self.reports.iter().all(|r| r.passed)
    }

    /// `(passed, total)` expectation counts.
    pub fn counts(&self) -> (usize, usize) {
        (
            self.reports.iter().filter(|r| r.passed).count(),
            self.reports.len(),
        )
    }
}

/// One scenario file's verdicts across the seed matrix.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's display name.
    pub name: String,
    /// The file it was loaded from.
    pub file: String,
    /// One entry per seed.
    pub runs: Vec<SeedRun>,
}

impl ScenarioReport {
    /// Whether every seed passed every expectation.
    pub fn passed(&self) -> bool {
        self.runs.iter().all(SeedRun::passed)
    }
}

/// The human-readable report: a verdict table, then a detail block per
/// failing (scenario, seed) pair with expected vs observed and the
/// contributing evidence lines.
pub fn render_human(reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    let name_width = reports
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(8)
        .max("scenario".len());
    out.push_str(&format!(
        "{:<name_width$}  {:>6}  {:<7}  {}\n",
        "scenario", "seed", "verdict", "expectations"
    ));
    for report in reports {
        for run in &report.runs {
            let (passed, total) = run.counts();
            out.push_str(&format!(
                "{:<name_width$}  {:>6}  {:<7}  {}/{}\n",
                report.name,
                run.seed,
                if run.passed() { "pass" } else { "FAIL" },
                passed,
                total,
            ));
        }
    }
    for report in reports {
        for run in &report.runs {
            if run.passed() {
                continue;
            }
            out.push_str(&format!(
                "\nFAIL {} ({}) seed {}\n",
                report.name, report.file, run.seed
            ));
            for exp in run.reports.iter().filter(|r| !r.passed) {
                out.push_str(&format!("  expectation `{}`\n", exp.name));
                out.push_str(&format!("    expected: {}\n", exp.expected));
                out.push_str(&format!("    observed: {}\n", exp.observed));
                if !exp.evidence.is_empty() {
                    out.push_str("    evidence:\n");
                    for line in &exp.evidence {
                        out.push_str(&format!("      - {line}\n"));
                    }
                }
            }
            out.push_str(&format!(
                "  faults injected: {}\n",
                fault_summary(&run.fault_stats, &run.link_faults)
            ));
        }
    }
    let total_runs: usize = reports.iter().map(|r| r.runs.len()).sum();
    let failed_runs: usize = reports
        .iter()
        .flat_map(|r| r.runs.iter())
        .filter(|run| !run.passed())
        .count();
    out.push_str(&format!(
        "\n{} scenario(s), {} seeded run(s), {} failure(s)\n",
        reports.len(),
        total_runs,
        failed_runs
    ));
    out
}

/// One line summarizing the fault counters.
fn fault_summary(total: &FaultStats, links: &[(String, FaultStats)]) -> String {
    let mut out = format!(
        "dropped={} duplicated={} corrupted={} delayed={}",
        total.dropped, total.duplicated, total.corrupted, total.delayed
    );
    for (link, stats) in links {
        out.push_str(&format!(
            "; {link}: dropped={} duplicated={} corrupted={} delayed={}",
            stats.dropped, stats.duplicated, stats.corrupted, stats.delayed
        ));
    }
    out
}

/// The machine-readable report (hand-rolled JSON, no serialization
/// dependency in the reporting path).
pub fn render_json(reports: &[ScenarioReport]) -> String {
    let mut out = String::from("{\"scenarios\":[");
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"file\":{},\"passed\":{},\"runs\":[",
            quote(&report.name),
            quote(&report.file),
            report.passed()
        ));
        for (j, run) in report.runs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seed\":{},\"passed\":{},\"expectations\":[",
                run.seed,
                run.passed()
            ));
            for (k, exp) in run.reports.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":{},\"passed\":{},\"expected\":{},\"observed\":{},\"evidence\":[",
                    quote(&exp.name),
                    exp.passed,
                    quote(&exp.expected),
                    quote(&exp.observed)
                ));
                for (l, line) in exp.evidence.iter().enumerate() {
                    if l > 0 {
                        out.push(',');
                    }
                    write_quoted(line, &mut out);
                }
                out.push_str("]}");
            }
            out.push_str("],\"faults\":");
            out.push_str(&faults_json(&run.fault_stats, &run.link_faults));
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The fault counters as a JSON object.
fn faults_json(total: &FaultStats, links: &[(String, FaultStats)]) -> String {
    let mut out = format!(
        "{{\"dropped\":{},\"duplicated\":{},\"corrupted\":{},\"delayed\":{},\"links\":[",
        total.dropped, total.duplicated, total.corrupted, total.delayed
    );
    for (i, (link, stats)) in links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"link\":{},\"dropped\":{},\"duplicated\":{},\"corrupted\":{},\"delayed\":{}}}",
            quote(link),
            stats.dropped,
            stats.duplicated,
            stats.corrupted,
            stats.delayed
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ScenarioReport> {
        vec![ScenarioReport {
            name: "demo".into(),
            file: "demo.scn.kalis".into(),
            runs: vec![
                SeedRun {
                    seed: 1,
                    reports: vec![ExpectationReport {
                        name: "min-recall".into(),
                        expected: "detection rate >= 0.90".into(),
                        observed: "detection rate 1.00 (4/4 instances)".into(),
                        passed: true,
                        evidence: vec![],
                    }],
                    fault_stats: FaultStats::default(),
                    link_faults: vec![],
                    diag_bundles: vec![],
                },
                SeedRun {
                    seed: 2,
                    reports: vec![ExpectationReport {
                        name: "min-recall".into(),
                        expected: "detection rate >= 0.90".into(),
                        observed: "detection rate 0.50 (2/4 instances)".into(),
                        passed: false,
                        evidence: vec!["alert icmp-flood at 3.000s by IcmpFloodModule".into()],
                    }],
                    fault_stats: FaultStats {
                        dropped: 7,
                        duplicated: 1,
                        corrupted: 0,
                        delayed: 2,
                    },
                    link_faults: vec![(
                        "0->1".into(),
                        FaultStats {
                            dropped: 7,
                            duplicated: 1,
                            corrupted: 0,
                            delayed: 2,
                        },
                    )],
                    diag_bundles: vec![],
                },
            ],
        }]
    }

    #[test]
    fn human_report_tables_verdicts_and_details_failures() {
        let text = render_human(&sample());
        assert!(text.contains("pass"), "{text}");
        assert!(text.contains("FAIL demo (demo.scn.kalis) seed 2"), "{text}");
        assert!(text.contains("expected: detection rate >= 0.90"), "{text}");
        assert!(text.contains("observed: detection rate 0.50"), "{text}");
        assert!(text.contains("- alert icmp-flood"), "{text}");
        assert!(text.contains("dropped=7"), "{text}");
        assert!(text.contains("1 scenario(s), 2 seeded run(s), 1 failure(s)"));
    }

    #[test]
    fn json_report_carries_the_same_verdicts() {
        let json = render_json(&sample());
        assert!(json.contains("\"name\":\"demo\""), "{json}");
        assert!(json.contains("\"passed\":false"), "{json}");
        assert!(json.contains("\"seed\":2"), "{json}");
        assert!(json.contains("\"dropped\":7"), "{json}");
        assert!(json.contains("\"link\":\"0->1\""), "{json}");
        // Structural sanity: balanced braces and brackets.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
