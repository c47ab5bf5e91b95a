//! Expectations: what a scenario asserts about its own run.
//!
//! Each expectation is a named, checkable claim evaluated against the
//! [`Evidence`] a run leaves behind — the detection score, drained
//! alerts with provenance, module/KB budget occupancy, readiness
//! blockers, sync convergence, and the node's event journal. Failures
//! report observed-vs-expected plus the contributing journal records
//! (by sequence number) and alert trace references, so a red scenario
//! is debuggable from the report alone.

use kalis_bench::scoring::Score;
use kalis_netsim::fault::FaultStats;
use kalis_telemetry::{JournalEvent, JournalField, JournalRecord};

use crate::spec::Topology;

/// How many contributing lines an expectation attaches to its report.
/// Enough to act on; bounded so a pathological run cannot balloon the
/// report.
const EVIDENCE_LIMIT: usize = 8;

/// One checkable claim from a scenario file's `expectations` section.
#[derive(Debug, Clone, PartialEq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `ScenarioSpec::expectations`
pub enum Expectation {
    /// `min-recall = 0.9` — detection rate over the injected ground
    /// truth (single topology).
    MinRecall(f64),
    /// `min-accuracy = 0.9` — classification accuracy over matched
    /// (instance, detection) pairs (single topology).
    MinAccuracy(f64),
    /// `max-false-positives = 0` — detections matching no injected
    /// instance (single topology).
    MaxFalsePositives(u64),
    /// `alerts (kind = icmp-flood, min = 1)` — at least `min` alerts of
    /// the given classification.
    Alerts {
        /// Attack label to count (`icmp-flood`, ...).
        kind: String,
        /// Minimum matching alerts required.
        min: u64,
    },
    /// `first-detection-within = 15` — the first alert (of any kind)
    /// fired within this many virtual seconds of the run start: the
    /// §VI-C reactivity claim that knowledge-driven activation detects
    /// "from the very beginning", not just eventually.
    FirstDetectionWithin(u64),
    /// `no-unpinned-quarantines` — no unpinned module ended the run
    /// quarantined.
    NoUnpinnedQuarantines,
    /// `state-budgets-respected` — every budgeted module's occupancy
    /// stayed within budget × structures, and the KB within its
    /// per-entity budget (single topology).
    StateBudgetsRespected,
    /// `readiness-recovered` — the node(s) ended the run with no
    /// readiness blockers.
    ReadinessRecovered,
    /// `sync-converged-within = 60` — both nodes held each other's
    /// collective knowledge within the deadline (pair topology).
    SyncConvergedWithin(u64),
    /// `degraded-recovered` — the node entered degraded local-only mode
    /// under the faults and exited it again (pair topology).
    DegradedRecovered,
    /// `min-retransmits = 1` — the sync engine retransmitted at least
    /// this often, proving the faults actually bit (pair topology).
    MinRetransmits(u64),
    /// `min-faults-injected = 1` — the fault plan injected at least
    /// this many faults across all links.
    MinFaultsInjected(u64),
    /// `diag-captured` / `diag-captured (trigger = state-exhaustion)` —
    /// the flight recorder froze at least one `kalis.diag.v1` bundle
    /// during the run, optionally requiring the named trigger.
    DiagCaptured {
        /// Trigger name to require (`state-exhaustion`, ...); `None`
        /// accepts a capture latched by any trigger.
        trigger: Option<String>,
    },
}

/// Directive names, for `did you mean` notes.
pub(crate) const EXPECTATION_NAMES: &[&str] = &[
    "min-recall",
    "min-accuracy",
    "max-false-positives",
    "alerts",
    "first-detection-within",
    "no-unpinned-quarantines",
    "state-budgets-respected",
    "readiness-recovered",
    "sync-converged-within",
    "degraded-recovered",
    "min-retransmits",
    "min-faults-injected",
    "diag-captured",
];

impl Expectation {
    /// The directive name as written in scenario files.
    pub fn name(&self) -> &'static str {
        match self {
            Expectation::MinRecall(_) => "min-recall",
            Expectation::MinAccuracy(_) => "min-accuracy",
            Expectation::MaxFalsePositives(_) => "max-false-positives",
            Expectation::Alerts { .. } => "alerts",
            Expectation::FirstDetectionWithin(_) => "first-detection-within",
            Expectation::NoUnpinnedQuarantines => "no-unpinned-quarantines",
            Expectation::StateBudgetsRespected => "state-budgets-respected",
            Expectation::ReadinessRecovered => "readiness-recovered",
            Expectation::SyncConvergedWithin(_) => "sync-converged-within",
            Expectation::DegradedRecovered => "degraded-recovered",
            Expectation::MinRetransmits(_) => "min-retransmits",
            Expectation::MinFaultsInjected(_) => "min-faults-injected",
            Expectation::DiagCaptured { .. } => "diag-captured",
        }
    }

    /// Whether the topology produces the evidence this claim needs.
    /// Detection scoring and budget inspection need the labelled
    /// `attacks` taps of `single`; sync convergence, degraded-mode
    /// transitions and retransmissions need the faulted sync wire of
    /// `pair`.
    pub(crate) fn applies_to(&self, topology: Topology) -> bool {
        match self {
            Expectation::MinRecall(_)
            | Expectation::MinAccuracy(_)
            | Expectation::MaxFalsePositives(_)
            | Expectation::StateBudgetsRespected => topology == Topology::Single,
            Expectation::SyncConvergedWithin(_)
            | Expectation::DegradedRecovered
            | Expectation::MinRetransmits(_) => topology == Topology::Pair,
            Expectation::Alerts { .. }
            | Expectation::FirstDetectionWithin(_)
            | Expectation::NoUnpinnedQuarantines
            | Expectation::ReadinessRecovered
            | Expectation::MinFaultsInjected(_)
            | Expectation::DiagCaptured { .. } => true,
        }
    }

    /// The human form of the expected side of the claim.
    pub(crate) fn expected_text(&self) -> String {
        match self {
            Expectation::MinRecall(v) => format!("detection rate >= {v:.2}"),
            Expectation::MinAccuracy(v) => format!("classification accuracy >= {v:.2}"),
            Expectation::MaxFalsePositives(n) => format!("false positives <= {n}"),
            Expectation::Alerts { kind, min } => format!(">= {min} `{kind}` alert(s)"),
            Expectation::FirstDetectionWithin(s) => format!("first alert within {s}s"),
            Expectation::NoUnpinnedQuarantines => "no unpinned module quarantined".into(),
            Expectation::StateBudgetsRespected => {
                "every budgeted structure within its state budget".into()
            }
            Expectation::ReadinessRecovered => "no readiness blockers at end of run".into(),
            Expectation::SyncConvergedWithin(s) => format!("sync converged within {s}s"),
            Expectation::DegradedRecovered => {
                "degraded mode entered under faults and exited again".into()
            }
            Expectation::MinRetransmits(n) => format!(">= {n} sync retransmission(s)"),
            Expectation::MinFaultsInjected(n) => format!(">= {n} injected fault(s)"),
            Expectation::DiagCaptured { trigger } => match trigger {
                Some(t) => format!(">= 1 diagnostics capture latched by `{t}`"),
                None => ">= 1 diagnostics capture".into(),
            },
        }
    }

    /// Check the claim against the run's evidence.
    pub fn evaluate(&self, evidence: &Evidence) -> ExpectationReport {
        let (passed, observed, lines) = match self {
            Expectation::MinRecall(v) => {
                let score = &evidence.score;
                let rate = score.detection_rate();
                (
                    rate >= *v,
                    format!(
                        "detection rate {:.2} ({} of {} instances detected)",
                        rate, score.detected, score.instances
                    ),
                    evidence.alert_lines(None),
                )
            }
            Expectation::MinAccuracy(v) => {
                let score = &evidence.score;
                let acc = score.classification_accuracy();
                (
                    acc >= *v,
                    format!(
                        "accuracy {:.2} ({} of {} matched pairs correct)",
                        acc, score.correct_pairs, score.total_pairs
                    ),
                    evidence.alert_lines(None),
                )
            }
            Expectation::MaxFalsePositives(n) => {
                let fp = evidence.score.false_positives as u64;
                (
                    fp <= *n,
                    format!("{fp} false positive(s)"),
                    evidence.alert_lines(None),
                )
            }
            Expectation::Alerts { kind, min } => {
                let count = evidence.alerts.iter().filter(|a| &a.kind == kind).count() as u64;
                let mut lines = evidence.alert_lines(Some(kind));
                lines.extend(journal_lines(
                    &evidence.journal,
                    |e| matches!(e, JournalEvent::AlertRaised { kind: k, .. } if k == kind),
                ));
                (count >= *min, format!("{count} `{kind}` alert(s)"), lines)
            }
            Expectation::FirstDetectionWithin(deadline) => {
                let first = evidence.alerts.iter().map(|a| a.time_us).min();
                let observed = match first {
                    Some(t) => format!("first alert at {:.3}s", t as f64 / 1e6),
                    None => "no alert fired".to_owned(),
                };
                let mut lines = evidence.alert_lines(None);
                lines.extend(journal_lines(&evidence.journal, |e| {
                    matches!(e, JournalEvent::AlertRaised { .. })
                }));
                (
                    first.is_some_and(|t| t <= deadline * 1_000_000),
                    observed,
                    lines,
                )
            }
            Expectation::NoUnpinnedQuarantines => {
                let names = &evidence.unpinned_quarantined;
                let observed = if names.is_empty() {
                    "no unpinned module quarantined".to_owned()
                } else {
                    format!("quarantined: {}", names.join(", "))
                };
                let lines = journal_lines(&evidence.journal, |e| {
                    matches!(e, JournalEvent::ModuleQuarantined { .. })
                });
                (names.is_empty(), observed, lines)
            }
            Expectation::StateBudgetsRespected => {
                let cap = |budget: usize| budget * evidence.structures_per_module;
                let over: Vec<&ModuleBudget> = evidence
                    .modules
                    .iter()
                    .filter(|m| m.budget > 0 && m.occupancy > cap(m.budget))
                    .collect();
                let kb_over = evidence.kb_occupancy > evidence.kb_budget;
                let observed = if over.is_empty() && !kb_over {
                    format!(
                        "all {} budgeted module(s) and the KB within budget",
                        evidence.modules.iter().filter(|m| m.budget > 0).count()
                    )
                } else {
                    let mut parts: Vec<String> = over
                        .iter()
                        .map(|m| format!("{} at {}/{}", m.name, m.occupancy, cap(m.budget)))
                        .collect();
                    if kb_over {
                        parts.push(format!(
                            "KB at {}/{}",
                            evidence.kb_occupancy, evidence.kb_budget
                        ));
                    }
                    format!("over budget: {}", parts.join(", "))
                };
                let lines: Vec<String> = evidence
                    .modules
                    .iter()
                    .filter(|m| m.budget > 0)
                    .take(EVIDENCE_LIMIT)
                    .map(|m| {
                        format!(
                            "module {}: occupancy {} of {} (budget {} x {} structures), {} eviction(s)",
                            m.name,
                            m.occupancy,
                            cap(m.budget),
                            m.budget,
                            evidence.structures_per_module,
                            m.evictions
                        )
                    })
                    .chain(std::iter::once(format!(
                        "kb: occupancy {} of {}",
                        evidence.kb_occupancy, evidence.kb_budget
                    )))
                    .collect();
                (over.is_empty() && !kb_over, observed, lines)
            }
            Expectation::ReadinessRecovered => {
                let reasons = &evidence.readiness_reasons;
                let observed = if reasons.is_empty() {
                    "ready (no blockers)".to_owned()
                } else {
                    format!("blocked: {}", reasons.join(", "))
                };
                let lines = journal_lines(&evidence.journal, |e| {
                    matches!(
                        e,
                        JournalEvent::ModuleQuarantined { .. }
                            | JournalEvent::DegradedEntered { .. }
                    )
                });
                (reasons.is_empty(), observed, lines)
            }
            Expectation::SyncConvergedWithin(deadline) => {
                let observed = match evidence.converged_at_secs {
                    Some(t) => format!("converged at {t}s"),
                    None => "never converged".to_owned(),
                };
                let mut lines = journal_lines(&evidence.journal, |e| {
                    matches!(
                        e,
                        JournalEvent::DegradedEntered { .. } | JournalEvent::DegradedExited { .. }
                    )
                });
                let accepted = evidence
                    .journal
                    .iter()
                    .filter(|r| matches!(r.event, JournalEvent::SyncAccepted { .. }))
                    .count();
                lines.push(format!(
                    "{} sync frame(s) accepted, {} retransmission(s)",
                    accepted, evidence.retransmits
                ));
                (
                    evidence.converged_at_secs.is_some_and(|t| t <= *deadline),
                    observed,
                    lines,
                )
            }
            Expectation::DegradedRecovered => {
                let observed = format!(
                    "degraded entered {} time(s), exited {} time(s)",
                    evidence.degraded_entered, evidence.degraded_exited
                );
                let lines = journal_lines(&evidence.journal, |e| {
                    matches!(
                        e,
                        JournalEvent::DegradedEntered { .. }
                            | JournalEvent::DegradedExited { .. }
                            | JournalEvent::PeerHealthChanged { .. }
                    )
                });
                (
                    evidence.degraded_entered > 0 && evidence.degraded_exited > 0,
                    observed,
                    lines,
                )
            }
            Expectation::MinRetransmits(n) => (
                evidence.retransmits >= *n,
                format!("{} retransmission(s)", evidence.retransmits),
                journal_lines(&evidence.journal, |e| {
                    matches!(e, JournalEvent::SyncDuplicate { .. })
                }),
            ),
            Expectation::MinFaultsInjected(n) => {
                let total = evidence.fault_stats.total();
                let s = evidence.fault_stats;
                let mut lines: Vec<String> = evidence
                    .link_faults
                    .iter()
                    .take(EVIDENCE_LIMIT)
                    .map(|(link, f)| {
                        format!(
                            "link {link}: dropped={} duplicated={} corrupted={} delayed={}",
                            f.dropped, f.duplicated, f.corrupted, f.delayed
                        )
                    })
                    .collect();
                lines.extend(journal_lines(&evidence.journal, |e| {
                    matches!(e, JournalEvent::FaultsInjected { .. })
                }));
                (
                    total >= *n,
                    format!(
                        "{total} fault(s): dropped={} duplicated={} corrupted={} delayed={}",
                        s.dropped, s.duplicated, s.corrupted, s.delayed
                    ),
                    lines,
                )
            }
            Expectation::DiagCaptured { trigger } => {
                let matching = |e: &JournalEvent| {
                    matches!(
                        e,
                        JournalEvent::DiagCaptured { trigger: t, .. }
                            if trigger.as_deref().map_or(true, |want| want == t)
                    )
                };
                let count = evidence
                    .journal
                    .iter()
                    .filter(|r| matching(&r.event))
                    .count() as u64;
                let observed = if count > 0 {
                    match trigger {
                        Some(t) => format!("{count} capture(s) latched by `{t}`"),
                        None => format!("{count} diagnostics capture(s)"),
                    }
                } else {
                    // Name the triggers that *did* fire, so a wrong
                    // trigger expectation is debuggable from the report.
                    let seen: Vec<String> = evidence
                        .journal
                        .iter()
                        .filter_map(|r| match &r.event {
                            JournalEvent::DiagCaptured { trigger: t, .. } => Some(t.clone()),
                            _ => None,
                        })
                        .collect();
                    if seen.is_empty() {
                        "no diagnostics capture".to_owned()
                    } else {
                        format!("no matching capture (saw: {})", seen.join(", "))
                    }
                };
                let lines = journal_lines(&evidence.journal, |e| {
                    matches!(e, JournalEvent::DiagCaptured { .. })
                });
                (count > 0, observed, lines)
            }
        };
        ExpectationReport {
            name: self.name().to_owned(),
            expected: self.expected_text(),
            observed,
            passed,
            evidence: lines,
        }
    }
}

/// One drained alert with its provenance, pre-formatted for evidence
/// lines.
#[derive(Debug, Clone)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Evidence::alerts`
pub struct AlertEvidence {
    /// Attack label (`icmp-flood`, ...).
    pub kind: String,
    /// Module that raised it.
    pub module: String,
    /// Claimed victim (empty when none).
    pub victim: String,
    /// Trace reference label (`K1#3f2a.../17` or `untraced`).
    pub trace: String,
    /// Capture-clock microseconds at emission.
    pub time_us: u64,
}

/// One budgeted module's end-of-run state.
#[derive(Debug, Clone)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Evidence::modules`
pub struct ModuleBudget {
    /// Registry name.
    pub name: String,
    /// Entries resident when the run ended.
    pub occupancy: usize,
    /// Configured per-structure budget (0 = unbudgeted).
    pub budget: usize,
    /// Cumulative evictions absorbing pressure.
    pub evictions: u64,
}

/// Everything a finished run leaves behind for expectation evaluation.
#[derive(Debug, Clone)]
pub struct Evidence {
    /// Ground-truth detection score (a pair run injects no labelled
    /// instances, so its alerts all count as unmatched).
    pub score: Score,
    /// Every alert raised, with provenance.
    pub alerts: Vec<AlertEvidence>,
    /// Unpinned modules quarantined at end of run.
    pub unpinned_quarantined: Vec<String>,
    /// End-of-run readiness blockers (node-prefixed with two nodes).
    pub readiness_reasons: Vec<String>,
    /// Per-module budget occupancy.
    pub modules: Vec<ModuleBudget>,
    /// Bounded structures per module (the budget multiplier).
    pub(crate) structures_per_module: usize,
    /// KB entity-index occupancy and budget.
    pub kb_occupancy: usize,
    /// KB per-entity budget in effect.
    pub kb_budget: usize,
    /// Aggregate fault-injection counters.
    pub fault_stats: FaultStats,
    /// Per-directed-link fault counters, formatted as `from->to`.
    pub link_faults: Vec<(String, FaultStats)>,
    /// First round (or the run's end) at which two nodes held each
    /// other's collective knowledge, in whole seconds.
    pub converged_at_secs: Option<u64>,
    /// `degraded_entered` journal events, every node's.
    pub degraded_entered: u64,
    /// `degraded_exited` journal events, every node's.
    pub degraded_exited: u64,
    /// Sync retransmissions across every node.
    pub retransmits: u64,
    /// Every node's retained event journal, in node order.
    pub journal: Vec<JournalRecord>,
    /// `kalis.diag.v1` bundles the flight recorders retained,
    /// `(bundle_id, json)` across every node in the topology.
    pub diag_bundles: Vec<(String, String)>,
}

impl Evidence {
    /// Alert evidence lines, optionally filtered to one kind.
    fn alert_lines(&self, kind: Option<&str>) -> Vec<String> {
        self.alerts
            .iter()
            .filter(|a| kind.map_or(true, |k| a.kind == k))
            .take(EVIDENCE_LIMIT)
            .map(|a| {
                format!(
                    "alert {} at {:.3}s by {} victim={} trace={}",
                    a.kind,
                    a.time_us as f64 / 1e6,
                    a.module,
                    if a.victim.is_empty() { "-" } else { &a.victim },
                    a.trace
                )
            })
            .collect()
    }
}

/// The verdict for one expectation against one run.
#[derive(Debug, Clone)]
// kalis-lint: allow(KL306): named by the `pub` signature of `SeedRun::reports`
pub struct ExpectationReport {
    /// Directive name (`min-recall`, ...).
    pub name: String,
    /// The claim, rendered.
    pub expected: String,
    /// What the run actually produced.
    pub observed: String,
    /// Whether the claim held.
    pub passed: bool,
    /// Contributing journal records, alerts, and budget rows.
    pub evidence: Vec<String>,
}

/// Matching journal records as `seq`-referenced evidence lines.
fn journal_lines(journal: &[JournalRecord], pred: impl Fn(&JournalEvent) -> bool) -> Vec<String> {
    journal
        .iter()
        .filter(|r| pred(&r.event))
        .take(EVIDENCE_LIMIT)
        .map(|r| {
            let fields = r
                .event
                .fields()
                .iter()
                .map(|(k, v)| match v {
                    JournalField::Str(s) => format!("{k}={s}"),
                    JournalField::Num(n) => format!("{k}={n}"),
                })
                .collect::<Vec<_>>()
                .join(" ");
            format!(
                "journal seq={} t={:.3}s {} {}",
                r.seq,
                r.time_us as f64 / 1e6,
                r.event.kind(),
                fields
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_evidence() -> Evidence {
        Evidence {
            score: Score {
                instances: 0,
                detected: 0,
                correct_pairs: 0,
                total_pairs: 0,
                false_positives: 0,
            },
            alerts: Vec::new(),
            unpinned_quarantined: Vec::new(),
            readiness_reasons: Vec::new(),
            modules: Vec::new(),
            structures_per_module: 3,
            kb_occupancy: 0,
            kb_budget: 1,
            fault_stats: FaultStats::default(),
            link_faults: Vec::new(),
            converged_at_secs: None,
            degraded_entered: 0,
            degraded_exited: 0,
            retransmits: 0,
            journal: Vec::new(),
            diag_bundles: Vec::new(),
        }
    }

    #[test]
    fn alert_expectation_counts_matching_kinds_only() {
        let mut evidence = empty_evidence();
        evidence.alerts = vec![
            AlertEvidence {
                kind: "icmp-flood".into(),
                module: "IcmpFloodModule".into(),
                victim: "10.0.0.2".into(),
                trace: "K1#00000000000000aa/1".into(),
                time_us: 17_000_000,
            },
            AlertEvidence {
                kind: "smurf".into(),
                module: "SmurfModule".into(),
                victim: String::new(),
                trace: "untraced".into(),
                time_us: 18_000_000,
            },
        ];
        let report = Expectation::Alerts {
            kind: "icmp-flood".into(),
            min: 1,
        }
        .evaluate(&evidence);
        assert!(report.passed, "{report:?}");
        assert_eq!(report.observed, "1 `icmp-flood` alert(s)");
        assert!(report.evidence[0].contains("trace=K1#"), "{report:?}");

        let report = Expectation::Alerts {
            kind: "smurf".into(),
            min: 2,
        }
        .evaluate(&evidence);
        assert!(!report.passed);
    }

    #[test]
    fn first_detection_deadline_uses_the_earliest_alert() {
        let mut evidence = empty_evidence();
        assert!(
            !Expectation::FirstDetectionWithin(15)
                .evaluate(&evidence)
                .passed,
            "no alert at all must fail"
        );
        evidence.alerts = vec![
            AlertEvidence {
                kind: "selective-forwarding".into(),
                module: "SelectiveForwardingModule".into(),
                victim: "3".into(),
                trace: "untraced".into(),
                time_us: 22_000_000,
            },
            AlertEvidence {
                kind: "selective-forwarding".into(),
                module: "SelectiveForwardingModule".into(),
                victim: "3".into(),
                trace: "untraced".into(),
                time_us: 9_500_000,
            },
        ];
        let report = Expectation::FirstDetectionWithin(15).evaluate(&evidence);
        assert!(report.passed, "{report:?}");
        assert_eq!(report.observed, "first alert at 9.500s");
        assert!(
            !Expectation::FirstDetectionWithin(9)
                .evaluate(&evidence)
                .passed
        );
    }

    #[test]
    fn budget_expectation_flags_overrun_with_the_row() {
        let mut evidence = empty_evidence();
        evidence.modules = vec![
            ModuleBudget {
                name: "A".into(),
                occupancy: 9,
                budget: 3,
                evictions: 0,
            },
            ModuleBudget {
                name: "B".into(),
                occupancy: 10,
                budget: 3,
                evictions: 2,
            },
        ];
        let report = Expectation::StateBudgetsRespected.evaluate(&evidence);
        assert!(!report.passed);
        assert!(report.observed.contains("B at 10/9"), "{report:?}");
        assert!(!report.observed.contains("A at"), "{report:?}");
    }

    #[test]
    fn convergence_deadline_compares_against_observed_instant() {
        let mut evidence = empty_evidence();
        evidence.converged_at_secs = Some(61);
        let late = Expectation::SyncConvergedWithin(60).evaluate(&evidence);
        assert!(!late.passed);
        assert_eq!(late.observed, "converged at 61s");
        let fine = Expectation::SyncConvergedWithin(61).evaluate(&evidence);
        assert!(fine.passed);
    }

    #[test]
    fn diag_captured_matches_trigger_names() {
        let mut evidence = empty_evidence();
        assert!(
            !Expectation::DiagCaptured { trigger: None }
                .evaluate(&evidence)
                .passed,
            "no capture at all must fail"
        );
        evidence.journal = vec![JournalRecord {
            seq: 4,
            time_us: 11_000_000,
            event: JournalEvent::DiagCaptured {
                trigger: "state-exhaustion".into(),
                bundle: "K1-001-state-exhaustion".into(),
            },
        }];
        assert!(
            Expectation::DiagCaptured { trigger: None }
                .evaluate(&evidence)
                .passed
        );
        let right = Expectation::DiagCaptured {
            trigger: Some("state-exhaustion".into()),
        }
        .evaluate(&evidence);
        assert!(right.passed, "{right:?}");
        assert!(right.evidence[0].contains("diag_captured"), "{right:?}");
        let wrong = Expectation::DiagCaptured {
            trigger: Some("slo-breached".into()),
        }
        .evaluate(&evidence);
        assert!(!wrong.passed);
        assert!(
            wrong.observed.contains("saw: state-exhaustion"),
            "{wrong:?}"
        );
    }

    #[test]
    fn topology_applicability_partitions_the_directives() {
        use Expectation as E;
        for e in [
            E::MinRecall(0.5),
            E::MinAccuracy(0.5),
            E::MaxFalsePositives(0),
            E::StateBudgetsRespected,
        ] {
            assert!(e.applies_to(Topology::Single));
            assert!(!e.applies_to(Topology::Pair), "{}", e.name());
        }
        for e in [
            E::SyncConvergedWithin(60),
            E::DegradedRecovered,
            E::MinRetransmits(1),
        ] {
            assert!(e.applies_to(Topology::Pair));
            assert!(!e.applies_to(Topology::Single), "{}", e.name());
        }
        for e in [
            E::Alerts {
                kind: "scan".into(),
                min: 1,
            },
            E::FirstDetectionWithin(15),
            E::NoUnpinnedQuarantines,
            E::ReadinessRecovered,
            E::MinFaultsInjected(1),
            E::DiagCaptured { trigger: None },
        ] {
            assert!(e.applies_to(Topology::Single) && e.applies_to(Topology::Pair));
        }
    }
}
