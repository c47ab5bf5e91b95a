//! Scenario execution: compile a validated [`ScenarioSpec`] onto the
//! bench harnesses for one seed and collect the [`Evidence`] the
//! expectation checks consume.
//!
//! The deployment is one Kalis node per capture tap. The topology picks
//! the transport between the taps and the nodes, and both are fully
//! deterministic in the seed:
//!
//! * **single** — lossless taps on the capture clock ([`run_nodes`]).
//!   Each `attacks` entry builds its seeded trace: tap 0 takes every
//!   attack's captures plus the state-exhaustion identity spray, merged
//!   on the capture clock; tap 1 takes an attack's second tap, which
//!   only the wormhole has. Each tap gets a node (`K1`, `K2`) with the
//!   `node` section's config and the default library.
//! * **pair** — the two-node sync-chaos harness ([`run_sync_chaos`]):
//!   the `faults` section becomes the wire's [`FaultPlan`], the `node`
//!   knowggets ride each node's chaos config.
//!
//! One collector, [`evidence`], turns either run's nodes into evidence,
//! alerts undrained so provenance and module state stay inspectable.

use std::collections::BTreeMap;
use std::time::Duration;

use kalis_bench::experiments::{
    record_faults, run_sync_chaos, spray_trace, SyncChaosSpec, MAX_STRUCTURES_PER_MODULE,
};
use kalis_bench::runner::run_nodes;
use kalis_bench::scenarios::{BuildOptions, Scenario};
use kalis_bench::scoring::{score, Score};
use kalis_bench::Detection;
use kalis_core::config::Config;
use kalis_core::modules::ModuleHealth;
use kalis_core::{Kalis, KalisId};
use kalis_netsim::fault::{FaultPlan, FaultStats};
use kalis_packets::CapturedPacket;

use crate::expect::{AlertEvidence, Evidence, ModuleBudget};
use crate::spec::{AttackSpec, ScenarioSpec, Topology};

/// Run one seeded execution of the scenario and gather its evidence.
pub fn execute(spec: &ScenarioSpec, seed: u64) -> Evidence {
    match spec.topology {
        Topology::Pair => execute_pair(spec, seed),
        Topology::Single => execute_single(spec, seed),
    }
}

/// The two-node chaos harness: faults on the wire, convergence and
/// degraded-mode telemetry as evidence.
fn execute_pair(spec: &ScenarioSpec, seed: u64) -> Evidence {
    let run = run_sync_chaos(&SyncChaosSpec {
        plan: spec
            .fault_plan(seed)
            .unwrap_or_else(|| FaultPlan::new(seed)),
        run: Duration::from_secs(spec.duration_secs),
        extra_knowggets: spec.extra_knowggets.clone(),
        wormhole_evidence: spec.wormhole_evidence,
    });
    // No scored symptom instances on the pair path: an empty truth set
    // scores as trivially perfect.
    let mut evidence = evidence(
        &run.nodes,
        score(&[], &[]),
        run.fault_stats,
        &run.link_faults,
    );
    evidence.converged_at_secs = run.converged_at.map(|t| t.as_micros() / 1_000_000);
    evidence.degraded_entered = run.degraded_entered;
    evidence.degraded_exited = run.degraded_exited;
    evidence.retransmits = run.retransmits;
    evidence
}

/// The lossless taps: build every attack's seeded trace, give each tap
/// a node, and run them on the capture clock.
fn execute_single(spec: &ScenarioSpec, seed: u64) -> Evidence {
    let mut taps: [Vec<CapturedPacket>; 2] = Default::default();
    let mut truth = Vec::new();
    let mut fault_stats = FaultStats::default();
    let mut links: BTreeMap<(u32, u32), FaultStats> = BTreeMap::new();
    for attack in &spec.attacks {
        match attack {
            AttackSpec::Standard { kind, symptoms } => {
                let options = BuildOptions {
                    fault_plan: spec.fault_plan(seed),
                };
                let scenario = Scenario::build_with(*kind, seed, *symptoms, &options);
                taps[0].extend(scenario.captures);
                taps[1].extend(scenario.captures_b.unwrap_or_default());
                truth.extend(scenario.truth);
                fault_stats.accumulate(scenario.fault_stats);
                for (link, stats) in scenario.link_fault_stats {
                    links.entry(link).or_default().accumulate(stats);
                }
            }
            AttackSpec::Exhaustion { identities, bursts } => {
                // The spray has no scored ground truth: it exists to
                // pressure bounded state, not to be detected.
                taps[0].extend(spray_trace(seed, *identities, *bursts));
            }
        }
    }
    for tap in &mut taps {
        tap.sort_by_key(|c| c.timestamp);
    }
    // A second node only when some attack has a second tap.
    let used = if taps[1].is_empty() { 1 } else { 2 };
    let vantages: Vec<&[CapturedPacket]> = taps[..used].iter().map(Vec::as_slice).collect();

    let config: Option<Config> = spec.node_config.as_ref().map(|text| {
        text.parse()
            .expect("node overrides were validated at parse time")
    });
    let mut nodes: Vec<Kalis> = (1..=vantages.len())
        .map(|i| {
            let mut builder = Kalis::builder(KalisId::new(format!("K{i}")));
            if let Some(config) = &config {
                builder = builder.with_config(config.clone());
            }
            builder.with_default_modules().build()
        })
        .collect();
    run_nodes(&mut nodes, &vantages);

    let links: Vec<((u32, u32), FaultStats)> = links.into_iter().collect();
    if fault_stats.total() > 0 {
        let last = vantages
            .iter()
            .filter_map(|tap| tap.last())
            .map(|c| c.timestamp)
            .max()
            .unwrap_or_default();
        record_faults(&nodes[0], last, fault_stats, &links);
    }
    let detections: Vec<Detection> = nodes
        .iter()
        .flat_map(|node| node.alerts())
        .cloned()
        .map(Detection::from)
        .collect();
    evidence(&nodes, score(&truth, &detections), fault_stats, &links)
}

/// Turn one run's nodes into evidence, in node order: alerts (with
/// their time, module, victim and trace), unpinned quarantines,
/// readiness blockers, module budgets, Knowledge Base occupancy,
/// journals and diag bundles. With two nodes, per-module names and
/// readiness reasons carry the node's `K{i}:` prefix.
fn evidence(
    nodes: &[Kalis],
    score: Score,
    fault_stats: FaultStats,
    links: &[((u32, u32), FaultStats)],
) -> Evidence {
    let mut evidence = Evidence {
        score,
        alerts: Vec::new(),
        unpinned_quarantined: Vec::new(),
        readiness_reasons: Vec::new(),
        modules: Vec::new(),
        structures_per_module: MAX_STRUCTURES_PER_MODULE,
        kb_occupancy: 0,
        kb_budget: nodes[0].knowledge().entity_budget(),
        fault_stats,
        link_faults: links
            .iter()
            .map(|((from, to), stats)| (format!("{from}->{to}"), *stats))
            .collect(),
        converged_at_secs: None,
        degraded_entered: 0,
        degraded_exited: 0,
        retransmits: 0,
        journal: Vec::new(),
        diag_bundles: Vec::new(),
    };
    let pair = nodes.len() > 1;
    for node in nodes {
        let prefix = if pair {
            format!("{}:", node.id())
        } else {
            String::new()
        };
        evidence.alerts.extend(node.alerts().iter().map(|alert| {
            AlertEvidence {
                kind: alert.attack.label().to_owned(),
                module: alert.module.clone(),
                victim: alert
                    .victim
                    .as_ref()
                    .map_or_else(|| "-".to_owned(), |v| v.to_string()),
                trace: if alert.trace_id == 0 {
                    "untraced".to_owned()
                } else {
                    format!("trace:{:016x}", alert.trace_id)
                },
                time_us: alert.time.as_micros(),
            }
        }));
        for profile in node.module_state() {
            if profile.health == ModuleHealth::Quarantined && !profile.pinned {
                evidence
                    .unpinned_quarantined
                    .push(format!("{prefix}{}", profile.name));
            }
            evidence.modules.push(ModuleBudget {
                name: format!("{prefix}{}", profile.name),
                occupancy: profile.occupancy,
                budget: profile.state_budget,
                evictions: profile.evictions,
            });
        }
        evidence.readiness_reasons.extend(
            (node.readiness().reasons.into_iter()).map(|reason| format!("{prefix}{reason}")),
        );
        evidence.kb_occupancy = evidence
            .kb_occupancy
            .max(node.knowledge().entity_occupancy());
        evidence
            .journal
            .extend(node.telemetry().snapshot().journal.records);
        evidence.diag_bundles.extend_from_slice(node.diag_bundles());
    }
    evidence
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_bench::scenarios::ScenarioKind;
    use kalis_telemetry::JournalEvent;

    use crate::expect::Expectation;
    use crate::spec::ScenarioSpec;

    fn parse(text: &str) -> ScenarioSpec {
        ScenarioSpec::parse("exec-test.scn.kalis", text).expect("valid scenario")
    }

    #[test]
    fn single_scenario_detects_its_attack_deterministically() {
        let spec = parse(
            "attacks = { icmp-flood }\n\
             expectations = { min-recall = 0.9, alerts (kind = icmp-flood) }\n",
        );
        let a = execute(&spec, 7);
        let b = execute(&spec, 7);
        assert!(a.score.detection_rate() >= 0.9, "{:?}", a.score);
        assert_eq!(a.score.detected, b.score.detected);
        assert_eq!(a.alerts.len(), b.alerts.len());
        for e in &spec.expectations {
            let report = e.evaluate(&a);
            assert!(report.passed, "{} failed: {}", report.name, report.observed);
        }
    }

    #[test]
    fn merged_attacks_keep_their_ground_truth() {
        let spec = parse(
            "attacks = { icmp-flood, scan (symptoms = 2) }\n\
             expectations = { min-recall = 0.5 }\n",
        );
        let evidence = execute(&spec, 21);
        // 4 default flood symptoms + 2 scan symptoms.
        assert_eq!(evidence.score.instances, 6);
        let kinds: Vec<&str> = evidence.alerts.iter().map(|a| a.kind.as_str()).collect();
        assert!(kinds.contains(&"icmp-flood"), "{kinds:?}");
        assert!(kinds.contains(&"scan"), "{kinds:?}");
    }

    #[test]
    fn wormhole_composes_with_other_attacks_and_node_overrides() {
        let spec = parse(
            "attacks = { wormhole (symptoms = 4), icmp-flood (symptoms = 4) }\n\
             node = { Trace.SampleRate = 1 }\n\
             expectations = { alerts (kind = wormhole, min = 1) }\n",
        );
        let evidence = execute(&spec, 42);
        // One node per tap: the wormhole's second tap gets K2.
        for prefix in ["K1:", "K2:"] {
            assert!(
                evidence.modules.iter().any(|m| m.name.starts_with(prefix)),
                "no {prefix} module rows"
            );
        }
        let wormhole = Scenario::build(ScenarioKind::Wormhole, 42, 4);
        assert_eq!(evidence.score.instances, wormhole.truth.len() + 4);
        assert!(evidence.alerts.iter().any(|a| a.kind == "wormhole"));
    }

    #[test]
    fn fault_plan_shows_up_in_journal_and_link_stats() {
        let spec = parse(
            "attacks = { icmp-flood }\n\
             faults = { link (drop = 0.5) }\n\
             expectations = { min-faults-injected = 1 }\n",
        );
        let evidence = execute(&spec, 11);
        assert!(evidence.fault_stats.total() > 0);
        assert!(
            Expectation::MinFaultsInjected(1).evaluate(&evidence).passed,
            "{:?}",
            evidence.fault_stats
        );
        assert!(evidence.journal.iter().any(
            |r| matches!(&r.event, JournalEvent::FaultsInjected { link, .. } if link == "total")
        ));
    }
}
