//! Scenario execution: compile a validated [`ScenarioSpec`] onto the
//! bench harness for one seed and collect the [`Evidence`] the
//! expectation checks consume.
//!
//! The deployment is one Kalis node per capture tap, run on the capture
//! clock by [`run_nodes`]; two nodes collaborate through their sync
//! engines over a wire. Everything is deterministic in the seed. The
//! taps come from the `attacks` (tap 0 takes every attack's captures
//! plus the state-exhaustion identity spray, merged on the capture
//! clock; tap 1 an attack's second tap, which only the wormhole has) or
//! from the `wormhole-evidence` script. The topology decides where the
//! `faults` section's [`FaultPlan`] applies:
//!
//! * **single** — on the capture links, as each attack's trace is
//!   built; nodes carry the `node` section's config and the default
//!   library, and a second node runs only when some attack has a second
//!   tap;
//! * **pair** — on the sync wire between `K1` (endpoint 0) and `K2`
//!   (endpoint 1); both nodes carry the chaos sync tunables plus the
//!   `node` knowggets, and the run lasts at least `duration`.
//!
//! One collector, [`evidence`], turns the run's nodes into evidence,
//! alerts undrained so provenance and module state stay inspectable.

use std::collections::BTreeMap;

use kalis_bench::experiments::{
    converged, degraded_transitions, record_faults, resilience_node, spray_trace,
    wormhole_evidence, MAX_STRUCTURES_PER_MODULE,
};
use kalis_bench::runner::{run_nodes, Link};
use kalis_bench::scenarios::{BuildOptions, Scenario};
use kalis_bench::scoring::{score, Score};
use kalis_bench::Detection;
use kalis_core::config::Config;
use kalis_core::modules::ModuleHealth;
use kalis_core::{Kalis, KalisId};
use kalis_netsim::fault::{FaultPlan, FaultStats};
use kalis_packets::{CapturedPacket, Timestamp};
use kalis_telemetry::names;

use crate::expect::{AlertEvidence, Evidence, ModuleBudget};
use crate::spec::{AttackSpec, ScenarioSpec, Topology};

/// Run one seeded execution of the scenario and gather its evidence.
pub fn execute(spec: &ScenarioSpec, seed: u64) -> Evidence {
    let pair = spec.topology == Topology::Pair;
    let (capture_plan, wire_plan) = match spec.fault_plan(seed) {
        Some(plan) if pair => (None, plan),
        plan => (plan, FaultPlan::new(seed)),
    };
    let mut taps: [Vec<CapturedPacket>; 2] = Default::default();
    let mut truth = Vec::new();
    let mut fault_stats = FaultStats::default();
    let mut links: BTreeMap<(u32, u32), FaultStats> = BTreeMap::new();
    for attack in &spec.attacks {
        match attack {
            AttackSpec::Standard { kind, symptoms } => {
                let options = BuildOptions {
                    fault_plan: capture_plan.clone(),
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
    if spec.wormhole_evidence {
        for (tap, script) in taps.iter_mut().zip(wormhole_evidence()) {
            tap.extend(script);
        }
    }
    for tap in &mut taps {
        tap.sort_by_key(|c| c.timestamp);
    }
    let used = if pair || !taps[1].is_empty() { 2 } else { 1 };
    let vantages: Vec<&[CapturedPacket]> = taps[..used].iter().map(Vec::as_slice).collect();

    let config: Option<Config> = spec.node_config.as_ref().map(|text| {
        text.parse()
            .expect("node overrides were validated at parse time")
    });
    let mut nodes: Vec<Kalis> = (1..=used)
        .map(|i| {
            let id = format!("K{i}");
            if pair {
                return resilience_node(&id, &spec.extra_knowggets);
            }
            let mut builder = Kalis::builder(KalisId::new(id));
            if let Some(config) = &config {
                builder = builder.with_config(config.clone());
            }
            builder.with_default_modules().build()
        })
        .collect();
    let mut converged_at = None;
    let (end, wire) = {
        let mut link = Link {
            until: Timestamp::from_secs(if pair { spec.duration_secs } else { 0 }),
            observe: Box::new(|now, nodes: &[Kalis]| {
                if converged_at.is_none() && converged(nodes) {
                    converged_at = Some(now);
                }
            }),
            ..Link::new(wire_plan)
        };
        (run_nodes(&mut nodes, &vantages, &mut link), link.wire)
    };

    // Faults on the capture links were all injected by the last capture;
    // faults on the sync wire, by the end of the run. Either way the last
    // node's journal records them.
    let (fault_stats, links, at) = if pair {
        (wire.fault_stats(), wire.link_fault_stats(), end)
    } else {
        let last = vantages
            .iter()
            .filter_map(|tap| tap.last())
            .map(|c| c.timestamp);
        (fault_stats, links.into_iter().collect(), last.max())
    };
    if fault_stats.total() > 0 {
        let node = nodes.last().expect("one node per tap");
        record_faults(node, at.unwrap_or_default(), fault_stats, &links);
    }
    let detections: Vec<Detection> = nodes
        .iter()
        .flat_map(|node| node.alerts())
        .cloned()
        .map(Detection::from)
        .collect();
    let mut evidence = evidence(&nodes, score(&truth, &detections), fault_stats, &links);
    evidence.converged_at_secs = converged_at.map(|t| t.as_micros() / 1_000_000);
    evidence
}

/// Turn one run's nodes into evidence, in node order: alerts (with
/// their time, module, victim and trace), unpinned quarantines,
/// readiness blockers, module budgets, Knowledge Base occupancy,
/// journals, sync retransmissions, degraded-mode transitions and diag
/// bundles. With two nodes, per-module names and readiness reasons carry
/// the node's `K{i}:` prefix.
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
        let snapshot = node.telemetry().snapshot();
        evidence.retransmits += snapshot.counter(names::SYNC_RETRANSMITS);
        evidence.journal.extend(snapshot.journal.records);
        evidence.diag_bundles.extend_from_slice(node.diag_bundles());
    }
    (evidence.degraded_entered, evidence.degraded_exited) = degraded_transitions(&evidence.journal);
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
