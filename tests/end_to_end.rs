//! End-to-end scenario tests: attack injected → correct classification →
//! correct suspects → countermeasure applied, for every attack scenario.

use kalis_bench::experiments::run_scenario_all_systems;
use kalis_bench::runner;
use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_bench::scoring;
use kalis_core::AttackKind;

fn kalis_on(kind: ScenarioKind, seed: u64, symptoms: u32) -> (Scenario, runner::RunOutcome) {
    let scenario = Scenario::build(kind, seed, symptoms);
    let outcome = runner::run_kalis(&scenario.vantages());
    (scenario, outcome)
}

fn assert_detects(kind: ScenarioKind, expected: AttackKind, min_rate: f64) {
    let (scenario, outcome) = kalis_on(kind, 42, 8);
    let score = scoring::score(&scenario.truth, &outcome.detections);
    assert!(
        score.detection_rate() >= min_rate,
        "{kind}: detection rate {:.2} below {min_rate}",
        score.detection_rate()
    );
    assert!(
        outcome.detections.iter().any(|d| d.attack == expected),
        "{kind}: no {expected:?} verdict among {:?}",
        outcome
            .detections
            .iter()
            .map(|d| d.attack)
            .collect::<Vec<_>>()
    );
    // The true attacker appears among the suspects of a correct alert.
    let suspect_hit = outcome
        .detections
        .iter()
        .filter(|d| d.attack == expected)
        .any(|d| d.suspects.iter().any(|s| scenario.attackers.contains(s)));
    assert!(suspect_hit, "{kind}: true attacker never suspected");
    // The countermeasure revoked a true attacker.
    let revoked_attacker = outcome
        .revocations
        .iter()
        .any(|r| scenario.attackers.contains(&r.entity));
    assert!(revoked_attacker, "{kind}: attacker never revoked");
}

#[test]
fn icmp_flood_end_to_end() {
    assert_detects(ScenarioKind::IcmpFlood, AttackKind::IcmpFlood, 1.0);
}

#[test]
fn smurf_end_to_end() {
    assert_detects(ScenarioKind::Smurf, AttackKind::Smurf, 1.0);
}

#[test]
fn syn_flood_end_to_end() {
    assert_detects(ScenarioKind::SynFlood, AttackKind::SynFlood, 1.0);
}

#[test]
fn udp_flood_end_to_end() {
    assert_detects(ScenarioKind::UdpFlood, AttackKind::UdpFlood, 1.0);
}

#[test]
fn selective_forwarding_end_to_end() {
    assert_detects(
        ScenarioKind::SelectiveForwarding,
        AttackKind::SelectiveForwarding,
        0.9,
    );
}

#[test]
fn blackhole_end_to_end() {
    assert_detects(ScenarioKind::Blackhole, AttackKind::Blackhole, 0.9);
}

#[test]
fn sybil_end_to_end() {
    assert_detects(ScenarioKind::Sybil, AttackKind::Sybil, 0.8);
}

#[test]
fn sinkhole_end_to_end() {
    assert_detects(ScenarioKind::Sinkhole, AttackKind::Sinkhole, 0.9);
}

#[test]
fn deauth_end_to_end() {
    assert_detects(ScenarioKind::Deauth, AttackKind::Deauth, 1.0);
}

#[test]
fn fragment_flood_end_to_end() {
    let (scenario, outcome) = kalis_on(ScenarioKind::FragmentFlood, 42, 4);
    let score = scoring::score(&scenario.truth, &outcome.detections);
    assert!(
        score.detection_rate() >= 0.75,
        "rate {:.2}",
        score.detection_rate()
    );
    assert!(outcome
        .detections
        .iter()
        .any(|d| d.attack == AttackKind::FragmentFlood));
}

#[test]
fn every_alert_exports_as_cef() {
    use kalis_core::siem;
    for kind in ScenarioKind::fig8_set() {
        let (_, outcome) = kalis_on(*kind, 42, 4);
        for d in &outcome.detections {
            let alert = kalis_core::Alert::new(d.time, d.attack, "m")
                .with_suspects(d.suspects.iter().cloned());
            let line = siem::to_cef(&alert);
            assert!(line.starts_with("CEF:0|Kalis|kalis-ids|"), "{kind}: {line}");
        }
    }
}

#[test]
fn replication_end_to_end() {
    let (scenario, outcome) = kalis_on(ScenarioKind::Replication, 42, 8);
    let score = scoring::score(&scenario.truth, &outcome.detections);
    assert!(
        score.detection_rate() >= 0.7,
        "rate {:.2}",
        score.detection_rate()
    );
    assert!(outcome
        .detections
        .iter()
        .any(|d| d.attack == AttackKind::Replication));
    assert_eq!(score.classification_accuracy(), 1.0);
}

#[test]
fn wormhole_end_to_end() {
    let (scenario, outcome) = kalis_on(ScenarioKind::Wormhole, 42, 20);
    assert!(outcome
        .detections
        .iter()
        .any(|d| d.attack == AttackKind::Wormhole));
    let wormhole_alert = outcome
        .detections
        .iter()
        .find(|d| d.attack == AttackKind::Wormhole)
        .expect("wormhole verdict");
    for attacker in &scenario.attackers {
        assert!(
            wormhole_alert.suspects.contains(attacker),
            "both endpoints suspected"
        );
    }
}

#[test]
fn kalis_is_never_less_accurate_than_the_traditional_ids() {
    // The paper's headline claim ("Kalis is always more effective than
    // traditional IDS approaches"), checked per scenario.
    for kind in ScenarioKind::fig8_set() {
        let result = run_scenario_all_systems(*kind, 42, 6);
        let kalis = result.systems.iter().find(|s| s.name == "Kalis").unwrap();
        let trad = result
            .systems
            .iter()
            .find(|s| s.name == "Trad. IDS")
            .unwrap();
        assert!(
            kalis.score.classification_accuracy() >= trad.score.classification_accuracy() - 1e-9,
            "{kind}: Kalis accuracy {:.2} < traditional {:.2}",
            kalis.score.classification_accuracy(),
            trad.score.classification_accuracy()
        );
    }
}

#[test]
fn kalis_accuracy_is_total_on_the_flood_ambiguity() {
    // §VI-B1: the knowledge-driven approach disambiguates ICMP Flood from
    // Smurf; the traditional IDS cannot.
    let result = run_scenario_all_systems(ScenarioKind::IcmpFlood, 42, 6);
    let kalis = result.systems.iter().find(|s| s.name == "Kalis").unwrap();
    let trad = result
        .systems
        .iter()
        .find(|s| s.name == "Trad. IDS")
        .unwrap();
    assert_eq!(kalis.score.classification_accuracy(), 1.0);
    assert!(trad.score.classification_accuracy() < 0.75);
    // The countermeasure anecdote: Kalis revokes only the attacker; the
    // traditional IDS revokes the victim (disconnecting the network).
    let kalis_cm = kalis.countermeasures.as_ref().unwrap();
    let trad_cm = trad.countermeasures.as_ref().unwrap();
    assert_eq!(kalis_cm.precision(), 1.0);
    assert!(!kalis_cm.victim_revoked);
    assert!(trad_cm.victim_revoked);
}
