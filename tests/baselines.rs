//! Baseline-comparison invariants: resource ordering, Snort's medium
//! blindness, and the traditional IDS's static module library.

use kalis_baselines::snort::SnortIds;
use kalis_bench::experiments::run_table2;
use kalis_bench::runner;
use kalis_bench::scenarios::{Scenario, ScenarioKind};

#[test]
fn table2_orderings_match_the_paper() {
    let table = run_table2(42, 10, 4);
    let rows = table.rows();
    let kalis = rows.iter().find(|r| r.name == "Kalis").unwrap();
    let trad = rows.iter().find(|r| r.name == "Trad. IDS").unwrap();
    let snort = rows.iter().find(|r| r.name == "Snort").unwrap();
    // Accuracy: Kalis is perfect; the others are not.
    assert_eq!(kalis.accuracy, 1.0);
    assert!(trad.accuracy < 1.0);
    assert!(snort.accuracy < 1.0);
    // Detection: Kalis beats the traditional IDS.
    assert!(kalis.detection_rate > trad.detection_rate);
    // CPU proxy: Kalis < traditional < Snort (adaptive module set wins).
    assert!(kalis.work_per_packet < trad.work_per_packet);
    assert!(trad.work_per_packet < snort.work_per_packet);
    // RAM proxy: Kalis < traditional < Snort.
    assert!(kalis.peak_state_bytes < trad.peak_state_bytes);
    assert!(trad.peak_state_bytes < snort.peak_state_bytes);
    // Snort could not observe every scenario.
    assert!(!snort.fully_applicable);
    assert!(kalis.fully_applicable && trad.fully_applicable);
}

#[test]
fn snort_detects_nothing_on_zigbee_scenarios() {
    let scenario = Scenario::build(ScenarioKind::Replication, 1, 6);
    let outcome = runner::run_snort(&scenario.captures);
    assert!(outcome.detections.is_empty());
    assert_eq!(outcome.meter.work_units, 0, "no rules ever ran");
}

#[test]
fn snort_detects_ip_floods() {
    let scenario = Scenario::build(ScenarioKind::IcmpFlood, 1, 5);
    let outcome = runner::run_snort(&scenario.captures);
    assert!(!outcome.detections.is_empty());
}

#[test]
fn snort_ruleset_text_roundtrip() {
    let rules = kalis_baselines::snort::community_ruleset();
    let mut engine = SnortIds::new(rules);
    // Engine is functional after construction from the parsed set.
    assert!(engine.rule_count() >= 25);
    engine.process(&kalis_packets::CapturedPacket::capture(
        kalis_packets::Timestamp::ZERO,
        kalis_packets::Medium::Ethernet,
        None,
        "eth0",
        bytes::Bytes::from_static(&[0u8; 14]),
    ));
    assert!(engine.alerts().is_empty());
}

#[test]
fn traditional_ids_misses_replication_with_the_wrong_module() {
    // Across seeds, some traditional runs pick the unsuitable replication
    // module and miss attacks that Kalis catches.
    let mut trad_worse = 0;
    for seed in 0..6u64 {
        let scenario = Scenario::build(ScenarioKind::Replication, seed, 8);
        let kalis = runner::run_kalis(&[&scenario.captures]);
        let trad = runner::run_traditional(&scenario.captures, seed);
        let kalis_score = kalis_bench::scoring::score(&scenario.truth, &kalis.detections);
        let trad_score = kalis_bench::scoring::score(&scenario.truth, &trad.detections);
        if trad_score.detection_rate() < kalis_score.detection_rate() - 0.05 {
            trad_worse += 1;
        }
    }
    assert!(
        trad_worse >= 2,
        "expected several runs where the static library misses (got {trad_worse})"
    );
}
