//! End-to-end telemetry tests: run a full bench scenario through a Kalis
//! node and check that the telemetry registry agrees with the node's own
//! resource accounting and alert stream, and that the exporters carry
//! the same snapshot.

use std::time::Duration;

use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_core::{Kalis, KalisId};
use kalis_packets::{CapturedPacket, Medium, Timestamp};
use kalis_telemetry::{names, JournalEvent, Telemetry, TelemetrySnapshot};

fn run_scenario(kind: ScenarioKind) -> (Kalis, usize) {
    let scenario = Scenario::build(kind, 42, 8);
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    for packet in &scenario.captures {
        kalis.ingest(packet.clone());
    }
    if let Some(last) = scenario.captures.last() {
        kalis.tick(last.timestamp + Duration::from_secs(2));
    }
    let packets = scenario.captures.len();
    (kalis, packets)
}

#[test]
fn counters_match_meter_and_alerts() {
    let (mut kalis, packets) = run_scenario(ScenarioKind::IcmpFlood);
    let alerts = kalis.drain_alerts();
    let meter = kalis.meter();
    let snap = kalis.telemetry().snapshot();

    // The registry, the ResourceMeter facade, and ground truth agree.
    assert_eq!(meter.packets, packets as u64);
    assert_eq!(snap.counter(names::PACKETS_INGESTED), meter.packets);
    assert_eq!(snap.counter(names::WORK_UNITS), meter.work_units);
    assert_eq!(
        snap.gauge(names::PEAK_STATE_BYTES),
        meter.peak_state_bytes as u64
    );

    // Every drained alert was counted, overall and per kind/severity.
    assert!(!alerts.is_empty(), "scenario must raise alerts");
    assert_eq!(snap.counter(names::ALERTS), alerts.len() as u64);
    let by_kind: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("alerts.by["))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(by_kind, alerts.len() as u64);
    let journaled_alerts = snap
        .journal
        .records
        .iter()
        .filter(|r| r.event.kind() == "alert_raised")
        .count() as u64
        + snap.journal.dropped;
    assert!(journaled_alerts >= alerts.len() as u64);
}

#[test]
fn dispatch_histograms_and_audit_trail_populate() {
    let (kalis, packets) = run_scenario(ScenarioKind::IcmpFlood);
    let snap = kalis.telemetry().snapshot();

    // One pipeline sample per packet the sampling rule times.
    let pipeline = snap.histogram(names::PIPELINE).expect("pipeline histogram");
    let timed = (1..=packets as u64).filter(|&n| Kalis::ingest_timed(n));
    assert_eq!(pipeline.count, timed.count() as u64);

    // Per-module dispatch latency histograms exist and the modules that
    // ran have samples (histograms are pre-registered for the whole
    // library, so never-activated modules legitimately stay at zero).
    let dispatch: Vec<_> = snap.histograms_in(names::DISPATCH_PACKET).collect();
    assert!(!dispatch.is_empty(), "per-module dispatch histograms");
    let sampled = dispatch.iter().filter(|(_, h)| h.count > 0).count();
    assert!(sampled > 0, "no module dispatch was ever sampled");
    // Packet dispatch latency is sampled (one packet in eight), so the
    // histogram totals are bounded by — not equal to — the work units.
    let dispatched: u64 = dispatch.iter().map(|(_, h)| h.count).sum::<u64>()
        + snap
            .histograms_in(names::DISPATCH_TICK)
            .map(|(_, h)| h.count)
            .sum::<u64>();
    assert!(dispatched > 0);
    assert!(
        dispatched <= snap.counter(names::WORK_UNITS),
        "dispatch samples cannot exceed work units"
    );
    for (name, hist) in &dispatch {
        let total: u64 = hist.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, hist.count, "{name} bucket conservation");
    }

    // Knowledge-base activity was counted.
    assert!(snap.counter("kb.ops[op=insert]") > 0);
    assert!(snap.counter("kb.ops[op=get]") > 0);
    assert!(snap.counter(names::KB_CHURN) > 0);
    assert_eq!(
        snap.gauge(names::KB_REVISION),
        snap.counter(names::KB_CHURN)
    );

    // The activation audit trail names the modules and their triggers.
    let activations: Vec<_> = snap
        .journal
        .records
        .iter()
        .filter(|r| r.event.kind() == "module_activated")
        .collect();
    assert!(!activations.is_empty(), "audit trail must not be empty");
    assert!(snap.counter(names::MODULES_ACTIVATED) > 0);
    assert!(snap.gauge(names::MODULES_ACTIVE) > 0);
}

#[test]
fn exporters_round_trip_the_same_snapshot() {
    let (kalis, _) = run_scenario(ScenarioKind::IcmpFlood);
    let snap = kalis.telemetry().snapshot();

    // JSON round-trips losslessly.
    let parsed = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse own JSON");
    assert_eq!(parsed, snap);

    // The Prometheus exposition carries every counter value verbatim.
    let prom = snap.to_prometheus();
    for (name, value) in &snap.counters {
        let family = format!(
            "kalis_{}_total",
            name.split('[').next().unwrap().replace('.', "_")
        );
        assert!(
            prom.lines()
                .any(|l| l.starts_with(&family) && l.ends_with(&format!(" {value}"))),
            "counter {name}={value} missing from exposition"
        );
    }
    for hist in snap.histograms.values() {
        // Histogram sample counts survive as `_count` series.
        assert!(prom.contains(&format!(" {}", hist.count)));
    }
}

#[test]
fn journal_eviction_is_visible_as_counter_and_gauge() {
    // A deliberately tiny ring: 12 events into 4 slots must evict 8 and
    // report it through the registry, not just the snapshot struct.
    let telemetry = Telemetry::with_journal_capacity(4);
    for i in 0..12u64 {
        telemetry.journal().record(
            i,
            JournalEvent::AlertRaised {
                kind: "IcmpFlood".into(),
                severity: "High".into(),
                module: format!("m{i}"),
            },
        );
    }
    let snap = telemetry.snapshot();
    assert_eq!(snap.journal.records.len(), 4);
    assert_eq!(snap.journal.dropped, 8);
    assert_eq!(snap.counter(names::JOURNAL_DROPPED), 8);
    assert_eq!(snap.gauge(names::JOURNAL_HIGH_WATER), 4);

    // A healthy scenario run keeps the same two instruments coherent:
    // the gauge never exceeds the retained capacity and the counter
    // matches the snapshot's own dropped tally.
    let (kalis, _) = run_scenario(ScenarioKind::IcmpFlood);
    let snap = kalis.telemetry().snapshot();
    assert_eq!(snap.counter(names::JOURNAL_DROPPED), snap.journal.dropped);
    assert!(snap.gauge(names::JOURNAL_HIGH_WATER) >= snap.journal.records.len() as u64);
}

#[test]
fn sync_counters_track_collaborative_exchange() {
    let scenario = Scenario::build(ScenarioKind::Wormhole, 42, 8);
    let mut nodes = ["K1", "K2"].map(|id| {
        Kalis::builder(KalisId::new(id))
            .with_default_modules()
            .build()
    });
    kalis_bench::runner::run_nodes(
        &mut nodes,
        &scenario.vantages(),
        &mut kalis_bench::runner::Link::default(),
    );
    let snap_a = nodes[0].telemetry().snapshot();
    let snap_b = nodes[1].telemetry().snapshot();

    // Knowledge flowed in both directions and the ledgers agree.
    assert!(snap_a.counter(names::SYNC_SENT) > 0);
    assert!(snap_b.counter(names::SYNC_ACCEPTED) + snap_b.counter(names::SYNC_REJECTED) > 0);
    assert_eq!(
        snap_a.counter(names::SYNC_BYTES_OUT),
        snap_b.counter(names::SYNC_BYTES_IN),
        "A's bytes out are B's bytes in (symmetric schedule)"
    );
    assert_eq!(
        snap_b.counter(names::SYNC_BYTES_OUT),
        snap_a.counter(names::SYNC_BYTES_IN)
    );
    let sync_events = snap_a
        .journal
        .records
        .iter()
        .filter(|r| r.event.kind().starts_with("sync_"))
        .count();
    assert!(sync_events > 0, "journal records the exchange");
}

/// The whole-ingest histogram times one packet in eight by a hash of the
/// packet count, so a trace that ticks on every eighth packet neither
/// keeps every tick-bearing packet in the sample nor keeps them all out.
#[test]
fn ingest_sample_does_not_phase_lock_with_the_tick() {
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    let registry = kalis.telemetry();
    let (ticks, pipeline) = (
        registry.counter(names::TICKS),
        registry.histogram(names::PIPELINE),
    );
    let (mut sampled, mut tick_bearing) = (0u64, 0u64);
    let packets = 4_000u64;
    for n in 0..packets {
        // 125 ms apart: the one-second tick falls on every eighth packet.
        let raw = bytes::Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]);
        let at = Timestamp::from_millis(n * 125);
        let packet = CapturedPacket::capture(at, Medium::Wifi, None, "w", raw);
        let (ticks_before, timed_before) = (ticks.get(), pipeline.count());
        kalis.ingest(packet);
        let timed = pipeline.count() > timed_before;
        assert_eq!(timed, Kalis::ingest_timed(n + 1), "packet {n}");
        sampled += u64::from(timed);
        tick_bearing += u64::from(timed && ticks.get() > ticks_before);
    }
    assert_eq!(ticks.get(), packets / 8, "a tick every eighth packet");
    assert!((packets / 10..=packets / 6).contains(&sampled), "{sampled}");
    assert!(
        (sampled / 16..=sampled / 4).contains(&tick_bearing),
        "{tick_bearing} of {sampled} sampled packets bore a tick"
    );
}
