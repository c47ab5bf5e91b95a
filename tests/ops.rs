//! Integration tests for the kalis-ops surface: a live node serving
//! `/metrics`, `/healthz`, `/readyz`, and `/status` over its loopback
//! listener, with readiness provably flipping to 503 (and recovering)
//! under each of the three degradation triggers — a quarantined pinned
//! module, engaged overload shedding, and sync degraded mode.
//!
//! Traffic runs on the virtual capture clock; only the HTTP scrapes
//! touch the real network (loopback, ephemeral ports), so the tests
//! stay deterministic and parallel-safe.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};

use kalis_core::alert::AttackKind;
use kalis_core::config::Config;
use kalis_core::knowledge::PeerBeacon;
use kalis_core::modules::{Module, ModuleCtx, ModuleDescriptor, ShedMode};
use kalis_core::{Kalis, KalisId};
use kalis_packets::{CapturedPacket, MacAddr, Medium, Timestamp};
use kalis_telemetry::check_exposition;
use kalis_telemetry::json::{parse, JsonValue};

/// Plain HTTP/1.0 GET against the node's ops listener.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ops listener");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: kalis\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let code = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

/// The loopback address on an ephemeral port, for the ops listener.
const EPHEMERAL: SocketAddr = SocketAddr::new(std::net::IpAddr::V4(Ipv4Addr::LOCALHOST), 0);

/// A config with just `knowggets`.
fn knowggets(text: &str) -> Config {
    format!("knowggets = {{ {text} }}")
        .parse()
        .expect("config parses")
}

/// An ICMP echo request from `src_index` riding Wi-Fi — carries a
/// network source entity for the hot-entity sketch.
fn echo_packet(ms: u64, src_index: u32) -> CapturedPacket {
    let src = Ipv4Addr::new(10, 0, (src_index >> 8) as u8, src_index as u8);
    let ip = kalis_netsim::craft::ipv4_echo_request(src, Ipv4Addr::new(10, 0, 0, 1), 7, 1);
    let raw = kalis_netsim::craft::wifi_ipv4(
        MacAddr::from_index(src_index),
        MacAddr::BROADCAST,
        MacAddr::from_index(0),
        0,
        &ip,
    );
    CapturedPacket::capture(
        Timestamp::from_millis(ms),
        Medium::Wifi,
        Some(-50.0),
        "w",
        raw,
    )
}

/// RSSI marker the crash-prone module panics on.
const POISON_RSSI: f64 = -99.0;

fn poison_packet(ms: u64) -> CapturedPacket {
    let mut packet = echo_packet(ms, 2);
    packet.rssi_dbm = Some(POISON_RSSI);
    packet
}

const CRASHY: &str = "CrashyOpsModule";

/// A pinned detection module that panics on marker packets — the
/// readiness test's stand-in for a buggy but operator-required
/// technique.
struct CrashyModule;

impl Module for CrashyModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection(CRASHY, AttackKind::Sybil)
    }

    fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        assert!(
            packet.rssi_dbm != Some(POISON_RSSI),
            "{CRASHY} choked on a poison packet"
        );
    }
}

/// Suppress the default panic-to-stderr hook for the intentional
/// in-module panics; everything else still reaches the previous hook.
fn quiet_crashy_panics() {
    use std::sync::Once;
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let ours = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(CRASHY))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(CRASHY));
            if !ours {
                prev(info);
            }
        }));
    });
}

#[test]
fn live_node_serves_all_endpoints_and_exposition_is_strict_clean() {
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .with_config(knowggets("Ops.LatencySloUs = 100000"))
        .build();
    let addr = kalis.ops_addr().expect("ops surface enabled");

    // Two capture-seconds of traffic from a handful of sources, one of
    // them hot, then an explicit tick so the refresh sees the sketch.
    for i in 0..200u64 {
        kalis.ingest(echo_packet(
            i * 10,
            if i % 4 == 0 { (i % 7) as u32 + 10 } else { 3 },
        ));
    }
    kalis.tick(Timestamp::from_millis(2_500));

    let (code, _) = http_get(addr, "/healthz");
    assert_eq!(code, 200, "liveness always answers 200");

    let (code, metrics) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    let problems = check_exposition(&metrics);
    assert!(
        problems.is_empty(),
        "strict exposition violations: {problems:?}"
    );
    for family in [
        "kalis_module_cpu_ns_total",
        "kalis_hot_entity",
        "kalis_ops_requests_total",
        "kalis_packets_ingested_total",
    ] {
        assert!(metrics.contains(family), "scrape is missing {family}");
    }
    // Hot-entity cardinality stays capped at the sketch capacity even
    // though the trace carried more distinct sources.
    let hot_series = metrics
        .lines()
        .filter(|l| l.starts_with("kalis_hot_entity{"))
        .count();
    assert!(
        (1..=8).contains(&hot_series),
        "expected 1..=8 hot-entity series, saw {hot_series}"
    );
    assert!(
        metrics.contains("entity=\"10.0.0.3\""),
        "the dominant source must be in the top-K"
    );

    let (code, ready) = http_get(addr, "/readyz");
    assert_eq!(code, 200, "healthy node is ready: {ready}");

    let (code, status) = http_get(addr, "/status");
    assert_eq!(code, 200);
    let doc = parse(&status).expect("status is valid JSON");
    assert_eq!(doc.get("node").and_then(JsonValue::as_str), Some("K1"));
    assert_eq!(doc.get("ready").and_then(JsonValue::as_u64), Some(1));
    assert!(
        doc.get("uptime_us")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0
    );
    let modules = doc
        .get("modules")
        .and_then(JsonValue::as_arr)
        .expect("modules array");
    assert!(!modules.is_empty());
    assert!(
        modules.iter().all(|m| m
            .get("health")
            .and_then(JsonValue::as_str)
            .is_some_and(|h| h == "healthy")),
        "calm traffic leaves every module healthy"
    );
    let dispatched: u64 = modules
        .iter()
        .filter_map(|m| m.get("dispatches").and_then(JsonValue::as_u64))
        .sum();
    assert!(dispatched > 0, "profiler counted no dispatches");
    let slo = doc.get("slo").expect("slo posture present");
    assert_eq!(
        slo.get("target_us").and_then(JsonValue::as_u64),
        Some(100_000)
    );

    // The scrapes themselves were metered.
    let snapshot = kalis.telemetry().snapshot();
    assert_eq!(snapshot.counter("ops.requests[endpoint=metrics]"), 1);
    assert_eq!(snapshot.counter("ops.requests[endpoint=status]"), 1);
}

#[test]
fn readiness_flips_on_pinned_quarantine_and_recovers_after_probation() {
    quiet_crashy_panics();
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_config(knowggets("Supervisor.PanicLimit = 2"))
        .with_module(Box::new(CrashyModule), true)
        .with_ops(EPHEMERAL)
        .build();
    let addr = kalis.ops_addr().expect("ops surface enabled");

    let (code, _) = http_get(addr, "/readyz");
    assert_eq!(code, 200, "fresh node starts ready");

    // A poison train past the panic limit quarantines the pinned module.
    for i in 0..3u64 {
        kalis.ingest(poison_packet(i * 10));
    }
    let (code, body) = http_get(addr, "/readyz");
    assert_eq!(code, 503, "quarantined pinned module must flip readiness");
    assert!(
        body.contains(&format!("pinned_module_quarantined:{CRASHY}")),
        "machine-readable reason missing: {body}"
    );
    // Liveness is unaffected.
    let (code, _) = http_get(addr, "/healthz");
    assert_eq!(code, 200);

    // Past the backoff, clean traffic releases the module to probation
    // and readiness recovers.
    for i in 0..3u64 {
        kalis.ingest(echo_packet(6_000 + i * 10, 5));
    }
    let (code, body) = http_get(addr, "/readyz");
    assert_eq!(code, 200, "probation restores readiness: {body}");
}

#[test]
fn readiness_flips_during_overload_shedding_and_recovers() {
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .with_config(knowggets("Supervisor.BurstPps = 50"))
        .with_ops(EPHEMERAL)
        .build();
    let addr = kalis.ops_addr().expect("ops surface enabled");

    // ~10× capacity: 500 packets over one capture-second.
    for i in 0..500u64 {
        let _ = kalis.try_ingest(echo_packet(i * 2, 3));
    }
    assert_ne!(kalis.shed_mode(), ShedMode::None, "burst engages shedding");
    let (code, body) = http_get(addr, "/readyz");
    assert_eq!(code, 503, "shedding node is not ready");
    assert!(
        body.contains("overload_shedding:"),
        "machine-readable reason missing: {body}"
    );
    let (_, status) = http_get(addr, "/status");
    let doc = parse(&status).expect("status is valid JSON");
    assert_ne!(
        doc.get("shed_mode").and_then(JsonValue::as_str),
        Some("none"),
        "status mirrors the shed mode"
    );

    // Calm traffic releases the shed and readiness recovers.
    for i in 0..60u64 {
        kalis.ingest(echo_packet(2_000 + i * 100, 3));
    }
    assert_eq!(kalis.shed_mode(), ShedMode::None);
    let (code, body) = http_get(addr, "/readyz");
    assert_eq!(code, 200, "released shed restores readiness: {body}");
}

#[test]
fn readiness_flips_when_sync_partitions_and_heals_on_recovery() {
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .with_ops(EPHEMERAL)
        .build();
    let addr = kalis.ops_addr().expect("ops surface enabled");
    let beacon = PeerBeacon {
        from: KalisId::new("K2"),
    };

    kalis.observe_beacon(&beacon, Timestamp::from_secs(1));
    // Discovery alone does not change readiness; the peer ledger
    // reaches /status at the next tick-cadence refresh.
    kalis.tick(Timestamp::from_secs(2));
    let (_, status) = http_get(addr, "/status");
    let doc = parse(&status).expect("status is valid JSON");
    let peers = doc.get("peers").and_then(JsonValue::as_arr).expect("peers");
    assert_eq!(
        peers[0].get("id").and_then(JsonValue::as_str),
        Some("K2"),
        "peer ledger reaches /status"
    );

    // The peer falls silent past 2× TTL: degraded local-only mode.
    kalis.sync_poll(Timestamp::from_secs(40));
    kalis.sync_poll(Timestamp::from_secs(70));
    assert!(kalis.degraded());
    let (code, body) = http_get(addr, "/readyz");
    assert_eq!(code, 503, "degraded sync must flip readiness");
    assert!(body.contains("sync_degraded"), "reason missing: {body}");

    // The peer beacons again: reintegration exits degraded mode and the
    // transition republishes immediately.
    kalis.observe_beacon(&beacon, Timestamp::from_secs(71));
    assert!(!kalis.degraded());
    let (code, body) = http_get(addr, "/readyz");
    assert_eq!(code, 200, "healed sync restores readiness: {body}");
    let (_, status) = http_get(addr, "/status");
    let doc = parse(&status).expect("status is valid JSON");
    assert_eq!(
        doc.get("sync_degraded").and_then(JsonValue::as_u64),
        Some(0)
    );
}

#[test]
fn ops_knobs_ride_the_config_language_and_recommendation_round_trips() {
    let kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .with_config(knowggets("Ops.LatencySloUs = 250000, Ops.HotEntities = 4"))
        .build();
    // The knowggets alone enabled the surface (ephemeral loopback port).
    let addr = kalis
        .ops_addr()
        .expect("Ops.* knowggets enable the surface");
    assert!(addr.port() > 0);
    let recommended = kalis.recommend_config().to_string();
    assert!(
        recommended.contains(&format!("Ops.Port = {}", addr.port())),
        "recommendation pins the resolved port: {recommended}"
    );
    assert!(recommended.contains("Ops.LatencySloUs = 250000"));
    assert!(recommended.contains("Ops.HotEntities = 4"));
    // A node without the surface recommends no Ops keys.
    let plain = Kalis::builder(KalisId::new("K2"))
        .with_default_modules()
        .build();
    assert!(plain.ops_addr().is_none());
    assert!(!plain.recommend_config().to_string().contains("Ops."));
}
