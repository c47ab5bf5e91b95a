//! Node-level integration tests for the flight recorder: anomaly
//! triggers latch `kalis.diag.v1` bundles during real runs, the same
//! seeded chaos produces byte-identical bundles twice, `Diag.*`
//! knowggets gate depth and triggers, and the ops listener serves the
//! retained bundles at `/debug/diag`.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::time::Duration;

use kalis_bench::experiments::spray_trace;
use kalis_core::alert::AttackKind;
use kalis_core::config::Config;
use kalis_core::modules::{Module, ModuleCtx, ModuleDescriptor};
use kalis_core::{Kalis, KalisId};
use kalis_packets::{CapturedPacket, MacAddr, Medium, Timestamp};
use kalis_telemetry::{check_bundle, names, DiagBundle, JournalEvent, Trigger, TRIGGER_MASK_ALL};

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

/// An ICMP echo request riding Wi-Fi, from `src_index`.
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

const CRASHY: &str = "CrashyDiagModule";

/// A pinned detection module that panics on marker packets — the
/// readiness-flip trigger's stand-in for a buggy but required
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

/// Drive one node through the seeded identity spray and return
/// everything the run left behind for comparison.
fn spray_run(seed: u64, config: &str) -> (Vec<(String, String)>, Option<String>, u64, u64) {
    let mut builder = Kalis::builder(KalisId::new("K1")).with_default_modules();
    if !config.is_empty() {
        builder = builder.with_config(config.parse::<Config>().expect("valid config"));
    }
    let mut node = builder.build();
    let mut last = Timestamp::ZERO;
    for packet in spray_trace(seed, 400, 8) {
        last = last.max(packet.timestamp);
        node.ingest(packet);
    }
    node.tick(last + Duration::from_secs(2));
    let snap = node.telemetry().snapshot();
    let journaled = snap
        .journal
        .records
        .iter()
        .filter(|r| matches!(r.event, JournalEvent::DiagCaptured { .. }))
        .count() as u64;
    (
        node.diag_bundles().to_vec(),
        node.diag_last_trigger().map(str::to_owned),
        snap.counter(names::DIAG_CAPTURES),
        journaled,
    )
}

#[test]
fn state_exhaustion_spray_latches_valid_byte_identical_bundles() {
    let (bundles, trigger, captures, journaled) = spray_run(42, "");
    assert!(captures > 0, "the spray must latch at least one capture");
    assert_eq!(trigger.as_deref(), Some("state-exhaustion"));
    assert!(journaled >= 1, "captures must be journaled");
    assert!(
        !bundles.is_empty() && bundles.len() <= 4,
        "retention keeps 1..=4 bundles, got {}",
        bundles.len()
    );
    for (id, body) in &bundles {
        let stats = check_bundle(body).expect("every retained bundle passes the strict checker");
        assert!(stats.frames > 0, "{id}: bundle froze no frames");
        let parsed = DiagBundle::parse(body).expect("bundle parses");
        assert_eq!(&parsed.bundle_id, id);
        assert_eq!(parsed.node, "K1");
        assert!(
            parsed.config_fingerprint.starts_with("fnv1a:"),
            "{id}: bad fingerprint {}",
            parsed.config_fingerprint
        );
    }
    // The same seeded run must reproduce every byte of every bundle.
    let again = spray_run(42, "");
    assert_eq!(
        (bundles, trigger, captures, journaled),
        again,
        "double run diverged"
    );
}

#[test]
fn diag_knowggets_gate_depth_and_trigger_mask() {
    let (bundles, _, captures, _) = spray_run(7, "knowggets = { Diag.RingDepth = 0 }");
    assert_eq!(captures, 0, "depth 0 disables the recorder");
    assert!(bundles.is_empty());

    let mask = TRIGGER_MASK_ALL & !Trigger::StateExhaustion.bit();
    let config = format!("knowggets = {{ Diag.TriggerMask = {mask} }}");
    let (bundles, trigger, captures, _) = spray_run(7, &config);
    assert_eq!(captures, 0, "masked trigger must not latch: {trigger:?}");
    assert!(bundles.is_empty());
}

#[test]
fn readiness_flip_captures_and_the_ops_listener_serves_it() {
    quiet_crashy_panics();
    let config: Config = "knowggets = { Supervisor.PanicLimit = 2 }".parse().unwrap();
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_config(config)
        .with_module(Box::new(CrashyModule), true)
        .with_ops(SocketAddr::from((Ipv4Addr::LOCALHOST, 0)))
        .build();
    let addr = kalis.ops_addr().expect("ops surface enabled");

    // A poison train past the panic limit quarantines the pinned
    // module; the next tick sees the readiness flip and captures.
    for i in 0..3u64 {
        kalis.ingest(poison_packet(i * 10));
    }
    kalis.tick(Timestamp::from_millis(1_100));
    assert_eq!(kalis.diag_last_trigger(), Some("readiness-flip"));
    let (id, body) = kalis
        .diag_bundles()
        .last()
        .expect("bundle retained")
        .clone();
    check_bundle(&body).expect("retained bundle is schema-valid");

    let (code, index) = http_get(addr, "/debug/diag");
    assert_eq!(code, 200);
    assert!(index.contains(&id), "index must list {id}: {index}");
    let (code, served) = http_get(addr, &format!("/debug/diag/{id}"));
    assert_eq!(code, 200);
    assert_eq!(served, body, "served bundle must be the retained bytes");
    let (code, _) = http_get(addr, "/debug/diag/K1-999-nope");
    assert_eq!(code, 404);
}
