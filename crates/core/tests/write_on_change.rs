//! A plain packet pays only for what it can change. The sensing modules
//! keep asserting what every frame shows — the medium and protocols seen,
//! whether the network is multi-hop, each transmitter's signal strength —
//! but write it only where the Knowledge Base does not already hold it as
//! they last wrote it, and read their own writes back only after the
//! label's change stamp says someone else wrote since. The watchdogs read
//! CTP frames only. So on a home gateway's WiFi traffic, most packets
//! make no Knowledge Base write and no read, and reach fewer modules.
//!
//! Exactly as before, though: a change from outside — an operator's
//! write, an entity purge — is corrected by the next packet that shows
//! the fact. The stamp is what makes that hold; a module that trusted
//! its memory alone would leave the outside value standing.

use std::net::Ipv4Addr;

use kalis_core::sensing::labels;
use kalis_core::{Kalis, KalisId};
use kalis_netsim::craft;
use kalis_packets::tcp::TcpSegment;
use kalis_packets::udp::UdpPacket;
use kalis_packets::{CapturedPacket, Entity, MacAddr, Medium, Timestamp};
use kalis_telemetry::{metric_name, names};

/// Frame `index` of a home gateway's WiFi side, 25 ms apart (40 pps):
/// eight stations in turn, each talking TCP, UDP or ICMP to a server,
/// each at its own distance with a signal that wobbles by a fraction of
/// a dB, so the published (1 dB) estimates mostly stand.
fn home(index: u64) -> CapturedPacket {
    let station = (index % 8) as u32;
    let round = index / 8;
    let (mac, ip) = (
        MacAddr::from_index(10 + station),
        Ipv4Addr::new(10, 0, 0, 10 + station as u8),
    );
    let server = (MacAddr::from_index(1), Ipv4Addr::new(10, 0, 0, 1));
    let packet = match round % 3 {
        0 => craft::ipv4_tcp(ip, server.1, &TcpSegment::ack(40_000, 443, round as u32, 1)),
        1 => craft::ipv4_udp(ip, server.1, &UdpPacket::new(40_001, 53, b"q".to_vec())),
        _ => craft::ipv4_echo_request(ip, server.1, 1, round as u16),
    };
    let raw = craft::wifi_ipv4(mac, server.0, MacAddr::from_index(0), round as u16, &packet);
    let wobble = if round % 2 == 0 { 0.2 } else { -0.2 };
    let rssi = -40.0 - 4.0 * f64::from(station) + wobble;
    let time = Timestamp::from_millis(index * 25);
    CapturedPacket::capture(time, Medium::Wifi, Some(rssi), "t", raw)
}

fn default_node() -> Kalis {
    Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build()
}

/// Knowledge Base inserts, gets and changes, and module work units, per
/// packet over `packets` frames after a warm-up.
fn per_packet(node: &mut Kalis, packets: u64) -> [f64; 4] {
    const WARM: u64 = 2_000;
    for index in 0..WARM {
        node.ingest(home(index));
    }
    let telemetry = node.telemetry();
    let counters = [
        metric_name(names::KB_OPS, &[("op", "insert")]),
        metric_name(names::KB_OPS, &[("op", "get")]),
        names::KB_CHURN.to_owned(),
        names::WORK_UNITS.to_owned(),
    ]
    .map(|name| telemetry.counter(&name));
    let before: Vec<u64> = counters.iter().map(|counter| counter.get()).collect();
    for index in WARM..WARM + packets {
        node.ingest(home(index));
    }
    let mut rates = [0.0; 4];
    for (rate, (counter, was)) in rates.iter_mut().zip(counters.iter().zip(before)) {
        *rate = (counter.get() - was) as f64 / packets as f64;
    }
    rates
}

#[test]
fn a_plain_packet_writes_and_reads_only_what_changes() {
    let mut node = default_node();
    let [inserts, gets, churn, work] = per_packet(&mut node, 8_000);
    // Writing every fact on every packet made two inserts a WiFi packet
    // at least (its medium and its protocol), reading each estimate back
    // one get, and the watchdogs two dispatches. What is left (0.75,
    // 0.025 and 5.56 here) is the traffic statistics' own changes.
    assert!(inserts <= 1.0, "{inserts} inserts a packet");
    assert!(gets <= 0.7, "{gets} gets a packet");
    assert!(work <= 6.5, "{work} work units a packet");
    // And they repeat exactly for the same traffic.
    let again = per_packet(&mut default_node(), 8_000);
    assert_eq!(again, [inserts, gets, churn, work]);
}

#[test]
fn an_outside_write_or_purge_is_corrected_by_the_next_packet_that_shows_the_fact() {
    let mut node = default_node();
    let mut index = 0;
    let mut next = |node: &mut Kalis| {
        node.ingest(home(index));
        index += 8; // station 0 every time
    };
    for _ in 0..4 {
        next(&mut node);
    }
    let station = Entity::from(MacAddr::from_index(10));
    let signal = |node: &Kalis| {
        let held = node
            .knowledge()
            .get_about(labels::SIGNAL_STRENGTH, &station);
        held.and_then(|v| v.as_f64())
    };
    assert_eq!(
        node.knowledge().get_bool(labels::MEDIUM_SEEN_WIFI),
        Some(true)
    );
    assert_eq!(signal(&node), Some(-40.0));

    // An operator says no WiFi was seen; the next WiFi frame says it was.
    node.knowledge_mut().insert(labels::MEDIUM_SEEN_WIFI, false);
    next(&mut node);
    assert_eq!(
        node.knowledge().get_bool(labels::MEDIUM_SEEN_WIFI),
        Some(true)
    );

    // An operator rewrites the station's signal strength; its next frame
    // publishes the estimate again, unchanged as it is.
    let kb = node.knowledge_mut();
    kb.insert_about(labels::SIGNAL_STRENGTH, station.clone(), -90.0);
    next(&mut node);
    assert_eq!(signal(&node), Some(-40.0));

    // The entity budget shrinks to one and someone else takes it: the
    // station's knowledge is purged, and its next frame puts the
    // estimate back.
    let kb = node.knowledge_mut();
    kb.set_entity_budget(1);
    kb.insert_about("Probe", Entity::from("elsewhere"), true);
    assert_eq!(signal(&node), None);
    next(&mut node);
    assert_eq!(signal(&node), Some(-40.0));
}
