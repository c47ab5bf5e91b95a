//! A packet that changes nothing anyone subscribed to costs the node no
//! heap allocation, neither does asking a decoded packet who sent it,
//! and neither does a housekeeping tick whose wormhole verdict stands,
//! nor a reading or a tick under a blackhole verdict that stands;
//! a packet of identities never seen before, with every budget full,
//! almost always allocates nothing: counted with the allocator
//! `kb_allocations.rs` counts with (`counting_alloc/mod.rs`), from the
//! Knowledge Base out to the whole node.
//!
//! Three mechanisms hold the packet's pin together, and reverting any
//! one fails it: the Module Manager re-evaluates only slots whose
//! activation inputs changed (no `required()` pass, no trigger text),
//! change events are built only once someone subscribed, and `Entity`
//! keeps short names inline. The tick's pin rests on the wormhole
//! module keeping its verdict while the Knowledge Base says neither
//! input changed, the blackhole's on the watchdog saying whether its
//! ledger moved and the Knowledge Base whether it still holds the
//! evidence. The new identity's pin rests on the sensing modules
//! publishing about an identity from its second sighting only, so none
//! reaches the Knowledge Base, and on the flood detectors holding a
//! victim's first suspect inline: with either undone, it fails. A sync
//! exchange allocates for the knowggets it carries and not for their
//! fields: values encoded from their typed form into the one sealed
//! buffer, fields decoded as borrowed slices, and node ids held inline
//! (37 allocations for two knowggets when each field was a `String`).

mod counting_alloc;

use std::net::Ipv4Addr;
use std::time::Duration;

use bytes::Bytes;
use kalis_core::knowledge::{SyncMessage, XorChannel};
use kalis_core::{AttackKind, Kalis, KalisId, KnowValue, Knowgget};
use kalis_netsim::craft;
use kalis_packets::tcp::TcpSegment;
use kalis_packets::udp::UdpPacket;
use kalis_packets::{
    CapturedPacket, Entity, ExtAddr, MacAddr, Medium, Packet, ShortAddr, Timestamp,
};
use kalis_telemetry::names;

use counting_alloc::allocations;

/// The frame kinds of the periodic stream, one of each per period.
const KINDS: [&str; 8] = [
    "wifi tcp",
    "wifi udp",
    "wifi icmp",
    "ctp data, originated",
    "ctp data, forwarded",
    "ctp beacon, root",
    "ctp beacon, parent",
    "zigbee data",
];

/// Frame `index` of a stream that repeats every `KINDS.len()` frames,
/// 100 ms apart: a home gateway's WiFi side (one station talking TCP,
/// UDP and ICMP to one server) and a three-node CTP tree plus a ZigBee
/// pair on 802.15.4. The same identities at a steady rate, so every
/// window and map settles at a steady length; each signal strength
/// wobbles across a whole dB, so the published per-entity estimates
/// (1 dB granularity) keep churning.
fn frame(index: u64) -> CapturedPacket {
    let period = index / KINDS.len() as u64;
    let seq = period as u8;
    let station = (MacAddr::from_index(7), Ipv4Addr::new(10, 0, 0, 7));
    let server = (MacAddr::from_index(1), Ipv4Addr::new(10, 0, 0, 1));
    let wifi = |ip| {
        let bssid = MacAddr::from_index(0);
        craft::wifi_ipv4(station.0, server.0, bssid, period as u16, &ip)
    };
    let (root, relay, leaf) = (ShortAddr(1), ShortAddr(2), ShortAddr(3));
    let (medium, raw): (Medium, Bytes) = match index % KINDS.len() as u64 {
        0 => {
            let segment = TcpSegment::ack(40_000, 443, period as u32, 1);
            (
                Medium::Wifi,
                wifi(craft::ipv4_tcp(station.1, server.1, &segment)),
            )
        }
        1 => {
            let datagram = UdpPacket::new(40_001, 5_683, b"reading".to_vec());
            (
                Medium::Wifi,
                wifi(craft::ipv4_udp(station.1, server.1, &datagram)),
            )
        }
        2 => {
            let ping = craft::ipv4_echo_request(station.1, server.1, 1, period as u16);
            (Medium::Wifi, wifi(ping))
        }
        3 => (
            Medium::Ieee802154,
            craft::ctp_data(leaf, relay, seq, leaf, seq, 0, b"r"),
        ),
        4 => (
            Medium::Ieee802154,
            craft::ctp_data(relay, root, seq, leaf, seq, 1, b"r"),
        ),
        5 => (Medium::Ieee802154, craft::ctp_beacon(root, seq, root, 0)),
        6 => (Medium::Ieee802154, craft::ctp_beacon(relay, seq, root, 10)),
        _ => {
            let (from, to) = (ShortAddr(5), ShortAddr(6));
            let raw = craft::zigbee_data(from, to, seq, from, to, seq, b"on");
            (Medium::Ieee802154, raw)
        }
    };
    // Every transmitter at its own distance (station, leaf, relay, root,
    // relay, ZigBee sender), none of them moving.
    let distance = [-40.5, -40.5, -40.5, -52.5, -58.5, -64.5, -58.5, -70.5];
    let wobble = if period % 2 == 0 { 1.5 } else { -1.5 };
    let rssi = distance[(index % KINDS.len() as u64) as usize] + wobble;
    let time = Timestamp::from_millis(index * 100);
    CapturedPacket::capture(time, medium, Some(rssi), "t", raw)
}

/// Whether the Knowledge Base went from `before` to `after` holding the
/// same keys, with text nowhere among the values that differ.
fn only_scalars_changed(before: &[Knowgget], after: &[Knowgget]) -> bool {
    let text = |value: &KnowValue| matches!(value, KnowValue::Text(_));
    before.len() == after.len()
        && before.iter().zip(after).all(|(was, is)| {
            was.key() == is.key()
                && (was.value == is.value || !text(&was.value) && !text(&is.value))
        })
}

#[test]
fn a_packet_nobody_subscribed_to_allocates_nothing() {
    // As it ships: default library, telemetry attached, nobody on the bus.
    let mut node = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    // Two minutes: every window (the longest is 30 s) has turned over.
    const WARM: u64 = 1_200;
    const MEASURED: u64 = 480;
    for index in 0..WARM {
        node.ingest(frame(index));
    }
    let ticks = node.telemetry().counter(names::TICKS);
    let mut pinned = [0u32; KINDS.len()];
    let mut churned = 0;
    for index in WARM..WARM + MEASURED {
        let packet = frame(index);
        let before: Vec<Knowgget> = node.knowledge().iter().collect();
        let was = (
            ticks.get(),
            node.alerts().len(),
            node.active_modules(),
            node.knowledge().revision(),
        );
        let allocated = allocations(|| node.ingest(packet));
        let plain =
            (ticks.get(), node.alerts().len(), node.active_modules()) == (was.0, was.1, was.2);
        let after: Vec<Knowgget> = node.knowledge().iter().collect();
        if !plain || !only_scalars_changed(&before, &after) {
            continue;
        }
        let kind = (index % KINDS.len() as u64) as usize;
        assert_eq!(
            allocated, 0,
            "packet {index} ({}) bore no tick, alert, flip, new key or text",
            KINDS[kind]
        );
        pinned[kind] += 1;
        churned += u32::from(node.knowledge().revision() != was.3);
    }
    // The pin held something: most packets of every kind, and among them
    // packets that did change the Knowledge Base.
    for (kind, count) in KINDS.iter().zip(pinned) {
        assert!(
            count >= 40,
            "only {count} of 60 `{kind}` packets were plain"
        );
    }
    assert!(
        churned >= 100,
        "only {churned} pinned packets changed knowledge"
    );
    // Activation was live throughout: the stream's features switched
    // detection modules on.
    assert!(node.active_modules().contains(&"BlackholeModule"));
    assert!(node.active_modules().contains(&"UdpFloodModule"));
}

#[test]
fn asking_a_packet_for_its_identities_allocates_nothing() {
    let identities = |packet: &Packet| {
        (
            packet.transmitter(),
            packet.receiver(),
            packet.net_src(),
            packet.net_dst(),
        )
    };
    // Short addresses on both layers (ZigBee), MAC and IPv4 (WiFi).
    for index in [2, 7] {
        let captured = frame(index);
        let packet = captured.decoded().expect("the frame decodes");
        let mut named = (None, None, None, None);
        assert_eq!(allocations(|| named = identities(packet)), 0);
        assert!(named.0.is_some() && named.1.is_some() && named.2.is_some() && named.3.is_some());
    }
    // Extended addresses: the longest link-layer form.
    let named = allocations(|| kalis_packets::Entity::from(ExtAddr(u64::MAX)));
    assert_eq!(named, 0);
}

/// Frame `index` of the stream above, with a wormhole exit on the
/// 802.15.4 side: every fourth period, node `0x0014` relays a reading
/// from one of two origins this vantage never hears originate.
fn frame_near_a_wormhole_exit(index: u64) -> CapturedPacket {
    let period = index / KINDS.len() as u64;
    if index % KINDS.len() as u64 != 4 || period % 4 != 0 {
        return frame(index);
    }
    let (exit, root) = (ShortAddr(0x14), ShortAddr(1));
    let origin = ShortAddr(0x1e + (period / 4 % 2) as u16);
    let seq = period as u8;
    let raw = craft::ctp_data(exit, root, seq, origin, seq, 3, b"r");
    let time = Timestamp::from_millis(index * 100);
    CapturedPacket::capture(time, Medium::Ieee802154, Some(-58.5), "t", raw)
}

#[test]
fn a_tick_whose_wormhole_verdict_stands_allocates_nothing() {
    let mut node = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    // The peer's half of the evidence: K2 watches `0x000a` swallow what
    // both origins send.
    let k2 = KalisId::new("K2");
    let dropped = Knowgget::about(
        "DroppedOrigins",
        KnowValue::Text("0x001e,0x001f".to_owned()),
        k2.clone(),
        Entity::from(ShortAddr(0x0a)),
    );
    let accepted = node.accept_sync(SyncMessage::new(k2, vec![dropped]));
    assert_eq!(accepted.ok(), Some(1));
    // This node's own half comes from the frames; a minute in, both
    // origins have resurfaced at `0x0014` and the verdict stands.
    const WARM: u64 = 600;
    const PERIODS: u64 = 90;
    for index in 0..WARM {
        node.ingest(frame_near_a_wormhole_exit(index));
    }
    assert_eq!(node.knowledge().get_bool("Multihop"), Some(true));
    assert!(node.active_modules().contains(&"WormholeModule"));
    let wormholes = |node: &Kalis| -> Vec<u64> {
        (node.alerts().iter())
            .filter(|alert| alert.attack == AttackKind::Wormhole)
            .map(|alert| alert.time.as_micros() / 1_000)
            .collect()
    };
    assert!(!wormholes(&node).is_empty(), "no verdict to keep");
    let mut pinned = 0;
    for period in WARM / 8..WARM / 8 + PERIODS {
        for index in period * 8..period * 8 + 8 {
            node.ingest(frame_near_a_wormhole_exit(index));
        }
        // Two housekeeping ticks back to back after the period's last
        // frame, closer together than the recorder's interval.
        let at = Timestamp::from_millis(period * 800 + 750);
        node.tick(at);
        let was = (node.alerts().len(), node.knowledge().revision());
        let allocated = allocations(|| node.tick(at + Duration::from_millis(20)));
        if (node.alerts().len(), node.knowledge().revision()) != was {
            continue; // the gate let the periodic alert through, or a window expired
        }
        assert_eq!(allocated, 0, "the tick after period {period}");
        pinned += 1;
    }
    assert!(
        pinned >= PERIODS - 10,
        "only {pinned} of {PERIODS} ticks were quiet"
    );
    // The verdict was acted on throughout: the alert came back whenever
    // the gate's 30 s had passed, at a tick.
    assert_eq!(wormholes(&node), [7_000, 37_000, 67_150, 97_550, 127_950]);
}

/// Frame `index` of the stream above, the relay a blackhole: what the
/// leaf hands it is never passed on (the root beacons in that slot
/// instead).
fn frame_into_a_blackhole(index: u64) -> CapturedPacket {
    if index % KINDS.len() as u64 != 4 {
        return frame(index);
    }
    let root = ShortAddr(1);
    let raw = craft::ctp_beacon(root, (index / KINDS.len() as u64) as u8, root, 0);
    let time = Timestamp::from_millis(index * 100);
    CapturedPacket::capture(time, Medium::Ieee802154, Some(-64.5), "t", raw)
}

#[test]
fn a_standing_blackhole_verdict_allocates_nothing_for_its_evidence() {
    let mut node = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    // A minute in, the watchdog has seen the relay swallow seventy
    // readings: the verdict stands and its evidence is published.
    const WARM: u64 = 600;
    const PERIODS: u64 = 90;
    for index in 0..WARM {
        node.ingest(frame_into_a_blackhole(index));
    }
    let (relay, leaf) = (ShortAddr(2), ShortAddr(3));
    let blackholes = |node: &Kalis| {
        (node.alerts().iter())
            .filter(|alert| alert.attack == AttackKind::Blackhole)
            .count()
    };
    assert!(blackholes(&node) > 0, "no verdict to stand");
    let evidence =
        |node: &Kalis| (node.knowledge()).get_about("DroppedOrigins", &Entity::from(relay));
    assert_eq!(evidence(&node), Some(KnowValue::Text(leaf.to_string())));
    let ticks = node.telemetry().counter(names::TICKS);
    let (mut quiet_ticks, mut quiet_frames) = (0, 0);
    for period in WARM / 8..WARM / 8 + PERIODS {
        for index in period * 8..period * 8 + 8 {
            node.ingest(frame_into_a_blackhole(index));
        }
        // A housekeeping tick, on which the extra reading of the period
        // before comes overdue (the period is the relay deadline): from
        // here to the end of the period the watchdog's ledger stands, and
        // with it the evidence. At the parent each of the two measured
        // calls derived the origin list, named every origin, joined the
        // names and handed the Knowledge Base the text it already held.
        let at = Timestamp::from_millis(period * 800 + 780);
        node.tick(at);
        // A further reading for the relay to swallow.
        let raw = craft::ctp_data(leaf, relay, 200, leaf, period as u8, 0, b"r");
        let reading = CapturedPacket::capture(at, Medium::Ieee802154, Some(-52.5), "t", raw);
        let before: Vec<Knowgget> = node.knowledge().iter().collect();
        let was = (ticks.get(), node.alerts().len());
        let allocated = allocations(|| node.ingest(reading));
        let after: Vec<Knowgget> = node.knowledge().iter().collect();
        if (ticks.get(), node.alerts().len()) == was && only_scalars_changed(&before, &after) {
            assert_eq!(allocated, 0, "the reading after period {period}");
            quiet_frames += 1;
        }
        // The tick that publishes what the reading did to the rates, then
        // an idle one, sooner than the recorder samples again.
        node.tick(at + Duration::from_millis(5));
        let was = (node.alerts().len(), node.knowledge().revision());
        let allocated = allocations(|| node.tick(at + Duration::from_millis(10)));
        if (node.alerts().len(), node.knowledge().revision()) == was {
            assert_eq!(allocated, 0, "the idle tick after period {period}");
            quiet_ticks += 1;
        }
    }
    assert!(
        quiet_ticks >= PERIODS - 10 && quiet_frames >= PERIODS - 10,
        "only {quiet_ticks} ticks and {quiet_frames} readings of {PERIODS} were quiet"
    );
    // The verdict stood throughout: the alert came back at the gate's pace.
    assert!(blackholes(&node) >= 5);
    assert_eq!(evidence(&node), Some(KnowValue::Text(leaf.to_string())));
}

/// The identity sprayed frame `index` carries: scrambled as
/// `kalis_attacks::StateExhaustionAttacker` scrambles its counter (an odd
/// multiplier is a bijection on 24 bits), so new keys land all over the
/// ordered maps instead of always past their last one.
fn sprayed_identity(index: u32) -> u32 {
    index.wrapping_mul(0x9e37_79b1) & 0x00ff_ffff
}

/// Sprayed frame `index`: a UDP datagram whose source, destination and
/// transmitter MAC no earlier frame carried (the attacker's shape), 3 ms
/// after the last.
fn sprayed(index: u32) -> CapturedPacket {
    let id = sprayed_identity(index);
    let [_, a, b, c] = id.to_be_bytes();
    let (src, dst) = (Ipv4Addr::new(100, a, b, c), Ipv4Addr::new(101, a, b, c));
    let datagram = UdpPacket::new(1024 + (id & 0x7fff) as u16, 53, vec![0; 24]);
    let raw = craft::wifi_ipv4(
        MacAddr::from_index(0x0100_0000 + id),
        MacAddr::BROADCAST,
        MacAddr::from_index(0),
        index as u16,
        &craft::ipv4_udp(src, dst, &datagram),
    );
    let time = Timestamp::from_millis(u64::from(index) * 3);
    CapturedPacket::capture(time, Medium::Wifi, Some(-60.0), "t", raw)
}

#[test]
fn a_never_seen_identity_at_every_cap_allocates_next_to_nothing() {
    let mut node = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    // Past every module's budget of 1,024, so each new identity evicts an
    // old one everywhere; and past the Knowledge Base's 4,096 entities,
    // had any of them been heard twice.
    const WARM: u32 = 6_000;
    const MEASURED: u32 = 400;
    for index in 0..WARM {
        node.ingest(sprayed(index));
    }
    let kb_untouched = |node: &Kalis| {
        let knowledge = node.knowledge();
        (knowledge.entity_occupancy(), knowledge.entity_evictions()) == (0, 0)
    };
    assert!(kb_untouched(&node), "a sprayed identity reached the KB");
    let counts: Vec<u64> = (WARM..WARM + MEASURED)
        .map(|index| {
            let packet = sprayed(index);
            allocations(|| node.ingest(packet))
        })
        .collect();
    assert!(kb_untouched(&node), "a sprayed identity reached the KB");
    // What allocates: the two packets that bear the 1 s housekeeping
    // tick (measured indices 12 and 346; packets are 3 ms apart) and the
    // packet 13 after each (25 and 359). Every other new identity is
    // looked up, counted and evicted in place.
    let allocating: Vec<usize> = (counts.iter().enumerate())
        .filter_map(|(at, count)| (*count > 0).then_some(at))
        .collect();
    assert!(
        allocating.len() <= 4,
        "of {MEASURED} new identities, those at {allocating:?} allocated: {counts:?}"
    );
    let worst = counts.iter().max().copied();
    assert!(worst <= Some(20), "a packet allocated {worst:?} times");

    // A changed value under a key the store holds allocates nothing: an
    // identity heard twice has its signal strength published, and then
    // it moves.
    let twice = sprayed(WARM + MEASURED);
    node.ingest(twice.clone());
    node.ingest(twice);
    let id = sprayed_identity(WARM + MEASURED);
    let held = Entity::from(MacAddr::from_index(0x0100_0000 + id));
    let knowledge = node.knowledge_mut();
    assert!(knowledge.get_about("SignalStrength", &held).is_some());
    let revision = knowledge.revision();
    let changed = allocations(|| knowledge.insert_about("SignalStrength", held, -71.0));
    assert_eq!(changed, 0);
    assert_eq!(knowledge.revision(), revision + 1);
}

#[test]
fn a_sync_exchange_allocates_for_what_it_carries_only() {
    let node = |id: &str| {
        Kalis::builder(KalisId::new(id))
            .with_default_modules()
            .build()
    };
    let (mut k1, mut k2) = (node("K1"), node("K2"));
    let channel = XorChannel::new(0x006b_616c_6973);
    let (near, far) = (Entity::from(ShortAddr(2)), Entity::from(ShortAddr(3)));
    let exchange = |k1: &mut Kalis, k2: &mut Kalis| {
        let message = k1.collective_outbox().expect("two knowggets changed");
        let sealed = message.seal(&channel);
        let opened = SyncMessage::open(&sealed, &channel).expect("authentic");
        k2.accept_sync(opened).expect("K1's own knowledge")
    };
    // The two labels a wormhole verdict correlates, their origin lists
    // moving between rounds.
    let lists = [
        "0x001e,0x001f",
        "0x001e,0x0020",
        "0x001f,0x0020",
        "0x001e,0x001f,0x0020",
    ];
    let mut rounds = 0;
    for round in 0..40 {
        let knowledge = k1.knowledge_mut();
        knowledge.insert_about_collective("DroppedOrigins", near.clone(), lists[round % 4]);
        knowledge.insert_about_collective("ExoticOrigins", far.clone(), lists[(round + 1) % 4]);
        let mut accepted = 0;
        let allocated = allocations(|| accepted = exchange(&mut k1, &mut k2));
        assert_eq!(accepted, 2);
        // The first round gives the peer its keys; from then on only the
        // values move.
        if round > 0 {
            // The outbox, its two labels and the journal's peer name; the
            // sealed buffer; the plaintext, the decoded batch and its two
            // labels; the sender's name: ten. Each origin list is text,
            // so two more apiece: the outbox's copy and the decoded one,
            // which the peer's store takes by move. Fourteen.
            assert!(allocated <= 14, "round {round}: {allocated} allocations");
            rounds += 1;
        }
    }
    assert_eq!(rounds, 39);
    for label in ["DroppedOrigins", "ExoticOrigins"] {
        assert_eq!(k2.knowledge().get_all_creators(label).len(), 1);
    }
}
