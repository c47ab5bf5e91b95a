//! The Module Manager calls a module only on frames of a class its
//! descriptor reads. This pins that the declarations are complete: for
//! every default module, a frame outside its declared classes, handed to
//! `on_packet` directly, changes nothing the module or its node can
//! observe — the Knowledge Base revision, the alerts, `state_bytes()`,
//! `occupancy()` and `evictions()`. Each module's own early return is
//! the oracle.
//!
//! The corpus: the captures of every scenario (both taps of the wormhole
//! pair), a stress burst, an identity spray, one crafted frame per
//! protocol, and undecodable frames. Each trace runs in capture order
//! through a fresh module beside the default sensing modules, so the
//! module under test meets out-of-class frames holding real state and
//! real knowledge.

use std::net::{Ipv4Addr, Ipv6Addr};
use std::time::Duration;

use bytes::Bytes;
use kalis_bench::experiments::spray_trace;
use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_core::config::ModuleDef;
use kalis_core::knowledge::KnowledgeBase;
use kalis_core::modules::{FrameClass, Module, ModuleCtx, ModuleKind, ModuleRegistry};
use kalis_core::KalisId;
use kalis_netsim::craft;
use kalis_netsim::stress::burst_trace;
use kalis_packets::ble::{BleAdvPdu, BleAdvType};
use kalis_packets::codec::Encode;
use kalis_packets::icmpv6::Icmpv6Packet;
use kalis_packets::ipv4::IpProtocol;
use kalis_packets::ipv6::Ipv6Packet;
use kalis_packets::rpl::{RplMessage, ROOT_RANK};
use kalis_packets::sixlowpan::{FragHeader, SixLowpanFrame, SixLowpanPayload};
use kalis_packets::tcp::TcpSegment;
use kalis_packets::udp::UdpPacket;
use kalis_packets::wifi::{WifiBody, WifiFrame};
use kalis_packets::zigbee::ZigbeeCommand;
use kalis_packets::{CapturedPacket, MacAddr, Medium, ShortAddr, Timestamp};

/// One frame of every protocol the decoders know, plus undecodable ones,
/// a few milliseconds apart.
fn crafted() -> Vec<CapturedPacket> {
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 7), Ipv4Addr::new(10, 0, 0, 2));
    let (mac_a, mac_b, ap) = (
        MacAddr::from_index(7),
        MacAddr::from_index(2),
        MacAddr::from_index(0),
    );
    let wifi = |ip: kalis_packets::ipv4::Ipv4Packet| craft::wifi_ipv4(mac_a, mac_b, ap, 1, &ip);
    let management = |body| {
        let frame = WifiFrame {
            src: mac_a,
            dst: mac_b,
            bssid: ap,
            seq: 2,
            body,
        };
        frame.to_bytes()
    };
    let (six_a, six_b) = (
        Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 7),
        Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 1),
    );
    let lowpan = |next: IpProtocol, payload: Bytes| {
        let ip = Ipv6Packet::new(six_a, six_b, next, payload).to_bytes();
        let frame = SixLowpanFrame::ipv6(ip).to_bytes();
        craft::ieee_data(ShortAddr(8), ShortAddr(1), 3, frame)
    };
    let fragment = |frag| {
        let frame = SixLowpanFrame {
            mesh: None,
            frag: Some(frag),
            payload: SixLowpanPayload::Ipv6(vec![0u8; 16].into()),
        };
        craft::ieee_data(ShortAddr(8), ShortAddr(1), 4, frame.to_bytes())
    };
    let (mote, sink, far) = (ShortAddr(7), ShortAddr(1), ShortAddr(9));
    let frames: Vec<(Medium, Bytes)> = vec![
        (Medium::Wifi, wifi(craft::ipv4_echo_request(a, b, 1, 1))),
        (Medium::Wifi, wifi(craft::ipv4_echo_reply(b, a, 1, 1))),
        (
            Medium::Wifi,
            wifi(craft::ipv4_tcp(a, b, &TcpSegment::syn(4000, 80, 1))),
        ),
        (
            Medium::Wifi,
            wifi(craft::ipv4_tcp(b, a, &TcpSegment::syn_ack(80, 4000, 9, 1))),
        ),
        (
            Medium::Wifi,
            wifi(craft::ipv4_tcp(a, b, &TcpSegment::ack(4000, 80, 2, 10))),
        ),
        (
            Medium::Wifi,
            wifi(craft::ipv4_udp(
                a,
                b,
                &UdpPacket::new(5000, 53, b"q".to_vec()),
            )),
        ),
        (Medium::Wifi, management(WifiBody::Deauth { reason: 7 })),
        (
            Medium::Wifi,
            management(WifiBody::Beacon {
                ssid: "home".into(),
            }),
        ),
        (Medium::Wifi, management(WifiBody::ProbeRequest)),
        (
            Medium::Ethernet,
            craft::ethernet_ipv4(
                mac_a,
                mac_b,
                &craft::ipv4_tcp(a, b, &TcpSegment::syn(4001, 22, 5)),
            ),
        ),
        (
            Medium::Ethernet,
            craft::ethernet_ipv4(mac_b, mac_a, &craft::ipv4_echo_reply(b, a, 2, 2)),
        ),
        (
            Medium::Ieee802154,
            craft::ctp_data(mote, sink, 1, far, 1, 1, b"r"),
        ),
        (
            Medium::Ieee802154,
            craft::ctp_data(mote, sink, 2, mote, 2, 0, b"r"),
        ),
        (Medium::Ieee802154, craft::ctp_beacon(mote, 3, sink, 0)),
        (
            Medium::Ieee802154,
            craft::zigbee_data(mote, sink, 4, mote, sink, 1, b"z"),
        ),
        (
            Medium::Ieee802154,
            craft::zigbee_command(
                mote,
                sink,
                5,
                mote,
                sink,
                2,
                ZigbeeCommand::RouteReply {
                    request_id: 1,
                    originator: sink,
                    responder: far,
                    path_cost: 0,
                },
            ),
        ),
        (
            Medium::Ieee802154,
            lowpan(
                IpProtocol::Udp,
                UdpPacket::new(5683, 5683, b"c".to_vec()).to_bytes(),
            ),
        ),
        (
            Medium::Ieee802154,
            lowpan(
                IpProtocol::Icmpv6,
                Icmpv6Packet::EchoRequest {
                    id: 3,
                    seq: 1,
                    data: Bytes::from_static(b"ping6"),
                }
                .to_bytes(),
            ),
        ),
        (
            Medium::Ieee802154,
            lowpan(
                IpProtocol::Icmpv6,
                Icmpv6Packet::Rpl(RplMessage::Dio {
                    instance_id: 0,
                    version: 1,
                    rank: ROOT_RANK,
                    dodag_id: [7; 16],
                })
                .to_bytes(),
            ),
        ),
        (
            Medium::Ieee802154,
            fragment(FragHeader::First {
                datagram_size: 1280,
                datagram_tag: 1,
            }),
        ),
        (
            Medium::Ieee802154,
            fragment(FragHeader::Subsequent {
                datagram_size: 1280,
                datagram_tag: 1,
                offset: 4,
            }),
        ),
        (
            Medium::Ble,
            BleAdvPdu::new(BleAdvType::AdvInd, mac_a, b"adv".to_vec()).to_bytes(),
        ),
        (Medium::Ieee802154, Bytes::from_static(&[0xff, 0x01])),
        (Medium::Wifi, Bytes::from_static(&[0xff, 0x01])),
        (Medium::Ethernet, Bytes::new()),
    ];
    (frames.into_iter().enumerate())
        .map(|(at, (medium, raw))| {
            let time = Timestamp::from_millis(at as u64 * 5);
            CapturedPacket::capture(time, medium, Some(-60.0), "crafted", raw)
        })
        .collect()
}

/// The corpus, one trace per capture source, each in capture order.
fn corpus() -> Vec<Vec<CapturedPacket>> {
    let mut traces = vec![crafted()];
    for &kind in ScenarioKind::all() {
        let scenario = Scenario::build(kind, 42, 4);
        traces.extend(scenario.vantages().into_iter().map(<[_]>::to_vec));
    }
    let start = Timestamp::from_secs(1);
    traces.push(burst_trace(42, start, 2_000, Duration::from_millis(500)));
    traces.push(spray_trace(42, 300, 1));
    traces
}

/// What a call on a frame could change, as seen from outside the module.
fn observed(module: &dyn Module, kb: &KnowledgeBase, alerts: usize) -> [u64; 5] {
    [
        kb.revision(),
        alerts as u64,
        module.state_bytes() as u64,
        module.occupancy() as u64,
        module.evictions(),
    ]
}

/// Every default module whose declaration routes some corpus frame away
/// from it; panics on the first frame outside a module's classes that
/// changed what [`observed`] sees.
fn check_declarations() -> Vec<String> {
    let registry = ModuleRegistry::with_defaults();
    let build = |name: &str| {
        registry
            .build(&ModuleDef::new(name))
            .expect("default module")
    };
    let names: Vec<String> = registry.names().into_iter().map(str::to_owned).collect();
    let sensing: Vec<&String> = (names.iter())
        .filter(|name| build(name).descriptor().kind == ModuleKind::Sensing)
        .collect();
    let traces = corpus();
    let mut routed = Vec::new();
    for name in &names {
        let reads = build(name).descriptor().reads;
        let mut skipped = false;
        for (index, trace) in traces.iter().enumerate() {
            let mut module = build(name);
            let mut senses: Vec<_> = sensing.iter().map(|name| build(name)).collect();
            let mut kb = KnowledgeBase::new(KalisId::new("K1"));
            let mut alerts = Vec::new();
            for (at, packet) in trace.iter().enumerate() {
                let mut ctx = ModuleCtx {
                    now: packet.timestamp,
                    kb: &mut kb,
                    alerts: &mut alerts,
                };
                for sense in &mut senses {
                    sense.on_packet(&mut ctx, packet);
                }
                let before = observed(module.as_ref(), ctx.kb, ctx.alerts.len());
                module.on_packet(&mut ctx, packet);
                if reads.intersects(FrameClass::of(packet)) {
                    continue;
                }
                skipped = true;
                let after = observed(module.as_ref(), &kb, alerts.len());
                assert_eq!(
                    before,
                    after,
                    "{name} declares {} but changed on frame {at} of trace {index} \
                     ([revision, alerts, state_bytes, occupancy, evictions]): {packet:?}",
                    reads.names(),
                );
            }
        }
        if skipped {
            routed.push(name.clone());
        }
    }
    routed
}

#[test]
fn every_frame_outside_a_modules_classes_leaves_it_unchanged() {
    // The crafted frames alone carry every class.
    for (class, name) in FrameClass::NAMED {
        let carried = crafted()
            .iter()
            .any(|f| FrameClass::of(f).intersects(class));
        assert!(carried, "no crafted {name} frame");
    }
    // The twelve modules that declare classes narrower than every frame
    // all met frames outside them.
    assert_eq!(
        check_declarations(),
        [
            "BlackholeModule",
            "DeauthModule",
            "FragmentFloodModule",
            "IcmpFloodModule",
            "ScanModule",
            "SelectiveForwardingModule",
            "SinkholeModule",
            "SmurfModule",
            "SybilModule",
            "SynFloodModule",
            "UdpFloodModule",
            "WormholeModule",
        ]
    );
}

/// The frames around a forwarder the watchdogs judge: a root beacon,
/// ten CTP frames from a leaf through `forwarder`, 100 ms apart (those
/// numbered in `relayed` passed on to the root), and one more frame at
/// 10 s; with `wifi`, a WiFi frame every 100 ms in between.
fn watchdog_trace(relayed: &[u8], wifi: bool) -> Vec<CapturedPacket> {
    let (root, forwarder, leaf) = (ShortAddr(1), ShortAddr(2), ShortAddr(3));
    let at = |ms: u64, medium, raw| {
        CapturedPacket::capture(Timestamp::from_millis(ms), medium, Some(-60.0), "t", raw)
    };
    let beacon = craft::ctp_beacon(root, 0, root, 0);
    let mut trace = vec![at(0, Medium::Ieee802154, beacon)];
    for seq in 1..=10u8 {
        let ms = u64::from(seq) * 100;
        let sent = craft::ctp_data(leaf, forwarder, seq, leaf, seq, 0, b"r");
        trace.push(at(ms, Medium::Ieee802154, sent));
        if relayed.contains(&seq) {
            let relay = craft::ctp_data(forwarder, root, seq, leaf, seq, 1, b"r");
            trace.push(at(ms + 50, Medium::Ieee802154, relay));
        }
    }
    if wifi {
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 7), Ipv4Addr::new(10, 0, 0, 2));
        let (mac_a, mac_b, ap) = (
            MacAddr::from_index(7),
            MacAddr::from_index(2),
            MacAddr::from_index(0),
        );
        for n in 11..100u16 {
            let udp = UdpPacket::new(5000, 53, b"q".to_vec());
            let raw = craft::wifi_ipv4(mac_a, mac_b, ap, n, &craft::ipv4_udp(a, b, &udp));
            trace.push(at(u64::from(n) * 100 + 30, Medium::Wifi, raw));
        }
    }
    let last = craft::ctp_data(leaf, forwarder, 11, leaf, 11, 0, b"r");
    trace.push(at(10_000, Medium::Ieee802154, last));
    trace.sort_by_key(|packet| packet.timestamp);
    trace
}

/// When `module` alerted about the forwarder on a multi-hop node fed
/// `trace`, in milliseconds.
fn watchdog_alerts(trace: &[CapturedPacket], module: &str) -> Vec<u64> {
    let config = "knowggets = { Multihop = true }".parse().unwrap();
    let mut node = kalis_core::Kalis::builder(KalisId::new("K1"))
        .with_config(config)
        .with_default_modules()
        .build();
    for packet in trace {
        node.ingest(packet.clone());
    }
    let forwarder = kalis_packets::Entity::from(ShortAddr(2));
    (node.alerts().iter())
        .filter(|alert| alert.module == module && alert.suspects == [forwarder.clone()])
        .map(|alert| alert.time.as_micros() / 1_000)
        .collect()
}

/// The watchdogs read CTP frames only, so their deadline clock advances
/// on those and on ticks. CTP frames stop at 1 s and the verdict falls
/// due after: at 1.3 s the blackhole's fifth relay deadline passes, at
/// 1.4 s the first drop of a forwarder that passed on half the frames.
/// With WiFi frames after 1 s, the next tick (at most a second later)
/// raises it; with nothing, the next CTP frame, at 10 s. Routing moves
/// when an alert fires, never whether.
#[test]
fn a_watchdog_verdict_due_between_ctp_frames_is_raised_at_the_next_ctp_frame_or_tick() {
    let cases: [(&str, &[u8], u64); 2] = [
        ("BlackholeModule", &[], 1_300),
        ("SelectiveForwardingModule", &[1, 2, 3, 4, 5], 1_400),
    ];
    for (module, relayed, due) in cases {
        let beside_wifi = watchdog_alerts(&watchdog_trace(relayed, true), module);
        assert_eq!(beside_wifi.len(), 1, "{module}: {beside_wifi:?}");
        assert!(
            (due..=due + 1_100).contains(&beside_wifi[0]),
            "{module} alerted at {} ms, not at the first tick after {due} ms",
            beside_wifi[0]
        );
        let ctp_only = watchdog_alerts(&watchdog_trace(relayed, false), module);
        assert_eq!(ctp_only, [10_000], "{module}: at the next CTP frame");
    }
}
