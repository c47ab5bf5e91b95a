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
    // The ten modules that declare classes narrower than every frame
    // all met frames outside them.
    assert_eq!(
        check_declarations(),
        [
            "DeauthModule",
            "FragmentFloodModule",
            "IcmpFloodModule",
            "ScanModule",
            "SinkholeModule",
            "SmurfModule",
            "SybilModule",
            "SynFloodModule",
            "UdpFloodModule",
            "WormholeModule",
        ]
    );
}
