//! The unified capture-side view: mediums, fully demultiplexed packet
//! stacks, and traffic classification.

use bytes::Bytes;

use crate::addr::Entity;
use crate::ble::BleAdvPdu;
use crate::codec::Decode;
use crate::ctp::{self, CtpFrame};
use crate::ethernet::{EthernetFrame, ETHERTYPE_IPV4, ETHERTYPE_IPV6};
use crate::icmpv4::{Icmpv4Packet, Icmpv4Type};
use crate::icmpv6::Icmpv6Packet;
use crate::ieee802154::{FrameType, Ieee802154Frame};
use crate::ipv4::{IpProtocol, Ipv4Packet};
use crate::ipv6::Ipv6Packet;
use crate::sixlowpan::{self, SixLowpanFrame, SixLowpanPayload};
use crate::tcp::TcpSegment;
use crate::time::Timestamp;
use crate::udp::UdpPacket;
use crate::wifi::{WifiBody, WifiFrame};
use crate::zigbee::{self, ZigbeeBody, ZigbeeFrame};
use crate::DecodeError;

/// The physical medium a frame was overheard on.
///
/// Kalis is multi-medium by design: the Communication System owns one
/// capture interface per medium it has hardware for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Medium {
    /// IEEE 802.15.4 (ZigBee, 6LoWPAN, TinyOS/CTP).
    Ieee802154,
    /// IEEE 802.11 WiFi.
    Wifi,
    /// Wired Ethernet (the router uplink).
    Ethernet,
    /// Bluetooth Low Energy.
    Ble,
}

impl core::fmt::Display for Medium {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Medium::Ieee802154 => "802.15.4",
            Medium::Wifi => "wifi",
            Medium::Ethernet => "ethernet",
            Medium::Ble => "ble",
        };
        f.write_str(name)
    }
}

/// The decoded link layer of a captured frame.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkLayer {
    /// An 802.15.4 MAC frame.
    Ieee802154(Ieee802154Frame),
    /// An 802.11 frame.
    Wifi(WifiFrame),
    /// An Ethernet II frame.
    Ethernet(EthernetFrame),
    /// A BLE advertising PDU.
    Ble(BleAdvPdu),
}

/// The decoded network layer, if any.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkLayer {
    /// ZigBee NWK.
    Zigbee(ZigbeeFrame),
    /// TinyOS/CTP.
    Ctp(CtpFrame),
    /// 6LoWPAN adaptation layer (inner IPv6 in `inner_ipv6` when present
    /// and uncompressed).
    SixLowpan {
        /// The adaptation-layer frame.
        frame: SixLowpanFrame,
        /// The inner IPv6 datagram, when carried uncompressed.
        inner_ipv6: Option<Ipv6Packet>,
    },
    /// IPv4.
    Ipv4(Ipv4Packet),
    /// IPv6.
    Ipv6(Ipv6Packet),
}

/// The decoded transport (or control) layer, if any.
#[derive(Debug, Clone, PartialEq)]
pub enum Transport {
    /// TCP.
    Tcp(TcpSegment),
    /// UDP.
    Udp(UdpPacket),
    /// ICMPv4.
    Icmpv4(Icmpv4Packet),
    /// ICMPv6.
    Icmpv6(Icmpv6Packet),
}

/// A fully demultiplexed packet stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Link layer.
    pub link: LinkLayer,
    /// Network layer, if recognized.
    pub net: Option<NetworkLayer>,
    /// Transport layer, if recognized.
    pub transport: Option<Transport>,
}

fn demux_ip_payload(protocol: IpProtocol, payload: &Bytes) -> Option<Transport> {
    let mut buf = payload.clone();
    match protocol {
        IpProtocol::Tcp => TcpSegment::decode(&mut buf).ok().map(Transport::Tcp),
        IpProtocol::Udp => UdpPacket::decode(&mut buf).ok().map(Transport::Udp),
        IpProtocol::Icmp => Icmpv4Packet::decode(&mut buf).ok().map(Transport::Icmpv4),
        IpProtocol::Icmpv6 => Icmpv6Packet::decode(&mut buf).ok().map(Transport::Icmpv6),
        IpProtocol::Other(_) => None,
    }
}

fn demux_ethertype(ethertype: u16, payload: &Bytes) -> (Option<NetworkLayer>, Option<Transport>) {
    let mut buf = payload.clone();
    match ethertype {
        ETHERTYPE_IPV4 => match Ipv4Packet::decode(&mut buf) {
            Ok(ip) => {
                let transport = demux_ip_payload(ip.protocol, &ip.payload);
                (Some(NetworkLayer::Ipv4(ip)), transport)
            }
            Err(_) => (None, None),
        },
        ETHERTYPE_IPV6 => match Ipv6Packet::decode(&mut buf) {
            Ok(ip) => {
                let transport = demux_ip_payload(ip.next_header, &ip.payload);
                (Some(NetworkLayer::Ipv6(ip)), transport)
            }
            Err(_) => (None, None),
        },
        _ => (None, None),
    }
}

impl Packet {
    /// Decode a raw frame overheard on `medium`, demultiplexing as far up
    /// the stack as the bytes allow.
    ///
    /// Unrecognized or undecodable upper layers simply leave `net` /
    /// `transport` empty — a sniffer must tolerate traffic it does not
    /// understand. Only a malformed *link layer* is an error.
    ///
    /// # Errors
    ///
    /// Returns the link-layer [`DecodeError`] when the frame cannot be
    /// parsed at all.
    pub fn decode(medium: Medium, raw: &Bytes) -> Result<Packet, DecodeError> {
        match medium {
            Medium::Ieee802154 => {
                let mut buf = raw.clone();
                let frame = Ieee802154Frame::decode(&mut buf)?;
                let (net, transport) = demux_802154_payload(&frame);
                Ok(Packet {
                    link: LinkLayer::Ieee802154(frame),
                    net,
                    transport,
                })
            }
            Medium::Wifi => {
                let mut buf = raw.clone();
                let frame = WifiFrame::decode(&mut buf)?;
                let (net, transport) = match &frame.body {
                    WifiBody::Data { ethertype, payload } => demux_ethertype(*ethertype, payload),
                    _ => (None, None),
                };
                Ok(Packet {
                    link: LinkLayer::Wifi(frame),
                    net,
                    transport,
                })
            }
            Medium::Ethernet => {
                let mut buf = raw.clone();
                let frame = EthernetFrame::decode(&mut buf)?;
                let (net, transport) = demux_ethertype(frame.ethertype, &frame.payload);
                Ok(Packet {
                    link: LinkLayer::Ethernet(frame),
                    net,
                    transport,
                })
            }
            Medium::Ble => {
                let mut buf = raw.clone();
                let pdu = BleAdvPdu::decode(&mut buf)?;
                Ok(Packet {
                    link: LinkLayer::Ble(pdu),
                    net: None,
                    transport: None,
                })
            }
        }
    }

    /// The medium implied by the link layer.
    pub fn medium(&self) -> Medium {
        match self.link {
            LinkLayer::Ieee802154(_) => Medium::Ieee802154,
            LinkLayer::Wifi(_) => Medium::Wifi,
            LinkLayer::Ethernet(_) => Medium::Ethernet,
            LinkLayer::Ble(_) => Medium::Ble,
        }
    }

    /// The link-layer transmitter identity (who physically sent this
    /// frame — the identity watchdog techniques key on).
    pub fn transmitter(&self) -> Option<Entity> {
        match &self.link {
            LinkLayer::Ieee802154(f) => f.src.short().map(Entity::from),
            LinkLayer::Wifi(f) => Some(Entity::from(f.src)),
            LinkLayer::Ethernet(f) => Some(Entity::from(f.src)),
            LinkLayer::Ble(p) => Some(Entity::from(p.advertiser)),
        }
    }

    /// The link-layer receiver identity.
    pub fn receiver(&self) -> Option<Entity> {
        match &self.link {
            LinkLayer::Ieee802154(f) => f.dst.short().map(Entity::from),
            LinkLayer::Wifi(f) => Some(Entity::from(f.dst)),
            LinkLayer::Ethernet(f) => Some(Entity::from(f.dst)),
            LinkLayer::Ble(_) => None,
        }
    }

    /// The network-layer (end-to-end) source identity, when a network
    /// layer is present. This is the *claimed* originator — spoofable,
    /// which is exactly what Smurf and Sybil detection reason about.
    pub fn net_src(&self) -> Option<Entity> {
        match self.net.as_ref()? {
            NetworkLayer::Zigbee(z) => Some(Entity::from(z.src)),
            NetworkLayer::Ctp(c) => c.origin().map(Entity::from),
            NetworkLayer::SixLowpan { frame, inner_ipv6 } => frame
                .mesh
                .map(|m| Entity::from(m.originator))
                .or_else(|| inner_ipv6.as_ref().map(|ip| Entity::from(ip.src))),
            NetworkLayer::Ipv4(ip) => Some(Entity::from(ip.src)),
            NetworkLayer::Ipv6(ip) => Some(Entity::from(ip.src)),
        }
    }

    /// The network-layer destination identity, when present.
    pub fn net_dst(&self) -> Option<Entity> {
        match self.net.as_ref()? {
            NetworkLayer::Zigbee(z) => Some(Entity::from(z.dst)),
            NetworkLayer::Ctp(_) => None,
            NetworkLayer::SixLowpan { frame, inner_ipv6 } => frame
                .mesh
                .map(|m| Entity::from(m.final_dst))
                .or_else(|| inner_ipv6.as_ref().map(|ip| Entity::from(ip.dst))),
            NetworkLayer::Ipv4(ip) => Some(Entity::from(ip.dst)),
            NetworkLayer::Ipv6(ip) => Some(Entity::from(ip.dst)),
        }
    }

    /// The 802.15.4 frame, if that is the link layer.
    pub fn ieee802154(&self) -> Option<&Ieee802154Frame> {
        match &self.link {
            LinkLayer::Ieee802154(f) => Some(f),
            _ => None,
        }
    }

    /// The ZigBee NWK frame, if present.
    pub fn zigbee(&self) -> Option<&ZigbeeFrame> {
        match self.net.as_ref()? {
            NetworkLayer::Zigbee(z) => Some(z),
            _ => None,
        }
    }

    /// The CTP frame, if present.
    pub fn ctp(&self) -> Option<&CtpFrame> {
        match self.net.as_ref()? {
            NetworkLayer::Ctp(c) => Some(c),
            _ => None,
        }
    }

    /// The ICMPv4 message, if present.
    pub fn icmpv4(&self) -> Option<&Icmpv4Packet> {
        match self.transport.as_ref()? {
            Transport::Icmpv4(p) => Some(p),
            _ => None,
        }
    }

    /// The TCP segment, if present.
    pub fn tcp(&self) -> Option<&TcpSegment> {
        match self.transport.as_ref()? {
            Transport::Tcp(t) => Some(t),
            _ => None,
        }
    }

    /// The UDP datagram, if present.
    pub fn udp(&self) -> Option<&UdpPacket> {
        match self.transport.as_ref()? {
            Transport::Udp(u) => Some(u),
            _ => None,
        }
    }

    /// Classify this packet for traffic statistics.
    pub fn traffic_class(&self) -> TrafficClass {
        if let Some(t) = &self.transport {
            return match t {
                Transport::Tcp(seg) => {
                    if seg.flags.is_pure_syn() {
                        TrafficClass::TcpSyn
                    } else if seg.flags.contains(crate::tcp::TcpFlags::SYN) {
                        TrafficClass::TcpSynAck
                    } else if seg.flags.contains(crate::tcp::TcpFlags::ACK)
                        && seg.payload.is_empty()
                    {
                        TrafficClass::TcpAck
                    } else {
                        TrafficClass::TcpOther
                    }
                }
                Transport::Udp(_) => TrafficClass::Udp,
                Transport::Icmpv4(p) => match p.icmp_type() {
                    Icmpv4Type::EchoRequest => TrafficClass::IcmpEchoRequest,
                    Icmpv4Type::EchoReply => TrafficClass::IcmpEchoReply,
                    _ => TrafficClass::IcmpOther,
                },
                Transport::Icmpv6(p) => match p {
                    Icmpv6Packet::EchoRequest { .. } => TrafficClass::IcmpEchoRequest,
                    Icmpv6Packet::EchoReply { .. } => TrafficClass::IcmpEchoReply,
                    Icmpv6Packet::Rpl(_) => TrafficClass::Rpl,
                    Icmpv6Packet::Other { .. } => TrafficClass::IcmpOther,
                },
            };
        }
        if let Some(net) = &self.net {
            return match net {
                NetworkLayer::Zigbee(z) => match z.body {
                    ZigbeeBody::Data(_) => TrafficClass::ZigbeeData,
                    ZigbeeBody::Command(_) => TrafficClass::ZigbeeRouting,
                },
                NetworkLayer::Ctp(c) => match c {
                    CtpFrame::Data(_) => TrafficClass::CtpData,
                    CtpFrame::Routing(_) => TrafficClass::CtpBeacon,
                },
                NetworkLayer::SixLowpan { .. } => TrafficClass::SixLowpan,
                NetworkLayer::Ipv4(_) | NetworkLayer::Ipv6(_) => TrafficClass::Other,
            };
        }
        match &self.link {
            LinkLayer::Wifi(w) if w.is_management() => TrafficClass::WifiMgmt,
            LinkLayer::Ieee802154(f) if f.frame_type == FrameType::Ack => TrafficClass::MacAck,
            LinkLayer::Ble(_) => TrafficClass::BleAdv,
            _ => TrafficClass::Other,
        }
    }
}

fn demux_802154_payload(frame: &Ieee802154Frame) -> (Option<NetworkLayer>, Option<Transport>) {
    if frame.frame_type != FrameType::Data || frame.payload.is_empty() {
        return (None, None);
    }
    let payload = &frame.payload;
    if ctp::looks_like_ctp(payload) {
        if let Ok(c) = CtpFrame::from_slice(payload) {
            return (Some(NetworkLayer::Ctp(c)), None);
        }
    }
    if zigbee::looks_like_zigbee(payload) {
        if let Ok(z) = ZigbeeFrame::from_slice(payload) {
            return (Some(NetworkLayer::Zigbee(z)), None);
        }
    }
    if sixlowpan::looks_like_sixlowpan(payload) {
        if let Ok(s) = SixLowpanFrame::from_slice(payload) {
            let inner_ipv6 = match (&s.payload, &s.frag) {
                (SixLowpanPayload::Ipv6(bytes), None) => Ipv6Packet::from_slice(bytes).ok(),
                _ => None,
            };
            let transport = inner_ipv6
                .as_ref()
                .and_then(|ip| demux_ip_payload(ip.next_header, &ip.payload));
            return (
                Some(NetworkLayer::SixLowpan {
                    frame: s,
                    inner_ipv6,
                }),
                transport,
            );
        }
    }
    (None, None)
}

/// The traffic-type classification used by the Traffic Statistics sensing
/// module (paper §V lists TCP SYN, TCP ACK, ICMP Requests/Responses,
/// ZigBee plain, and CTP among the tracked types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum TrafficClass {
    /// Pure TCP SYN (connection attempts — the SYN flood observable).
    TcpSyn,
    /// TCP SYN+ACK.
    TcpSynAck,
    /// Bare TCP ACK.
    TcpAck,
    /// Other TCP segments.
    TcpOther,
    /// UDP datagrams.
    Udp,
    /// ICMP echo requests (v4 or v6).
    IcmpEchoRequest,
    /// ICMP echo replies (v4 or v6) — the flood observable.
    IcmpEchoReply,
    /// Other ICMP messages.
    IcmpOther,
    /// ZigBee NWK data.
    ZigbeeData,
    /// ZigBee NWK routing commands.
    ZigbeeRouting,
    /// CTP data frames.
    CtpData,
    /// CTP routing beacons.
    CtpBeacon,
    /// 6LoWPAN frames (compressed or fragmented).
    SixLowpan,
    /// RPL control messages.
    Rpl,
    /// 802.11 management frames.
    WifiMgmt,
    /// 802.15.4 MAC acknowledgements.
    MacAck,
    /// BLE advertisements.
    BleAdv,
    /// Anything else.
    Other,
}

impl TrafficClass {
    /// The label used as a knowgget sub-key (e.g. `TrafficFrequency.TCPSYN`).
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::TcpSyn => "TCPSYN",
            TrafficClass::TcpSynAck => "TCPSYNACK",
            TrafficClass::TcpAck => "TCPACK",
            TrafficClass::TcpOther => "TCP",
            TrafficClass::Udp => "UDP",
            TrafficClass::IcmpEchoRequest => "ICMPREQ",
            TrafficClass::IcmpEchoReply => "ICMPRESP",
            TrafficClass::IcmpOther => "ICMP",
            TrafficClass::ZigbeeData => "ZIGBEEDATA",
            TrafficClass::ZigbeeRouting => "ZIGBEEROUTING",
            TrafficClass::CtpData => "CTPDATA",
            TrafficClass::CtpBeacon => "CTPBEACON",
            TrafficClass::SixLowpan => "SIXLOWPAN",
            TrafficClass::Rpl => "RPL",
            TrafficClass::WifiMgmt => "WIFIMGMT",
            TrafficClass::MacAck => "MACACK",
            TrafficClass::BleAdv => "BLEADV",
            TrafficClass::Other => "OTHER",
        }
    }

    /// All classes, in a stable order.
    pub fn all() -> &'static [TrafficClass] {
        &[
            TrafficClass::TcpSyn,
            TrafficClass::TcpSynAck,
            TrafficClass::TcpAck,
            TrafficClass::TcpOther,
            TrafficClass::Udp,
            TrafficClass::IcmpEchoRequest,
            TrafficClass::IcmpEchoReply,
            TrafficClass::IcmpOther,
            TrafficClass::ZigbeeData,
            TrafficClass::ZigbeeRouting,
            TrafficClass::CtpData,
            TrafficClass::CtpBeacon,
            TrafficClass::SixLowpan,
            TrafficClass::Rpl,
            TrafficClass::WifiMgmt,
            TrafficClass::MacAck,
            TrafficClass::BleAdv,
            TrafficClass::Other,
        ]
    }
}

impl core::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A frame as overheard by a capture interface: raw bytes plus reception
/// metadata, with the decoded stack attached when parsing succeeded.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedPacket {
    /// Capture time.
    pub timestamp: Timestamp,
    /// Medium the frame was overheard on.
    pub medium: Medium,
    /// Received signal strength in dBm, when the radio reports it.
    pub rssi_dbm: Option<f64>,
    /// Name of the capture interface.
    pub interface: String,
    /// The raw frame bytes.
    pub raw: Bytes,
    /// The decoded stack, when the link layer parsed.
    pub packet: Option<Packet>,
}

impl CapturedPacket {
    /// Capture a raw frame, decoding as far as possible.
    pub fn capture(
        timestamp: Timestamp,
        medium: Medium,
        rssi_dbm: Option<f64>,
        interface: impl Into<String>,
        raw: Bytes,
    ) -> Self {
        let packet = Packet::decode(medium, &raw).ok();
        CapturedPacket {
            timestamp,
            medium,
            rssi_dbm,
            interface: interface.into(),
            raw,
            packet,
        }
    }

    /// The decoded stack, when available.
    pub fn decoded(&self) -> Option<&Packet> {
        self.packet.as_ref()
    }

    /// The traffic class ([`TrafficClass::Other`] when undecodable).
    pub fn traffic_class(&self) -> TrafficClass {
        self.packet
            .as_ref()
            .map_or(TrafficClass::Other, Packet::traffic_class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PanId, ShortAddr};
    use crate::codec::Encode;
    use crate::ieee802154::Address;
    use std::net::Ipv4Addr;

    fn wrap_802154(payload: Bytes) -> Bytes {
        Ieee802154Frame::data(
            PanId(1),
            Address::Short(ShortAddr(1)),
            Address::Short(ShortAddr(2)),
            0,
            payload,
        )
        .to_bytes()
    }

    #[test]
    fn demux_ctp_over_802154() {
        let raw = wrap_802154(CtpFrame::data(ShortAddr(5), 1, 2, b"r".to_vec()).to_bytes());
        let pkt = Packet::decode(Medium::Ieee802154, &raw).unwrap();
        assert!(pkt.ctp().is_some());
        assert_eq!(pkt.traffic_class(), TrafficClass::CtpData);
        assert_eq!(pkt.net_src(), Some(Entity::from(ShortAddr(5))));
        assert_eq!(pkt.transmitter(), Some(Entity::from(ShortAddr(1))));
    }

    #[test]
    fn demux_zigbee_over_802154() {
        let raw =
            wrap_802154(ZigbeeFrame::data(ShortAddr(3), ShortAddr(4), 0, b"a".to_vec()).to_bytes());
        let pkt = Packet::decode(Medium::Ieee802154, &raw).unwrap();
        assert!(pkt.zigbee().is_some());
        assert_eq!(pkt.traffic_class(), TrafficClass::ZigbeeData);
    }

    #[test]
    fn demux_sixlowpan_with_inner_ipv6_icmpv6() {
        let inner = Ipv6Packet::new(
            "fe80::1".parse().unwrap(),
            "fe80::2".parse().unwrap(),
            IpProtocol::Icmpv6,
            Icmpv6Packet::EchoRequest {
                id: 1,
                seq: 1,
                data: Bytes::new(),
            }
            .to_bytes(),
        );
        let raw = wrap_802154(SixLowpanFrame::ipv6(inner.to_bytes()).to_bytes());
        let pkt = Packet::decode(Medium::Ieee802154, &raw).unwrap();
        assert_eq!(pkt.traffic_class(), TrafficClass::IcmpEchoRequest);
        assert!(matches!(
            pkt.net,
            Some(NetworkLayer::SixLowpan {
                inner_ipv6: Some(_),
                ..
            })
        ));
    }

    #[test]
    fn demux_tcp_syn_over_wifi() {
        use crate::addr::MacAddr;
        let ip = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 5),
            Ipv4Addr::new(10, 0, 0, 1),
            IpProtocol::Tcp,
            TcpSegment::syn(5555, 80, 1).to_bytes(),
        );
        let frame = WifiFrame::data(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            MacAddr::from_index(0),
            1,
            ETHERTYPE_IPV4,
            ip.to_bytes(),
        );
        let pkt = Packet::decode(Medium::Wifi, &frame.to_bytes()).unwrap();
        assert_eq!(pkt.traffic_class(), TrafficClass::TcpSyn);
        assert_eq!(pkt.net_src().unwrap().as_str(), "10.0.0.5");
        assert_eq!(pkt.net_dst().unwrap().as_str(), "10.0.0.1");
    }

    #[test]
    fn demux_icmp_echo_reply_over_ethernet() {
        use crate::addr::MacAddr;
        let ip = Ipv4Packet::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProtocol::Icmp,
            Icmpv4Packet::echo_reply(1, 1, b"p".to_vec()).to_bytes(),
        );
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            ETHERTYPE_IPV4,
            ip.to_bytes(),
        );
        let pkt = Packet::decode(Medium::Ethernet, &frame.to_bytes()).unwrap();
        assert_eq!(pkt.traffic_class(), TrafficClass::IcmpEchoReply);
    }

    #[test]
    fn undecodable_upper_layer_is_tolerated() {
        let raw = wrap_802154(Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5]));
        let pkt = Packet::decode(Medium::Ieee802154, &raw).unwrap();
        assert!(pkt.net.is_none());
        assert_eq!(pkt.traffic_class(), TrafficClass::Other);
    }

    #[test]
    fn malformed_link_layer_is_an_error() {
        let raw = Bytes::from_static(&[0x01, 0x02]);
        assert!(Packet::decode(Medium::Ieee802154, &raw).is_err());
    }

    #[test]
    fn captured_packet_tolerates_garbage() {
        let cap = CapturedPacket::capture(
            Timestamp::ZERO,
            Medium::Wifi,
            Some(-40.0),
            "wlan0",
            Bytes::from_static(&[0xff; 4]),
        );
        assert!(cap.decoded().is_none());
        assert_eq!(cap.traffic_class(), TrafficClass::Other);
    }

    #[test]
    fn traffic_class_labels_are_unique() {
        let mut labels: Vec<_> = TrafficClass::all().iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        let len = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), len);
    }

    #[test]
    fn mac_ack_classifies() {
        let raw = Ieee802154Frame::ack(3).to_bytes();
        let pkt = Packet::decode(Medium::Ieee802154, &raw).unwrap();
        assert_eq!(pkt.traffic_class(), TrafficClass::MacAck);
    }
}
