//! Frame-crafting helpers: one-line constructors for the full wire stacks
//! used by traffic behaviors, attack injectors, and experiments.

use std::net::Ipv4Addr;

use bytes::Bytes;
use kalis_packets::codec::Encode;
use kalis_packets::ctp::CtpFrame;
use kalis_packets::ethernet::{EthernetFrame, ETHERTYPE_IPV4};
use kalis_packets::icmpv4::Icmpv4Packet;
use kalis_packets::ieee802154::{Address, Ieee802154Frame};
use kalis_packets::ipv4::{IpProtocol, Ipv4Packet};
use kalis_packets::tcp::TcpSegment;
use kalis_packets::udp::UdpPacket;
use kalis_packets::wifi::WifiFrame;
use kalis_packets::zigbee::{ZigbeeCommand, ZigbeeFrame};
use kalis_packets::{MacAddr, PanId, ShortAddr};

/// The PAN id used by every 802.15.4 scenario in this workspace.
pub(crate) const DEFAULT_PAN: PanId = PanId(0x00aa);

/// An 802.15.4 data frame wrapping `payload`.
pub fn ieee_data(src: ShortAddr, dst: ShortAddr, seq: u8, payload: Bytes) -> Bytes {
    Ieee802154Frame::data(
        DEFAULT_PAN,
        Address::Short(src),
        Address::Short(dst),
        seq,
        payload,
    )
    .to_bytes()
}

/// A CTP data frame from `origin`, transmitted by `mac_src` towards
/// `mac_dst` (its collection-tree parent).
#[allow(clippy::too_many_arguments)]
pub fn ctp_data(
    mac_src: ShortAddr,
    mac_dst: ShortAddr,
    mac_seq: u8,
    origin: ShortAddr,
    origin_seq: u8,
    thl: u8,
    reading: &[u8],
) -> Bytes {
    ieee_data(
        mac_src,
        mac_dst,
        mac_seq,
        CtpFrame::data(origin, origin_seq, thl, reading.to_vec()).to_bytes(),
    )
}

/// A broadcast CTP routing beacon advertising `parent` at `etx`.
pub fn ctp_beacon(mac_src: ShortAddr, mac_seq: u8, parent: ShortAddr, etx: u16) -> Bytes {
    ieee_data(
        mac_src,
        ShortAddr::BROADCAST,
        mac_seq,
        CtpFrame::beacon(parent, etx).to_bytes(),
    )
}

/// A ZigBee NWK data frame.
pub fn zigbee_data(
    mac_src: ShortAddr,
    mac_dst: ShortAddr,
    mac_seq: u8,
    nwk_src: ShortAddr,
    nwk_dst: ShortAddr,
    nwk_seq: u8,
    payload: &[u8],
) -> Bytes {
    ieee_data(
        mac_src,
        mac_dst,
        mac_seq,
        ZigbeeFrame::data(nwk_src, nwk_dst, nwk_seq, payload.to_vec()).to_bytes(),
    )
}

/// A ZigBee NWK command frame.
pub fn zigbee_command(
    mac_src: ShortAddr,
    mac_dst: ShortAddr,
    mac_seq: u8,
    nwk_src: ShortAddr,
    nwk_dst: ShortAddr,
    nwk_seq: u8,
    command: ZigbeeCommand,
) -> Bytes {
    ieee_data(
        mac_src,
        mac_dst,
        mac_seq,
        ZigbeeFrame::command(nwk_src, nwk_dst, nwk_seq, command).to_bytes(),
    )
}

/// A WiFi data frame carrying an IPv4 datagram.
pub fn wifi_ipv4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    bssid: MacAddr,
    seq: u16,
    ip: &Ipv4Packet,
) -> Bytes {
    WifiFrame::data(src_mac, dst_mac, bssid, seq, ETHERTYPE_IPV4, ip.to_bytes()).to_bytes()
}

/// An Ethernet frame carrying an IPv4 datagram.
pub fn ethernet_ipv4(src_mac: MacAddr, dst_mac: MacAddr, ip: &Ipv4Packet) -> Bytes {
    EthernetFrame::new(src_mac, dst_mac, ETHERTYPE_IPV4, ip.to_bytes()).to_bytes()
}

/// An IPv4 datagram carrying an ICMP echo request.
pub fn ipv4_echo_request(src: Ipv4Addr, dst: Ipv4Addr, id: u16, seq: u16) -> Ipv4Packet {
    Ipv4Packet::new(
        src,
        dst,
        IpProtocol::Icmp,
        Icmpv4Packet::echo_request(id, seq, b"ping".to_vec()).to_bytes(),
    )
}

/// An IPv4 datagram carrying an ICMP echo reply.
pub fn ipv4_echo_reply(src: Ipv4Addr, dst: Ipv4Addr, id: u16, seq: u16) -> Ipv4Packet {
    Ipv4Packet::new(
        src,
        dst,
        IpProtocol::Icmp,
        Icmpv4Packet::echo_reply(id, seq, b"pong".to_vec()).to_bytes(),
    )
}

/// An IPv4 datagram carrying a TCP segment.
pub fn ipv4_tcp(src: Ipv4Addr, dst: Ipv4Addr, segment: &TcpSegment) -> Ipv4Packet {
    Ipv4Packet::new(src, dst, IpProtocol::Tcp, segment.to_bytes())
}

/// An IPv4 datagram carrying a UDP datagram.
pub fn ipv4_udp(src: Ipv4Addr, dst: Ipv4Addr, dgram: &UdpPacket) -> Ipv4Packet {
    Ipv4Packet::new(src, dst, IpProtocol::Udp, dgram.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_packets::{Medium, Packet, TrafficClass};

    #[test]
    fn crafted_ctp_decodes_end_to_end() {
        let raw = ctp_data(ShortAddr(2), ShortAddr(1), 7, ShortAddr(5), 3, 1, b"r");
        let pkt = Packet::decode(Medium::Ieee802154, &raw).unwrap();
        assert_eq!(pkt.traffic_class(), TrafficClass::CtpData);
        let ctp = pkt.ctp().unwrap();
        assert_eq!(ctp.origin(), Some(ShortAddr(5)));
    }

    #[test]
    fn crafted_beacon_decodes() {
        let raw = ctp_beacon(ShortAddr(4), 0, ShortAddr(1), 20);
        let pkt = Packet::decode(Medium::Ieee802154, &raw).unwrap();
        assert_eq!(pkt.traffic_class(), TrafficClass::CtpBeacon);
    }

    #[test]
    fn crafted_zigbee_decodes() {
        let raw = zigbee_data(
            ShortAddr(1),
            ShortAddr(2),
            0,
            ShortAddr(1),
            ShortAddr(2),
            9,
            b"on",
        );
        let pkt = Packet::decode(Medium::Ieee802154, &raw).unwrap();
        assert_eq!(pkt.traffic_class(), TrafficClass::ZigbeeData);
    }

    #[test]
    fn crafted_wifi_echo_decodes() {
        let ip = ipv4_echo_reply(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 0, 3), 1, 1);
        let raw = wifi_ipv4(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            MacAddr::from_index(0),
            3,
            &ip,
        );
        let pkt = Packet::decode(Medium::Wifi, &raw).unwrap();
        assert_eq!(pkt.traffic_class(), TrafficClass::IcmpEchoReply);
        assert_eq!(pkt.net_src().unwrap().as_str(), "10.0.0.2");
    }

    #[test]
    fn crafted_tcp_syn_decodes() {
        let ip = ipv4_tcp(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            &TcpSegment::syn(1000, 443, 1),
        );
        let raw = ethernet_ipv4(MacAddr::from_index(1), MacAddr::from_index(2), &ip);
        let pkt = Packet::decode(Medium::Ethernet, &raw).unwrap();
        assert_eq!(pkt.traffic_class(), TrafficClass::TcpSyn);
    }
}
