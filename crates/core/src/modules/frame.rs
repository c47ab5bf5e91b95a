//! Frame classes: what a packet is, in the terms module descriptors use
//! to say which packets they read (paper §IV-B4, "routing new packet
//! events to all the interested parties").

use kalis_packets::packet::{LinkLayer, NetworkLayer};
use kalis_packets::{CapturedPacket, Medium, TrafficClass};

/// A set of frame classes, one bit each. A packet's class
/// ([`FrameClass::of`]) holds every class it belongs to; a descriptor's
/// [`reads`](super::ModuleDescriptor::reads) holds the classes its module
/// reads, and the Module Manager calls the module on a packet only where
/// the two meet. Every frame carries [`FrameClass::ANY`], so a module
/// reading `ANY` sees every frame, undecodable ones included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameClass(u16);

impl FrameClass {
    /// Every frame, decodable or not.
    pub const ANY: FrameClass = FrameClass(1);
    /// Overheard on an 802.15.4 medium.
    pub const IEEE802154: FrameClass = FrameClass(1 << 1);
    /// An 802.11 link layer.
    pub(crate) const WIFI: FrameClass = FrameClass(1 << 2);
    /// An 802.11 management frame ([`TrafficClass::WifiMgmt`]).
    pub const WIFI_MGMT: FrameClass = FrameClass(1 << 3);
    /// A CTP network layer.
    pub const CTP: FrameClass = FrameClass(1 << 4);
    /// A 6LoWPAN network layer.
    pub(crate) const SIXLOWPAN: FrameClass = FrameClass(1 << 5);
    /// A ZigBee network layer.
    pub(crate) const ZIGBEE: FrameClass = FrameClass(1 << 6);
    /// An ICMP (v4 or v6) echo request or reply.
    pub(crate) const ICMP_ECHO: FrameClass = FrameClass(1 << 7);
    /// A TCP segment.
    pub(crate) const TCP: FrameClass = FrameClass(1 << 8);
    /// A UDP datagram.
    pub const UDP: FrameClass = FrameClass(1 << 9);
    /// An RPL control message.
    pub(crate) const RPL: FrameClass = FrameClass(1 << 10);

    /// Every single class with its name, in bit order.
    pub const NAMED: [(FrameClass, &'static str); 11] = [
        (FrameClass::ANY, "any"),
        (FrameClass::IEEE802154, "802.15.4"),
        (FrameClass::WIFI, "802.11"),
        (FrameClass::WIFI_MGMT, "802.11-mgmt"),
        (FrameClass::CTP, "ctp"),
        (FrameClass::SIXLOWPAN, "6lowpan"),
        (FrameClass::ZIGBEE, "zigbee"),
        (FrameClass::ICMP_ECHO, "icmp-echo"),
        (FrameClass::TCP, "tcp"),
        (FrameClass::UDP, "udp"),
        (FrameClass::RPL, "rpl"),
    ];

    /// The classes `packet` belongs to, [`FrameClass::ANY`] always.
    pub fn of(packet: &CapturedPacket) -> FrameClass {
        let mut bits = FrameClass::ANY.0;
        if packet.medium == Medium::Ieee802154 {
            bits |= FrameClass::IEEE802154.0;
        }
        let Some(pkt) = packet.decoded() else {
            return FrameClass(bits);
        };
        if let LinkLayer::Wifi(_) = pkt.link {
            bits |= FrameClass::WIFI.0;
        }
        bits |= match pkt.net {
            Some(NetworkLayer::Ctp(_)) => FrameClass::CTP.0,
            Some(NetworkLayer::SixLowpan { .. }) => FrameClass::SIXLOWPAN.0,
            Some(NetworkLayer::Zigbee(_)) => FrameClass::ZIGBEE.0,
            _ => 0,
        };
        bits |= match pkt.traffic_class() {
            TrafficClass::WifiMgmt => FrameClass::WIFI_MGMT.0,
            TrafficClass::IcmpEchoRequest | TrafficClass::IcmpEchoReply => FrameClass::ICMP_ECHO.0,
            TrafficClass::TcpSyn
            | TrafficClass::TcpSynAck
            | TrafficClass::TcpAck
            | TrafficClass::TcpOther => FrameClass::TCP.0,
            TrafficClass::Udp => FrameClass::UDP.0,
            TrafficClass::Rpl => FrameClass::RPL.0,
            _ => 0,
        };
        FrameClass(bits)
    }

    /// Whether the two sets share a class.
    #[inline]
    pub fn intersects(self, other: FrameClass) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether a frame overheard on `medium` can belong to a class of
    /// this set: the IP classes ride 802.11, Ethernet and 802.15.4
    /// (through 6LoWPAN), the link and mesh classes their own medium.
    pub fn carried_on(self, medium: Medium) -> bool {
        let on = match medium {
            Medium::Ieee802154 => {
                FrameClass::IEEE802154
                    | FrameClass::CTP
                    | FrameClass::SIXLOWPAN
                    | FrameClass::ZIGBEE
            }
            Medium::Wifi => FrameClass::WIFI | FrameClass::WIFI_MGMT,
            Medium::Ethernet | Medium::Ble => FrameClass(0),
        };
        let ip = match medium {
            Medium::Ble => FrameClass(0),
            _ => FrameClass::ICMP_ECHO | FrameClass::TCP | FrameClass::UDP | FrameClass::RPL,
        };
        self.intersects(FrameClass::ANY | on | ip)
    }

    /// The names of the classes in the set, in bit order, `|`-joined.
    pub fn names(self) -> String {
        (FrameClass::NAMED.iter())
            .filter(|(class, _)| self.intersects(*class))
            .map(|(_, name)| *name)
            .collect::<Vec<_>>()
            .join("|")
    }
}

impl core::ops::BitOr for FrameClass {
    type Output = FrameClass;

    fn bitor(self, other: FrameClass) -> FrameClass {
        FrameClass(self.0 | other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use kalis_packets::Timestamp;

    #[test]
    fn an_undecodable_frame_is_any_and_its_medium_only() {
        let junk = |medium| {
            CapturedPacket::capture(
                Timestamp::ZERO,
                medium,
                None,
                "t",
                Bytes::from_static(&[0xff]),
            )
        };
        assert_eq!(FrameClass::of(&junk(Medium::Wifi)), FrameClass::ANY);
        assert_eq!(
            FrameClass::of(&junk(Medium::Ieee802154)),
            FrameClass::ANY | FrameClass::IEEE802154
        );
    }

    #[test]
    fn media_carry_their_classes() {
        assert!(FrameClass::WIFI_MGMT.carried_on(Medium::Wifi));
        assert!(!FrameClass::WIFI_MGMT.carried_on(Medium::Ieee802154));
        assert!(!FrameClass::IEEE802154.carried_on(Medium::Wifi));
        assert!(FrameClass::UDP.carried_on(Medium::Ieee802154));
        assert!(FrameClass::ANY.carried_on(Medium::Ble));
        assert_eq!(
            (FrameClass::CTP | FrameClass::ZIGBEE | FrameClass::RPL).names(),
            "ctp|zigbee|rpl"
        );
    }
}
