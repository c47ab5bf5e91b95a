//! Sensing modules (paper §IV-B4/§V): the autonomous knowledge-discovery
//! mechanisms of Kalis.

mod mobility;
mod topology;
mod traffic;

pub(crate) use mobility::MobilityAwarenessModule;
pub use topology::TopologyDiscoveryModule;
pub use traffic::TrafficStatsModule;

use crate::knowledge::{KnowledgeBase, Watch};

/// What a sensing module last wrote under one label it keeps asserting,
/// with the label's change stamp ([`KnowledgeBase::changed_at`]) just
/// after: while the stamp stands, the Knowledge Base still holds that
/// value and writing it again would change nothing. Any write not the
/// module's own — an operator's, a config's, a peer's knowgget of the
/// label, an entity purge — moves the stamp, and the next assertion
/// writes.
#[derive(Debug, Default)]
struct Asserted {
    watch: Watch,
    /// `(stamp, value)`: `value` held under the label at `stamp`.
    written: Option<(u64, bool)>,
}

impl Asserted {
    /// The label's change stamp now, and what the module last wrote under
    /// it if nothing has changed the label since.
    fn recall(&mut self, kb: &KnowledgeBase, label: &str) -> (u64, Option<bool>) {
        let stamp = kb.changed_at(label, &mut self.watch);
        let written = (self.written).and_then(|(at, value)| (at == stamp).then_some(value));
        (stamp, written)
    }

    /// Write `value` under `label` unless the Knowledge Base is known to
    /// hold it. The stamp is read before the write and the module's own
    /// change is stamped with the revision it makes, so a change by
    /// anyone else — even one the write itself sets off, an entity purge
    /// — is never taken for the module's own.
    fn assert(&mut self, kb: &mut KnowledgeBase, label: &'static str, value: bool) {
        let (stamp, written) = self.recall(kb, label);
        if written == Some(value) {
            return;
        }
        let before = kb.revision();
        let at = if kb.insert(label, value) {
            before + 1
        } else {
            stamp
        };
        self.written = Some((at, value));
    }
}

/// Knowgget labels written by the built-in sensing modules.
pub mod labels {
    /// Boolean: whether the monitored network portion is multi-hop.
    pub const MULTIHOP: &str = "Multihop";
    /// Boolean: whether the network is mobile.
    pub const MOBILE: &str = "Mobile";
    /// Integer: number of distinct monitored transmitters.
    pub(crate) const MONITORED_NODES: &str = "MonitoredNodes";
    /// Multilevel root: packets/second per traffic class.
    pub(crate) const TRAFFIC_FREQUENCY: &str = "TrafficFrequency";
    /// Float (per-entity): smoothed received signal strength in dBm.
    pub const SIGNAL_STRENGTH: &str = "SignalStrength";
    /// Text: the entity established as CTP collection-tree root.
    pub(crate) const CTP_ROOT: &str = "CtpRoot";
    /// Multilevel root (boolean leaves): mediums seen, e.g. `MediumSeen.wifi`.
    pub(crate) const MEDIUM_SEEN: &str = "MediumSeen";
    /// Multilevel root (boolean leaves): protocols seen, e.g. `ProtocolSeen.CTP`.
    pub(crate) const PROTOCOL_SEEN: &str = "ProtocolSeen";

    // The leaves read and written on dispatch paths, spelled out so no
    // packet or reconfigure pass builds a label: each equals
    // `KnowKey::scoped(root, leaf)` (pinned by a test below), which stays
    // the constructor contracts declare them with.
    /// `MediumSeen.802.15.4`.
    pub const MEDIUM_SEEN_802154: &str = "MediumSeen.802.15.4";
    /// `MediumSeen.wifi`.
    pub const MEDIUM_SEEN_WIFI: &str = "MediumSeen.wifi";
    /// `MediumSeen.ethernet`.
    pub(crate) const MEDIUM_SEEN_ETHERNET: &str = "MediumSeen.ethernet";
    /// `MediumSeen.ble`.
    pub(crate) const MEDIUM_SEEN_BLE: &str = "MediumSeen.ble";
    /// `ProtocolSeen.CTP`.
    pub(crate) const PROTOCOL_SEEN_CTP: &str = "ProtocolSeen.CTP";
    /// `ProtocolSeen.ZIGBEE`.
    pub(crate) const PROTOCOL_SEEN_ZIGBEE: &str = "ProtocolSeen.ZIGBEE";
    /// `ProtocolSeen.SIXLOWPAN`.
    pub const PROTOCOL_SEEN_SIXLOWPAN: &str = "ProtocolSeen.SIXLOWPAN";
    /// `ProtocolSeen.IP`.
    pub const PROTOCOL_SEEN_IP: &str = "ProtocolSeen.IP";
    /// `ProtocolSeen.RPL`.
    pub(crate) const PROTOCOL_SEEN_RPL: &str = "ProtocolSeen.RPL";

    /// The [`MEDIUM_SEEN`] leaf for `medium`.
    pub(crate) fn medium_seen(medium: kalis_packets::Medium) -> &'static str {
        use kalis_packets::Medium;
        match medium {
            Medium::Ieee802154 => MEDIUM_SEEN_802154,
            Medium::Wifi => MEDIUM_SEEN_WIFI,
            Medium::Ethernet => MEDIUM_SEEN_ETHERNET,
            Medium::Ble => MEDIUM_SEEN_BLE,
        }
    }

    /// The [`TRAFFIC_FREQUENCY`] leaf for `class`.
    pub(crate) fn traffic_frequency(class: kalis_packets::TrafficClass) -> &'static str {
        use kalis_packets::TrafficClass;
        match class {
            TrafficClass::TcpSyn => "TrafficFrequency.TCPSYN",
            TrafficClass::TcpSynAck => "TrafficFrequency.TCPSYNACK",
            TrafficClass::TcpAck => "TrafficFrequency.TCPACK",
            TrafficClass::TcpOther => "TrafficFrequency.TCP",
            TrafficClass::Udp => "TrafficFrequency.UDP",
            TrafficClass::IcmpEchoRequest => "TrafficFrequency.ICMPREQ",
            TrafficClass::IcmpEchoReply => "TrafficFrequency.ICMPRESP",
            TrafficClass::IcmpOther => "TrafficFrequency.ICMP",
            TrafficClass::ZigbeeData => "TrafficFrequency.ZIGBEEDATA",
            TrafficClass::ZigbeeRouting => "TrafficFrequency.ZIGBEEROUTING",
            TrafficClass::CtpData => "TrafficFrequency.CTPDATA",
            TrafficClass::CtpBeacon => "TrafficFrequency.CTPBEACON",
            TrafficClass::SixLowpan => "TrafficFrequency.SIXLOWPAN",
            TrafficClass::Rpl => "TrafficFrequency.RPL",
            TrafficClass::WifiMgmt => "TrafficFrequency.WIFIMGMT",
            TrafficClass::MacAck => "TrafficFrequency.MACACK",
            TrafficClass::BleAdv => "TrafficFrequency.BLEADV",
            // `Other`, and — the enum being non-exhaustive — a class
            // added without its leaf: the test below walks
            // `TrafficClass::all()` to catch that.
            _ => "TrafficFrequency.OTHER",
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::knowledge::KnowKey;
        use kalis_packets::{Medium, TrafficClass};

        #[test]
        fn spelled_out_leaves_equal_the_scoped_constructor() {
            for medium in [
                Medium::Ieee802154,
                Medium::Wifi,
                Medium::Ethernet,
                Medium::Ble,
            ] {
                let scoped = KnowKey::scoped(MEDIUM_SEEN, &medium.to_string());
                assert_eq!(medium_seen(medium), scoped);
            }
            for (spelled, leaf) in [
                (PROTOCOL_SEEN_CTP, "CTP"),
                (PROTOCOL_SEEN_ZIGBEE, "ZIGBEE"),
                (PROTOCOL_SEEN_SIXLOWPAN, "SIXLOWPAN"),
                (PROTOCOL_SEEN_IP, "IP"),
                (PROTOCOL_SEEN_RPL, "RPL"),
            ] {
                assert_eq!(spelled, KnowKey::scoped(PROTOCOL_SEEN, leaf));
            }
            assert_eq!(TrafficClass::all().len(), 18);
            for class in TrafficClass::all() {
                let scoped = KnowKey::scoped(TRAFFIC_FREQUENCY, class.label());
                assert_eq!(traffic_frequency(*class), scoped);
            }
        }
    }
}
