//! The smart-firewall deployment (paper §V): Kalis on an OpenWRT-class
//! router, using its knowledge-driven detection "for filtering suspicious
//! incoming traffic from untrusted Internet sources to IoT devices in the
//! local network".

use kalis_packets::{CapturedPacket, Entity};

use crate::node::Kalis;

/// The firewall's decision for one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the frame into the local network.
    Forward,
    /// Drop the frame.
    Drop {
        /// Why it was dropped.
        reason: String,
    },
}

/// Aggregate firewall counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `SmartFirewall::stats`
pub struct FirewallStats {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped.
    pub dropped: u64,
}

/// A Kalis node acting as a smart firewall on the router's uplink.
///
/// Every inbound frame is both *inspected* (fed to the IDS) and
/// *adjudicated*: frames whose source is currently revoked by the
/// response engine are dropped. Detection thus automatically converts
/// into filtering — scan or flood sources get blocked as soon as the
/// corresponding module raises an alert.
///
/// # Examples
///
/// ```
/// use kalis_core::firewall::{SmartFirewall, Verdict};
/// use kalis_core::{Kalis, KalisId};
///
/// let kalis = Kalis::builder(KalisId::new("router")).with_default_modules().build();
/// let mut firewall = SmartFirewall::new(kalis);
/// assert_eq!(firewall.stats().forwarded, 0);
/// ```
#[derive(Debug)]
pub struct SmartFirewall {
    kalis: Kalis,
    stats: FirewallStats,
    blocklist: Vec<Entity>,
}

impl SmartFirewall {
    /// Wrap a Kalis node as a firewall.
    pub fn new(kalis: Kalis) -> Self {
        SmartFirewall {
            kalis,
            stats: FirewallStats::default(),
            blocklist: Vec::new(),
        }
    }

    /// Statically block an entity (administrator rule).
    pub fn block(&mut self, entity: Entity) {
        if !self.blocklist.contains(&entity) {
            self.blocklist.push(entity);
        }
    }

    /// Inspect an inbound frame and decide its fate.
    pub fn filter(&mut self, packet: CapturedPacket) -> Verdict {
        let now = packet.timestamp;
        let src = packet.decoded().and_then(|p| p.net_src());
        self.kalis.ingest(packet);
        let Some(src) = src else {
            // Un-attributable inbound traffic on the uplink is forwarded
            // (the IDS still saw it).
            self.stats.forwarded += 1;
            return Verdict::Forward;
        };
        if self.blocklist.contains(&src) {
            self.stats.dropped += 1;
            return Verdict::Drop {
                reason: format!("{src} is on the administrator blocklist"),
            };
        }
        if self.kalis.response().is_revoked(&src, now) {
            self.stats.dropped += 1;
            return Verdict::Drop {
                reason: format!("{src} is revoked by intrusion detection"),
            };
        }
        self.stats.forwarded += 1;
        Verdict::Forward
    }

    /// Counters so far.
    pub fn stats(&self) -> FirewallStats {
        self.stats
    }

    /// The wrapped IDS (for alerts, knowledge, metrics).
    pub fn kalis(&self) -> &Kalis {
        &self.kalis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use kalis_packets::tcp::TcpSegment;
    use kalis_packets::{MacAddr, Medium, Timestamp};
    use std::net::Ipv4Addr;

    fn syn(ms: u64, src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> CapturedPacket {
        let ip = kalis_netsim::craft::ipv4_tcp(src, dst, &TcpSegment::syn(40000, port, 1));
        let raw =
            kalis_netsim::craft::ethernet_ipv4(MacAddr::from_index(9), MacAddr::from_index(1), &ip);
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ethernet,
            None,
            "eth0",
            raw,
        )
    }

    fn firewall() -> SmartFirewall {
        let config: crate::config::Config =
            "modules = { ScanModule (threshold = 8), TopologyDiscoveryModule }"
                .parse()
                .unwrap();
        let kalis = Kalis::builder(KalisId::new("router"))
            .with_config(config)
            .build();
        SmartFirewall::new(kalis)
    }

    #[test]
    fn scanners_get_blocked_after_detection() {
        let mut fw = firewall();
        let scanner = Ipv4Addr::new(203, 0, 113, 50);
        let mut dropped = 0;
        for p in 0..20u16 {
            let verdict = fw.filter(syn(
                u64::from(p) * 100,
                scanner,
                Ipv4Addr::new(10, 0, 0, 5),
                p + 1,
            ));
            if matches!(verdict, Verdict::Drop { .. }) {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "the scan must eventually be filtered");
        assert!(fw.stats().dropped > 0);
        assert!(!fw.kalis().alerts().is_empty());
    }

    #[test]
    fn legitimate_traffic_flows() {
        let mut fw = firewall();
        let client = Ipv4Addr::new(52, 0, 0, 1);
        for i in 0..20u64 {
            let verdict = fw.filter(syn(i * 100, client, Ipv4Addr::new(10, 0, 0, 5), 443));
            assert_eq!(verdict, Verdict::Forward);
        }
        assert_eq!(fw.stats().forwarded, 20);
    }

    #[test]
    fn blocklist_is_enforced_immediately() {
        let mut fw = firewall();
        let bad = Ipv4Addr::new(198, 51, 100, 1);
        fw.block(Entity::new(bad.to_string()));
        let verdict = fw.filter(syn(0, bad, Ipv4Addr::new(10, 0, 0, 5), 443));
        assert!(matches!(verdict, Verdict::Drop { .. }));
    }
}
