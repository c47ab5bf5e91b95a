//! Scan detection: an untrusted source probing many destinations or
//! ports — the primary signal for the smart-firewall deployment.

use std::time::Duration;

use kalis_packets::{CapturedPacket, Entity, TrafficClass};

use crate::alert::{Alert, AttackKind};
use crate::bounded::{budget_params, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET};
use crate::knowledge::KnowValue;
use crate::modules::{
    FrameClass, KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec,
};
use crate::taxonomy::Feature;

use super::util::{AlertGate, SlidingCounter};

/// The scan detection module.
#[derive(Debug)]
pub(crate) struct ScanModule {
    threshold: usize,
    entity_budget: usize,
    touches: SlidingCounter<(Entity, Entity, u16)>, // (scanner, target, port) dedup
    probes: SlidingCounter<Entity>,                 // distinct probes per scanner
    gate: AlertGate<Entity>,
}

impl ScanModule {
    /// A detector alerting when one source touches ≥ `threshold` distinct
    /// (target, port) pairs within 10 s (default 10).
    pub fn new(threshold: usize) -> Self {
        Self::build(threshold, DEFAULT_ENTITY_BUDGET)
    }

    /// Replace the per-entity state budget (the `entity_budget`
    /// configuration parameter), rebuilding the bounded structures.
    pub(crate) fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(self.threshold, budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(threshold: usize, entity_budget: usize) -> Self {
        ScanModule {
            threshold,
            entity_budget,
            touches: SlidingCounter::bounded(Duration::from_secs(10), entity_budget),
            probes: SlidingCounter::bounded(Duration::from_secs(10), entity_budget),
            gate: AlertGate::bounded(Duration::from_secs(12), entity_budget),
        }
    }
}

impl Default for ScanModule {
    fn default() -> Self {
        Self::new(10)
    }
}

impl Module for ScanModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("ScanModule", AttackKind::Scan)
            .needs(&[Feature::IpConnectivity])
            .reads(FrameClass::TCP)
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .accepts_param(ParamSpec::number("threshold", 1.0))
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(pkt) = packet.decoded() else { return };
        if pkt.traffic_class() != TrafficClass::TcpSyn {
            return;
        }
        let (Some(scanner), Some(target), Some(tcp)) = (pkt.net_src(), pkt.net_dst(), pkt.tcp())
        else {
            return;
        };
        let now = packet.timestamp;
        let key = (scanner.clone(), target, tcp.dst_port);
        // Only distinct touches count. Dedup is best-effort over the
        // exact buffer: a touch whose record was spilled to the sketch
        // may be double-counted (over-count, never a miss).
        if self.touches.exact(&key, now) == 0 {
            self.touches.push(now, key);
            self.probes.push(now, scanner.clone());
        }
        let distinct = self.probes.count(&scanner, now);
        if distinct < self.threshold || !self.gate.permit(scanner.clone(), now) {
            return;
        }
        ctx.raise(
            Alert::new(now, AttackKind::Scan, "ScanModule")
                .with_suspect(scanner)
                .with_details(format!("{distinct} distinct (host, port) probes in 10s")),
        );
    }

    fn state_bytes(&self) -> usize {
        self.touches.state_bytes() + self.probes.state_bytes() + 128
    }

    fn occupancy(&self) -> usize {
        self.touches.len() + self.probes.len()
    }

    fn evictions(&self) -> u64 {
        self.touches.evictions() + self.probes.evictions() + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.touches.clear();
        self.probes.clear();
        self.gate.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
    use kalis_packets::tcp::TcpSegment;
    use kalis_packets::{MacAddr, Medium, Timestamp};
    use std::net::Ipv4Addr;

    fn syn(ms: u64, src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> CapturedPacket {
        let ip = kalis_netsim::craft::ipv4_tcp(src, dst, &TcpSegment::syn(40000, port, 1));
        let raw =
            kalis_netsim::craft::ethernet_ipv4(MacAddr::from_index(1), MacAddr::from_index(2), &ip);
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ethernet,
            None,
            "eth0",
            raw,
        )
    }

    fn run(caps: Vec<CapturedPacket>) -> Vec<Alert> {
        let mut module = ScanModule::default();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let mut alerts = Vec::new();
        for cap in caps {
            let mut ctx = ModuleCtx {
                now: cap.timestamp,
                kb: &mut kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &cap);
        }
        alerts
    }

    #[test]
    fn port_scan_is_detected() {
        let scanner = Ipv4Addr::new(203, 0, 113, 9);
        let target = Ipv4Addr::new(10, 0, 0, 5);
        let caps: Vec<_> = (0..12u16)
            .map(|p| syn(u64::from(p) * 100, scanner, target, 1 + p))
            .collect();
        let alerts = run(caps);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attack, AttackKind::Scan);
        assert_eq!(alerts[0].suspects[0].as_str(), scanner.to_string());
    }

    #[test]
    fn host_sweep_is_detected() {
        let scanner = Ipv4Addr::new(203, 0, 113, 9);
        let caps: Vec<_> = (0..12u8)
            .map(|h| syn(u64::from(h) * 100, scanner, Ipv4Addr::new(10, 0, 0, h), 80))
            .collect();
        assert_eq!(run(caps).len(), 1);
    }

    #[test]
    fn budgeted_scan_still_fires_under_scanner_spray() {
        let mut module = ScanModule::default().with_entity_budget(16);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let mut alerts = Vec::new();
        let scanner = Ipv4Addr::new(203, 0, 113, 9);
        let mut caps = Vec::new();
        // One real scanner probing 12 ports, drowned in 300 one-shot
        // fake scanners each probing a single port.
        for i in 0..300u16 {
            if i % 25 == 0 {
                caps.push(syn(
                    u64::from(i) * 10,
                    scanner,
                    Ipv4Addr::new(10, 0, 0, 5),
                    1 + i,
                ));
            }
            caps.push(syn(
                u64::from(i) * 10,
                Ipv4Addr::new(198, 18, (i >> 8) as u8, i as u8),
                Ipv4Addr::new(10, 0, 0, 5),
                80,
            ));
        }
        for cap in caps {
            let mut ctx = ModuleCtx {
                now: cap.timestamp,
                kb: &mut kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &cap);
        }
        assert!(
            alerts
                .iter()
                .any(|a| a.suspects[0].as_str() == scanner.to_string()),
            "real scanner detected despite identity spray"
        );
        assert!(module.occupancy() <= 2 * 16, "occupancy bounded");
        assert!(module.evictions() > 0, "spray forced evictions");
        assert_eq!(module.state_budget(), 16);
    }

    #[test]
    fn repeated_connections_to_one_service_are_fine() {
        let client = Ipv4Addr::new(10, 0, 0, 3);
        let server = Ipv4Addr::new(10, 0, 0, 5);
        let caps: Vec<_> = (0..20u64)
            .map(|i| syn(i * 100, client, server, 443))
            .collect();
        assert!(run(caps).is_empty(), "same (host, port) repeatedly ≠ scan");
    }
}
