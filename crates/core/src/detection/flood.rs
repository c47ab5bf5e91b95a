//! Flood detectors: ICMP Flood, Smurf, SYN flood, UDP flood.
//!
//! ICMP Flood and Smurf are the paper's working example (§III-A1): both
//! present the same symptom — a high rate of ICMP Echo Replies towards a
//! victim — but Smurf is impossible in a single-hop network. Kalis
//! activates the Smurf detector only when the Knowledge Base says the
//! network is multi-hop, which is what removes the ambiguity.

use std::time::Duration;

use kalis_packets::{CapturedPacket, Entity, TrafficClass};

use crate::alert::{Alert, AttackKind};
use crate::bounded::{budget_params, BoundedMap, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET};
use crate::knowledge::KnowValue;
use crate::modules::{
    FrameClass, KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec,
};
use crate::sensing::labels as sense;
use crate::taxonomy::Feature;

use super::util::{AlertGate, SlidingCounter};

const WINDOW: Duration = Duration::from_secs(5);
const COOLDOWN: Duration = Duration::from_secs(10);
/// Distinct transmitters remembered per victim for alert attribution.
const MAX_SUSPECTS: usize = 8;

/// The distinct transmitters remembered towards one victim, in the order
/// first heard. Most victims of a spray are heard from once, so the first
/// is held here and only a second starts a `Vec`.
#[derive(Debug)]
enum Suspects {
    One(Entity),
    // kalis-lint: allow(KL301): capped at MAX_SUSPECTS by `note_suspect`
    Many(Vec<Entity>),
}

impl Default for Suspects {
    fn default() -> Self {
        Suspects::Many(Vec::new())
    }
}

impl Suspects {
    fn as_slice(&self) -> &[Entity] {
        match self {
            Suspects::One(tx) => std::slice::from_ref(tx),
            Suspects::Many(txs) => txs,
        }
    }
}

/// Remember `tx` as a suspect transmitter towards `victim`, within the
/// per-victim attribution cap.
fn note_suspect(map: &mut BoundedMap<Entity, Suspects>, victim: &Entity, tx: Option<Entity>) {
    let Some(tx) = tx else { return };
    let (suspects, _) = map.get_or_insert_with(victim, Suspects::default);
    if suspects.as_slice().contains(&tx) || suspects.as_slice().len() >= MAX_SUSPECTS {
        return;
    }
    match suspects {
        Suspects::Many(txs) if txs.is_empty() => *suspects = Suspects::One(tx),
        Suspects::Many(txs) => txs.push(tx),
        Suspects::One(held) => *suspects = Suspects::Many(vec![held.clone(), tx]),
    }
}

/// The suspects remembered towards `victim`.
fn suspects_of<'a>(map: &'a BoundedMap<Entity, Suspects>, victim: &Entity) -> &'a [Entity] {
    map.get(victim).map_or(&[], Suspects::as_slice)
}

/// Detects ICMP Echo-Reply floods (single attacker, many claimed sender
/// identities).
///
/// Activation: the topology must be known (either value) — in a multi-hop
/// network the module defers to the Smurf detector whenever spoofed
/// request evidence is present.
#[derive(Debug)]
pub struct IcmpFloodModule {
    threshold: usize,
    entity_budget: usize,
    replies: SlidingCounter<Entity>,          // victim
    spoofed_requests: SlidingCounter<Entity>, // claimed src of echo requests
    suspects: BoundedMap<Entity, Suspects>,   // victim → transmitters
    gate: AlertGate<Entity>,
}

impl IcmpFloodModule {
    /// A detector alerting at ≥ `threshold` replies per victim per 5 s
    /// window (default 25).
    pub fn new(threshold: usize) -> Self {
        Self::build(threshold, DEFAULT_ENTITY_BUDGET)
    }

    /// Replace the per-entity state budget (the `entity_budget`
    /// configuration parameter), rebuilding the bounded structures.
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(self.threshold, budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(threshold: usize, entity_budget: usize) -> Self {
        IcmpFloodModule {
            threshold,
            entity_budget,
            replies: SlidingCounter::bounded(WINDOW, entity_budget),
            spoofed_requests: SlidingCounter::bounded(WINDOW, entity_budget),
            suspects: BoundedMap::new(entity_budget),
            gate: AlertGate::bounded(COOLDOWN, entity_budget),
        }
    }
}

impl Default for IcmpFloodModule {
    fn default() -> Self {
        Self::new(25)
    }
}

impl Module for IcmpFloodModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("IcmpFloodModule", AttackKind::IcmpFlood)
            .needs(&[Feature::MultiHop, Feature::SingleHop])
            .reads(FrameClass::ICMP_ECHO)
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .accepts_param(ParamSpec::number("threshold", 1.0))
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(pkt) = packet.decoded() else { return };
        match pkt.traffic_class() {
            TrafficClass::IcmpEchoRequest => {
                if let Some(src) = pkt.net_src() {
                    self.spoofed_requests.push(packet.timestamp, src);
                }
            }
            TrafficClass::IcmpEchoReply => {
                let Some(victim) = pkt.net_dst() else { return };
                let now = packet.timestamp;
                self.replies.push(now, victim.clone());
                // The flood attacker transmits every reply itself (with
                // varying claimed identities): the link-layer transmitters
                // within one hop are the suspects.
                note_suspect(&mut self.suspects, &victim, pkt.transmitter());
                let count = self.replies.count(&victim, now);
                if count < self.threshold {
                    return;
                }
                // In a known multi-hop network with spoofed-request
                // evidence, this is the Smurf detector's case.
                let multihop = ctx.kb.get_bool(sense::MULTIHOP) == Some(true);
                let spoof_evidence = self.spoofed_requests.count(&victim, now) > 0;
                if multihop && spoof_evidence {
                    return;
                }
                if !self.gate.permit(victim.clone(), now) {
                    return;
                }
                let suspects = suspects_of(&self.suspects, &victim);
                ctx.raise(
                    Alert::new(now, AttackKind::IcmpFlood, "IcmpFloodModule")
                        .with_victim(victim)
                        .with_suspects(suspects.iter().cloned())
                        .with_details(format!("{count} echo replies in {WINDOW:?}")),
                );
            }
            _ => {}
        }
    }

    fn state_bytes(&self) -> usize {
        self.replies.state_bytes()
            + self.spoofed_requests.state_bytes()
            + self.suspects.len() * 96
            + 128
    }

    fn occupancy(&self) -> usize {
        self.replies.len() + self.spoofed_requests.len() + self.suspects.len()
    }

    fn evictions(&self) -> u64 {
        self.replies.evictions()
            + self.spoofed_requests.evictions()
            + self.suspects.evictions()
            + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.replies.clear();
        self.spoofed_requests.clear();
        self.suspects.clear();
        self.gate.clear();
    }
}

/// Detects Smurf attacks: spoofed Echo Requests (claiming the victim as
/// source) amplified into an Echo-Reply flood on the victim.
///
/// Activation: multi-hop networks only — "the Smurf attack is not
/// possible in single-hop networks" (paper §III-A1).
#[derive(Debug)]
pub struct SmurfModule {
    threshold: usize,
    entity_budget: usize,
    replies: SlidingCounter<Entity>,        // victim
    spoofers: BoundedMap<Entity, Suspects>, // claimed src → transmitters
    gate: AlertGate<Entity>,
}

impl SmurfModule {
    /// A detector alerting at ≥ `threshold` replies per victim per 5 s
    /// window (default 25).
    pub fn new(threshold: usize) -> Self {
        Self::build(threshold, DEFAULT_ENTITY_BUDGET)
    }

    /// Replace the per-entity state budget (the `entity_budget`
    /// configuration parameter), rebuilding the bounded structures.
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(self.threshold, budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(threshold: usize, entity_budget: usize) -> Self {
        SmurfModule {
            threshold,
            entity_budget,
            replies: SlidingCounter::bounded(WINDOW, entity_budget),
            spoofers: BoundedMap::new(entity_budget),
            gate: AlertGate::bounded(COOLDOWN, entity_budget),
        }
    }
}

impl Default for SmurfModule {
    fn default() -> Self {
        Self::new(25)
    }
}

impl Module for SmurfModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("SmurfModule", AttackKind::Smurf)
            .needs(&[Feature::MultiHop])
            .reads(FrameClass::ICMP_ECHO)
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .accepts_param(ParamSpec::number("threshold", 1.0))
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(pkt) = packet.decoded() else { return };
        match pkt.traffic_class() {
            TrafficClass::IcmpEchoRequest => {
                // The real attacker is whoever transmits requests claiming
                // someone else's identity; remember the transmitters per
                // claimed source.
                if let Some(src) = pkt.net_src() {
                    note_suspect(&mut self.spoofers, &src, pkt.transmitter());
                }
            }
            TrafficClass::IcmpEchoReply => {
                let Some(victim) = pkt.net_dst() else { return };
                self.replies.push(packet.timestamp, victim.clone());
                let now = packet.timestamp;
                if self.replies.count(&victim, now) < self.threshold {
                    return;
                }
                if !self.gate.permit(victim.clone(), now) {
                    return;
                }
                let spoofers = suspects_of(&self.spoofers, &victim);
                let alert = if spoofers.is_empty() {
                    // No spoofed-request evidence: the technique falls back
                    // to suspecting nodes two hops from the victim. In a
                    // single-hop network a naive 2-hop graph exploration
                    // walks back to the victim itself — the paper's
                    // countermeasure anecdote (§VI-B1), reproduced here.
                    Alert::new(now, AttackKind::Smurf, "SmurfModule")
                        .with_victim(victim.clone())
                        .with_suspect(victim)
                        .with_details("no spoofed requests observed; naive 2-hop suspect set")
                } else {
                    Alert::new(now, AttackKind::Smurf, "SmurfModule")
                        .with_victim(victim)
                        .with_suspects(spoofers.iter().cloned())
                        .with_details("spoofed echo requests correlated with reply flood")
                };
                ctx.raise(alert);
            }
            _ => {}
        }
    }

    fn state_bytes(&self) -> usize {
        self.replies.state_bytes() + self.spoofers.len() * 96 + 128
    }

    fn occupancy(&self) -> usize {
        self.replies.len() + self.spoofers.len()
    }

    fn evictions(&self) -> u64 {
        self.replies.evictions() + self.spoofers.evictions() + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.replies.clear();
        self.spoofers.clear();
        self.gate.clear();
    }
}

/// Detects TCP SYN floods ("SYN flow" in the paper's module list): a high
/// rate of pure SYNs towards one service with a collapsed handshake
/// completion ratio.
#[derive(Debug)]
pub struct SynFloodModule {
    threshold: usize,
    entity_budget: usize,
    syns: SlidingCounter<Entity>,           // victim
    acks: SlidingCounter<Entity>,           // victim (handshake completions)
    suspects: BoundedMap<Entity, Suspects>, // victim → transmitters
    gate: AlertGate<Entity>,
}

impl SynFloodModule {
    /// A detector alerting at ≥ `threshold` pure SYNs per victim per 5 s
    /// window (default 30) with completion below half.
    pub fn new(threshold: usize) -> Self {
        Self::build(threshold, DEFAULT_ENTITY_BUDGET)
    }

    /// Replace the per-entity state budget (the `entity_budget`
    /// configuration parameter), rebuilding the bounded structures.
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(self.threshold, budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(threshold: usize, entity_budget: usize) -> Self {
        SynFloodModule {
            threshold,
            entity_budget,
            syns: SlidingCounter::bounded(WINDOW, entity_budget),
            acks: SlidingCounter::bounded(WINDOW, entity_budget),
            suspects: BoundedMap::new(entity_budget),
            gate: AlertGate::bounded(COOLDOWN, entity_budget),
        }
    }
}

impl Default for SynFloodModule {
    fn default() -> Self {
        Self::new(30)
    }
}

impl Module for SynFloodModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("SynFloodModule", AttackKind::SynFlood)
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
        let now = packet.timestamp;
        match pkt.traffic_class() {
            TrafficClass::TcpSyn => {
                let Some(victim) = pkt.net_dst() else { return };
                self.syns.push(now, victim.clone());
                note_suspect(&mut self.suspects, &victim, pkt.transmitter());
                let syn_count = self.syns.count(&victim, now);
                if syn_count < self.threshold {
                    return;
                }
                let completions = self.acks.count(&victim, now);
                if completions * 2 >= syn_count {
                    return; // handshakes are completing: busy, not attacked
                }
                if !self.gate.permit(victim.clone(), now) {
                    return;
                }
                let suspects = suspects_of(&self.suspects, &victim);
                ctx.raise(
                    Alert::new(now, AttackKind::SynFlood, "SynFloodModule")
                        .with_victim(victim)
                        .with_suspects(suspects.iter().cloned())
                        .with_details(format!(
                            "{syn_count} SYNs vs {completions} completions in {WINDOW:?}"
                        )),
                );
            }
            TrafficClass::TcpAck => {
                if let Some(victim) = pkt.net_dst() {
                    self.acks.push(now, victim);
                }
            }
            _ => {}
        }
    }

    fn state_bytes(&self) -> usize {
        self.syns.state_bytes() + self.acks.state_bytes() + self.suspects.len() * 96 + 128
    }

    fn occupancy(&self) -> usize {
        self.syns.len() + self.acks.len() + self.suspects.len()
    }

    fn evictions(&self) -> u64 {
        self.syns.evictions()
            + self.acks.evictions()
            + self.suspects.evictions()
            + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.syns.clear();
        self.acks.clear();
        self.suspects.clear();
        self.gate.clear();
    }
}

/// Detects UDP datagram floods towards one device.
#[derive(Debug)]
pub struct UdpFloodModule {
    threshold: usize,
    entity_budget: usize,
    datagrams: SlidingCounter<Entity>,      // victim
    suspects: BoundedMap<Entity, Suspects>, // victim → transmitters
    gate: AlertGate<Entity>,
}

impl UdpFloodModule {
    /// A detector alerting at ≥ `threshold` datagrams per victim per 5 s
    /// window (default 100).
    pub fn new(threshold: usize) -> Self {
        Self::build(threshold, DEFAULT_ENTITY_BUDGET)
    }

    /// Replace the per-entity state budget (the `entity_budget`
    /// configuration parameter), rebuilding the bounded structures.
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(self.threshold, budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(threshold: usize, entity_budget: usize) -> Self {
        UdpFloodModule {
            threshold,
            entity_budget,
            datagrams: SlidingCounter::bounded(WINDOW, entity_budget),
            suspects: BoundedMap::new(entity_budget),
            gate: AlertGate::bounded(COOLDOWN, entity_budget),
        }
    }
}

impl Default for UdpFloodModule {
    fn default() -> Self {
        Self::new(100)
    }
}

impl Module for UdpFloodModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("UdpFloodModule", AttackKind::UdpFlood)
            .needs(&[Feature::IpConnectivity])
            .reads(FrameClass::UDP)
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .accepts_param(ParamSpec::number("threshold", 1.0))
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(pkt) = packet.decoded() else { return };
        if pkt.traffic_class() != TrafficClass::Udp {
            return;
        }
        let Some(victim) = pkt.net_dst() else { return };
        let now = packet.timestamp;
        self.datagrams.push(now, victim.clone());
        note_suspect(&mut self.suspects, &victim, pkt.transmitter());
        let count = self.datagrams.count(&victim, now);
        if count < self.threshold || !self.gate.permit(victim.clone(), now) {
            return;
        }
        let suspects = suspects_of(&self.suspects, &victim);
        ctx.raise(
            Alert::new(now, AttackKind::UdpFlood, "UdpFloodModule")
                .with_victim(victim)
                .with_suspects(suspects.iter().cloned())
                .with_details(format!("{count} datagrams in {WINDOW:?}")),
        );
    }

    fn state_bytes(&self) -> usize {
        self.datagrams.state_bytes() + self.suspects.len() * 96 + 128
    }

    fn occupancy(&self) -> usize {
        self.datagrams.len() + self.suspects.len()
    }

    fn evictions(&self) -> u64 {
        self.datagrams.evictions() + self.suspects.evictions() + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.datagrams.clear();
        self.suspects.clear();
        self.gate.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
    use kalis_packets::{MacAddr, Medium, Timestamp};
    use std::net::Ipv4Addr;

    const VICTIM: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);
    const ATTACKER_MAC_INDEX: u32 = 66;

    fn reply_to_victim(ms: u64, claimed_src: Ipv4Addr) -> CapturedPacket {
        let ip = kalis_netsim::craft::ipv4_echo_reply(claimed_src, VICTIM, 1, 1);
        let raw = kalis_netsim::craft::wifi_ipv4(
            MacAddr::from_index(ATTACKER_MAC_INDEX),
            MacAddr::BROADCAST,
            MacAddr::from_index(0),
            0,
            &ip,
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Wifi,
            Some(-50.0),
            "w",
            raw,
        )
    }

    fn spoofed_request(ms: u64, tx_index: u32) -> CapturedPacket {
        // Request claiming the victim as source (the Smurf trigger).
        let ip = kalis_netsim::craft::ipv4_echo_request(VICTIM, Ipv4Addr::new(10, 0, 0, 20), 1, 1);
        let raw = kalis_netsim::craft::wifi_ipv4(
            MacAddr::from_index(tx_index),
            MacAddr::BROADCAST,
            MacAddr::from_index(0),
            0,
            &ip,
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Wifi,
            Some(-50.0),
            "w",
            raw,
        )
    }

    fn dispatch(
        module: &mut dyn Module,
        kb: &mut KnowledgeBase,
        caps: Vec<CapturedPacket>,
    ) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for cap in caps {
            let mut ctx = ModuleCtx {
                now: cap.timestamp,
                kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &cap);
        }
        alerts
    }

    fn kb_single_hop() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.insert(sense::MULTIHOP, false);
        kb
    }

    #[test]
    fn flood_detected_with_attacker_transmitter_as_suspect() {
        let mut module = IcmpFloodModule::new(10);
        let mut kb = kb_single_hop();
        // 15 replies within 1.5 s, each claiming a different sender identity.
        let caps: Vec<_> = (0..15)
            .map(|i| reply_to_victim(i * 100, Ipv4Addr::new(10, 0, 0, 100 + i as u8)))
            .collect();
        let alerts = dispatch(&mut module, &mut kb, caps);
        assert_eq!(alerts.len(), 1, "cooldown dedupes");
        let alert = &alerts[0];
        assert_eq!(alert.attack, AttackKind::IcmpFlood);
        assert_eq!(alert.victim.as_ref().unwrap().as_str(), VICTIM.to_string());
        assert_eq!(
            alert.suspects,
            vec![Entity::from(MacAddr::from_index(ATTACKER_MAC_INDEX))],
            "single physical transmitter despite many claimed identities"
        );
    }

    #[test]
    fn flood_below_threshold_is_silent() {
        let mut module = IcmpFloodModule::new(10);
        let mut kb = kb_single_hop();
        let caps: Vec<_> = (0..9)
            .map(|i| reply_to_victim(i * 100, Ipv4Addr::new(1, 1, 1, 1)))
            .collect();
        assert!(dispatch(&mut module, &mut kb, caps).is_empty());
    }

    #[test]
    fn flood_defers_to_smurf_in_multihop_with_spoof_evidence() {
        let mut module = IcmpFloodModule::new(10);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.insert(sense::MULTIHOP, true);
        let mut caps = vec![spoofed_request(0, 50)];
        caps.extend((0..15).map(|i| reply_to_victim(100 + i * 50, Ipv4Addr::new(10, 0, 0, 20))));
        assert!(
            dispatch(&mut module, &mut kb, caps).is_empty(),
            "spoofed requests + multihop → smurf territory"
        );
    }

    #[test]
    fn smurf_identifies_spoofer_as_suspect() {
        let mut module = SmurfModule::new(10);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.insert(sense::MULTIHOP, true);
        let mut caps = vec![spoofed_request(0, 50), spoofed_request(50, 50)];
        caps.extend((0..15).map(|i| reply_to_victim(100 + i * 50, Ipv4Addr::new(10, 0, 0, 20))));
        let alerts = dispatch(&mut module, &mut kb, caps);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attack, AttackKind::Smurf);
        assert_eq!(
            alerts[0].suspects,
            vec![Entity::from(MacAddr::from_index(50))]
        );
    }

    #[test]
    fn smurf_without_evidence_suspects_victim_via_naive_2hop() {
        // The paper's anecdote: the misapplied Smurf technique in a
        // single-hop network revokes the victim itself.
        let mut module = SmurfModule::new(10);
        let mut kb = kb_single_hop();
        let caps: Vec<_> = (0..15)
            .map(|i| reply_to_victim(i * 50, Ipv4Addr::new(1, 1, 1, 1)))
            .collect();
        let alerts = dispatch(&mut module, &mut kb, caps);
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].suspects,
            vec![Entity::new(VICTIM.to_string())],
            "naive 2-hop exploration loops back to the victim"
        );
    }

    fn syn_to(ms: u64, victim: Ipv4Addr, tx: u32, sport: u16) -> CapturedPacket {
        let ip = kalis_netsim::craft::ipv4_tcp(
            Ipv4Addr::new(10, 0, 0, tx as u8),
            victim,
            &kalis_packets::tcp::TcpSegment::syn(sport, 443, 1),
        );
        let raw = kalis_netsim::craft::wifi_ipv4(
            MacAddr::from_index(tx),
            MacAddr::BROADCAST,
            MacAddr::from_index(0),
            0,
            &ip,
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Wifi,
            Some(-50.0),
            "w",
            raw,
        )
    }

    #[test]
    fn syn_flood_detected_without_completions() {
        let mut module = SynFloodModule::new(10);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.insert(format!("{}.IP", sense::PROTOCOL_SEEN), true);
        assert!(module.required(&kb));
        let caps: Vec<_> = (0..15)
            .map(|i| syn_to(i * 50, VICTIM, 66, 1000 + i as u16))
            .collect();
        let alerts = dispatch(&mut module, &mut kb, caps);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attack, AttackKind::SynFlood);
    }

    #[test]
    fn completed_handshakes_suppress_syn_alert() {
        let mut module = SynFloodModule::new(10);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let mut caps = Vec::new();
        for i in 0..15u64 {
            caps.push(syn_to(i * 50, VICTIM, 66, 1000 + i as u16));
            // Matching ACK towards the victim: the handshake completed.
            let ip = kalis_netsim::craft::ipv4_tcp(
                Ipv4Addr::new(10, 0, 0, 66),
                VICTIM,
                &kalis_packets::tcp::TcpSegment::ack(1000 + i as u16, 443, 2, 100),
            );
            let raw = kalis_netsim::craft::wifi_ipv4(
                MacAddr::from_index(66),
                MacAddr::BROADCAST,
                MacAddr::from_index(0),
                0,
                &ip,
            );
            caps.push(CapturedPacket::capture(
                Timestamp::from_millis(i * 50 + 10),
                Medium::Wifi,
                Some(-50.0),
                "w",
                raw,
            ));
        }
        assert!(dispatch(&mut module, &mut kb, caps).is_empty());
    }

    #[test]
    fn budgeted_flood_still_fires_under_identity_spray() {
        // A tight 16-entry budget under a 500-victim address spray: the
        // real flood's events spill into the overflow sketch but are
        // never under-counted, so the alert still fires while occupancy
        // stays bounded.
        let mut module = IcmpFloodModule::new(10).with_entity_budget(16);
        let mut kb = kb_single_hop();
        let mut caps = Vec::new();
        for i in 0..500u64 {
            // Spray: one echo reply towards a unique fake victim.
            let fake = Ipv4Addr::new(10, 200, (i >> 8) as u8, i as u8);
            let ip = kalis_netsim::craft::ipv4_echo_reply(Ipv4Addr::new(1, 2, 3, 4), fake, 1, 1);
            let raw = kalis_netsim::craft::wifi_ipv4(
                MacAddr::from_index(99),
                MacAddr::BROADCAST,
                MacAddr::from_index(0),
                0,
                &ip,
            );
            caps.push(CapturedPacket::capture(
                Timestamp::from_millis(i * 4),
                Medium::Wifi,
                Some(-50.0),
                "w",
                raw,
            ));
            // Real flood: every 25th packet is a reply to the true victim.
            if i % 25 == 0 {
                caps.push(reply_to_victim(i * 4 + 1, Ipv4Addr::new(10, 0, 0, 100)));
            }
        }
        let alerts = dispatch(&mut module, &mut kb, caps);
        assert!(
            alerts.iter().any(|a| a.attack == AttackKind::IcmpFlood
                && a.victim.as_ref().unwrap().as_str() == VICTIM.to_string()),
            "real flood detected despite the spray"
        );
        assert!(module.occupancy() <= 3 * 16, "occupancy bounded by budget");
        assert!(module.evictions() > 0, "spray forced evictions");
        assert_eq!(module.state_budget(), 16);
    }

    #[test]
    fn entity_budget_round_trips_through_current_params() {
        let module = IcmpFloodModule::new(25).with_entity_budget(64);
        let params = module.current_params();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].0, "entity_budget");
        assert_eq!(params[0].1, KnowValue::Int(64));
        assert!(
            IcmpFloodModule::new(25).current_params().is_empty(),
            "default budget emits no params"
        );
    }

    #[test]
    fn udp_flood_detected() {
        let mut module = UdpFloodModule::new(20);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let caps: Vec<_> = (0..25)
            .map(|i| {
                let ip = kalis_netsim::craft::ipv4_udp(
                    Ipv4Addr::new(10, 0, 0, 66),
                    VICTIM,
                    &kalis_packets::udp::UdpPacket::new(1, 9, vec![0; 8]),
                );
                let raw = kalis_netsim::craft::wifi_ipv4(
                    MacAddr::from_index(66),
                    MacAddr::BROADCAST,
                    MacAddr::from_index(0),
                    0,
                    &ip,
                );
                CapturedPacket::capture(
                    Timestamp::from_millis(i * 20),
                    Medium::Wifi,
                    None,
                    "w",
                    raw,
                )
            })
            .collect();
        let alerts = dispatch(&mut module, &mut kb, caps);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attack, AttackKind::UdpFlood);
    }
}
