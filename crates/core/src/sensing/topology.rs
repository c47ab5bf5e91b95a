//! Topology Discovery (paper §V): classifies the monitored network portion
//! as multi-hop or single-hop from protocol observables — forwarded CTP
//! frames (THL > 0), parent-advertising beacons, 6LoWPAN mesh headers,
//! RPL control traffic, ZigBee NWK forwarding — and tracks the set of
//! monitored nodes.

use kalis_packets::ctp::CtpFrame;
use kalis_packets::icmpv6::Icmpv6Packet;
use kalis_packets::packet::{NetworkLayer, Transport};
use kalis_packets::{CapturedPacket, Entity};

use crate::bounded::{
    budget_params, BoundedMap, Touched, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET,
};
use crate::knowledge::KnowValue;
use crate::modules::{KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec, ValueType};
use crate::sensing::labels;

/// How many frames without any forwarding indicator are needed before the
/// network is declared single-hop.
const SINGLE_HOP_QUORUM: u64 = 20;

/// The Topology Discovery sensing module.
///
/// Writes the knowggets [`labels::MULTIHOP`], [`labels::MONITORED_NODES`],
/// [`labels::CTP_ROOT`], [`labels::MEDIUM_SEEN`].`*`, and
/// [`labels::PROTOCOL_SEEN`].`*`.
#[derive(Debug)]
pub struct TopologyDiscoveryModule {
    frames_seen: u64,
    multihop_evidence: bool,
    entity_budget: usize,
    transmitters: BoundedMap<Entity, ()>,
    /// Running total of [`footprint`] over `transmitters`, so
    /// `state_bytes()` — read on every packet — does not walk the map.
    transmitter_bytes: usize,
}

/// What one remembered transmitter costs in `state_bytes()`.
fn footprint(transmitter: &Entity) -> usize {
    transmitter.as_str().len() + 32
}

impl Default for TopologyDiscoveryModule {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyDiscoveryModule {
    /// A fresh module with no accumulated evidence.
    pub fn new() -> Self {
        Self::build(DEFAULT_ENTITY_BUDGET)
    }

    /// The same module remembering at most `budget` distinct
    /// transmitters. The `MonitoredNodes` knowgget saturates at the
    /// budget under identity spray — deliberately: a count that keeps
    /// climbing with fabricated identities is itself attacker-writable
    /// knowledge.
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(entity_budget: usize) -> Self {
        TopologyDiscoveryModule {
            frames_seen: 0,
            multihop_evidence: false,
            entity_budget,
            transmitters: BoundedMap::new(entity_budget),
            transmitter_bytes: 0,
        }
    }

    /// `transmitter_bytes` recomputed by walking the map.
    #[cfg(any(test, debug_assertions))]
    fn recount_transmitter_bytes(&self) -> usize {
        self.transmitters.iter().map(|(t, _)| footprint(t)).sum()
    }

    /// `seen`: one of the spelled-out `labels::PROTOCOL_SEEN_*` leaves.
    fn note_protocol(ctx: &mut ModuleCtx<'_>, seen: &'static str) {
        ctx.kb.insert(seen, true);
    }
}

impl Module for TopologyDiscoveryModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::sensing("TopologyDiscoveryModule")
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            // Root establishment consults existing knowledge before
            // writing (first claimant wins, §V sinkhole discussion).
            .reads(labels::CTP_ROOT, ValueType::Text)
            .reads(labels::MULTIHOP, ValueType::Bool)
            .writes(labels::MULTIHOP, ValueType::Bool)
            .writes(labels::MONITORED_NODES, ValueType::Int)
            .exported()
            // The monitored-node count is dashboard/`recommend_config`
            // surface; no detection module consumes it by design.
            .allow(
                "KL202",
                labels::MONITORED_NODES,
                "operator-facing inventory gauge",
            )
            .writes(labels::CTP_ROOT, ValueType::Text)
            .writes_family(labels::MEDIUM_SEEN, ValueType::Bool)
            .writes_family(labels::PROTOCOL_SEEN, ValueType::Bool)
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        self.frames_seen += 1;
        ctx.kb.insert(labels::medium_seen(packet.medium), true);
        let Some(pkt) = packet.decoded() else { return };

        if let Some(tx) = pkt.transmitter() {
            if let Touched::Inserted(_, evicted) = self.transmitters.touch_or_insert(&tx, || ()) {
                self.transmitter_bytes += footprint(&tx);
                if let Some((evicted, ())) = evicted {
                    self.transmitter_bytes -= footprint(&evicted);
                }
                ctx.kb
                    .insert(labels::MONITORED_NODES, self.transmitters.len() as i64);
            }
        }

        let mut saw_multihop_indicator = false;
        match pkt.net.as_ref() {
            Some(NetworkLayer::Ctp(frame)) => {
                Self::note_protocol(ctx, labels::PROTOCOL_SEEN_CTP);
                match frame {
                    CtpFrame::Data(d) => {
                        // A forwarded frame proves an intermediate hop.
                        if d.thl > 0 {
                            saw_multihop_indicator = true;
                        }
                    }
                    CtpFrame::Routing(beacon) => {
                        let advertiser = pkt.transmitter();
                        if let Some(advertiser) = advertiser {
                            let is_self_parent = advertiser == Entity::from(beacon.parent);
                            if is_self_parent && beacon.etx == 0 {
                                // The collection-tree root announcing
                                // itself. First claimant wins: a *later*
                                // self-proclaimed root is the sinkhole
                                // signature and must not poison the root
                                // knowledge (the sinkhole detector flags
                                // it instead).
                                if ctx.kb.get_ref(labels::CTP_ROOT).is_none() {
                                    ctx.kb
                                        .insert(labels::CTP_ROOT, advertiser.as_str().to_owned());
                                }
                            } else if !is_self_parent {
                                // Someone routes through a parent: multi-hop.
                                saw_multihop_indicator = true;
                            }
                        }
                    }
                }
            }
            Some(NetworkLayer::Zigbee(z)) => {
                Self::note_protocol(ctx, labels::PROTOCOL_SEEN_ZIGBEE);
                // NWK source differing from the MAC transmitter means the
                // frame was relayed.
                if let (Some(tx), Some(src)) = (pkt.transmitter(), pkt.net_src()) {
                    if tx != src {
                        saw_multihop_indicator = true;
                    }
                }
                if z.is_routing() {
                    saw_multihop_indicator = true;
                }
            }
            Some(NetworkLayer::SixLowpan { frame, .. }) => {
                Self::note_protocol(ctx, labels::PROTOCOL_SEEN_SIXLOWPAN);
                if frame.is_mesh_forwarded() {
                    saw_multihop_indicator = true;
                }
            }
            Some(NetworkLayer::Ipv4(_)) | Some(NetworkLayer::Ipv6(_)) => {
                Self::note_protocol(ctx, labels::PROTOCOL_SEEN_IP);
            }
            None => {}
        }
        if let Some(Transport::Icmpv6(Icmpv6Packet::Rpl(_))) = pkt.transport.as_ref() {
            Self::note_protocol(ctx, labels::PROTOCOL_SEEN_RPL);
            saw_multihop_indicator = true;
        }

        if saw_multihop_indicator {
            self.multihop_evidence = true;
            ctx.kb.insert(labels::MULTIHOP, true);
        } else if !self.multihop_evidence
            && self.frames_seen >= SINGLE_HOP_QUORUM
            && ctx.kb.get_bool(labels::MULTIHOP).is_none()
        {
            // Enough traffic with no forwarding indicator: single-hop.
            ctx.kb.insert(labels::MULTIHOP, false);
        }
    }

    fn state_bytes(&self) -> usize {
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.transmitter_bytes, self.recount_transmitter_bytes());
        128 + self.transmitter_bytes
    }

    fn occupancy(&self) -> usize {
        self.transmitters.len()
    }

    fn evictions(&self) -> u64 {
        self.transmitters.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.frames_seen = 0;
        self.multihop_evidence = false;
        self.transmitters.clear();
        self.transmitter_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::Alert;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
    use bytes::Bytes;
    use kalis_packets::{Medium, ShortAddr, Timestamp};

    fn feed(module: &mut TopologyDiscoveryModule, kb: &mut KnowledgeBase, raw: Bytes) {
        let mut alerts: Vec<Alert> = Vec::new();
        let cap =
            CapturedPacket::capture(Timestamp::ZERO, Medium::Ieee802154, Some(-50.0), "t", raw);
        let mut ctx = ModuleCtx {
            now: Timestamp::ZERO,
            kb,
            alerts: &mut alerts,
        };
        module.on_packet(&mut ctx, &cap);
    }

    fn kb() -> KnowledgeBase {
        KnowledgeBase::new(KalisId::new("K1"))
    }

    #[test]
    fn forwarded_ctp_data_implies_multihop() {
        let mut module = TopologyDiscoveryModule::new();
        let mut kb = kb();
        // THL=0: no evidence yet.
        feed(
            &mut module,
            &mut kb,
            kalis_netsim::craft::ctp_data(ShortAddr(2), ShortAddr(1), 0, ShortAddr(2), 1, 0, b"r"),
        );
        assert_eq!(kb.get_bool(labels::MULTIHOP), None);
        // THL=1: forwarded.
        feed(
            &mut module,
            &mut kb,
            kalis_netsim::craft::ctp_data(ShortAddr(3), ShortAddr(1), 0, ShortAddr(2), 1, 1, b"r"),
        );
        assert_eq!(kb.get_bool(labels::MULTIHOP), Some(true));
        assert_eq!(
            kb.get_bool(&format!("{}.CTP", labels::PROTOCOL_SEEN)),
            Some(true)
        );
    }

    #[test]
    fn parent_beacon_implies_multihop_and_root_is_learned() {
        let mut module = TopologyDiscoveryModule::new();
        let mut kb = kb();
        // Root beacon: parent == self, etx == 0 → root knowledge, no multihop.
        feed(
            &mut module,
            &mut kb,
            kalis_netsim::craft::ctp_beacon(ShortAddr(1), 0, ShortAddr(1), 0),
        );
        assert_eq!(
            kb.get_text(labels::CTP_ROOT),
            Some(ShortAddr(1).to_string())
        );
        assert_eq!(kb.get_bool(labels::MULTIHOP), None);
        // Non-root beacon advertising a parent → multihop.
        feed(
            &mut module,
            &mut kb,
            kalis_netsim::craft::ctp_beacon(ShortAddr(2), 0, ShortAddr(1), 20),
        );
        assert_eq!(kb.get_bool(labels::MULTIHOP), Some(true));
    }

    #[test]
    fn established_root_is_not_usurped_by_later_claimants() {
        let mut module = TopologyDiscoveryModule::new();
        let mut kb = kb();
        feed(
            &mut module,
            &mut kb,
            kalis_netsim::craft::ctp_beacon(ShortAddr(1), 0, ShortAddr(1), 0),
        );
        assert_eq!(
            kb.get_text(labels::CTP_ROOT),
            Some(ShortAddr(1).to_string())
        );
        // A sinkhole later claims root: knowledge must not change.
        feed(
            &mut module,
            &mut kb,
            kalis_netsim::craft::ctp_beacon(ShortAddr(9), 0, ShortAddr(9), 0),
        );
        assert_eq!(
            kb.get_text(labels::CTP_ROOT),
            Some(ShortAddr(1).to_string())
        );
    }

    #[test]
    fn quiet_direct_traffic_declares_single_hop() {
        let mut module = TopologyDiscoveryModule::new();
        let mut kb = kb();
        for i in 0..SINGLE_HOP_QUORUM {
            feed(
                &mut module,
                &mut kb,
                kalis_netsim::craft::zigbee_data(
                    ShortAddr(2),
                    ShortAddr(1),
                    i as u8,
                    ShortAddr(2),
                    ShortAddr(1),
                    i as u8,
                    b"x",
                ),
            );
        }
        assert_eq!(kb.get_bool(labels::MULTIHOP), Some(false));
    }

    #[test]
    fn relayed_zigbee_implies_multihop() {
        let mut module = TopologyDiscoveryModule::new();
        let mut kb = kb();
        // MAC transmitter 5, NWK source 2: relayed.
        feed(
            &mut module,
            &mut kb,
            kalis_netsim::craft::zigbee_data(
                ShortAddr(5),
                ShortAddr(1),
                0,
                ShortAddr(2),
                ShortAddr(1),
                0,
                b"x",
            ),
        );
        assert_eq!(kb.get_bool(labels::MULTIHOP), Some(true));
    }

    #[test]
    fn transmitter_spray_saturates_at_the_entity_budget() {
        let mut module = TopologyDiscoveryModule::new().with_entity_budget(16);
        let mut kb = kb();
        for addr in 100u16..180 {
            feed(
                &mut module,
                &mut kb,
                kalis_netsim::craft::zigbee_data(
                    ShortAddr(addr),
                    ShortAddr(1),
                    0,
                    ShortAddr(addr),
                    ShortAddr(1),
                    0,
                    b"x",
                ),
            );
        }
        assert_eq!(module.occupancy(), 16);
        assert_eq!(module.state_budget(), 16);
        assert_eq!(module.evictions(), 80 - 16);
        // The monitored-node count saturates instead of tracking the
        // attacker's fabricated identity count.
        assert_eq!(kb.get_int(labels::MONITORED_NODES), Some(16));
    }

    #[test]
    fn state_bytes_total_follows_gains_evictions_and_reset() {
        let mut module = TopologyDiscoveryModule::new().with_entity_budget(16);
        let mut kb = kb();
        assert_eq!(module.state_bytes(), 128);
        // 40 transmitters against 16 slots, every third one heard twice.
        for addr in (100u16..140).flat_map(|a| [a, a - a % 3]) {
            feed(
                &mut module,
                &mut kb,
                kalis_netsim::craft::zigbee_data(
                    ShortAddr(addr),
                    ShortAddr(1),
                    0,
                    ShortAddr(addr),
                    ShortAddr(1),
                    0,
                    b"x",
                ),
            );
            assert_eq!(
                module.state_bytes(),
                128 + module.recount_transmitter_bytes()
            );
        }
        assert!(module.evictions() > 0);
        assert_eq!(
            module.state_bytes(),
            128 + 16 * footprint(&Entity::from(ShortAddr(100)))
        );
        module.reset();
        assert_eq!(module.state_bytes(), 128);
    }

    #[test]
    fn monitored_nodes_counts_distinct_transmitters() {
        let mut module = TopologyDiscoveryModule::new();
        let mut kb = kb();
        for addr in [2u16, 3, 2, 4] {
            feed(
                &mut module,
                &mut kb,
                kalis_netsim::craft::zigbee_data(
                    ShortAddr(addr),
                    ShortAddr(1),
                    0,
                    ShortAddr(addr),
                    ShortAddr(1),
                    0,
                    b"x",
                ),
            );
        }
        assert_eq!(kb.get_int(labels::MONITORED_NODES), Some(3));
    }
}
