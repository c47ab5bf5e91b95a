//! Topology Discovery (paper §V): classifies the monitored network portion
//! as multi-hop or single-hop from protocol observables — forwarded CTP
//! frames (THL > 0), parent-advertising beacons, 6LoWPAN mesh headers,
//! RPL control traffic, ZigBee NWK forwarding — and tracks the set of
//! monitored nodes.

use kalis_packets::ctp::CtpFrame;
use kalis_packets::icmpv6::Icmpv6Packet;
use kalis_packets::packet::{NetworkLayer, Transport};
use kalis_packets::{CapturedPacket, Entity, Medium};

use crate::bounded::{
    budget_params, BoundedMap, Touched, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET,
};
use crate::knowledge::KnowValue;
use crate::modules::{KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec, ValueType};
use crate::sensing::{labels, Asserted};

/// How many frames without any forwarding indicator are needed before the
/// network is declared single-hop.
const SINGLE_HOP_QUORUM: u64 = 20;

/// The [`labels::PROTOCOL_SEEN`] leaves, in the order the module keeps
/// what it asserted under each.
const PROTOCOLS: [&str; 5] = [
    labels::PROTOCOL_SEEN_CTP,
    labels::PROTOCOL_SEEN_ZIGBEE,
    labels::PROTOCOL_SEEN_SIXLOWPAN,
    labels::PROTOCOL_SEEN_IP,
    labels::PROTOCOL_SEEN_RPL,
];
const CTP: usize = 0;
const ZIGBEE: usize = 1;
const SIXLOWPAN: usize = 2;
const IP: usize = 3;
const RPL: usize = 4;

/// Every label the module asserts on every frame that shows it.
const ASSERTS: [&str; 10] = [
    labels::MULTIHOP,
    labels::MEDIUM_SEEN_802154,
    labels::MEDIUM_SEEN_WIFI,
    labels::MEDIUM_SEEN_ETHERNET,
    labels::MEDIUM_SEEN_BLE,
    PROTOCOLS[CTP],
    PROTOCOLS[ZIGBEE],
    PROTOCOLS[SIXLOWPAN],
    PROTOCOLS[IP],
    PROTOCOLS[RPL],
];

/// Where the module keeps what it asserted under `medium`'s leaf.
fn medium_index(medium: Medium) -> usize {
    match medium {
        Medium::Ieee802154 => 0,
        Medium::Wifi => 1,
        Medium::Ethernet => 2,
        Medium::Ble => 3,
    }
}

/// The Topology Discovery sensing module.
///
/// Writes the knowggets [`labels::MULTIHOP`], [`labels::MONITORED_NODES`],
/// [`labels::CTP_ROOT`], [`labels::MEDIUM_SEEN`].`*`, and
/// [`labels::PROTOCOL_SEEN`].`*`. The medium, protocol and multi-hop
/// facts hold on every frame that shows them, but each is written only
/// where the Knowledge Base does not already hold it as the module last
/// wrote it.
#[derive(Debug)]
pub struct TopologyDiscoveryModule {
    frames_seen: u64,
    multihop_evidence: bool,
    /// What was asserted under each `MediumSeen` leaf, by
    /// [`medium_index`].
    mediums: [Asserted; 4],
    /// What was asserted under each [`PROTOCOLS`] leaf.
    protocols: [Asserted; 5],
    multihop: Asserted,
    /// The `Multihop` change stamp at which a value of it was last read
    /// as held: the single-hop quorum has nothing to write while it
    /// stands.
    multihop_read: Option<u64>,
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
    pub(crate) fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(entity_budget: usize) -> Self {
        TopologyDiscoveryModule {
            frames_seen: 0,
            multihop_evidence: false,
            mediums: Default::default(),
            protocols: Default::default(),
            multihop: Asserted::default(),
            multihop_read: None,
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

    /// `protocol`: a [`PROTOCOLS`] index.
    fn note_protocol(&mut self, ctx: &mut ModuleCtx<'_>, protocol: usize) {
        self.protocols[protocol].assert(ctx.kb, PROTOCOLS[protocol], true);
    }
}

impl Module for TopologyDiscoveryModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::sensing("TopologyDiscoveryModule").asserts(&ASSERTS)
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
        let medium = labels::medium_seen(packet.medium);
        self.mediums[medium_index(packet.medium)].assert(ctx.kb, medium, true);
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
                self.note_protocol(ctx, CTP);
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
                self.note_protocol(ctx, ZIGBEE);
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
                self.note_protocol(ctx, SIXLOWPAN);
                if frame.is_mesh_forwarded() {
                    saw_multihop_indicator = true;
                }
            }
            Some(NetworkLayer::Ipv4(_)) | Some(NetworkLayer::Ipv6(_)) => {
                self.note_protocol(ctx, IP);
            }
            None => {}
        }
        if let Some(Transport::Icmpv6(Icmpv6Packet::Rpl(_))) = pkt.transport.as_ref() {
            self.note_protocol(ctx, RPL);
            saw_multihop_indicator = true;
        }

        if saw_multihop_indicator {
            self.multihop_evidence = true;
            self.multihop.assert(ctx.kb, labels::MULTIHOP, true);
        } else if !self.multihop_evidence && self.frames_seen >= SINGLE_HOP_QUORUM {
            // Enough traffic with no forwarding indicator: single-hop,
            // unless some value is held already. Nothing to look up while
            // the label stands as the module last wrote or read it.
            let (stamp, written) = self.multihop.recall(ctx.kb, labels::MULTIHOP);
            if written.is_none() && self.multihop_read != Some(stamp) {
                if ctx.kb.get_bool(labels::MULTIHOP).is_some() {
                    self.multihop_read = Some(stamp);
                } else {
                    self.multihop.assert(ctx.kb, labels::MULTIHOP, false);
                }
            }
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
        self.mediums = Default::default();
        self.protocols = Default::default();
        self.multihop = Asserted::default();
        self.multihop_read = None;
        self.transmitters.clear();
        self.transmitter_bytes = 0;
    }
}

/// The write-on-change rule against the module as it was, which wrote
/// every fact on every frame that showed it: same Knowledge Base, same
/// revision, after every step of random frames, outside writes, removals,
/// peer knowggets and entity purges, on a Knowledge Base that watches the
/// asserted labels as a node's does.
#[cfg(test)]
mod differential {
    use std::net::Ipv4Addr;

    use bytes::Bytes;
    use kalis_packets::{MacAddr, ShortAddr, Timestamp};
    use proptest::prelude::*;

    use super::*;
    use crate::alert::Alert;
    use crate::id::KalisId;
    use crate::knowledge::{Knowgget, KnowledgeBase, Subscriptions};

    /// `on_packet` as it was, verbatim but for `note_protocol` inlined.
    #[derive(Default)]
    struct Reference {
        frames_seen: u64,
        multihop_evidence: bool,
        transmitters: Option<BoundedMap<Entity, ()>>,
    }

    impl Reference {
        fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
            self.frames_seen += 1;
            ctx.kb.insert(labels::medium_seen(packet.medium), true);
            let Some(pkt) = packet.decoded() else { return };
            let transmitters =
                (self.transmitters).get_or_insert_with(|| BoundedMap::new(DEFAULT_ENTITY_BUDGET));
            if let Some(tx) = pkt.transmitter() {
                if let Touched::Inserted(..) = transmitters.touch_or_insert(&tx, || ()) {
                    ctx.kb
                        .insert(labels::MONITORED_NODES, transmitters.len() as i64);
                }
            }
            let mut saw_multihop_indicator = false;
            match pkt.net.as_ref() {
                Some(NetworkLayer::Ctp(frame)) => {
                    ctx.kb.insert(labels::PROTOCOL_SEEN_CTP, true);
                    match frame {
                        CtpFrame::Data(d) => {
                            if d.thl > 0 {
                                saw_multihop_indicator = true;
                            }
                        }
                        CtpFrame::Routing(beacon) => {
                            if let Some(advertiser) = pkt.transmitter() {
                                let is_self_parent = advertiser == Entity::from(beacon.parent);
                                if is_self_parent && beacon.etx == 0 {
                                    if ctx.kb.get_ref(labels::CTP_ROOT).is_none() {
                                        ctx.kb.insert(
                                            labels::CTP_ROOT,
                                            advertiser.as_str().to_owned(),
                                        );
                                    }
                                } else if !is_self_parent {
                                    saw_multihop_indicator = true;
                                }
                            }
                        }
                    }
                }
                Some(NetworkLayer::Zigbee(z)) => {
                    ctx.kb.insert(labels::PROTOCOL_SEEN_ZIGBEE, true);
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
                    ctx.kb.insert(labels::PROTOCOL_SEEN_SIXLOWPAN, true);
                    if frame.is_mesh_forwarded() {
                        saw_multihop_indicator = true;
                    }
                }
                Some(NetworkLayer::Ipv4(_)) | Some(NetworkLayer::Ipv6(_)) => {
                    ctx.kb.insert(labels::PROTOCOL_SEEN_IP, true);
                }
                None => {}
            }
            if let Some(Transport::Icmpv6(Icmpv6Packet::Rpl(_))) = pkt.transport.as_ref() {
                ctx.kb.insert(labels::PROTOCOL_SEEN_RPL, true);
                saw_multihop_indicator = true;
            }
            if saw_multihop_indicator {
                self.multihop_evidence = true;
                ctx.kb.insert(labels::MULTIHOP, true);
            } else if !self.multihop_evidence
                && self.frames_seen >= SINGLE_HOP_QUORUM
                && ctx.kb.get_bool(labels::MULTIHOP).is_none()
            {
                ctx.kb.insert(labels::MULTIHOP, false);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// A frame of kind `.0` from transmitter `.1`.
        Frame(u8, u16),
        /// An operator writes `.1` under `TOUCHED[.0]`.
        Write(usize, KnowValue),
        /// An operator removes `TOUCHED[.0]`.
        Remove(usize),
        /// A peer's knowgget labelled `TOUCHED[.0]`.
        Peer(usize, bool),
        /// The entity budget set to `.0`, and an entity written.
        Budget(usize, u16),
    }

    /// The labels the steps write from outside.
    const TOUCHED: [&str; 6] = [
        labels::MEDIUM_SEEN_WIFI,
        labels::MEDIUM_SEEN_802154,
        labels::PROTOCOL_SEEN_IP,
        labels::PROTOCOL_SEEN_CTP,
        labels::MULTIHOP,
        labels::CTP_ROOT,
    ];

    fn step() -> impl Strategy<Value = Step> {
        let value = prop_oneof![
            any::<bool>().prop_map(KnowValue::Bool),
            Just(KnowValue::Text("maybe".into())),
            Just(KnowValue::Text("TRUE".into())),
        ];
        let frame = || (0..8u8, 2..6u16).prop_map(|(kind, addr)| Step::Frame(kind, addr));
        // Frames four times as often as each kind of outside change.
        prop_oneof![
            frame(),
            frame(),
            frame(),
            frame(),
            (0..TOUCHED.len(), value).prop_map(|(at, v)| Step::Write(at, v)),
            (0..TOUCHED.len()).prop_map(Step::Remove),
            (0..TOUCHED.len(), any::<bool>()).prop_map(|(at, v)| Step::Peer(at, v)),
            (1..4usize, 20..23u16).prop_map(|(budget, entity)| Step::Budget(budget, entity)),
        ]
    }

    fn capture(kind: u8, addr: u16) -> CapturedPacket {
        let (me, root) = (ShortAddr(addr), ShortAddr(1));
        let ip = |n: u16| Ipv4Addr::new(10, 0, 0, n as u8);
        let udp = kalis_packets::udp::UdpPacket::new(5000, 53, b"q".to_vec());
        let ipv4 = kalis_netsim::craft::ipv4_udp(ip(addr), ip(1), &udp);
        let mac = MacAddr::from_index(u32::from(addr));
        let (medium, raw): (Medium, Bytes) = match kind {
            0 => {
                let raw =
                    kalis_netsim::craft::wifi_ipv4(mac, MacAddr::from_index(1), mac, 1, &ipv4);
                (Medium::Wifi, raw)
            }
            1 => (
                Medium::Ethernet,
                kalis_netsim::craft::ethernet_ipv4(mac, mac, &ipv4),
            ),
            2 => (
                Medium::Ieee802154,
                kalis_netsim::craft::ctp_data(me, root, 1, me, 1, 0, b"r"),
            ),
            3 => (
                Medium::Ieee802154,
                kalis_netsim::craft::ctp_data(me, root, 1, me, 1, 1, b"r"),
            ),
            4 => (
                Medium::Ieee802154,
                kalis_netsim::craft::ctp_beacon(me, 1, me, 0),
            ),
            5 => (
                Medium::Ieee802154,
                kalis_netsim::craft::ctp_beacon(me, 1, root, 10),
            ),
            6 => {
                let raw = kalis_netsim::craft::zigbee_data(me, root, 1, me, root, 1, b"z");
                (Medium::Ieee802154, raw)
            }
            _ => (Medium::Ieee802154, Bytes::from_static(&[0xff, 0x01])),
        };
        CapturedPacket::capture(Timestamp::ZERO, medium, Some(-60.0), "t", raw)
    }

    /// A Knowledge Base subscribed as a node's is, watching what the
    /// module asserts.
    fn node_kb() -> KnowledgeBase {
        let mut table = Subscriptions::new(1);
        for label in ASSERTS {
            table.watch(label);
        }
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.subscribe_activation(table);
        kb
    }

    fn apply(kb: &mut KnowledgeBase, step: &Step) {
        let k2 = KalisId::new("K2");
        match step {
            Step::Frame(..) => {}
            Step::Write(at, value) => {
                kb.insert(TOUCHED[*at], value.clone());
            }
            Step::Remove(at) => {
                kb.remove(TOUCHED[*at]);
            }
            Step::Peer(at, value) => {
                let theirs = Knowgget::new(TOUCHED[*at], KnowValue::Bool(*value), k2.clone());
                kb.accept_remote(&k2, theirs)
                    .expect("a peer's own knowgget");
            }
            Step::Budget(budget, entity) => {
                kb.set_entity_budget(*budget);
                kb.insert_about("Probe", Entity::from(ShortAddr(*entity)), true);
            }
        }
    }

    proptest! {
        #[test]
        fn writing_on_change_leaves_the_knowledge_of_writing_every_frame(
            steps in proptest::collection::vec(step(), 1..160),
        ) {
            let mut module = TopologyDiscoveryModule::new();
            let mut reference = Reference::default();
            let (mut kb, mut reference_kb) = (node_kb(), node_kb());
            let mut alerts: Vec<Alert> = Vec::new();
            for step in &steps {
                apply(&mut kb, step);
                apply(&mut reference_kb, step);
                if let Step::Frame(kind, addr) = *step {
                    let packet = capture(kind, addr);
                    let now = packet.timestamp;
                    module.on_packet(&mut ModuleCtx { now, kb: &mut kb, alerts: &mut alerts }, &packet);
                    let ctx = &mut ModuleCtx { now, kb: &mut reference_kb, alerts: &mut alerts };
                    reference.on_packet(ctx, &packet);
                }
                prop_assert_eq!(kb.revision(), reference_kb.revision());
                prop_assert_eq!(kb.iter().collect::<Vec<_>>(), reference_kb.iter().collect::<Vec<_>>());
            }
        }
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
