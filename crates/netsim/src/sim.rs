//! The discrete-event simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use kalis_packets::{CapturedPacket, Medium, Packet, Timestamp};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::behavior::{Action, Behavior, Ctx, ReceivedFrame};
use crate::fault::{Delivery, FaultPlan, FaultStats};
use crate::geometry::Position;
use crate::mobility::MobilityState;
use crate::node::{Node, NodeId, NodeSpec};
use crate::tap::{Tap, TapAttachment, TapConfig, TapShared};

/// How often node positions are advanced under their mobility models.
const MOBILITY_TICK: Duration = Duration::from_millis(500);
/// Radio propagation + MAC processing delay applied to deliveries.
const AIR_DELAY: Duration = Duration::from_micros(500);
/// Wired link delay.
const WIRE_DELAY: Duration = Duration::from_micros(100);

// Deliver dominates the size, but events are created and consumed at the
// same rate, so boxing the frame would only add a per-delivery
// allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum EventKind {
    Start(NodeId),
    Timer { node: NodeId, token: u64 },
    Deliver { to: NodeId, frame: ReceivedFrame },
    MobilityTick,
}

struct Scheduled {
    at: Timestamp,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Aggregate counters, useful for sanity checks and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Simulator::stats`
pub struct SimStats {
    /// Frames transmitted on any radio medium.
    pub(crate) transmissions: u64,
    /// Frame receptions delivered to node behaviors.
    pub(crate) deliveries: u64,
    /// Frames captured by taps.
    pub captures: u64,
    /// Timer events fired.
    pub(crate) timers: u64,
}

/// The deterministic discrete-event simulator.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Simulator {
    clock: Timestamp,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    nodes: Vec<Node>,
    behaviors: Vec<Option<Box<dyn Behavior>>>,
    mobility: Vec<MobilityState>,
    taps: Vec<TapConfig>,
    rng: StdRng,
    faults: Option<FaultPlan>,
    started: bool,
    stats: SimStats,
}

impl Simulator {
    /// Create a simulator seeded with `seed`; equal seeds and equal
    /// scenario construction produce identical packet streams.
    pub fn new(seed: u64) -> Self {
        Simulator {
            clock: Timestamp::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            behaviors: Vec::new(),
            mobility: Vec::new(),
            taps: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            faults: None,
            started: false,
            stats: SimStats::default(),
        }
    }

    /// Add a node from its spec, returning its id.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(spec.build(id));
        self.behaviors.push(None);
        self.mobility.push(MobilityState::default());
        id
    }

    /// Attach (or replace) the behavior of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not returned by [`Simulator::add_node`].
    pub fn set_behavior(&mut self, node: NodeId, behavior: impl Behavior + 'static) {
        self.behaviors[node.0 as usize] = Some(Box::new(behavior));
    }

    /// Add a promiscuous tap at a fixed position, overhearing `mediums`.
    pub fn add_tap(&mut self, interface: &str, position: Position, mediums: &[Medium]) -> Tap {
        self.add_tap_config(interface, TapAttachment::Fixed(position), mediums, None)
    }

    /// Add a tap that rides along with `node` (a Kalis unit colocated with
    /// a device), overhearing `mediums`.
    #[cfg(test)]
    pub(crate) fn add_tap_on_node(
        &mut self,
        interface: &str,
        node: NodeId,
        mediums: &[Medium],
    ) -> Tap {
        self.add_tap_config(interface, TapAttachment::Node(node), mediums, None)
    }

    /// Add a tap mirroring the wired port of `node` (the smart-router
    /// deployment: Kalis sees every wired frame delivered to or sent by
    /// that node) in addition to radio `mediums`.
    pub fn add_wired_tap(&mut self, interface: &str, node: NodeId, mediums: &[Medium]) -> Tap {
        self.add_tap_config(interface, TapAttachment::Node(node), mediums, Some(node))
    }

    fn add_tap_config(
        &mut self,
        interface: &str,
        attachment: TapAttachment,
        mediums: &[Medium],
        wired_mirror: Option<NodeId>,
    ) -> Tap {
        let shared = Arc::new(TapShared {
            queue: Mutex::new(VecDeque::new()),
        });
        self.taps.push(TapConfig {
            interface: interface.to_owned(),
            attachment,
            mediums: mediums.to_vec(),
            wired_mirror,
            shared: Arc::clone(&shared),
        });
        Tap::new(interface.to_owned(), shared)
    }

    /// The current simulation time.
    pub fn now(&self) -> Timestamp {
        self.clock
    }

    /// Aggregate event counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Install (or replace) a fault-injection plan. The plan judges
    /// every node-to-node delivery — radio and wired — but never tap
    /// captures: the tap is the IDS's own vantage point.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Counters of faults injected so far (zero without a plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(FaultPlan::stats)
            .unwrap_or_default()
    }

    /// Per-directed-link fault counters (empty without a plan), sorted
    /// by `(from, to)` node id.
    pub fn link_fault_stats(&self) -> Vec<((u32, u32), FaultStats)> {
        self.faults
            .as_ref()
            .map(FaultPlan::link_stats)
            .unwrap_or_default()
    }

    /// Read a node's current state.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not returned by [`Simulator::add_node`].
    pub fn node(&self, node: NodeId) -> &Node {
        &self.nodes[node.0 as usize]
    }

    /// Replace a node's mobility model mid-run (the paper's replication
    /// experiment flips the network between static and mobile phases).
    pub fn set_mobility(&mut self, node: NodeId, model: crate::mobility::MobilityModel) {
        self.nodes[node.0 as usize].mobility = model;
        self.mobility[node.0 as usize] = MobilityState::default();
    }

    fn push(&mut self, at: Timestamp, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, kind }));
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.push(self.clock, EventKind::Start(NodeId(i as u32)));
        }
        self.push(self.clock + MOBILITY_TICK, EventKind::MobilityTick);
    }

    /// Run until the virtual clock reaches `deadline`.
    pub(crate) fn run_until(&mut self, deadline: Timestamp) {
        self.start_if_needed();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.clock = ev.at;
            self.dispatch(ev.kind);
        }
        self.clock = deadline;
    }

    /// Run for `duration` of virtual time from the current clock.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = self.clock + duration;
        self.run_until(deadline);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(node) => self.with_behavior(node, |b, ctx| b.on_start(ctx)),
            EventKind::Timer { node, token } => {
                self.stats.timers += 1;
                self.with_behavior(node, |b, ctx| b.on_timer(ctx, token));
            }
            EventKind::Deliver { to, frame } => {
                self.stats.deliveries += 1;
                self.with_behavior(to, |b, ctx| b.on_frame(ctx, &frame));
            }
            EventKind::MobilityTick => {
                let dt = MOBILITY_TICK.as_secs_f64();
                for i in 0..self.nodes.len() {
                    let model = self.nodes[i].mobility;
                    if model.is_mobile() {
                        let pos = self.nodes[i].position;
                        let next = self.mobility[i].step(model, pos, dt, &mut self.rng);
                        self.nodes[i].position = next;
                    }
                }
                self.push(self.clock + MOBILITY_TICK, EventKind::MobilityTick);
            }
        }
    }

    fn with_behavior(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Box<dyn Behavior>, &mut Ctx<'_>),
    ) {
        let idx = node.0 as usize;
        let Some(mut behavior) = self.behaviors[idx].take() else {
            return;
        };
        let mut ctx = Ctx {
            now: self.clock,
            node,
            position: self.nodes[idx].position,
            actions: Vec::new(),
            rng: &mut self.rng,
        };
        f(&mut behavior, &mut ctx);
        let actions = std::mem::take(&mut ctx.actions);
        // Restore the behavior before applying actions (an action may in
        // principle target the same node again).
        if self.behaviors[idx].is_none() {
            self.behaviors[idx] = Some(behavior);
        }
        for action in actions {
            self.apply(node, action);
        }
    }

    fn apply(&mut self, from: NodeId, action: Action) {
        match action {
            Action::Timer { delay, token } => {
                self.push(self.clock + delay, EventKind::Timer { node: from, token });
            }
            Action::Transmit { medium, raw } => self.broadcast(from, medium, raw),
            Action::Wired { to, raw } => {
                // The wired mirror tap sees the frame as sent, before
                // any fault mangles the copy the receiver gets.
                self.mirror_wired(from, to, &raw);
                let copies = self.judge_delivery(from, to);
                for copy in copies {
                    let (raw, packet) = self.faulted_bytes(Medium::Ethernet, &raw, copy.corrupt);
                    let frame = ReceivedFrame {
                        medium: Medium::Ethernet,
                        raw,
                        rssi_dbm: None,
                        from,
                        packet,
                    };
                    self.push(
                        self.clock + WIRE_DELAY + copy.extra_delay,
                        EventKind::Deliver { to, frame },
                    );
                }
            }
        }
    }

    /// Consult the fault plan for one `from -> to` delivery. Without a
    /// plan every frame is delivered exactly once, undelayed.
    fn judge_delivery(&mut self, from: NodeId, to: NodeId) -> Vec<Delivery> {
        match self.faults.as_mut() {
            Some(plan) => plan.judge(from.0, to.0, self.clock),
            None => vec![Delivery::default()],
        }
    }

    /// The bytes (and re-decode) actually handed to the receiver:
    /// untouched, or with one bit flipped by the fault plan.
    fn faulted_bytes(
        &mut self,
        medium: Medium,
        raw: &Bytes,
        corrupt: bool,
    ) -> (Bytes, Option<Packet>) {
        if !corrupt {
            return (raw.clone(), Packet::decode(medium, raw).ok());
        }
        let mut bytes = raw.to_vec();
        if let Some(plan) = self.faults.as_mut() {
            plan.corrupt_payload(&mut bytes);
        }
        let raw = Bytes::from(bytes);
        let packet = Packet::decode(medium, &raw).ok();
        (raw, packet)
    }

    fn mirror_wired(&mut self, from: NodeId, to: NodeId, raw: &Bytes) {
        let ts = self.clock;
        for tap in &self.taps {
            if let Some(mirror) = tap.wired_mirror {
                if mirror == from || mirror == to {
                    tap.shared.queue.lock().push_back(CapturedPacket::capture(
                        ts,
                        Medium::Ethernet,
                        None,
                        tap.interface.clone(),
                        raw.clone(),
                    ));
                    self.stats.captures += 1;
                }
            }
        }
    }

    fn broadcast(&mut self, from: NodeId, medium: Medium, raw: Bytes) {
        self.stats.transmissions += 1;
        let tx_pos = self.nodes[from.0 as usize].position;
        let tx_radio = self.nodes[from.0 as usize].radio;
        let decoded = Packet::decode(medium, &raw).ok();
        // Node receptions.
        for idx in 0..self.nodes.len() {
            let to = NodeId(idx as u32);
            if to == from {
                continue;
            }
            let dist = tx_pos.distance_to(self.nodes[idx].position);
            if !tx_radio.in_range(dist) || !tx_radio.sample_delivery(&mut self.rng) {
                continue;
            }
            let rssi = tx_radio.sample_rssi_dbm(dist, &mut self.rng);
            let copies = self.judge_delivery(from, to);
            for copy in copies {
                let (raw, packet) = if copy.corrupt {
                    self.faulted_bytes(medium, &raw, true)
                } else {
                    (raw.clone(), decoded.clone())
                };
                let frame = ReceivedFrame {
                    medium,
                    raw,
                    rssi_dbm: Some(rssi),
                    from,
                    packet,
                };
                self.push(
                    self.clock + AIR_DELAY + copy.extra_delay,
                    EventKind::Deliver { to, frame },
                );
            }
        }
        // Tap captures.
        let ts = self.clock;
        for t in 0..self.taps.len() {
            if !self.taps[t].mediums.contains(&medium) {
                continue;
            }
            let tap_pos = match self.taps[t].attachment {
                TapAttachment::Fixed(p) => p,
                TapAttachment::Node(n) => self.nodes[n.0 as usize].position,
            };
            let dist = tx_pos.distance_to(tap_pos);
            if !tx_radio.in_range(dist) || !tx_radio.sample_delivery(&mut self.rng) {
                continue;
            }
            let rssi = tx_radio.sample_rssi_dbm(dist, &mut self.rng);
            let cap = CapturedPacket {
                timestamp: ts,
                medium,
                rssi_dbm: Some(rssi),
                interface: self.taps[t].interface.clone(),
                raw: raw.clone(),
                packet: decoded.clone(),
            };
            self.taps[t].shared.queue.lock().push_back(cap);
            self.stats.captures += 1;
        }
    }
}

impl core::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("clock", &self.clock)
            .field("nodes", &self.nodes.len())
            .field("taps", &self.taps.len())
            .field("pending_events", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::MobilityModel;

    /// A no-op behavior for passive nodes.
    struct Idle;

    impl Behavior for Idle {}

    /// Transmits `count` beacons, one per second.
    struct Beeper {
        count: u32,
        sent: u32,
    }

    impl Behavior for Beeper {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(Duration::from_secs(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent < self.count {
                self.sent += 1;
                let frame = kalis_packets::ieee802154::Ieee802154Frame::data(
                    kalis_packets::PanId(1),
                    kalis_packets::ieee802154::Address::Short(kalis_packets::ShortAddr(1)),
                    kalis_packets::ieee802154::Address::Short(kalis_packets::ShortAddr(0xffff)),
                    self.sent as u8,
                    bytes::Bytes::from_static(b"beacon"),
                );
                use kalis_packets::codec::Encode;
                ctx.transmit(Medium::Ieee802154, frame.to_bytes());
                ctx.set_timer(Duration::from_secs(1), 0);
            }
        }
    }

    /// Counts receptions.
    #[derive(Default)]
    struct Counter {
        received: std::sync::Arc<Mutex<u32>>,
    }

    impl Behavior for Counter {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _frame: &ReceivedFrame) {
            *self.received.lock() += 1;
        }
    }

    #[test]
    fn beacons_reach_in_range_receivers_and_taps() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(NodeSpec::new("a").with_position(0.0, 0.0));
        let b = sim.add_node(NodeSpec::new("b").with_position(5.0, 0.0));
        let far = sim.add_node(NodeSpec::new("far").with_position(100.0, 0.0));
        let counter = Counter::default();
        let count_handle = Arc::clone(&counter.received);
        let far_counter = Counter::default();
        let far_handle = Arc::clone(&far_counter.received);
        sim.set_behavior(a, Beeper { count: 5, sent: 0 });
        sim.set_behavior(b, counter);
        sim.set_behavior(far, far_counter);
        let tap = sim.add_tap("t0", Position::new(2.0, 0.0), &[Medium::Ieee802154]);
        sim.run_for(Duration::from_secs(10));
        assert_eq!(*count_handle.lock(), 5);
        assert_eq!(*far_handle.lock(), 0, "out-of-range node must hear nothing");
        let captured = tap.drain();
        assert_eq!(captured.len(), 5);
        assert!(captured.iter().all(|c| c.rssi_dbm.is_some()));
        assert_eq!(sim.stats().transmissions, 5);
    }

    #[test]
    fn identical_seeds_produce_identical_streams() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node(NodeSpec::new("a"));
            sim.add_node(NodeSpec::new("b").with_position(3.0, 0.0));
            sim.set_behavior(a, Beeper { count: 10, sent: 0 });
            let tap = sim.add_tap("t0", Position::new(1.0, 0.0), &[Medium::Ieee802154]);
            sim.run_for(Duration::from_secs(15));
            tap.drain()
                .into_iter()
                .map(|c| (c.timestamp, c.rssi_dbm.map(|r| (r * 1e9) as i64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7),
            run(8),
            "different seeds should differ in RSSI noise"
        );
    }

    #[test]
    fn wired_delivery_and_mirroring() {
        struct WiredSender {
            to: NodeId,
        }
        impl Behavior for WiredSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                use kalis_packets::codec::Encode;
                let frame = kalis_packets::ethernet::EthernetFrame::new(
                    kalis_packets::MacAddr::from_index(1),
                    kalis_packets::MacAddr::from_index(2),
                    0x0800,
                    b"x".to_vec(),
                );
                ctx.send_wired(self.to, frame.to_bytes());
            }
        }
        let mut sim = Simulator::new(3);
        let router = sim.add_node(NodeSpec::new("router"));
        let cloud = sim.add_node(NodeSpec::new("cloud").with_position(1000.0, 0.0));
        let counter = Counter::default();
        let handle = Arc::clone(&counter.received);
        sim.set_behavior(cloud, WiredSender { to: router });
        sim.set_behavior(router, counter);
        let tap = sim.add_wired_tap("eth0", router, &[]);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(*handle.lock(), 1, "wired frames ignore radio range");
        assert_eq!(tap.drain().len(), 1, "wired tap mirrors router traffic");
    }

    #[test]
    fn mobility_tick_moves_mobile_nodes_only() {
        let mut sim = Simulator::new(5);
        let fixed = sim.add_node(NodeSpec::new("fixed").with_position(1.0, 1.0));
        let mover = sim.add_node(
            NodeSpec::new("mover")
                .with_position(0.0, 0.0)
                .with_mobility(MobilityModel::Linear { vx: 1.0, vy: 0.0 }),
        );
        sim.set_behavior(fixed, Idle);
        sim.set_behavior(mover, Idle);
        sim.run_for(Duration::from_secs(10));
        assert_eq!(sim.node(fixed).position, Position::new(1.0, 1.0));
        let moved = sim.node(mover).position;
        assert!(
            (moved.x - 10.0).abs() < 1.0,
            "mover should be near x=10, got {moved}"
        );
    }

    #[test]
    fn clock_advances_to_deadline_even_when_idle() {
        let mut sim = Simulator::new(0);
        sim.run_for(Duration::from_secs(3));
        assert_eq!(sim.now(), Timestamp::from_secs(3));
    }

    #[test]
    fn fault_plan_drops_frames_but_taps_still_capture() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut sim = Simulator::new(1);
        let a = sim.add_node(NodeSpec::new("a").with_position(0.0, 0.0));
        let b = sim.add_node(NodeSpec::new("b").with_position(5.0, 0.0));
        let counter = Counter::default();
        let handle = Arc::clone(&counter.received);
        sim.set_behavior(a, Beeper { count: 5, sent: 0 });
        sim.set_behavior(b, counter);
        let tap = sim.add_tap("t0", Position::new(2.0, 0.0), &[Medium::Ieee802154]);
        sim.set_fault_plan(FaultPlan::new(9).with_faults(LinkFaults {
            drop: 1.0,
            ..LinkFaults::default()
        }));
        sim.run_for(Duration::from_secs(10));
        assert_eq!(*handle.lock(), 0, "all node deliveries dropped");
        assert_eq!(tap.drain().len(), 5, "the IDS tap is never faulted");
        assert_eq!(sim.fault_stats().dropped, 5);
    }

    #[test]
    fn fault_plan_duplicates_wired_frames() {
        use crate::fault::{FaultPlan, LinkFaults};
        struct WiredSender {
            to: NodeId,
        }
        impl Behavior for WiredSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                use kalis_packets::codec::Encode;
                let frame = kalis_packets::ethernet::EthernetFrame::new(
                    kalis_packets::MacAddr::from_index(1),
                    kalis_packets::MacAddr::from_index(2),
                    0x0800,
                    b"x".to_vec(),
                );
                ctx.send_wired(self.to, frame.to_bytes());
            }
        }
        let mut sim = Simulator::new(4);
        let router = sim.add_node(NodeSpec::new("router"));
        let cloud = sim.add_node(NodeSpec::new("cloud").with_position(1000.0, 0.0));
        let counter = Counter::default();
        let handle = Arc::clone(&counter.received);
        sim.set_behavior(cloud, WiredSender { to: router });
        sim.set_behavior(router, counter);
        sim.set_fault_plan(FaultPlan::new(4).with_faults(LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::default()
        }));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(*handle.lock(), 2, "the frame and its duplicate both arrive");
        assert_eq!(sim.fault_stats().duplicated, 1);
    }

    #[test]
    fn tap_on_node_follows_it() {
        let mut sim = Simulator::new(1);
        let beeper = sim.add_node(NodeSpec::new("beeper").with_position(0.0, 0.0));
        // The carrier starts out of range and drives into range.
        let carrier = sim.add_node(
            NodeSpec::new("carrier")
                .with_position(100.0, 0.0)
                .with_mobility(MobilityModel::Linear { vx: -10.0, vy: 0.0 }),
        );
        sim.set_behavior(beeper, Beeper { count: 30, sent: 0 });
        sim.set_behavior(carrier, Idle);
        let tap = sim.add_tap_on_node("t0", carrier, &[Medium::Ieee802154]);
        sim.run_for(Duration::from_secs(5));
        let early = tap.drain().len();
        assert_eq!(early, 0, "tap out of range initially");
        sim.run_for(Duration::from_secs(25));
        assert!(!tap.is_empty(), "tap hears beacons after moving into range");
    }
}
