//! Drives each IDS over a scenario's captured traffic and unifies their
//! outputs into [`Detection`]s for scoring.

use std::collections::BTreeMap;
use std::time::Duration;

use kalis_baselines::snort::{SnortAlert, SnortIds};
use kalis_baselines::traditional;
use kalis_core::knowledge::PeerBeacon;
use kalis_core::metrics::ResourceMeter;
use kalis_core::response::Revocation;
use kalis_core::{Alert, AttackKind, Kalis, KalisId};
use kalis_netsim::fault::FaultPlan;
use kalis_netsim::wire::Wire;
use kalis_packets::{CapturedPacket, Entity, Timestamp};
use kalis_telemetry::TelemetrySnapshot;

/// A system-agnostic detection event.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Detection time.
    pub time: Timestamp,
    /// Claimed classification.
    pub attack: AttackKind,
    /// Claimed victim.
    pub victim: Option<Entity>,
    /// Claimed suspects.
    pub suspects: Vec<Entity>,
}

impl From<Alert> for Detection {
    fn from(alert: Alert) -> Self {
        Detection {
            time: alert.time,
            attack: alert.attack,
            victim: alert.victim,
            suspects: alert.suspects,
        }
    }
}

impl From<SnortAlert> for Detection {
    fn from(alert: SnortAlert) -> Self {
        Detection {
            time: alert.time,
            attack: alert.attack_hint(),
            victim: Some(Entity::new(alert.dst.to_string())),
            suspects: vec![Entity::new(alert.src.to_string())],
        }
    }
}

/// The outcome of one IDS run over one capture stream.
#[derive(Debug)]
pub struct RunOutcome {
    /// Unified detections.
    pub detections: Vec<Detection>,
    /// Resource accounting.
    pub meter: ResourceMeter,
    /// Revocations issued (empty for Snort, which has no response engine).
    pub revocations: Vec<Revocation>,
    /// Full telemetry snapshot (per-stage latency histograms, KB churn,
    /// journal) — `None` for systems without a telemetry registry
    /// (Snort).
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Run one adaptive Kalis node per capture tap (`K1`, `K2`, full
/// default library, autonomous knowledge discovery) — the §VI-D
/// collaborating pair when the scenario has a second tap.
pub fn run_kalis(vantages: &[&[CapturedPacket]]) -> RunOutcome {
    let mut nodes: Vec<Kalis> = (1..=vantages.len())
        .map(|i| {
            Kalis::builder(KalisId::new(format!("K{i}")))
                .with_default_modules()
                .build()
        })
        .collect();
    run_nodes(&mut nodes, vantages, &mut Link::default());
    outcome(&mut nodes)
}

/// Run the traditional-IDS baseline (all modules always on, one
/// randomly-chosen replication variant per run).
pub fn run_traditional(captures: &[CapturedPacket], seed: u64) -> RunOutcome {
    let mut ids = [traditional::build_with_seed("T1", seed)];
    run_nodes(&mut ids, &[captures], &mut Link::default());
    outcome(&mut ids)
}

/// Run the Snort baseline with its community ruleset.
pub fn run_snort(captures: &[CapturedPacket]) -> RunOutcome {
    let mut snort = SnortIds::with_community_rules();
    for packet in captures {
        snort.process(packet);
    }
    RunOutcome {
        detections: snort
            .drain_alerts()
            .into_iter()
            .map(Detection::from)
            .collect(),
        meter: snort.meter(),
        revocations: Vec::new(),
        telemetry: None,
    }
}

/// Capture time between two collaboration rounds.
const SYNC_ROUND: Duration = Duration::from_millis(500);
/// One-way latency of the sync wire, for beacons, frames and acks.
const LINK_DELAY: Duration = Duration::from_micros(500);
/// How long a run goes on after its last capture, so window-based
/// detectors flush.
const SETTLE: Duration = Duration::from_secs(2);

/// How collaborating nodes meet in [`run_nodes`]: the [`Wire`] their
/// sync traffic rides (endpoint `i` is `nodes[i]`), the earliest instant
/// the run may end, and a look at every node after every round and
/// after the final tick. [`Link::default`] is a lossless wire, no later
/// end and no look. A lone node has no peer and ignores the link.
pub struct Link<'a> {
    /// The sync wire; its fault plan judges every beacon, frame and ack.
    pub wire: Wire,
    /// The run ends at the last capture + 2 s or at this instant,
    /// whichever is later.
    pub until: Timestamp,
    /// Called with the round's instant and all nodes.
    pub observe: Observer<'a>,
}

/// A look at collaborating nodes at an instant of their run.
pub(crate) type Observer<'a> = Box<dyn FnMut(Timestamp, &[Kalis]) + 'a>;

impl Link<'_> {
    /// A link whose wire routes every frame through `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Link {
            wire: Wire::new(plan, LINK_DELAY),
            until: Timestamp::ZERO,
            observe: Box::new(|_, _| {}),
        }
    }
}

impl Default for Link<'_> {
    fn default() -> Self {
        Link::new(FaultPlan::new(0))
    }
}

/// The wire endpoint of each node, by id.
type Endpoints = BTreeMap<KalisId, u32>;

/// What the capture-clock loop does next. At one instant, wire
/// deliveries go first, then the round, then packets, lower tap first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Deliver,
    Round,
    Packet(usize),
}

/// Drive one node per capture tap on the capture clock: `vantages[i]`
/// feeds `nodes[i]`, the earliest next packet first. Alerts stay
/// undrained, so callers can still inspect provenance, traces and
/// knowledge state. Returns the instant of the final tick, or `None`
/// when there was nothing to run.
///
/// More than one node collaborate as in §VI-D, through their own sync
/// engines over `link.wire`. Every 500 ms of capture time each node
/// runs [`Kalis::sync_poll`], its beacon goes to every other node and
/// each frame to the peer it names, and every node ticks. Frames arrive
/// at their delivery instants, between packets: a beacon goes to
/// [`Kalis::observe_beacon`], anything else to
/// [`Kalis::receive_sync_frame`], whose ack goes back to the sender.
///
/// The run ends with every node ticking at the last capture + 2 s (for
/// collaborating nodes, or at `link.until` if that is later), so
/// window-based detectors flush.
pub fn run_nodes(
    nodes: &mut [Kalis],
    vantages: &[&[CapturedPacket]],
    link: &mut Link<'_>,
) -> Option<Timestamp> {
    let ids: Endpoints = (nodes.iter().zip(0..))
        .map(|(node, at)| (node.id().clone(), at))
        .collect();
    assert_eq!(nodes.len(), vantages.len(), "one node per capture tap");
    assert_eq!(ids.len(), nodes.len(), "each node has its own id");
    let collaborate = nodes.len() > 1;
    let settled = (vantages.iter())
        .filter_map(|tap| tap.last())
        .map(|c| c.timestamp + SETTLE)
        .max();
    let until = (collaborate && link.until > Timestamp::ZERO).then_some(link.until);
    let end = settled.max(until)?;
    let mut next = vec![0usize; nodes.len()];
    let mut round = Timestamp::ZERO + SYNC_ROUND;
    loop {
        let packet = (0..nodes.len()).filter_map(|i| {
            vantages[i]
                .get(next[i])
                .map(|c| (c.timestamp, Event::Packet(i)))
        });
        let delivery = (link.wire.next_due())
            .filter(|&at| at <= end)
            .map(|at| (at, Event::Deliver));
        let due_round = (collaborate && round < end).then_some((round, Event::Round));
        let Some((now, event)) = packet.chain(delivery).chain(due_round).min() else {
            break;
        };
        match event {
            Event::Deliver => deliver(nodes, &ids, &mut link.wire, now),
            Event::Round => {
                sync_round(nodes, &ids, &mut link.wire, now);
                (link.observe)(now, nodes);
                round += SYNC_ROUND;
            }
            Event::Packet(tap) => {
                nodes[tap].ingest(vantages[tap][next[tap]].clone());
                next[tap] += 1;
            }
        }
    }
    for node in nodes.iter_mut() {
        node.tick(end);
    }
    if collaborate {
        (link.observe)(end, nodes);
    }
    Some(end)
}

/// Hand every frame arriving at `now` to its node; acks go back on the
/// wire to the sender. A frame corrupted in flight is rejected, counted
/// and journaled by the node itself.
fn deliver(nodes: &mut [Kalis], ids: &Endpoints, wire: &mut Wire, now: Timestamp) {
    for frame in wire.due(now) {
        let node = &mut nodes[frame.to as usize];
        if let Some(beacon) = PeerBeacon::decode(&frame.bytes) {
            node.observe_beacon(&beacon, now);
        } else if let Ok(receipt) = node.receive_sync_frame(&frame.bytes, now) {
            if let (Some(ack), Some(&to)) = (receipt.reply, ids.get(&receipt.from)) {
                wire.send(frame.to, to, &ack, now);
            }
        }
    }
}

/// One collaboration round at `now`: each node's beacon (when due) and
/// sync frames go on the wire, then every node ticks.
fn sync_round(nodes: &mut [Kalis], ids: &Endpoints, wire: &mut Wire, now: Timestamp) {
    for (from, node) in (0u32..).zip(nodes.iter_mut()) {
        let poll = node.sync_poll(now);
        if let Some(beacon) = poll.beacon {
            let bytes = beacon.encode();
            for to in (0..ids.len() as u32).filter(|&to| to != from) {
                wire.send(from, to, &bytes, now);
            }
        }
        for frame in poll.frames {
            if let Some(&to) = ids.get(&frame.to) {
                wire.send(from, to, &frame.bytes, now);
            }
        }
    }
    for node in nodes {
        node.tick(now);
    }
}

/// Drain the nodes of one run, in index order, into one outcome:
/// detections and revocations concatenated, meters merged, and node 0's
/// telemetry.
pub fn outcome(nodes: &mut [Kalis]) -> RunOutcome {
    let mut detections = Vec::new();
    let mut meter = ResourceMeter::default();
    let mut revocations = Vec::new();
    let mut telemetry = None;
    for node in nodes {
        detections.extend(node.drain_alerts().into_iter().map(Detection::from));
        meter.merge(&node.meter());
        revocations.extend_from_slice(node.response().history());
        telemetry.get_or_insert_with(|| node.telemetry().snapshot());
    }
    RunOutcome {
        detections,
        meter,
        revocations,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use kalis_core::modules::{KeyPattern, ModuleRegistry};
    use kalis_core::{Knowgget, PeerHealth};
    use kalis_netsim::fault::FaultWindow;
    use kalis_telemetry::{names, JournalEvent};

    use super::*;
    use crate::experiments::{degraded_transitions, resilience_node};
    use crate::scenarios::{Scenario, ScenarioKind};

    /// How many of the other `nodes` `node` counts healthy.
    fn healthy_peers(nodes: &[Kalis], node: &Kalis) -> usize {
        (nodes.iter())
            .filter(|peer| peer.id() != node.id())
            .filter(|peer| node.peer_health(peer.id()).ok() == Some(PeerHealth::Healthy))
            .count()
    }

    /// On a lossless wire the engines have nothing to recover from: each
    /// node ends with its peer healthy, and nothing was retransmitted,
    /// deduplicated, dropped from a queue or rejected. Frames handed over
    /// only at round boundaries would fail this: every ack would land
    /// after the 500 ms retransmit timer had fired.
    #[test]
    fn a_lossless_pair_is_fault_free() {
        let scenario = Scenario::build(ScenarioKind::Wormhole, 42, 25);
        let mut nodes = default_nodes(2);
        run_nodes(&mut nodes, &scenario.vantages(), &mut Link::default());
        for node in &nodes {
            let snapshot = node.telemetry().snapshot();
            let id = node.id();
            assert_eq!(healthy_peers(&nodes, node), 1, "{id}");
            assert!(snapshot.counter(names::SYNC_ACCEPTED) > 0, "{id}");
            for name in [
                names::SYNC_RETRANSMITS,
                names::SYNC_DUPLICATES,
                names::SYNC_QUEUE_DROPPED,
                names::SYNC_REJECTED,
            ] {
                assert_eq!(snapshot.counter(name), 0, "{id} {name}");
            }
            assert!(
                !(snapshot.journal.records.iter())
                    .any(|r| matches!(r.event, JournalEvent::DegradedEntered { .. })),
                "{id} entered degraded mode"
            );
        }
    }

    /// `n` default-library nodes, `K1` to `Kn`.
    fn default_nodes(n: usize) -> Vec<Kalis> {
        (1..=n)
            .map(|i| {
                Kalis::builder(KalisId::new(format!("K{i}")))
                    .with_default_modules()
                    .build()
            })
            .collect()
    }

    /// `vantages` as `n` taps: the first to node 0, the last to node
    /// `n - 1`, empty taps between.
    fn spread<'a>(vantages: &[&'a [CapturedPacket]], n: usize) -> Vec<&'a [CapturedPacket]> {
        let mut taps = vec![&[][..]; n];
        taps[0] = vantages[0];
        taps[n - 1] = vantages[vantages.len() - 1];
        taps
    }

    /// Collaborating nodes ship only what a peer reads: after the seed-42
    /// wormhole, every knowgget a node holds from another creator has a
    /// label some default contract reads across creators
    /// (`reads_collective`). A plain read sees the local copy only, so
    /// anything else arrived for nobody. With a third node that hears
    /// nothing itself, it still holds only such knowledge: every default
    /// node reads both shipped labels, so no peer needs to advertise
    /// what it reads.
    #[test]
    fn a_pair_holds_only_peer_knowledge_a_contract_reads() {
        let read_across: Vec<KeyPattern> = (ModuleRegistry::with_defaults().contracts())
            .into_iter()
            .flat_map(|(_, _, contract)| contract.reads)
            .filter(|read| read.collective)
            .map(|read| read.pattern)
            .collect();
        let scenario = Scenario::build(ScenarioKind::Wormhole, 42, 25);
        for n in [2, 3] {
            let mut nodes = default_nodes(n);
            run_nodes(
                &mut nodes,
                &spread(&scenario.vantages(), n),
                &mut Link::default(),
            );
            for node in &nodes {
                let peers: Vec<Knowgget> = (node.knowledge().iter())
                    .filter(|knowgget| knowgget.creator != *node.id())
                    .collect();
                assert!(!peers.is_empty(), "{n} nodes: {} heard nothing", node.id());
                let unread: Vec<String> = (peers.iter())
                    .filter(|knowgget| !read_across.iter().any(|p| p.matches(&knowgget.label)))
                    .map(|knowgget| format!("{}${}", knowgget.creator, knowgget.label))
                    .collect();
                assert!(
                    unread.is_empty(),
                    "{n} nodes: {} holds {unread:?}",
                    node.id()
                );
            }
        }
    }

    /// Three nodes on one wire. The wormhole's taps feed nodes 0 and 2;
    /// node 1 hears nothing and is cut off from both during [20 s, 30 s)
    /// (3 s peer TTL, so its peers go Dead after 6 s of silence). Only
    /// node 1 loses every peer, so only it enters degraded mode, once,
    /// and leaves it once the partition heals. Nodes 0 and 2 reach the
    /// wormhole verdict together throughout, and node 1 comes back
    /// through one clean reintegration: each side sees the other dead and
    /// then healthy exactly once, node 1 accepts one full re-sync from
    /// each peer after the heal and ends holding every collective
    /// knowgget the other two authored, and nothing is dropped from a
    /// queue or rejected.
    #[test]
    fn a_partitioned_third_node_degrades_alone_and_rejoins_cleanly() {
        let scenario = Scenario::build(ScenarioKind::Wormhole, 42, 25);
        let mut nodes = ["K1", "K2", "K3"].map(|id| resilience_node(id, ""));
        let plan = FaultPlan::new(42).with_partition(
            vec![vec![0, 2], vec![1]],
            FaultWindow::new(Timestamp::from_secs(20), Timestamp::from_secs(30)),
        );
        let mut link = Link {
            until: Timestamp::from_secs(45),
            ..Link::new(plan)
        };
        run_nodes(&mut nodes, &spread(&scenario.vantages(), 3), &mut link);
        assert!(
            link.wire.plan().stats().dropped > 0,
            "the partition never fired"
        );
        for (i, node) in nodes.iter().enumerate() {
            let id = node.id();
            let snapshot = node.telemetry().snapshot();
            let records = &snapshot.journal.records;
            let degraded = degraded_transitions(records);
            let wormhole = (node.alerts().iter()).any(|a| a.attack == AttackKind::Wormhole);
            if i == 1 {
                assert_eq!(degraded, (1, 1), "{id} degraded transitions");
                assert!(!wormhole, "{id} heard no evidence of its own");
                let resynced: Vec<&str> = (records.iter())
                    .filter(|r| r.time_us >= 30_000_000)
                    .filter_map(|r| match &r.event {
                        JournalEvent::SyncAccepted { peer, .. } => Some(peer.as_str()),
                        _ => None,
                    })
                    .collect();
                assert_eq!(resynced, ["K1", "K3"], "{id} re-syncs after the heal");
            } else {
                assert_eq!(degraded, (0, 0), "{id} degraded transitions");
                assert!(wormhole, "{id} missed the wormhole verdict");
            }
            let turned = |health: &str| {
                (records.iter())
                    .filter_map(|r| match &r.event {
                        JournalEvent::PeerHealthChanged { to, .. } => Some(to),
                        _ => None,
                    })
                    .filter(|to| *to == health)
                    .count()
            };
            let across = if i == 1 { 2 } else { 1 };
            assert_eq!(turned("dead"), across, "{id} peers lost");
            assert_eq!(turned("healthy"), across, "{id} peers regained");
            assert_eq!(healthy_peers(&nodes, node), 2, "{id}");
            for name in [names::SYNC_QUEUE_DROPPED, names::SYNC_REJECTED] {
                assert_eq!(snapshot.counter(name), 0, "{id} {name}");
            }
        }
        let held: Vec<Knowgget> = nodes[1].knowledge().iter().collect();
        for source in [&nodes[0], &nodes[2]] {
            let authored: Vec<Knowgget> = (source.knowledge().collective_knowggets())
                .into_iter()
                .filter(|k| k.creator == *source.id())
                .collect();
            assert!(!authored.is_empty(), "{} authored nothing", source.id());
            for k in authored {
                let got = (held.iter()).any(|h| h.key() == k.key() && h.value == k.value);
                assert!(got, "K2 never got {}", k.key().encode());
            }
        }
    }
}
