//! Drives each IDS over a scenario's captured traffic and unifies their
//! outputs into [`Detection`]s for scoring.

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

/// Capture time between two collaboration rounds of a pair.
const SYNC_ROUND: Duration = Duration::from_millis(500);
/// One-way latency of a pair's sync wire, for beacons, frames and acks.
const LINK_DELAY: Duration = Duration::from_micros(500);
/// How long a run goes on after its last capture, so window-based
/// detectors flush.
const SETTLE: Duration = Duration::from_secs(2);

/// How a pair collaborates in [`run_nodes`]: the [`Wire`] its sync
/// traffic rides (endpoint `i` is `nodes[i]`), the earliest instant the
/// run may end, and a look at both nodes after every round and after
/// the final tick. [`Link::default`] is a lossless wire, no later end
/// and no look. A single node has no peer and ignores the link.
pub struct Link<'a> {
    /// The sync wire; its fault plan judges every beacon, frame and ack.
    pub wire: Wire,
    /// The run ends at the last capture + 2 s or at this instant,
    /// whichever is later.
    pub until: Timestamp,
    /// Called with the round's instant and both nodes.
    pub observe: Observer<'a>,
}

/// A look at a pair's nodes at an instant of its run.
pub type Observer<'a> = Box<dyn FnMut(Timestamp, &[Kalis]) + 'a>;

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
/// Two nodes collaborate as in §VI-D, through their own sync engines
/// over `link.wire`. Every 500 ms of capture time each node runs
/// [`Kalis::sync_poll`], its beacon and frames go on the wire, and both
/// tick. Frames arrive at their delivery instants, between packets: a
/// beacon goes to [`Kalis::observe_beacon`], anything else to
/// [`Kalis::receive_sync_frame`], whose ack goes back on the wire.
///
/// The run ends with every node ticking at the last capture + 2 s (for
/// a pair, or at `link.until` if that is later), so window-based
/// detectors flush.
pub fn run_nodes(
    nodes: &mut [Kalis],
    vantages: &[&[CapturedPacket]],
    link: &mut Link<'_>,
) -> Option<Timestamp> {
    assert!(
        nodes.len() == vantages.len() && (1..=2).contains(&nodes.len()),
        "one node per capture tap, one or two taps"
    );
    let pair = nodes.len() == 2;
    let settled = (vantages.iter())
        .filter_map(|tap| tap.last())
        .map(|c| c.timestamp + SETTLE)
        .max();
    let until = (pair && link.until > Timestamp::ZERO).then_some(link.until);
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
        let due_round = (pair && round < end).then_some((round, Event::Round));
        let Some((now, event)) = packet.chain(delivery).chain(due_round).min() else {
            break;
        };
        match event {
            Event::Deliver => deliver(nodes, &mut link.wire, now),
            Event::Round => {
                sync_round(nodes, &mut link.wire, now);
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
    if pair {
        (link.observe)(end, nodes);
    }
    Some(end)
}

/// Hand every frame arriving at `now` to its node; acks go back on the
/// wire. A frame corrupted in flight is rejected, counted and journaled
/// by the node itself.
fn deliver(nodes: &mut [Kalis], wire: &mut Wire, now: Timestamp) {
    for frame in wire.due(now) {
        let node = &mut nodes[frame.to as usize];
        if let Some(beacon) = PeerBeacon::decode(&frame.bytes) {
            node.observe_beacon(&beacon, now);
        } else if let Ok(receipt) = node.receive_sync_frame(&frame.bytes, now) {
            if let Some(ack) = receipt.reply {
                wire.send(frame.to, 1 - frame.to, &ack, now);
            }
        }
    }
}

/// One collaboration round at `now`: each node's beacon (when due) and
/// sync frames go on the wire, then both nodes tick.
fn sync_round(nodes: &mut [Kalis], wire: &mut Wire, now: Timestamp) {
    for (from, node) in (0u32..).zip(nodes.iter_mut()) {
        let poll = node.sync_poll(now);
        let beacon = poll.beacon.map(|beacon| beacon.encode());
        for bytes in beacon
            .into_iter()
            .chain(poll.frames.into_iter().map(|f| f.bytes))
        {
            wire.send(from, 1 - from, &bytes, now);
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
    use kalis_core::Knowgget;
    use kalis_telemetry::{names, JournalEvent};

    use super::*;
    use crate::scenarios::{Scenario, ScenarioKind};

    /// On a lossless wire the engines have nothing to recover from: each
    /// node ends with its peer healthy, and nothing was retransmitted,
    /// deduplicated, dropped from a queue or rejected. Frames handed over
    /// only at round boundaries would fail this: every ack would land
    /// after the 500 ms retransmit timer had fired.
    #[test]
    fn a_lossless_pair_is_fault_free() {
        let scenario = Scenario::build(ScenarioKind::Wormhole, 42, 25);
        let mut nodes = ["K1", "K2"].map(|id| {
            Kalis::builder(KalisId::new(id))
                .with_default_modules()
                .build()
        });
        run_nodes(&mut nodes, &scenario.vantages(), &mut Link::default());
        for node in &nodes {
            let snapshot = node.telemetry().snapshot();
            let id = node.id();
            assert_eq!(snapshot.gauge(names::PEERS_HEALTHY), 1, "{id}");
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

    /// A pair ships only what its peer reads: after the seed-42 wormhole
    /// pair, every knowgget a node holds from another creator has a
    /// label some default contract reads across creators
    /// (`reads_collective`). A plain read sees the local copy only, so
    /// anything else arrived for nobody.
    #[test]
    fn a_pair_holds_only_peer_knowledge_a_contract_reads() {
        let read_across: Vec<KeyPattern> = (ModuleRegistry::with_defaults().contracts())
            .into_iter()
            .flat_map(|(_, _, contract)| contract.reads)
            .filter(|read| read.collective)
            .map(|read| read.pattern)
            .collect();
        let scenario = Scenario::build(ScenarioKind::Wormhole, 42, 25);
        let mut nodes = ["K1", "K2"].map(|id| {
            Kalis::builder(KalisId::new(id))
                .with_default_modules()
                .build()
        });
        run_nodes(&mut nodes, &scenario.vantages(), &mut Link::default());
        for node in &nodes {
            let peers: Vec<Knowgget> = (node.knowledge().iter())
                .filter(|knowgget| knowgget.creator != *node.id())
                .collect();
            assert!(!peers.is_empty(), "{} heard nothing", node.id());
            let unread: Vec<String> = (peers.iter())
                .filter(|knowgget| !read_across.iter().any(|p| p.matches(&knowgget.label)))
                .map(|knowgget| format!("{}${}", knowgget.creator, knowgget.label))
                .collect();
            assert!(unread.is_empty(), "{} holds {unread:?}", node.id());
        }
    }
}
