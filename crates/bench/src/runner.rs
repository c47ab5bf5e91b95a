//! Drives each IDS over a scenario's captured traffic and unifies their
//! outputs into [`Detection`]s for scoring.

use std::time::Duration;

use kalis_baselines::snort::{SnortAlert, SnortIds};
use kalis_baselines::traditional;
use kalis_core::knowledge::{PeerBeacon, PeerRegistry, SyncMessage, XorChannel};
use kalis_core::metrics::ResourceMeter;
use kalis_core::response::Revocation;
use kalis_core::{Alert, AttackKind, Kalis, KalisId};
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
    run_nodes(&mut nodes, vantages);
    outcome(&mut nodes)
}

/// Run the traditional-IDS baseline (all modules always on, one
/// randomly-chosen replication variant per run).
pub fn run_traditional(captures: &[CapturedPacket], seed: u64) -> RunOutcome {
    let mut ids = [traditional::build_with_seed("T1", seed)];
    run_nodes(&mut ids, &[captures]);
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

/// Drive one node per capture tap on the capture clock: `vantages[i]`
/// feeds `nodes[i]`, the earliest next packet first (a tie goes to the
/// lower tap). Alerts stay undrained, so callers can still inspect
/// provenance, traces and knowledge state.
///
/// Two nodes collaborate as in §VI-D: every 500 ms of capture time each
/// observes the other's beacon, the pair exchanges collective knowledge
/// through the (stand-in) encrypted channel once both have discovered a
/// peer, and both tick. After the last packet a pair exchanges once
/// more; then every node ticks at the latest capture + 2 s so
/// window-based detectors flush.
pub fn run_nodes(nodes: &mut [Kalis], vantages: &[&[CapturedPacket]]) {
    assert!(
        nodes.len() == vantages.len() && (1..=2).contains(&nodes.len()),
        "one node per capture tap, one or two taps"
    );
    let channel = XorChannel::new(0x6b616c6973);
    // Discovery-through-advertisement (paper §V): each node learns of the
    // other from its broadcast beacon before any knowledge flows.
    let mut peers: Vec<PeerRegistry> = nodes
        .iter()
        .map(|node| PeerRegistry::new(node.id().clone()))
        .collect();
    let mut next = vec![0usize; nodes.len()];
    let mut next_round = Timestamp::ZERO + SYNC_ROUND;
    while let Some((tap, ts)) = (0..nodes.len())
        .filter_map(|i| vantages[i].get(next[i]).map(|c| (i, c.timestamp)))
        .min_by_key(|&(i, ts)| (ts, i))
    {
        if let [a, b] = nodes {
            while ts >= next_round {
                round(a, b, &mut peers, &channel, next_round);
                next_round += SYNC_ROUND;
            }
        }
        nodes[tap].ingest(vantages[tap][next[tap]].clone());
        next[tap] += 1;
    }
    if let [a, b] = nodes {
        exchange(a, b, &channel);
    }
    let last = vantages
        .iter()
        .filter_map(|tap| tap.last())
        .map(|c| c.timestamp)
        .max();
    if let Some(last) = last {
        for node in nodes {
            node.tick(last + Duration::from_secs(2));
        }
    }
}

/// One collaboration round of a pair at `at`: both beacons are encoded
/// before either is observed, knowledge flows only between discovered
/// peers, then both nodes tick.
fn round(
    a: &mut Kalis,
    b: &mut Kalis,
    peers: &mut [PeerRegistry],
    channel: &XorChannel,
    at: Timestamp,
) {
    let beacons: Vec<Vec<u8>> = peers.iter().map(|p| p.own_beacon().encode()).collect();
    for (registry, beacon) in peers.iter_mut().zip(beacons.iter().rev()) {
        if let Some(beacon) = PeerBeacon::decode(beacon) {
            registry.observe(beacon, at);
        }
    }
    if peers.iter().all(|p| !p.peers(at).is_empty()) {
        exchange(a, b, channel);
    }
    a.tick(at);
    b.tick(at);
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

/// One knowledge exchange of the pair, both ways: `collective_outbox →
/// seal → open → accept_sync`.
pub fn exchange(a: &mut Kalis, b: &mut Kalis, channel: &XorChannel) {
    if let Some(msg) = a.collective_outbox() {
        let sealed = msg.seal(channel);
        if let Ok(opened) = SyncMessage::open(&sealed, channel) {
            let _ = b.accept_sync(opened);
        }
    }
    if let Some(msg) = b.collective_outbox() {
        let sealed = msg.seal(channel);
        if let Ok(opened) = SyncMessage::open(&sealed, channel) {
            let _ = a.accept_sync(opened);
        }
    }
}
