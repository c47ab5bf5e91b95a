//! Replication (node-clone) detectors.
//!
//! "Many detection techniques exist for this attack; however each one is
//! specific to a network with certain characteristics, e.g. mobility"
//! (paper §VI-B2). This module provides the two variants the paper
//! evaluates:
//!
//! * [`ReplicationStaticModule`] — for static networks: a cloned identity
//!   shows up as a *stable two-level* RSSI fingerprint (two radios at two
//!   fixed distances). The technique validates its own environment
//!   assumption — it declines to classify when the surrounding network's
//!   RSSI baselines wander (i.e. when the network is actually mobile),
//!   which is exactly why it misses attacks when misapplied.
//! * [`ReplicationMobileModule`] — for mobile networks: legitimate motion
//!   changes RSSI *gradually*, so the same identity observed at widely
//!   separated signal levels within a fraction of a second implies two
//!   physical transmitters. Symmetrically, it declines when the network
//!   shows no motion at all (interleaved levels in a fully static
//!   environment are treated as the static technique's jurisdiction).

use std::time::Duration;

use kalis_packets::{CapturedPacket, Entity, Timestamp};

use crate::alert::{Alert, AttackKind};
use crate::bounded::{budget_params, BoundedMap, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET};
use crate::knowledge::KnowValue;
use crate::modules::{KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec};
use crate::taxonomy::Feature;

use super::util::{fingerprint_identity, AlertGate};

/// RSSI samples retained per identity: the windowed retain already trims
/// stale samples, this caps a single chatty identity.
const SAMPLE_CAP: usize = 64;

/// Sliding window of RSSI samples kept per identity.
const SAMPLE_WINDOW: Duration = Duration::from_secs(12);
/// Two-level separation implying two physical radios.
const LEVEL_GAP_DB: f64 = 10.0;
/// Samples required in each level before classifying.
const LEVEL_QUORUM: usize = 3;
/// Minimum time the two-level pattern must persist before the static
/// technique classifies (gives the environment check time to observe
/// whether the network is actually static).
const MIN_SPAN: Duration = Duration::from_secs(4);
/// Window within which an RSSI change counts as a teleportation jump for
/// the mobile technique (legitimate motion changes RSSI far more slowly).
const JUMP_WINDOW: Duration = Duration::from_millis(1500);

#[derive(Debug, Default)]
struct Samples {
    points: Vec<(Timestamp, f64)>,
}

impl Samples {
    fn push(&mut self, at: Timestamp, rssi: f64) {
        self.points.push((at, rssi));
        let cutoff = at;
        self.points
            .retain(|(ts, _)| cutoff.saturating_since(*ts) <= SAMPLE_WINDOW);
        while self.points.len() > SAMPLE_CAP {
            self.points.remove(0);
        }
    }

    fn spread(&self) -> f64 {
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, r) in &self.points {
            min = min.min(*r);
            max = max.max(*r);
        }
        if self.points.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Split samples around the midpoint; `(low_count, high_count, gap)`.
    fn two_level(&self) -> (usize, usize, f64) {
        if self.points.len() < 2 * LEVEL_QUORUM {
            return (0, 0, 0.0);
        }
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, r) in &self.points {
            min = min.min(*r);
            max = max.max(*r);
        }
        let mid = (min + max) / 2.0;
        // (count, sum) of the samples below the midpoint and of the rest.
        let (mut low, mut high) = ((0, 0.0), (0, 0.0));
        for (_, r) in &self.points {
            let level = if *r < mid { &mut low } else { &mut high };
            level.0 += 1;
            level.1 += *r;
        }
        if low.0 == 0 || high.0 == 0 {
            return (0, 0, 0.0);
        }
        let low_mean = low.1 / low.0 as f64;
        let high_mean = high.1 / high.0 as f64;
        (low.0, high.0, high_mean - low_mean)
    }

    /// Time between the oldest and newest retained sample.
    fn span(&self) -> Duration {
        match (self.points.first(), self.points.last()) {
            (Some((first, _)), Some((last, _))) => last.saturating_since(*first),
            _ => Duration::ZERO,
        }
    }

    /// Largest RSSI change between *consecutive* samples within
    /// [`JUMP_WINDOW`] — the teleportation signal for the mobile
    /// technique.
    fn fastest_jump(&self) -> f64 {
        let mut best: f64 = 0.0;
        for pair in self.points.windows(2) {
            let dt = pair[1].0.saturating_since(pair[0].0);
            if dt <= JUMP_WINDOW {
                best = best.max((pair[1].1 - pair[0].1).abs());
            }
        }
        best
    }
}

/// Record the packet's RSSI under its transmitter. `points` is the
/// caller's running count of retained samples over all of `samples`,
/// kept here because this is the only place samples come and go.
fn ingest(
    samples: &mut BoundedMap<Entity, Samples>,
    points: &mut usize,
    packet: &CapturedPacket,
) -> Option<(Entity, Timestamp)> {
    let rssi = packet.rssi_dbm?;
    let pkt = packet.decoded()?;
    // Fingerprint only directly-transmitted identities: the RSSI of a
    // relayed frame belongs to the relay, not the claimed originator.
    let id = fingerprint_identity(pkt)?;
    let (entry, evicted) = samples.get_or_insert_with(&id, Samples::default);
    let before = entry.points.len();
    entry.push(packet.timestamp, rssi);
    *points = *points + entry.points.len() - before;
    if let Some((_, evicted)) = evicted {
        *points -= evicted.points.len();
    }
    Some((id, packet.timestamp))
}

/// `state_bytes()` of either replication variant: 16 bytes a sample, 64
/// an identity. `points` is the running count [`ingest`] keeps, so the
/// per-packet read does not walk the map.
fn footprint(samples: &BoundedMap<Entity, Samples>, points: usize) -> usize {
    debug_assert_eq!(
        points,
        samples.iter().map(|(_, s)| s.points.len()).sum::<usize>()
    );
    points * 16 + samples.len() * 64 + 128
}

/// Fraction of identities (other than the suspect under evaluation) whose
/// RSSI wanders more than 6 dB — the environment-mobility estimate both
/// techniques use to validate their assumptions.
fn wandering_fraction(samples: &BoundedMap<Entity, Samples>, exclude: &Entity) -> f64 {
    let tracked: Vec<&Samples> = samples
        .iter()
        .filter(|(id, s)| *id != exclude && s.points.len() >= LEVEL_QUORUM)
        .map(|(_, s)| s)
        .collect();
    if tracked.is_empty() {
        return 0.0;
    }
    let wandering = tracked.iter().filter(|s| s.spread() > 6.0).count();
    wandering as f64 / tracked.len() as f64
}

/// Replication detector for **static** networks (RSSI two-level
/// fingerprinting).
#[derive(Debug)]
pub struct ReplicationStaticModule {
    entity_budget: usize,
    samples: BoundedMap<Entity, Samples>,
    /// Samples retained over all of `samples`.
    sample_points: usize,
    gate: AlertGate<Entity>,
}

impl ReplicationStaticModule {
    /// A fresh detector.
    pub fn new() -> Self {
        Self::build(DEFAULT_ENTITY_BUDGET)
    }

    /// Replace the per-entity state budget (the `entity_budget`
    /// configuration parameter), rebuilding the bounded structures.
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(entity_budget: usize) -> Self {
        ReplicationStaticModule {
            entity_budget,
            samples: BoundedMap::new(entity_budget),
            sample_points: 0,
            gate: AlertGate::bounded(Duration::from_secs(15), entity_budget),
        }
    }
}

impl Default for ReplicationStaticModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for ReplicationStaticModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("ReplicationStaticModule", AttackKind::Replication)
            .needs(&[Feature::Static])
            .heavy()
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some((id, now)) = ingest(&mut self.samples, &mut self.sample_points, packet) else {
            return;
        };
        let Some(suspect) = self.samples.get(&id) else {
            return;
        };
        let (low, high, gap) = suspect.two_level();
        if low < LEVEL_QUORUM
            || high < LEVEL_QUORUM
            || gap < LEVEL_GAP_DB
            || suspect.span() < MIN_SPAN
        {
            return;
        }
        // Environment check: the static technique is only valid when the
        // rest of the network is, in fact, static. (Exclude the suspect
        // itself, whose spread is the symptom.)
        if wandering_fraction(&self.samples, &id) > 0.3 {
            return; // assumption violated: network is not actually static
        }
        if self.gate.permit(id.clone(), now) {
            ctx.raise(
                Alert::new(now, AttackKind::Replication, "ReplicationStaticModule")
                    .with_victim(id.clone())
                    .with_suspect(id)
                    .with_details(format!(
                        "stable two-level RSSI fingerprint ({low}+{high} samples, {gap:.1} dB apart)"
                    )),
            );
        }
    }

    fn state_bytes(&self) -> usize {
        footprint(&self.samples, self.sample_points)
    }

    fn occupancy(&self) -> usize {
        self.samples.len()
    }

    fn evictions(&self) -> u64 {
        self.samples.evictions() + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.samples.clear();
        self.sample_points = 0;
        self.gate.clear();
    }
}

/// `current_params` payload shared by both replication variants.
/// Replication detector for **mobile** networks (RSSI teleportation).
#[derive(Debug)]
pub struct ReplicationMobileModule {
    entity_budget: usize,
    samples: BoundedMap<Entity, Samples>,
    /// Samples retained over all of `samples`.
    sample_points: usize,
    gate: AlertGate<Entity>,
}

impl ReplicationMobileModule {
    /// A fresh detector.
    pub fn new() -> Self {
        Self::build(DEFAULT_ENTITY_BUDGET)
    }

    /// Replace the per-entity state budget (the `entity_budget`
    /// configuration parameter), rebuilding the bounded structures.
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(entity_budget: usize) -> Self {
        ReplicationMobileModule {
            entity_budget,
            samples: BoundedMap::new(entity_budget),
            sample_points: 0,
            gate: AlertGate::bounded(Duration::from_secs(15), entity_budget),
        }
    }
}

impl Default for ReplicationMobileModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for ReplicationMobileModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("ReplicationMobileModule", AttackKind::Replication)
            .needs(&[Feature::Mobile])
            .heavy()
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some((id, now)) = ingest(&mut self.samples, &mut self.sample_points, packet) else {
            return;
        };
        if !self
            .samples
            .get(&id)
            .is_some_and(|s| s.fastest_jump() >= LEVEL_GAP_DB)
        {
            return;
        }
        // Environment check: teleportation is only meaningful relative to
        // actual motion; in a fully static network interleaved levels are
        // the static technique's case.
        if wandering_fraction(&self.samples, &id) < 0.2 {
            return;
        }
        if self.gate.permit(id.clone(), now) {
            let jump = self
                .samples
                .get(&id)
                .map(Samples::fastest_jump)
                .unwrap_or_default();
            ctx.raise(
                Alert::new(now, AttackKind::Replication, "ReplicationMobileModule")
                    .with_victim(id.clone())
                    .with_suspect(id)
                    .with_details(format!("RSSI jumped {jump:.1} dB within 500 ms")),
            );
        }
    }

    fn state_bytes(&self) -> usize {
        footprint(&self.samples, self.sample_points)
    }

    fn occupancy(&self) -> usize {
        self.samples.len()
    }

    fn evictions(&self) -> u64 {
        self.samples.evictions() + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.samples.clear();
        self.sample_points = 0;
        self.gate.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
    use kalis_packets::{Medium, ShortAddr};

    const CLONED: u16 = 4;

    fn zigbee(ms: u64, id: u16, rssi: f64) -> CapturedPacket {
        let raw = kalis_netsim::craft::zigbee_data(
            ShortAddr(id),
            ShortAddr(1),
            (ms / 100) as u8,
            ShortAddr(id),
            ShortAddr(1),
            (ms / 100) as u8,
            b"x",
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ieee802154,
            Some(rssi),
            "t",
            raw,
        )
    }

    fn run(module: &mut dyn Module, caps: Vec<CapturedPacket>) -> Vec<Alert> {
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

    /// Static scenario: legit nodes at stable RSSI; identity 4 alternates
    /// between two stable levels (original + replica).
    fn static_replication_traffic() -> Vec<CapturedPacket> {
        let mut caps = Vec::new();
        for i in 0..20u64 {
            caps.push(zigbee(i * 400, 2, -55.0 + (i % 2) as f64 * 0.5));
            caps.push(zigbee(i * 400 + 100, 3, -62.0));
            let level = if i % 2 == 0 { -48.0 } else { -71.0 };
            caps.push(zigbee(i * 400 + 200, CLONED, level));
        }
        caps
    }

    /// Mobile scenario: legit nodes drift gradually; identity 4 teleports.
    fn mobile_replication_traffic() -> Vec<CapturedPacket> {
        let mut caps = Vec::new();
        for i in 0..20u64 {
            caps.push(zigbee(i * 400, 2, -50.0 - i as f64 * 2.5)); // fast drift
            caps.push(zigbee(i * 400 + 100, 3, -70.0 + i as f64 * 2.0));
            let level = if i % 2 == 0 { -48.0 } else { -71.0 };
            caps.push(zigbee(i * 400 + 150, CLONED, level));
            caps.push(zigbee(
                i * 400 + 250,
                CLONED,
                if i % 2 == 0 { -71.0 } else { -48.0 },
            ));
        }
        caps
    }

    #[test]
    fn static_module_detects_static_replication() {
        let mut module = ReplicationStaticModule::new();
        let alerts = run(&mut module, static_replication_traffic());
        assert!(!alerts.is_empty());
        assert_eq!(alerts[0].attack, AttackKind::Replication);
        assert_eq!(alerts[0].suspects[0], Entity::from(ShortAddr(CLONED)));
    }

    #[test]
    fn static_module_declines_in_mobile_environment() {
        let mut module = ReplicationStaticModule::new();
        let alerts = run(&mut module, mobile_replication_traffic());
        assert!(
            alerts.is_empty(),
            "assumption check: static technique must not fire on a mobile network"
        );
    }

    #[test]
    fn mobile_module_detects_mobile_replication() {
        let mut module = ReplicationMobileModule::new();
        let alerts = run(&mut module, mobile_replication_traffic());
        assert!(!alerts.is_empty());
        assert_eq!(alerts[0].attack, AttackKind::Replication);
    }

    #[test]
    fn mobile_module_declines_in_static_environment() {
        let mut module = ReplicationMobileModule::new();
        let alerts = run(&mut module, static_replication_traffic());
        assert!(
            alerts.is_empty(),
            "assumption check: mobile technique must not fire on a static network"
        );
    }

    #[test]
    fn legitimate_nodes_never_flagged() {
        let mut caps = Vec::new();
        for i in 0..20u64 {
            caps.push(zigbee(i * 300, 2, -55.0 + (i % 3) as f64));
            caps.push(zigbee(i * 300 + 100, 3, -60.0 - (i % 2) as f64));
        }
        assert!(run(&mut ReplicationStaticModule::new(), caps.clone()).is_empty());
        assert!(run(&mut ReplicationMobileModule::new(), caps).is_empty());
    }

    #[test]
    fn budgeted_static_module_survives_identity_spray() {
        // The clone transmits every round, so it stays hot in the LRU;
        // 4 fresh one-shot identities per round (80 total) churn through
        // the bounded map without displacing it.
        let mut module = ReplicationStaticModule::new().with_entity_budget(32);
        let mut caps = Vec::new();
        for i in 0..20u64 {
            caps.push(zigbee(i * 400, 2, -55.0 + (i % 2) as f64 * 0.5));
            caps.push(zigbee(i * 400 + 100, 3, -62.0));
            let level = if i % 2 == 0 { -48.0 } else { -71.0 };
            caps.push(zigbee(i * 400 + 200, CLONED, level));
            for j in 0..4u64 {
                caps.push(zigbee(
                    i * 400 + 240 + j * 10,
                    2000 + (i * 4 + j) as u16,
                    -60.0,
                ));
            }
        }
        let alerts = run(&mut module, caps);
        assert!(
            alerts
                .iter()
                .any(|a| a.suspects[0] == Entity::from(ShortAddr(CLONED))),
            "clone detected despite identity spray"
        );
        assert!(module.occupancy() <= 32, "sample map bounded");
        assert!(module.evictions() > 0, "spray forced evictions");
        // The running sample count followed pushes, trims and evictions.
        let points: usize = module.samples.iter().map(|(_, s)| s.points.len()).sum();
        assert_eq!(module.state_bytes(), points * 16 + 32 * 64 + 128);
        module.reset();
        assert_eq!(module.state_bytes(), 128);
    }
}
