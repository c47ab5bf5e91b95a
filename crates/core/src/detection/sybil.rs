//! Sybil detection via RSSI fingerprinting (cf. Wang et al., the paper's
//! reference [42]): many identities transmitting from one physical
//! position share one signal-strength fingerprint.

use std::time::Duration;

use kalis_packets::{CapturedPacket, Entity, Timestamp};

use crate::alert::{Alert, AttackKind};
use crate::bounded::{budget_params, BoundedMap, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET};
use crate::knowledge::KnowValue;
use crate::modules::{
    FrameClass, KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec,
};
use crate::taxonomy::Feature;

use super::util::{fingerprint_identity, AlertGate};

/// RSSI samples retained per identity fingerprint: the windowed retain
/// already trims stale samples, this caps a single chatty identity.
const SAMPLE_CAP: usize = 64;

/// Identities sharing a fingerprint before the cluster is suspicious.
/// A single observer cannot tell two nodes on the same RSSI ring apart,
/// so the bar is four co-located identities — legitimate coincidence at
/// that multiplicity is vanishingly rare, while a useful Sybil attack
/// needs at least that many fake identities.
const CLUSTER_THRESHOLD: usize = 4;
/// Maximum mean-RSSI distance between clustered identities.
const CLUSTER_TOLERANCE_DB: f64 = 1.5;
/// Samples per identity before its fingerprint is trusted.
const MIN_SAMPLES: usize = 4;
/// Window over which fingerprints are maintained.
const WINDOW: Duration = Duration::from_secs(25);

#[derive(Debug, Default)]
struct Fingerprint {
    samples: Vec<(Timestamp, f64)>,
}

impl Fingerprint {
    fn push(&mut self, at: Timestamp, rssi: f64) {
        self.samples.push((at, rssi));
        self.samples
            .retain(|(ts, _)| at.saturating_since(*ts) <= WINDOW);
        while self.samples.len() > SAMPLE_CAP {
            self.samples.remove(0);
        }
    }

    fn mean(&self) -> Option<f64> {
        (self.samples.len() >= MIN_SAMPLES)
            .then(|| self.samples.iter().map(|(_, r)| r).sum::<f64>() / self.samples.len() as f64)
    }

    /// A tight fingerprint (low spread) is required — a genuinely mobile
    /// node's samples spread out and drop out of clustering.
    fn tight(&self) -> bool {
        let Some(mean) = self.mean() else {
            return false;
        };
        self.samples.iter().all(|(_, r)| (r - mean).abs() < 3.0)
    }
}

/// The Sybil detection module.
#[derive(Debug)]
pub struct SybilModule {
    entity_budget: usize,
    fingerprints: BoundedMap<Entity, Fingerprint>,
    gate: AlertGate<String>,
}

impl SybilModule {
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
        SybilModule {
            entity_budget,
            fingerprints: BoundedMap::new(entity_budget),
            gate: AlertGate::bounded(Duration::from_secs(20), entity_budget),
        }
    }
}

impl Default for SybilModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for SybilModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("SybilModule", AttackKind::Sybil)
            .needs(&[Feature::Ieee802154Medium])
            .reads(FrameClass::IEEE802154)
            .heavy()
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        // RSSI fingerprinting targets the constrained wireless medium.
        if packet.medium != kalis_packets::Medium::Ieee802154 {
            return;
        }
        let Some(rssi) = packet.rssi_dbm else { return };
        let Some(pkt) = packet.decoded() else { return };
        let Some(id) = fingerprint_identity(pkt) else {
            return;
        };
        let now = packet.timestamp;
        let (fp, _) = self
            .fingerprints
            .get_or_insert_with(&id, Fingerprint::default);
        fp.push(now, rssi);

        let Some(center) = self.fingerprints.get(&id).and_then(Fingerprint::mean) else {
            return;
        };
        if !self.fingerprints.get(&id).is_some_and(Fingerprint::tight) {
            return;
        }
        let clustered = |fp: &Fingerprint| {
            (fp.mean())
                .is_some_and(|mean| fp.tight() && (mean - center).abs() <= CLUSTER_TOLERANCE_DB)
        };
        let members = || (self.fingerprints.iter()).filter(|(_, fp)| clustered(fp));
        if members().count() < CLUSTER_THRESHOLD {
            return;
        }
        // kalis-lint: allow(KL301): scratch, bounded by the fingerprint map budget
        let mut cluster: Vec<Entity> = members().map(|(id, _)| id.clone()).collect();
        cluster.sort();
        let key = cluster
            .iter()
            .map(|e| e.as_str())
            .collect::<Vec<_>>()
            .join(",");
        if self.gate.permit(key, now) {
            ctx.raise(
                Alert::new(now, AttackKind::Sybil, "SybilModule")
                    .with_suspects(cluster.clone())
                    .with_details(format!(
                        "{} identities share one RSSI fingerprint (~{center:.1} dBm)",
                        cluster.len()
                    )),
            );
        }
    }

    fn state_bytes(&self) -> usize {
        self.fingerprints
            .iter()
            .map(|(_, f)| f.samples.len() * 16 + 64)
            .sum::<usize>()
            + 128
    }

    fn occupancy(&self) -> usize {
        self.fingerprints.len()
    }

    fn evictions(&self) -> u64 {
        self.fingerprints.evictions() + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.fingerprints.clear();
        self.gate.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
    use kalis_packets::{Medium, ShortAddr};

    fn zigbee(ms: u64, id: u16, rssi: f64) -> CapturedPacket {
        let raw = kalis_netsim::craft::zigbee_data(
            ShortAddr(id),
            ShortAddr(1),
            0,
            ShortAddr(id),
            ShortAddr(1),
            0,
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

    fn run(caps: Vec<CapturedPacket>) -> Vec<Alert> {
        let mut module = SybilModule::new();
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
    fn cluster_of_identities_at_one_position_is_flagged() {
        // Identities 10..14 all transmit from the attacker's position
        // (RSSI ≈ -58); legit nodes 2 and 3 sit elsewhere.
        let mut caps = Vec::new();
        for round in 0..4u64 {
            let t = round * 1000;
            caps.push(zigbee(t, 2, -45.0));
            caps.push(zigbee(t + 100, 3, -70.0));
            for (j, fake) in (10u16..15).enumerate() {
                caps.push(zigbee(
                    t + 200 + j as u64 * 50,
                    fake,
                    -58.0 + (round % 2) as f64 * 0.4,
                ));
            }
        }
        let alerts = run(caps);
        assert!(!alerts.is_empty());
        let alert = &alerts[0];
        assert_eq!(alert.attack, AttackKind::Sybil);
        assert!(alert.suspects.len() >= CLUSTER_THRESHOLD);
        assert!(
            !alert.suspects.contains(&Entity::from(ShortAddr(2))),
            "distant legit node not in the cluster"
        );
    }

    #[test]
    fn three_nodes_on_one_rssi_ring_are_tolerated() {
        // Three legitimate motes can coincidentally sit on the same RSSI
        // ring around the observer; only 4+ trips the detector.
        let mut caps = Vec::new();
        for round in 0..6u64 {
            let t = round * 1000;
            caps.push(zigbee(t, 2, -65.0));
            caps.push(zigbee(t + 100, 3, -65.5));
            caps.push(zigbee(t + 200, 4, -64.6));
        }
        assert!(run(caps).is_empty());
    }

    #[test]
    fn spread_out_legit_nodes_are_not_a_cluster() {
        let mut caps = Vec::new();
        for round in 0..5u64 {
            let t = round * 1000;
            for (j, id) in (2u16..8).enumerate() {
                // Each node at its own distance: ≥4 dB apart.
                caps.push(zigbee(t + j as u64 * 50, id, -40.0 - 4.0 * j as f64));
            }
        }
        assert!(run(caps).is_empty());
    }

    #[test]
    fn two_coincidentally_close_nodes_are_tolerated() {
        let mut caps = Vec::new();
        for round in 0..5u64 {
            let t = round * 1000;
            caps.push(zigbee(t, 2, -58.0));
            caps.push(zigbee(t + 100, 3, -58.5));
            caps.push(zigbee(t + 200, 4, -70.0));
        }
        assert!(run(caps).is_empty(), "below the cluster threshold");
    }

    #[test]
    fn identity_spray_stays_within_budget() {
        let mut module = SybilModule::new().with_entity_budget(16);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let mut alerts = Vec::new();
        // 300 one-shot identities, each with a single RSSI sample: none
        // ever reaches MIN_SAMPLES, and the fingerprint map stays at its
        // budget instead of growing per identity.
        for i in 0..300u16 {
            let cap = zigbee(u64::from(i) * 20, 1000 + i, -50.0 - f64::from(i % 40));
            let mut ctx = ModuleCtx {
                now: cap.timestamp,
                kb: &mut kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &cap);
        }
        assert!(alerts.is_empty());
        assert!(module.occupancy() <= 16, "fingerprint map bounded");
        assert!(module.evictions() > 0, "spray forced evictions");
        assert_eq!(module.state_budget(), 16);
        module.reset();
        assert_eq!(module.occupancy(), 0);
        assert_eq!(module.evictions(), 0, "reset zeroes eviction telemetry");
    }
}
