//! State-exhaustion attacker: floods the IDS with fresh identities.
//!
//! Classic flooders aim packets at a victim; this attacker aims *state*
//! at the detector. Every sprayed datagram claims a never-seen-before
//! source (and destination) identity, so an IDS that allocates per-entity
//! tracking state unconditionally grows without bound until it is OOM-
//! killed or evicts the entities that matter. Kalis caps every per-entity
//! structure with an LRU budget (`entity_budget` module param,
//! `KB.PerEntityBudget` for the knowledge base), so the spray only churns
//! the budgeted maps while a genuine attack woven between the spray
//! bursts must still be detected.
//!
//! The spray deliberately avoids tripping volumetric detectors: each
//! spoofed identity sends exactly one datagram, and destinations are
//! spread as widely as sources so no single victim sees flood-level
//! traffic. The only Table II symptom in the trace is the embedded ICMP
//! flood, which is what the experiment harness scores recall against.

use std::net::Ipv4Addr;
use std::time::Duration;

use kalis_core::AttackKind;
use kalis_netsim::behavior::{Behavior, Ctx};
use kalis_netsim::craft;
use kalis_packets::udp::UdpPacket;
use kalis_packets::{Entity, MacAddr, Medium};

use crate::flood::{attacker_mac, BurstPlan, TIMER_BURST};
use crate::truth::{SymptomInstance, TruthLog};

/// Spoofed MAC indices start here so they never collide with the MACs
/// the simulator assigns to real nodes (which are small node ids).
const SPRAY_MAC_BASE: u32 = 0x0100_0000;

/// A state-exhaustion attacker (adversarial-cardinality spray).
///
/// Sprays bursts of single-datagram flows, each from a fresh spoofed
/// identity (distinct source IP, destination IP, and transmitter MAC),
/// while interleaving a genuine ICMP flood against `victim` recorded
/// into the [`TruthLog`]. Identity order is a seeded 24-bit bijective
/// permutation: runs are reproducible, identities are guaranteed
/// distinct, and up to 2^24 of them can be emitted before any repeats.
///
/// Defaults: 50 bursts of 2500 identities, 10 s apart, starting at
/// t=5 s — 125 000 distinct fake identities, comfortably past any
/// reasonable per-entity budget. The embedded flood sends 40 echo
/// replies per burst, matching [`crate::IcmpFloodAttacker`] defaults.
#[derive(Debug)]
pub struct StateExhaustionAttacker {
    victim: Ipv4Addr,
    truth: TruthLog,
    plan: BurstPlan,
    identities_per_burst: u32,
    replies_per_burst: u16,
    seed: u32,
    next_identity: u32,
    wifi_seq: u16,
}

impl StateExhaustionAttacker {
    /// Spray fake identities while flooding `victim`, recording the
    /// flood symptoms (only) into `truth`.
    pub fn new(victim: Ipv4Addr, truth: TruthLog) -> Self {
        StateExhaustionAttacker {
            victim,
            truth,
            plan: BurstPlan::new(),
            identities_per_burst: 2500,
            replies_per_burst: 40,
            seed: 0,
            next_identity: 0,
            wifi_seq: 0,
        }
    }

    /// Override burst count and interval.
    pub fn with_bursts(mut self, bursts: u32, interval: Duration) -> Self {
        self.plan.bursts = bursts;
        self.plan.interval = interval;
        self
    }

    /// Override the start delay.
    pub fn with_start(mut self, start: Duration) -> Self {
        self.plan.start = start;
        self
    }

    /// Override how many fresh identities each burst sprays.
    pub fn with_identities_per_burst(mut self, identities: u32) -> Self {
        self.identities_per_burst = identities;
        self
    }

    /// Override the embedded flood's per-burst reply count (0 disables
    /// the real attack, leaving a pure spray).
    pub fn with_replies_per_burst(mut self, replies: u16) -> Self {
        self.replies_per_burst = replies;
        self
    }

    /// Seed the identity permutation (different seeds visit the 24-bit
    /// identity space in different orders).
    pub fn with_seed(mut self, seed: u32) -> Self {
        self.seed = seed;
        self
    }

    /// Total distinct fake identities this attacker will emit.
    #[cfg(test)]
    pub(crate) fn planned_identities(&self) -> u64 {
        u64::from(self.plan.bursts) * u64::from(self.identities_per_burst)
    }

    /// Map the running identity counter to a 24-bit identity id.
    ///
    /// Multiplication by an odd constant and xor are both bijections on
    /// 24-bit integers, so every counter value yields a unique id.
    fn identity_id(&self, n: u32) -> u32 {
        (n.wrapping_mul(0x9E37_79B1) ^ self.seed) & 0x00FF_FFFF
    }
}

impl Behavior for StateExhaustionAttacker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.plan.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TIMER_BURST || !self.plan.fire(ctx) {
            return;
        }
        // The spray: one datagram per never-before-seen identity. Both
        // endpoints and the transmitter MAC are fresh, so every
        // per-entity structure in the IDS sees a new key, while no
        // single destination accumulates flood-level volume.
        for _ in 0..self.identities_per_burst {
            let id = self.identity_id(self.next_identity);
            self.next_identity = self.next_identity.wrapping_add(1);
            let src = Ipv4Addr::new(100, (id >> 16) as u8, (id >> 8) as u8, id as u8);
            let dst = Ipv4Addr::new(101, (id >> 16) as u8, (id >> 8) as u8, id as u8);
            let sport = 1024 + (id & 0x7FFF) as u16;
            let ip = craft::ipv4_udp(src, dst, &UdpPacket::new(sport, 53, vec![0u8; 24]));
            self.wifi_seq = self.wifi_seq.wrapping_add(1);
            ctx.transmit(
                Medium::Wifi,
                craft::wifi_ipv4(
                    MacAddr::from_index(SPRAY_MAC_BASE + id),
                    MacAddr::BROADCAST,
                    MacAddr::from_index(0),
                    self.wifi_seq,
                    &ip,
                ),
            );
        }
        // The real attack, woven between spray packets: a burst of the
        // paper's ICMP flood, identical to `IcmpFloodAttacker`.
        if self.replies_per_burst == 0 {
            return;
        }
        let mac = attacker_mac(ctx);
        for i in 0..self.replies_per_burst {
            let spoofed = Ipv4Addr::new(172, 16, (i >> 8) as u8, i as u8);
            let ip = craft::ipv4_echo_reply(spoofed, self.victim, 0x99, i);
            self.wifi_seq = self.wifi_seq.wrapping_add(1);
            ctx.transmit(
                Medium::Wifi,
                craft::wifi_ipv4(
                    mac,
                    MacAddr::BROADCAST,
                    MacAddr::from_index(0),
                    self.wifi_seq,
                    &ip,
                ),
            );
        }
        self.truth.record(SymptomInstance {
            time: ctx.now(),
            attack: AttackKind::IcmpFlood,
            victim: Some(Entity::new(self.victim.to_string())),
            attackers: vec![Entity::from(mac)],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_netsim::prelude::*;
    use kalis_packets::TrafficClass;

    #[test]
    fn spray_identities_are_distinct_and_truth_records_only_the_real_attack() {
        let truth = TruthLog::new();
        let mut sim = Simulator::new(11);
        let attacker = sim.add_node(NodeSpec::new("a").with_radio(RadioConfig::wifi()));
        sim.set_behavior(
            attacker,
            StateExhaustionAttacker::new(Ipv4Addr::new(10, 0, 0, 7), truth.clone())
                .with_bursts(2, Duration::from_secs(10))
                .with_identities_per_burst(600)
                .with_start(Duration::from_secs(1))
                .with_seed(42),
        );
        let tap = sim.add_tap("w", Position::new(1.0, 0.0), &[Medium::Wifi]);
        sim.run_for(Duration::from_secs(15));

        // Truth holds the embedded flood only — the spray is not a
        // Table II symptom and must not pollute scoring.
        assert_eq!(truth.len(), 2);
        assert_eq!(truth.instances()[0].attack, AttackKind::IcmpFlood);

        let frames = tap.drain();
        let spray_srcs: Vec<_> = frames
            .iter()
            .filter(|c| c.traffic_class() == TrafficClass::Udp)
            .filter_map(|c| c.decoded().and_then(|p| p.net_src()))
            .collect();
        let mut distinct = spray_srcs.clone();
        distinct.sort();
        distinct.dedup();
        // Every sprayed datagram claims a fresh identity.
        assert_eq!(spray_srcs.len(), 1200);
        assert_eq!(distinct.len(), 1200);
        assert!(distinct.iter().all(|s| s.as_str().starts_with("100.")));

        // The real flood rides along in the same trace.
        let replies = frames
            .iter()
            .filter(|c| c.traffic_class() == TrafficClass::IcmpEchoReply)
            .count();
        assert_eq!(replies, 80);
    }

    #[test]
    fn identity_permutation_never_repeats_within_the_24_bit_space() {
        let a =
            StateExhaustionAttacker::new(Ipv4Addr::new(10, 0, 0, 7), TruthLog::new()).with_seed(7);
        let mut ids: Vec<u32> = (0..200_000).map(|n| a.identity_id(n)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200_000);
        assert_eq!(a.planned_identities(), 125_000);
    }
}
