//! Watchdog-based forwarding misbehaviour detectors: selective forwarding
//! and blackhole.
//!
//! The watchdog overhears a CTP data frame addressed (at the MAC layer) to
//! a forwarder and expects to overhear the forwarder relaying it within a
//! deadline; an expiry counts as a drop. The drop ratio over a sliding
//! window classifies the misbehaviour: partial dropping is *selective
//! forwarding*, (near-)total dropping is a *blackhole* — "some techniques
//! could be generalized to detect attacks with similar symptoms but
//! different severity" (paper §IV-B4).

use std::collections::VecDeque;
use std::time::Duration;

use kalis_packets::ctp::CtpFrame;
use kalis_packets::{CapturedPacket, Entity, ShortAddr, Timestamp};

use crate::alert::{Alert, AttackKind};
use crate::bounded::{budget_params, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET};
use crate::knowledge::{KnowValue, KnowledgeBase};
use crate::modules::{KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec, ValueType};
use crate::sensing::labels as sense;

use super::labels;
use super::util::AlertGate;

/// How long the watchdog waits for the relay transmission.
const RELAY_DEADLINE: Duration = Duration::from_millis(800);
/// Sliding window over which drop ratios are computed.
const RATIO_WINDOW: Duration = Duration::from_secs(30);
/// Minimum observations before a ratio is trusted.
const MIN_OBSERVATIONS: usize = 5;

#[derive(Debug)]
struct Pending {
    deadline: Timestamp,
    forwarder: ShortAddr,
    origin: ShortAddr,
    origin_seq: u8,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Forwarded,
    Dropped,
}

/// The shared watchdog state machine.
#[derive(Debug)]
struct Watchdog {
    budget: usize,
    pending: VecDeque<Pending>,
    observations: VecDeque<(Timestamp, ShortAddr, ShortAddr, Outcome)>, // (ts, forwarder, origin, outcome)
    evictions: u64,
    /// `(forwarder, drops, total)` over `observations`, recounted by every
    /// [`Watchdog::expire`] into the same buffer: counting allocates
    /// nothing.
    tally: Vec<(ShortAddr, usize, usize)>,
}

impl Watchdog {
    /// A watchdog keeping at most `budget` entries in each ledger.
    ///
    /// Overflowing `pending` forgets the oldest expectation *without*
    /// recording a drop — fabricating drop evidence under a traffic spray
    /// would frame honest forwarders. Overflowing `observations` forgets
    /// the oldest outcome (the sliding-window ratio simply sees less
    /// history).
    fn new(budget: usize) -> Self {
        Watchdog {
            budget: budget.max(1),
            pending: VecDeque::new(),
            observations: VecDeque::new(),
            evictions: 0,
            tally: Vec::new(),
        }
    }

    fn enforce_budget(&mut self) {
        while self.pending.len() > self.budget {
            self.pending.pop_front();
            self.evictions += 1;
        }
        while self.observations.len() > self.budget {
            self.observations.pop_front();
            self.evictions += 1;
        }
    }
    fn on_packet(&mut self, ctx: &ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(pkt) = packet.decoded() else { return };
        let Some(CtpFrame::Data(data)) = pkt.ctp() else {
            return;
        };
        let Some(mac) = pkt.ieee802154() else { return };
        let now = packet.timestamp;
        // A relay satisfies any pending entry with the matching origin+seq.
        if let Some(src) = mac.src.short() {
            let idx = self.pending.iter().position(|p| {
                p.forwarder == src && p.origin == data.origin && p.origin_seq == data.origin_seq
            });
            if let Some(p) = idx.and_then(|idx| self.pending.remove(idx)) {
                self.observations
                    .push_back((now, p.forwarder, p.origin, Outcome::Forwarded));
            }
        }
        // A frame addressed to a non-root node should be relayed.
        let Some(dst) = mac.dst.short() else { return };
        if dst.is_broadcast() {
            return;
        }
        let root = ctx.kb.get_ref(sense::CTP_ROOT);
        if root.is_some_and(|root| root.wire_is(Entity::from(dst).as_str())) {
            return; // the sink consumes, it does not forward
        }
        // Don't watchdog the final self-origination (origin == transmitter
        // handled naturally: we watch the *receiver* dst).
        self.pending.push_back(Pending {
            deadline: now + RELAY_DEADLINE,
            forwarder: dst,
            origin: data.origin,
            origin_seq: data.origin_seq,
        });
        self.enforce_budget();
    }

    fn expire(&mut self, now: Timestamp) {
        while self
            .pending
            .front()
            .is_some_and(|front| front.deadline <= now)
        {
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            self.observations
                .push_back((now, p.forwarder, p.origin, Outcome::Dropped));
        }
        while let Some((ts, ..)) = self.observations.front() {
            if now.saturating_since(*ts) > RATIO_WINDOW {
                self.observations.pop_front();
            } else {
                break;
            }
        }
        self.enforce_budget();
        self.recount();
    }

    /// Count the observations by forwarder, in the order the forwarders
    /// were first observed.
    fn recount(&mut self) {
        self.tally.clear();
        for (_, forwarder, _, outcome) in &self.observations {
            let at = (self.tally.iter())
                .position(|(f, ..)| f == forwarder)
                .unwrap_or_else(|| {
                    self.tally.push((*forwarder, 0, 0));
                    self.tally.len() - 1
                });
            let (_, drops, total) = &mut self.tally[at];
            *drops += usize::from(*outcome == Outcome::Dropped);
            *total += 1;
        }
    }

    /// `(forwarder, drops, total)` for each forwarder with enough
    /// observations, as of the last [`Watchdog::expire`].
    fn ratios(&self) -> impl Iterator<Item = (ShortAddr, usize, usize)> + '_ {
        (self.tally.iter().copied()).filter(|(_, _, total)| *total >= MIN_OBSERVATIONS)
    }

    /// The origins whose frames `forwarder` was observed dropping, in the
    /// order they were first dropped.
    fn dropped_origins(&self, forwarder: ShortAddr) -> Vec<ShortAddr> {
        let mut origins = Vec::new();
        for (_, f, origin, outcome) in &self.observations {
            if *f == forwarder && *outcome == Outcome::Dropped && !origins.contains(origin) {
                origins.push(*origin);
            }
        }
        origins
    }

    fn state_bytes(&self) -> usize {
        self.pending.len() * 48 + self.observations.len() * 40 + 128
    }

    fn occupancy(&self) -> usize {
        self.pending.len() + self.observations.len()
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.observations.clear();
        self.tally.clear();
        self.evictions = 0;
    }
}

/// `current_params` payload shared by both watchdog-backed modules.
fn watchdog_required(kb: &KnowledgeBase) -> bool {
    kb.get_bool(sense::MULTIHOP) == Some(true)
}

/// Detects selective forwarding: a forwarder dropping *part* of the
/// traffic (drop ratio in `[0.15, 0.9)`).
#[derive(Debug)]
pub struct SelectiveForwardingModule {
    entity_budget: usize,
    watchdog: Watchdog,
    gate: AlertGate<ShortAddr>,
}

impl SelectiveForwardingModule {
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
        SelectiveForwardingModule {
            entity_budget,
            watchdog: Watchdog::new(entity_budget),
            gate: AlertGate::bounded(Duration::from_secs(15), entity_budget),
        }
    }
}

impl Default for SelectiveForwardingModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for SelectiveForwardingModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("SelectiveForwardingModule", AttackKind::SelectiveForwarding)
            .heavy()
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .reads_activation(sense::MULTIHOP, ValueType::Bool)
            .reads(sense::CTP_ROOT, ValueType::Text)
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn required(&self, kb: &KnowledgeBase) -> bool {
        watchdog_required(kb)
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        self.watchdog.on_packet(ctx, packet);
        self.watchdog.expire(packet.timestamp);
        self.evaluate(ctx, packet.timestamp);
    }

    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now;
        self.watchdog.expire(now);
        self.evaluate(ctx, now);
    }

    fn state_bytes(&self) -> usize {
        self.watchdog.state_bytes()
    }

    fn occupancy(&self) -> usize {
        self.watchdog.occupancy()
    }

    fn evictions(&self) -> u64 {
        self.watchdog.evictions + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.watchdog.clear();
        self.gate.clear();
    }
}

impl SelectiveForwardingModule {
    fn evaluate(&mut self, ctx: &mut ModuleCtx<'_>, now: Timestamp) {
        for (forwarder, drops, total) in self.watchdog.ratios() {
            let ratio = drops as f64 / total as f64;
            if (0.15..0.9).contains(&ratio) && self.gate.permit(forwarder, now) {
                ctx.raise(
                    Alert::new(
                        now,
                        AttackKind::SelectiveForwarding,
                        "SelectiveForwardingModule",
                    )
                    .with_suspect(Entity::from(forwarder))
                    .with_details(format!("dropped {drops}/{total} overheard relays")),
                );
            }
        }
    }
}

/// Detects blackholes: a forwarder dropping (essentially) everything
/// (drop ratio ≥ 0.9). Publishes collective `DroppedOrigins@<forwarder>`
/// knowggets for wormhole correlation across Kalis nodes.
#[derive(Debug)]
pub struct BlackholeModule {
    entity_budget: usize,
    watchdog: Watchdog,
    gate: AlertGate<ShortAddr>,
}

impl BlackholeModule {
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
        BlackholeModule {
            entity_budget,
            watchdog: Watchdog::new(entity_budget),
            gate: AlertGate::bounded(Duration::from_secs(15), entity_budget),
        }
    }
}

impl Default for BlackholeModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for BlackholeModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("BlackholeModule", AttackKind::Blackhole).heavy()
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .reads_activation(sense::MULTIHOP, ValueType::Bool)
            .reads(sense::CTP_ROOT, ValueType::Text)
            .reads_per_entity(super::wormhole_confirmed_label(), ValueType::Bool)
            .writes_collective(labels::DROPPED_ORIGINS, ValueType::Text)
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn required(&self, kb: &KnowledgeBase) -> bool {
        watchdog_required(kb)
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        self.watchdog.on_packet(ctx, packet);
        self.watchdog.expire(packet.timestamp);
        self.evaluate(ctx, packet.timestamp);
    }

    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now;
        self.watchdog.expire(now);
        self.evaluate(ctx, now);
    }

    fn state_bytes(&self) -> usize {
        self.watchdog.state_bytes()
    }

    fn occupancy(&self) -> usize {
        self.watchdog.occupancy()
    }

    fn evictions(&self) -> u64 {
        self.watchdog.evictions + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.watchdog.clear();
        self.gate.clear();
    }
}

impl BlackholeModule {
    fn evaluate(&mut self, ctx: &mut ModuleCtx<'_>, now: Timestamp) {
        for (forwarder, drops, total) in self.watchdog.ratios() {
            let ratio = drops as f64 / total as f64;
            if ratio < 0.9 {
                continue;
            }
            let origins = self.watchdog.dropped_origins(forwarder);
            // Publish the evidence collectively even while the alert is
            // cooling down — peers correlate continuously.
            let mut names: Vec<String> = origins.iter().map(|o| o.to_string()).collect();
            names.sort_unstable();
            ctx.kb.insert_about_collective(
                labels::DROPPED_ORIGINS,
                Entity::from(forwarder),
                names.join(","),
            );
            // Classification refinement: once collective correlation has
            // confirmed this endpoint as half of a wormhole, stop
            // reporting it as a plain blackhole.
            let confirmed_wormhole = ctx
                .kb
                .get_about(super::wormhole_confirmed_label(), &Entity::from(forwarder))
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            if !confirmed_wormhole && self.gate.permit(forwarder, now) {
                ctx.raise(
                    Alert::new(now, AttackKind::Blackhole, "BlackholeModule")
                        .with_suspect(Entity::from(forwarder))
                        .with_details(format!("dropped {drops}/{total} overheard relays")),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use kalis_packets::Medium;

    const LEAF: ShortAddr = ShortAddr(3);
    const FORWARDER: ShortAddr = ShortAddr(2);
    const ROOT: ShortAddr = ShortAddr(1);

    fn kb_multihop() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.insert(sense::MULTIHOP, true);
        kb.insert(sense::CTP_ROOT, ROOT.to_string());
        kb
    }

    fn data_to(
        ms: u64,
        mac_src: ShortAddr,
        mac_dst: ShortAddr,
        origin: ShortAddr,
        seq: u8,
        thl: u8,
    ) -> CapturedPacket {
        let raw = kalis_netsim::craft::ctp_data(mac_src, mac_dst, seq, origin, seq, thl, b"r");
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ieee802154,
            Some(-50.0),
            "t",
            raw,
        )
    }

    fn run(
        module: &mut dyn Module,
        kb: &mut KnowledgeBase,
        caps: Vec<CapturedPacket>,
        tick_ms: u64,
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
        let mut ctx = ModuleCtx {
            now: Timestamp::from_millis(tick_ms),
            kb,
            alerts: &mut alerts,
        };
        module.on_tick(&mut ctx);
        alerts
    }

    /// Leaf sends to forwarder; forwarder relays only even-numbered
    /// frames → drop ratio 0.5 → selective forwarding.
    #[test]
    fn selective_forwarding_detected_at_half_drop_rate() {
        let mut module = SelectiveForwardingModule::new();
        let mut kb = kb_multihop();
        let mut caps = Vec::new();
        for i in 0..10u8 {
            let t = u64::from(i) * 1000;
            caps.push(data_to(t, LEAF, FORWARDER, LEAF, i, 0));
            if i % 2 == 0 {
                caps.push(data_to(t + 100, FORWARDER, ROOT, LEAF, i, 1));
            }
        }
        let alerts = run(&mut module, &mut kb, caps, 12_000);
        assert!(!alerts.is_empty());
        assert_eq!(alerts[0].attack, AttackKind::SelectiveForwarding);
        assert_eq!(alerts[0].suspects, vec![Entity::from(FORWARDER)]);
    }

    #[test]
    fn honest_forwarder_raises_nothing() {
        let mut module = SelectiveForwardingModule::new();
        let mut bh = BlackholeModule::new();
        let mut kb = kb_multihop();
        let mut caps = Vec::new();
        for i in 0..10u8 {
            let t = u64::from(i) * 1000;
            caps.push(data_to(t, LEAF, FORWARDER, LEAF, i, 0));
            caps.push(data_to(t + 100, FORWARDER, ROOT, LEAF, i, 1));
        }
        assert!(run(&mut module, &mut kb, caps.clone(), 12_000).is_empty());
        assert!(run(&mut bh, &mut kb, caps, 12_000).is_empty());
    }

    #[test]
    fn blackhole_detected_at_total_drop_and_publishes_collective_evidence() {
        let mut module = BlackholeModule::new();
        let mut kb = kb_multihop();
        let caps: Vec<_> = (0..8u8)
            .map(|i| data_to(u64::from(i) * 1000, LEAF, FORWARDER, LEAF, i, 0))
            .collect();
        let alerts = run(&mut module, &mut kb, caps, 10_000);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attack, AttackKind::Blackhole);
        let evidence = kb.get_about(labels::DROPPED_ORIGINS, &Entity::from(FORWARDER));
        assert_eq!(evidence.map(|v| v.as_text()), Some(LEAF.to_string()));
        assert!(
            !kb.drain_dirty_collective().is_empty(),
            "evidence is shared collectively"
        );
    }

    #[test]
    fn frames_to_the_root_are_not_watchdogged() {
        let mut module = BlackholeModule::new();
        let mut kb = kb_multihop();
        // The root consumes: no relay expected, no drops recorded.
        let caps: Vec<_> = (0..8u8)
            .map(|i| data_to(u64::from(i) * 1000, FORWARDER, ROOT, LEAF, i, 1))
            .collect();
        assert!(run(&mut module, &mut kb, caps, 10_000).is_empty());
    }

    #[test]
    fn selective_module_stays_quiet_on_blackhole_ratio() {
        // Distinct severity bands: ratio 1.0 belongs to the blackhole
        // module, not the selective-forwarding one.
        let mut module = SelectiveForwardingModule::new();
        let mut kb = kb_multihop();
        let caps: Vec<_> = (0..8u8)
            .map(|i| data_to(u64::from(i) * 1000, LEAF, FORWARDER, LEAF, i, 0))
            .collect();
        assert!(run(&mut module, &mut kb, caps, 10_000).is_empty());
    }

    #[test]
    fn activation_requires_multihop_knowledge() {
        let module = SelectiveForwardingModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        assert!(!module.required(&kb));
        kb.insert(sense::MULTIHOP, false);
        assert!(
            !module.required(&kb),
            "selective forwarding impossible in single-hop"
        );
        kb.insert(sense::MULTIHOP, true);
        assert!(module.required(&kb));
    }
}
