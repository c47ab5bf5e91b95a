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
//!
//! Both read CTP frames only. The deadline clock advances on those and on
//! ticks: a verdict that falls due between two CTP frames is raised at
//! the next CTP frame or tick, whichever comes first.

use std::collections::VecDeque;
use std::time::Duration;

use kalis_packets::ctp::CtpFrame;
use kalis_packets::{CapturedPacket, Entity, ShortAddr, Timestamp};

use crate::alert::{Alert, AttackKind};
use crate::bounded::{budget_params, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET};
use crate::knowledge::KnowValue;
use crate::modules::{
    FrameClass, KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec, ValueType,
};
use crate::sensing::labels as sense;
use crate::taxonomy::Feature;

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

/// Whether `packet` carries a CTP frame: what the watchdogs read, and all
/// that advances their deadline clock between ticks.
fn is_ctp(packet: &CapturedPacket) -> bool {
    packet.decoded().is_some_and(|pkt| pkt.ctp().is_some())
}

/// The shared watchdog state machine.
#[derive(Debug)]
struct Watchdog {
    budget: usize,
    pending: VecDeque<Pending>,
    observations: VecDeque<(Timestamp, ShortAddr, ShortAddr, Outcome)>, // (ts, forwarder, origin, outcome)
    evictions: u64,
    /// `(forwarder, drops, total)` over `observations`, recounted by
    /// [`Watchdog::expire`] into the same buffer: counting allocates
    /// nothing.
    tally: Vec<(ShortAddr, usize, usize)>,
    /// `observations` changed since `tally` was counted. Set where a
    /// relay is matched, an expectation expires, an observation ages out
    /// and by `clear`; nothing else moves the ledger.
    moved: bool,
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
            moved: false,
        }
    }

    fn enforce_budget(&mut self) {
        while self.pending.len() > self.budget {
            self.pending.pop_front();
            self.evictions += 1;
        }
        // Only a push can put the ledger over budget, and every push
        // marks it moved: the spill needs no mark of its own.
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
                self.moved = true;
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

    /// Turn overdue expectations into drops, age observations out of the
    /// window, and bring `tally` up to date. Returns whether the ledger
    /// moved since the last call: while it has not, `tally` and
    /// [`Watchdog::dropped_origins`] stand as they were.
    fn expire(&mut self, now: Timestamp) -> bool {
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
            self.moved = true;
        }
        while let Some((ts, ..)) = self.observations.front() {
            if now.saturating_since(*ts) > RATIO_WINDOW {
                self.observations.pop_front();
                self.moved = true;
            } else {
                break;
            }
        }
        self.enforce_budget();
        let moved = std::mem::take(&mut self.moved);
        if moved {
            self.recount();
        }
        moved
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
        self.moved = true;
        self.evictions = 0;
    }
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
            .needs(&[Feature::MultiHop])
            .reads(FrameClass::CTP)
            .heavy()
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .reads(sense::CTP_ROOT, ValueType::Text)
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        if !is_ctp(packet) {
            return;
        }
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
        ModuleDescriptor::detection("BlackholeModule", AttackKind::Blackhole)
            .needs(&[Feature::MultiHop])
            .reads(FrameClass::CTP)
            .heavy()
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            .reads(sense::CTP_ROOT, ValueType::Text)
            .reads_per_entity(super::wormhole_confirmed_label(), ValueType::Bool)
            .writes_collective(labels::DROPPED_ORIGINS, ValueType::Text)
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        if !is_ctp(packet) {
            return;
        }
        self.watchdog.on_packet(ctx, packet);
        let moved = self.watchdog.expire(packet.timestamp);
        self.evaluate(ctx, packet.timestamp, moved);
    }

    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now;
        let moved = self.watchdog.expire(now);
        self.evaluate(ctx, now, moved);
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
    /// `moved`: what [`Watchdog::expire`] just returned.
    fn evaluate(&mut self, ctx: &mut ModuleCtx<'_>, now: Timestamp, moved: bool) {
        for (forwarder, drops, total) in self.watchdog.ratios() {
            let ratio = drops as f64 / total as f64;
            if ratio < 0.9 {
                continue;
            }
            // Publish the evidence collectively even while the alert is
            // cooling down — peers correlate continuously. The text is a
            // function of the ledger, so while the ledger stands the
            // write would change nothing — unless the Knowledge Base let
            // the knowgget go (an entity eviction purged it), which only
            // the Knowledge Base can say.
            let suspect = Entity::from(forwarder);
            if moved || !(ctx.kb).holds_about(labels::DROPPED_ORIGINS, &suspect) {
                let origins = self.watchdog.dropped_origins(forwarder);
                let mut names: Vec<String> = origins.iter().map(|o| o.to_string()).collect();
                names.sort_unstable();
                let about = suspect.clone();
                (ctx.kb).insert_about_collective(labels::DROPPED_ORIGINS, about, names.join(","));
            }
            // Classification refinement: once collective correlation has
            // confirmed this endpoint as half of a wormhole, stop
            // reporting it as a plain blackhole.
            let confirmed_wormhole = ctx
                .kb
                .get_about(super::wormhole_confirmed_label(), &suspect)
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            if !confirmed_wormhole && self.gate.permit(forwarder, now) {
                ctx.raise(
                    Alert::new(now, AttackKind::Blackhole, "BlackholeModule")
                        .with_suspect(suspect)
                        .with_details(format!("dropped {drops}/{total} overheard relays")),
                );
            }
        }
    }
}

/// The ledger-moved rule against models a few lines long, inside the
/// tests: `tally` against a fresh [`Watchdog::recount`] after every step,
/// and [`BlackholeModule`] against itself told "moved" on every call, so
/// that it derives and writes its evidence each time as it used to —
/// same alerts, same Knowledge Base, same sync outbox, an entity budget
/// of one purging the evidence between calls.
#[cfg(test)]
mod differential {
    use kalis_packets::Medium;
    use proptest::prelude::*;

    use super::*;
    use crate::id::KalisId;
    use crate::knowledge::{Knowgget, KnowledgeBase};

    const ROOT: ShortAddr = ShortAddr(1);
    const FORWARDERS: [ShortAddr; 2] = [ShortAddr(2), ShortAddr(3)];
    const ORIGINS: [ShortAddr; 3] = [ShortAddr(10), ShortAddr(11), ShortAddr(12)];
    /// Small enough that six frames spill both ledgers.
    const BUDGET: usize = 6;

    #[derive(Debug, Clone)]
    enum Step {
        /// `gap` ms on, origin `.1` hands frame `.2` to forwarder `.0`…
        Data(usize, usize, u8, u64),
        /// …and the forwarder passes it on to the root.
        Relay(usize, usize, u8, u64),
        Tick(u64),
        Reset,
        /// Entity-scoped knowledge about someone else: with an entity
        /// budget of one, the evidence is purged.
        Other(u16, bool),
        /// `WormholeConfirmed` about a forwarder.
        Confirmed(usize, bool),
        /// The sync layer takes the outbox.
        Drain,
    }

    fn step() -> impl Strategy<Value = Step> {
        let frame = || (0..FORWARDERS.len(), 0..ORIGINS.len(), 0..3u8, 0..400u64);
        let tick = |ms: std::ops::Range<u64>| ms.prop_map(Step::Tick);
        prop_oneof![
            frame().prop_map(|(f, o, seq, gap)| Step::Data(f, o, seq, gap)),
            frame().prop_map(|(f, o, seq, gap)| Step::Data(f, o, seq, gap)),
            frame().prop_map(|(f, o, seq, gap)| Step::Data(f, o, seq, gap)),
            frame().prop_map(|(f, o, seq, gap)| Step::Relay(f, o, seq, gap)),
            // Back to back, around the relay deadline, the gate's 15 s
            // and the 30 s window.
            tick(0..2),
            tick(0..2),
            tick(799..802),
            tick(799..802),
            tick(14_999..15_002),
            tick(29_999..30_002),
            Just(Step::Reset),
            (20..22u16, any::<bool>()).prop_map(|(entity, value)| Step::Other(entity, value)),
            (20..22u16, any::<bool>()).prop_map(|(entity, value)| Step::Other(entity, value)),
            (0..FORWARDERS.len(), any::<bool>()).prop_map(|(f, v)| Step::Confirmed(f, v)),
            Just(Step::Drain),
        ]
    }

    fn capture(
        now: Timestamp,
        src: ShortAddr,
        dst: ShortAddr,
        origin: usize,
        seq: u8,
    ) -> CapturedPacket {
        let thl = u8::from(src != ORIGINS[origin]);
        let raw = kalis_netsim::craft::ctp_data(src, dst, seq, ORIGINS[origin], seq, thl, b"r");
        CapturedPacket::capture(now, Medium::Ieee802154, Some(-50.0), "t", raw)
    }

    /// The frame a `Data` or `Relay` step puts on the air at `now`.
    fn frame(step: &Step, now: Timestamp) -> Option<CapturedPacket> {
        match *step {
            Step::Data(f, o, seq, _) => Some(capture(now, ORIGINS[o], FORWARDERS[f], o, seq)),
            Step::Relay(f, o, seq, _) => Some(capture(now, FORWARDERS[f], ROOT, o, seq)),
            _ => None,
        }
    }

    fn kb(entity_budget: usize) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.set_entity_budget(entity_budget);
        kb.insert(sense::MULTIHOP, true);
        kb.insert(sense::CTP_ROOT, ROOT.to_string());
        kb
    }

    /// Six frames to the first forwarder, none passed on: a blackhole
    /// verdict stands a second after the last.
    fn blackhole() -> Vec<Step> {
        let mut steps: Vec<Step> = (0..6).map(|seq| Step::Data(0, 0, seq, 100)).collect();
        steps.push(Step::Tick(1_000));
        steps
    }

    proptest! {
        #[test]
        fn the_tally_is_a_fresh_recount_after_every_step(
            steps in proptest::collection::vec(step(), 1..120),
        ) {
            let mut kb = kb(4);
            let mut alerts = Vec::new();
            let mut watchdog = Watchdog::new(BUDGET);
            let mut now = Timestamp::ZERO;
            for step in blackhole().iter().chain(&steps) {
                let ledger = watchdog.observations.clone();
                match *step {
                    Step::Data(.., gap) | Step::Relay(.., gap) | Step::Tick(gap) => {
                        now += Duration::from_millis(gap);
                    }
                    Step::Reset => watchdog.clear(),
                    Step::Other(..) | Step::Confirmed(..) | Step::Drain => continue,
                }
                if let Some(packet) = frame(step, now) {
                    let ctx = ModuleCtx { now, kb: &mut kb, alerts: &mut alerts };
                    watchdog.on_packet(&ctx, &packet);
                }
                let moved = watchdog.expire(now);
                // A ledger that differs moved (one that moved may read
                // the same: an outcome spilled by its twin).
                prop_assert!(moved || ledger == watchdog.observations);
                let tally = watchdog.tally.clone();
                watchdog.recount();
                prop_assert_eq!(&tally, &watchdog.tally);
                prop_assert!(!watchdog.expire(now), "nothing moved since");
            }
        }
    }

    type Told = (Timestamp, Vec<Entity>, String);

    /// One module with its Knowledge Base, as a node holds them.
    struct Side {
        module: BlackholeModule,
        kb: KnowledgeBase,
        alerts: Vec<Alert>,
        /// Whether every call derives and writes the evidence.
        every_call: bool,
    }

    impl Side {
        fn new(every_call: bool) -> Side {
            Side {
                module: BlackholeModule::build(BUDGET),
                kb: kb(1),
                alerts: Vec::new(),
                every_call,
            }
        }

        /// `on_packet` (`on_tick`, without a packet) at `now`.
        fn call(&mut self, now: Timestamp, packet: Option<&CapturedPacket>) {
            let mut ctx = ModuleCtx {
                now,
                kb: &mut self.kb,
                alerts: &mut self.alerts,
            };
            match (self.every_call, packet) {
                (false, Some(packet)) => self.module.on_packet(&mut ctx, packet),
                (false, None) => self.module.on_tick(&mut ctx),
                (true, packet) => {
                    if let Some(packet) = packet {
                        self.module.watchdog.on_packet(&ctx, packet);
                    }
                    self.module.watchdog.expire(now);
                    self.module.evaluate(&mut ctx, now, true);
                }
            }
        }

        /// Every alert as `(time, suspects, details)`, the knowledge
        /// held, and its revision.
        fn story(&self) -> (Vec<Told>, Vec<Knowgget>, u64) {
            let alerts = (self.alerts.iter())
                .map(|alert| (alert.time, alert.suspects.clone(), alert.details.clone()))
                .collect();
            (alerts, self.kb.iter().collect(), self.kb.revision())
        }
    }

    proptest! {
        #[test]
        fn evidence_written_when_the_ledger_moved_tells_the_story_of_writing_it_every_call(
            steps in proptest::collection::vec(step(), 1..120),
        ) {
            let mut sides = [Side::new(false), Side::new(true)];
            let mut now = Timestamp::ZERO;
            for step in blackhole().iter().chain(&steps) {
                if let Step::Data(.., gap) | Step::Relay(.., gap) | Step::Tick(gap) = *step {
                    now += Duration::from_millis(gap);
                }
                let packet = frame(step, now);
                let mut outboxes = Vec::new();
                for side in &mut sides {
                    match *step {
                        Step::Data(..) | Step::Relay(..) | Step::Tick(_) => {
                            side.call(now, packet.as_ref());
                        }
                        Step::Reset => side.module.reset(),
                        Step::Other(entity, value) => {
                            let about = Entity::from(ShortAddr(entity));
                            side.kb.insert_about("SignalStrength", about, value);
                        }
                        Step::Confirmed(f, value) => {
                            let about = Entity::from(FORWARDERS[f]);
                            let label = super::super::wormhole_confirmed_label();
                            side.kb.insert_about(label, about, value);
                        }
                        Step::Drain => outboxes.push(side.kb.drain_dirty_collective()),
                    }
                }
                let [moved, every_call] = &sides;
                prop_assert_eq!(moved.story(), every_call.story());
                prop_assert!(outboxes.windows(2).all(|pair| pair[0] == pair[1]));
            }
            // What is still owed to the peers is owed alike.
            let [moved, every_call] = &mut sides;
            prop_assert_eq!(moved.kb.drain_dirty_collective(), every_call.kb.drain_dirty_collective());
        }
    }

    /// The prelude's verdict does stand, and the purge the second test
    /// leans on does happen: the cases above are not vacuous.
    #[test]
    fn a_purged_evidence_knowgget_is_written_again_by_the_next_idle_tick() {
        let mut side = Side::new(false);
        let mut now = Timestamp::ZERO;
        for step in blackhole() {
            if let Step::Data(.., gap) | Step::Tick(gap) = step {
                now += Duration::from_millis(gap);
            }
            side.call(now, frame(&step, now).as_ref());
        }
        let suspect = Entity::from(FORWARDERS[0]);
        let evidence = |side: &Side| side.kb.get_about(labels::DROPPED_ORIGINS, &suspect);
        assert_eq!(
            evidence(&side),
            Some(KnowValue::Text(ORIGINS[0].to_string()))
        );
        assert_eq!(side.alerts.len(), 1);
        // An idle tick: nothing written, nothing changed.
        let revision = side.kb.revision();
        side.call(now + Duration::from_millis(10), None);
        assert_eq!(side.kb.revision(), revision);
        // Someone else takes the one entity slot; the next idle tick
        // puts the evidence back.
        (side.kb).insert_about("SignalStrength", Entity::from(ShortAddr(20)), true);
        assert_eq!(evidence(&side), None);
        side.call(now + Duration::from_millis(20), None);
        assert_eq!(
            evidence(&side),
            Some(KnowValue::Text(ORIGINS[0].to_string()))
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
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
}
