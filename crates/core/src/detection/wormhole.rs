//! Wormhole detection through collective knowledge (paper §VI-D).
//!
//! Two colluders B1/B2 tunnel traffic between network regions: the Kalis
//! node near B1 sees a blackhole (traffic enters B1 and vanishes); the
//! Kalis node near B2 sees B2 *sourcing* traffic whose origins were never
//! heard locally. Neither view alone identifies the wormhole. This module
//! publishes the local half of the evidence (`ExoticOrigins@B2`,
//! collective) and correlates it against peers' `DroppedOrigins@B1`
//! knowggets (published by the blackhole detector): overlapping origin
//! sets across *different* Kalis creators ⇒ wormhole.
//!
//! The correlation runs on the tick, and its inputs settle early and
//! then all but stand still, so the module keeps its last verdict and
//! correlates again only when the Knowledge Base says one of the two
//! labels changed ([`KnowledgeBase::last_changed`]); every tick still
//! offers the verdict to the alert gate. Its `WormholeConfirmed` writes
//! are made again only once an entity eviction may have purged one.

use std::borrow::Cow;
use std::collections::BTreeSet; // kalis-lint: allow(KL301): values capped at ORIGIN_CAP
use std::time::Duration;

use kalis_packets::ctp::CtpFrame;
use kalis_packets::{CapturedPacket, Entity};

use crate::alert::{Alert, AttackKind};
use crate::bounded::{
    budget_params, BoundedMap, Touched, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET,
};
use crate::id::KalisId;
use crate::knowledge::{KnowValue, KnowledgeBase};
use crate::modules::{
    FrameClass, KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec, ValueType,
};
use crate::taxonomy::Feature;

use super::labels;
use super::util::AlertGate;

/// Exotic origins sourced by one node before evidence is published.
const EXOTIC_THRESHOLD: usize = 2;
/// Shared origins between dropped and exotic sets before alerting.
const OVERLAP_THRESHOLD: usize = 2;
/// Exotic origins remembered per forwarder: enough for correlation
/// (OVERLAP_THRESHOLD is 2) with a hard ceiling against origin spray.
const ORIGIN_CAP: usize = 32;

/// Per-entity knowgget recording a confirmed wormhole endpoint; the
/// blackhole detector consults it to refine its own classification (a
/// confirmed wormhole endpoint is no longer reported as a plain
/// blackhole). Local: the blackhole reads this node's copy only, and
/// each node correlates the same synced evidence to its own verdict.
pub const WORMHOLE_CONFIRMED: &str = "WormholeConfirmed";

/// The collaborative wormhole detection module.
#[derive(Debug)]
pub struct WormholeModule {
    entity_budget: usize,
    /// Identities heard *originating* locally (THL == 0 transmissions),
    /// LRU-bounded: an evicted-then-relayed local origin is re-classified
    /// exotic (spurious evidence, filtered by cross-creator correlation).
    local_origins: BoundedMap<Entity, ()>,
    /// Origins relayed by each forwarder that were never heard locally.
    // kalis-lint: allow(KL301): each set capped at ORIGIN_CAP before insert
    exotic: BoundedMap<Entity, BTreeSet<Entity>>,
    /// What `state_bytes()` counts for `local_origins` and `exotic`, kept
    /// as they change so that the per-packet read walks neither.
    origin_bytes: usize,
    gate: AlertGate<(Entity, Entity)>,
    /// The last correlation, kept while its inputs stand.
    verdict: Option<Verdict>,
}

/// What one correlation pass found.
#[derive(Debug)]
struct Verdict {
    /// `last_changed` of `DroppedOrigins` and `ExoticOrigins` when the
    /// pass read them.
    read_at: (u64, u64),
    /// In correlation order: dropped-at by key, then exotic-at by key.
    tunnels: Vec<Tunnel>,
    /// What `state_bytes()` counts for this.
    bytes: usize,
    /// The Knowledge Base's `entity_evictions()` right after this
    /// verdict's `WormholeConfirmed` writes; `None` before the first.
    confirmed_at: Option<u64>,
}

/// One confirmed pair of endpoints.
#[derive(Debug)]
struct Tunnel {
    /// Where the origins were dropped, and who saw it.
    b1: Entity,
    dropped_per: KalisId,
    /// Where they resurfaced, and who saw that.
    b2: Entity,
    exotic_per: KalisId,
    /// Origins in both lists.
    overlap: usize,
}

impl WormholeModule {
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
        WormholeModule {
            entity_budget,
            local_origins: BoundedMap::new(entity_budget),
            exotic: BoundedMap::new(entity_budget),
            origin_bytes: 0,
            gate: AlertGate::bounded(Duration::from_secs(30), entity_budget),
            verdict: None,
        }
    }

    /// `origin_bytes` recomputed by walking both maps.
    fn recount_origin_bytes(&self) -> usize {
        let local = self.local_origins.iter().map(|(o, _)| footprint(o));
        let exotic = self.exotic.iter().map(|(_, set)| set_footprint(set));
        local.chain(exotic).sum()
    }
}

/// What one remembered origin costs in `state_bytes()`.
fn footprint(origin: &Entity) -> usize {
    origin.as_str().len() + 24
}

/// What a forwarder's exotic-origin set costs besides its origins.
const SET_BYTES: usize = 48;

// kalis-lint: allow(KL301): reads one exotic set, capped at ORIGIN_CAP
fn set_footprint(set: &BTreeSet<Entity>) -> usize {
    set.iter().map(footprint).sum::<usize>() + SET_BYTES
}

impl Default for WormholeModule {
    fn default() -> Self {
        Self::new()
    }
}

// kalis-lint: allow(KL301): parses one capped knowgget text value
fn parse_set(text: &str) -> BTreeSet<&str> {
    text.split(',').filter(|s| !s.is_empty()).collect()
}

/// The origin-list text of every knowgget in `found`, borrowed where the
/// value is text already (a one-origin list reads back as a number).
// kalis-lint: allow(KL301): per-tick scratch, one text per synced knowgget
fn origin_texts(found: &[(KalisId, Option<Entity>, KnowValue)]) -> Vec<Cow<'_, str>> {
    (found.iter())
        .map(|(_, _, value)| match value {
            KnowValue::Text(list) => Cow::Borrowed(list.as_str()),
            scalar => Cow::Owned(scalar.to_wire()),
        })
        .collect()
}

impl Verdict {
    /// Correlate across creators: dropped-at-B1 (a peer's view) ×
    /// exotic-at-B2 (any creator's, ours included). `read_at`: the two
    /// labels' `last_changed` as of this pass.
    fn read(kb: &KnowledgeBase, read_at: (u64, u64)) -> Verdict {
        let dropped = kb.get_all_creators(labels::DROPPED_ORIGINS);
        let exotic = kb.get_all_creators(labels::EXOTIC_ORIGINS);
        // Every origin list is split once per pass, not once per pair.
        let (d_texts, e_texts) = (origin_texts(&dropped), origin_texts(&exotic));
        // kalis-lint: allow(KL301): per-pass scratch over synced knowggets
        let d_sets: Vec<BTreeSet<&str>> = d_texts.iter().map(|t| parse_set(t)).collect();
        // kalis-lint: allow(KL301): per-pass scratch over synced knowggets
        let e_sets: Vec<BTreeSet<&str>> = e_texts.iter().map(|t| parse_set(t)).collect();
        // kalis-lint: allow(KL301): per pair of synced knowggets; kept only within the entity budget
        let mut tunnels = Vec::new();
        let mut bytes = 0;
        for ((d_creator, d_entity, _), d_set) in dropped.iter().zip(&d_sets) {
            let Some(b1) = d_entity else { continue };
            for ((e_creator, e_entity, _), e_set) in exotic.iter().zip(&e_sets) {
                if d_creator == e_creator {
                    continue; // one vantage point alone is not a wormhole
                }
                let Some(b2) = e_entity else { continue };
                if b1 == b2 {
                    continue;
                }
                let overlap = d_set.intersection(e_set).count();
                if overlap >= OVERLAP_THRESHOLD {
                    let ids = d_creator.as_str().len() + e_creator.as_str().len();
                    bytes += b1.as_str().len() + b2.as_str().len() + ids + 64;
                    tunnels.push(Tunnel {
                        b1: b1.clone(),
                        dropped_per: d_creator.clone(),
                        b2: b2.clone(),
                        exotic_per: e_creator.clone(),
                        overlap,
                    });
                }
            }
        }
        Verdict {
            read_at,
            tunnels,
            bytes,
            confirmed_at: None,
        }
    }
}

impl Module for WormholeModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("WormholeModule", AttackKind::Wormhole)
            .needs(&[Feature::MultiHop])
            .reads(FrameClass::CTP)
            .heavy()
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            // Degraded (local-only) sync mode suppresses collective
            // correlation; produced by the node's sync layer, not by a
            // module.
            .reads(crate::knowledge::DEGRADED_LABEL, ValueType::Bool)
            .reads_collective(labels::DROPPED_ORIGINS, ValueType::Text)
            .reads_collective(labels::EXOTIC_ORIGINS, ValueType::Text)
            .writes_collective(labels::EXOTIC_ORIGINS, ValueType::Text)
            .writes_per_entity(WORMHOLE_CONFIRMED, ValueType::Bool)
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(pkt) = packet.decoded() else { return };
        let Some(CtpFrame::Data(data)) = pkt.ctp() else {
            return;
        };
        let Some(tx) = pkt.transmitter() else { return };
        let origin = Entity::from(data.origin);
        if data.thl == 0 {
            // Heard the origin itself transmitting: it is local.
            if let Touched::Inserted(_, evicted) =
                self.local_origins.touch_or_insert(&origin, || ())
            {
                self.origin_bytes += footprint(&origin);
                if let Some((lost, ())) = evicted {
                    self.origin_bytes -= footprint(&lost);
                }
            }
            return;
        }
        // A relay of traffic whose origin we never heard: exotic.
        if !self.local_origins.contains_key(&origin) {
            // kalis-lint: allow(KL301): set growth gated on ORIGIN_CAP below
            let set = match self.exotic.touch_or_insert(&tx, BTreeSet::new) {
                Touched::Held(set) => set,
                Touched::Inserted(set, evicted) => {
                    self.origin_bytes += SET_BYTES;
                    if let Some((_, lost)) = evicted {
                        self.origin_bytes -= set_footprint(&lost);
                    }
                    set
                }
            };
            if set.len() >= ORIGIN_CAP {
                return;
            }
            let bytes = footprint(&origin);
            if !set.insert(origin) {
                return;
            }
            self.origin_bytes += bytes;
            if set.len() >= EXOTIC_THRESHOLD {
                let mut joined = String::new();
                for origin in set.iter() {
                    if !joined.is_empty() {
                        joined.push(',');
                    }
                    joined.push_str(origin.as_str());
                }
                ctx.kb
                    .insert_about_collective(labels::EXOTIC_ORIGINS, tx, joined);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        if ctx.kb.get_bool(crate::knowledge::DEGRADED_LABEL) == Some(true) {
            // Degraded local-only mode: peer knowledge is stale, so a
            // cross-creator correlation would be built on it. Suppress
            // the collaborative verdict until sync recovers.
            return;
        }
        // The verdict stands while neither label changed since it was
        // read, and is kept only once both changes are behind the newest
        // one: a label the Knowledge Base does not watch reads as
        // changed just now, every time.
        let kb = &*ctx.kb;
        let read_at = (
            kb.last_changed(labels::DROPPED_ORIGINS),
            kb.last_changed(labels::EXOTIC_ORIGINS),
        );
        let settled = read_at.0 < kb.revision() && read_at.1 < kb.revision();
        let mut verdict = match self.verdict.take() {
            Some(standing) if settled && standing.read_at == read_at => standing,
            _ => Verdict::read(kb, read_at),
        };
        let now = ctx.now;
        let mut alerts = Vec::new();
        for tunnel in &verdict.tunnels {
            let Tunnel {
                b1, b2, overlap, ..
            } = tunnel;
            if self.gate.permit((b1.clone(), b2.clone()), now) {
                let (d_creator, e_creator) = (&tunnel.dropped_per, &tunnel.exotic_per);
                alerts.push(
                    Alert::new(now, AttackKind::Wormhole, "WormholeModule")
                        .with_suspect(b1.clone())
                        .with_suspect(b2.clone())
                        .with_details(format!(
                            "{overlap} origins dropped at {b1} (per {d_creator}) resurface at {b2} (per {e_creator})"
                        )),
                );
            }
        }
        // What a standing verdict confirmed is still held, unless an
        // entity eviction purged it: the module is the only writer of its
        // own `WormholeConfirmed`.
        if verdict.confirmed_at != Some(ctx.kb.entity_evictions()) {
            for tunnel in &verdict.tunnels {
                for endpoint in [&tunnel.b1, &tunnel.b2] {
                    (ctx.kb).insert_about(WORMHOLE_CONFIRMED, endpoint.clone(), true);
                }
            }
            verdict.confirmed_at = Some(ctx.kb.entity_evictions());
        }
        for alert in alerts {
            ctx.raise(alert);
        }
        if settled && verdict.tunnels.len() <= self.entity_budget {
            self.verdict = Some(verdict);
        }
    }

    fn state_bytes(&self) -> usize {
        debug_assert_eq!(self.origin_bytes, self.recount_origin_bytes());
        self.origin_bytes + self.verdict.as_ref().map_or(0, |verdict| verdict.bytes) + 128
    }

    fn occupancy(&self) -> usize {
        self.local_origins.len() + self.exotic.len()
    }

    fn evictions(&self) -> u64 {
        self.local_origins.evictions() + self.exotic.evictions() + self.gate.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.local_origins.clear();
        self.exotic.clear();
        self.origin_bytes = 0;
        self.gate.clear();
        self.verdict = None;
    }
}

/// The module that keeps its verdict against the one that correlated on
/// every tick ([`reference_on_tick`], the pre-change `on_tick` verbatim):
/// a module and a Knowledge Base each, the same history applied to both,
/// must raise the same alerts and leave the same knowledge after every
/// tick. This test is the sole oracle for "a kept verdict is never
/// stale": every way a `DroppedOrigins` / `ExoticOrigins` knowgget can
/// change — written, removed, purged with its entity, accepted from a
/// peer — reaches [`KnowledgeBase::last_changed`], and `reset()` and
/// degraded mode leave nothing behind that the next tick acts on.
#[cfg(test)]
mod differential {
    use std::collections::BTreeSet;
    use std::time::Duration;

    use kalis_packets::{Entity, Timestamp};
    use proptest::prelude::*;

    use super::*;
    use crate::config::ModuleDef;
    use crate::knowledge::{Knowgget, DEGRADED_LABEL};
    use crate::modules::{ModuleManager, ModuleRegistry};

    /// `WormholeModule::on_tick` before it kept a verdict.
    fn reference_on_tick(module: &mut WormholeModule, ctx: &mut ModuleCtx<'_>) {
        if ctx.kb.get_bool(crate::knowledge::DEGRADED_LABEL) == Some(true) {
            return;
        }
        // Correlate across creators: dropped-at-B1 (peer) × exotic-at-B2
        // (any creator, including us).
        let dropped = ctx.kb.get_all_creators(labels::DROPPED_ORIGINS);
        let exotic = ctx.kb.get_all_creators(labels::EXOTIC_ORIGINS);
        if dropped.is_empty() || exotic.is_empty() {
            return;
        }
        // Every origin list is split once per tick, not once per pair.
        let (d_texts, e_texts) = (origin_texts(&dropped), origin_texts(&exotic));
        let d_sets: Vec<BTreeSet<&str>> = d_texts.iter().map(|t| parse_set(t)).collect();
        let e_sets: Vec<BTreeSet<&str>> = e_texts.iter().map(|t| parse_set(t)).collect();
        let now = ctx.now;
        let mut alerts = Vec::new();
        let mut confirmed: Vec<Entity> = Vec::new();
        for ((d_creator, d_entity, _), d_set) in dropped.iter().zip(&d_sets) {
            let Some(b1) = d_entity else { continue };
            for ((e_creator, e_entity, _), e_set) in exotic.iter().zip(&e_sets) {
                if d_creator == e_creator {
                    continue; // one vantage point alone is not a wormhole
                }
                let Some(b2) = e_entity else { continue };
                if b1 == b2 {
                    continue;
                }
                let overlap = d_set.intersection(e_set).count();
                if overlap >= OVERLAP_THRESHOLD {
                    confirmed.push(b1.clone());
                    confirmed.push(b2.clone());
                    if module.gate.permit((b1.clone(), b2.clone()), now) {
                        alerts.push(
                            Alert::new(now, AttackKind::Wormhole, "WormholeModule")
                                .with_suspect(b1.clone())
                                .with_suspect(b2.clone())
                                .with_details(format!(
                                    "{overlap} origins dropped at {b1} (per {d_creator}) resurface at {b2} (per {e_creator})"
                                )),
                        );
                    }
                }
            }
        }
        for endpoint in confirmed {
            ctx.kb.insert_about(WORMHOLE_CONFIRMED, endpoint, true);
        }
        for alert in alerts {
            ctx.raise(alert);
        }
    }

    /// Few enough entities that lists collide, more than [`KB_BUDGET`] so
    /// writes purge.
    const ENTITIES: [&str; 6] = ["0x000a", "0x0014", "0x001e", "0x0028", "0x0032", "0x003c"];
    /// Origin lists: overlapping by two or more, by one, by none; a
    /// one-origin list reads back as a number.
    const LISTS: [&str; 6] = [
        "0x001e,0x001f",
        "0x001e,0x001f,0x0020",
        "0x001f,0x0020",
        "0x0020,0x0021",
        "30",
        "",
    ];
    const PEERS: [&str; 2] = ["K2", "K3"];
    /// An activation input, a per-entity label nobody watches, and the
    /// module's own confirmation: all churn the revision and the entity
    /// index.
    const OTHER: [&str; 3] = ["Multihop", "SignalStrength", WORMHOLE_CONFIRMED];
    const KB_BUDGET: usize = 4;
    const MODULE_BUDGET: usize = 16;

    #[derive(Debug, Clone)]
    enum Step {
        /// `DroppedOrigins` (`true`) or `ExoticOrigins` about an entity, by
        /// the local node (`None`) or a peer.
        Write(bool, usize, Option<usize>, usize),
        Remove(bool, usize),
        Other(usize, Option<usize>, bool),
        Degraded(bool),
        Reset,
        /// Advance the clock by this many milliseconds, then tick.
        Tick(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        let entity = || 0..ENTITIES.len();
        let peer = || proptest::option::of(0..PEERS.len());
        let write = || {
            (any::<bool>(), entity(), peer(), 0..LISTS.len())
                .prop_map(|(dropped, entity, peer, list)| Step::Write(dropped, entity, peer, list))
        };
        let tick = |ms: std::ops::Range<u64>| ms.prop_map(Step::Tick);
        prop_oneof![
            write(),
            write(),
            write(),
            (any::<bool>(), entity()).prop_map(|(dropped, entity)| Step::Remove(dropped, entity)),
            (
                0..OTHER.len(),
                proptest::option::of(entity()),
                any::<bool>()
            )
                .prop_map(|(label, entity, value)| Step::Other(label, entity, value)),
            (0..OTHER.len(), entity().prop_map(Some), any::<bool>())
                .prop_map(|(label, entity, value)| Step::Other(label, entity, value)),
            any::<bool>().prop_map(Step::Degraded),
            Just(Step::Reset),
            // Back to back, a second apart, and around the gate's 30 s.
            tick(0..2),
            tick(999..1_002),
            tick(999..1_002),
            tick(29_999..30_002),
            tick(29_999..30_002),
            tick(60_000..90_000),
        ]
    }

    type Told = (Timestamp, Vec<Entity>, String);

    /// One module with its Knowledge Base, as a node holds them.
    struct Side {
        module: WormholeModule,
        kb: KnowledgeBase,
        alerts: Vec<Alert>,
    }

    impl Side {
        /// `in_node`: the Knowledge Base carries the subscription table the
        /// default library compiles to, as in a node; otherwise it stands
        /// alone and watches nothing.
        fn new(in_node: bool) -> Side {
            let mut kb = KnowledgeBase::new(KalisId::new("K1"));
            kb.set_entity_budget(KB_BUDGET);
            if in_node {
                let registry = ModuleRegistry::with_defaults();
                let mut manager = ModuleManager::new();
                for name in registry.names() {
                    let module = registry.build(&ModuleDef::new(name)).expect("registered");
                    manager.add(module, false);
                }
                kb.subscribe_activation(manager.subscriptions());
            }
            Side {
                module: WormholeModule::new().with_entity_budget(MODULE_BUDGET),
                kb,
                alerts: Vec::new(),
            }
        }

        fn apply(&mut self, step: &Step) {
            let label = |dropped: bool| match dropped {
                true => labels::DROPPED_ORIGINS,
                false => labels::EXOTIC_ORIGINS,
            };
            match *step {
                Step::Write(dropped, entity, None, list) => {
                    let about = Entity::from(ENTITIES[entity]);
                    (self.kb).insert_about_collective(label(dropped), about, LISTS[list]);
                }
                Step::Write(dropped, entity, Some(peer), list) => {
                    let peer = KalisId::new(PEERS[peer]);
                    let knowgget = Knowgget::about(
                        label(dropped),
                        KnowValue::Text(LISTS[list].to_owned()),
                        peer.clone(),
                        Entity::from(ENTITIES[entity]),
                    );
                    self.kb
                        .accept_remote(&peer, knowgget)
                        .expect("own knowledge");
                }
                Step::Remove(dropped, entity) => {
                    (self.kb).remove_about(label(dropped), &Entity::from(ENTITIES[entity]));
                }
                Step::Other(label, None, value) => {
                    self.kb.insert(OTHER[label], value);
                }
                // A confirmation about an entity is the module's alone to
                // write locally (what it skips rewriting rests on that):
                // this one is a peer's.
                Step::Other(label, Some(entity), value) if OTHER[label] == WORMHOLE_CONFIRMED => {
                    let peer = KalisId::new(PEERS[0]);
                    let about = Entity::from(ENTITIES[entity]);
                    let knowgget = Knowgget::about(OTHER[label], value.into(), peer.clone(), about);
                    self.kb
                        .accept_remote(&peer, knowgget)
                        .expect("own knowledge");
                }
                Step::Other(label, Some(entity), value) => {
                    (self.kb).insert_about(OTHER[label], Entity::from(ENTITIES[entity]), value);
                }
                Step::Degraded(true) => {
                    self.kb.insert(DEGRADED_LABEL, true);
                }
                Step::Degraded(false) => {
                    self.kb.remove(DEGRADED_LABEL);
                }
                Step::Reset => self.module.reset(),
                Step::Tick(_) => unreachable!("ticks go through `tick`"),
            }
        }

        fn tick(&mut self, now: Timestamp, on_tick: fn(&mut WormholeModule, &mut ModuleCtx<'_>)) {
            let mut ctx = ModuleCtx {
                now,
                kb: &mut self.kb,
                alerts: &mut self.alerts,
            };
            on_tick(&mut self.module, &mut ctx);
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
        fn a_kept_verdict_tells_the_story_of_correlating_every_tick(
            steps in proptest::collection::vec(step(), 1..80),
        ) {
            let mut kept = Side::new(true);
            let mut reference = Side::new(true);
            // The module over a Knowledge Base that watches nothing, as the
            // benchmark's standalone leg drives it.
            let mut alone = Side::new(false);
            let idle = WormholeModule::new().with_entity_budget(MODULE_BUDGET).state_bytes();
            let mut now = Timestamp::ZERO;
            for step in &steps {
                if let Step::Tick(ms) = step {
                    now += Duration::from_millis(*ms);
                    kept.tick(now, |module, ctx| module.on_tick(ctx));
                    alone.tick(now, |module, ctx| module.on_tick(ctx));
                    reference.tick(now, reference_on_tick);
                    prop_assert_eq!(kept.story(), reference.story());
                    prop_assert_eq!(alone.story(), reference.story());
                    // Nothing is kept of a label nobody watches.
                    prop_assert_eq!(alone.module.state_bytes(), idle);
                    continue;
                }
                kept.apply(step);
                alone.apply(step);
                reference.apply(step);
                if matches!(step, Step::Reset) {
                    prop_assert_eq!(kept.module.state_bytes(), idle);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::Knowgget;
    use kalis_packets::{Medium, ShortAddr, Timestamp};

    fn relayed(ms: u64, relay: u16, origin: u16, seq: u8) -> CapturedPacket {
        let raw = kalis_netsim::craft::ctp_data(
            ShortAddr(relay),
            ShortAddr(1),
            seq,
            ShortAddr(origin),
            seq,
            3,
            b"x",
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ieee802154,
            Some(-50.0),
            "t",
            raw,
        )
    }

    fn originated(ms: u64, origin: u16, seq: u8) -> CapturedPacket {
        let raw = kalis_netsim::craft::ctp_data(
            ShortAddr(origin),
            ShortAddr(1),
            seq,
            ShortAddr(origin),
            seq,
            0,
            b"x",
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ieee802154,
            Some(-50.0),
            "t",
            raw,
        )
    }

    fn tick(module: &mut WormholeModule, kb: &mut KnowledgeBase, ms: u64) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let mut ctx = ModuleCtx {
            now: Timestamp::from_millis(ms),
            kb,
            alerts: &mut alerts,
        };
        module.on_tick(&mut ctx);
        alerts
    }

    fn feed(module: &mut WormholeModule, kb: &mut KnowledgeBase, caps: Vec<CapturedPacket>) {
        for cap in caps {
            let mut alerts = Vec::new();
            let mut ctx = ModuleCtx {
                now: cap.timestamp,
                kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &cap);
        }
    }

    #[test]
    fn exotic_sources_are_published_collectively() {
        let mut module = WormholeModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K2"));
        // B2 (node 20) relays traffic from origins 30 and 31, never heard
        // originating locally.
        feed(
            &mut module,
            &mut kb,
            vec![relayed(0, 20, 30, 1), relayed(100, 20, 31, 1)],
        );
        let val = kb
            .get_about(labels::EXOTIC_ORIGINS, &Entity::from(ShortAddr(20)))
            .unwrap();
        assert_eq!(parse_set(&val.as_text()).len(), 2);
    }

    #[test]
    fn locally_heard_origins_are_not_exotic() {
        let mut module = WormholeModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K2"));
        feed(
            &mut module,
            &mut kb,
            vec![
                originated(0, 30, 1),
                relayed(100, 20, 30, 1),
                relayed(200, 20, 30, 2),
            ],
        );
        assert!(kb
            .get_about(labels::EXOTIC_ORIGINS, &Entity::from(ShortAddr(20)))
            .is_none());
    }

    #[test]
    fn cross_node_correlation_raises_wormhole() {
        let mut module = WormholeModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K2"));
        // Local half: B2 (20) sources exotic origins 30, 31.
        feed(
            &mut module,
            &mut kb,
            vec![relayed(0, 20, 30, 1), relayed(100, 20, 31, 1)],
        );
        // Remote half: K1 reports B1 (10) dropping the same origins.
        let k1 = KalisId::new("K1");
        kb.accept_remote(
            &k1,
            Knowgget::about(
                labels::DROPPED_ORIGINS,
                KnowValue::Text(format!("{},{}", ShortAddr(30), ShortAddr(31))),
                k1.clone(),
                Entity::from(ShortAddr(10)),
            ),
        )
        .unwrap();
        let alerts = tick(&mut module, &mut kb, 1000);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attack, AttackKind::Wormhole);
        assert_eq!(
            alerts[0].suspects,
            vec![Entity::from(ShortAddr(10)), Entity::from(ShortAddr(20))]
        );
    }

    #[test]
    fn a_standing_verdict_rewrites_its_confirmations_only_after_an_entity_eviction() {
        use kalis_telemetry::{metric_name, names, Telemetry};
        // As a node holds it: subscribed, so the two inputs are watched.
        let mut kb = KnowledgeBase::new(KalisId::new("K2"));
        let registry = crate::modules::ModuleRegistry::with_defaults();
        let mut manager = crate::modules::ModuleManager::new();
        for name in registry.names() {
            let def = crate::config::ModuleDef::new(name);
            manager.add(registry.build(&def).expect("registered"), false);
        }
        kb.subscribe_activation(manager.subscriptions());
        let tele = Telemetry::new();
        kb.set_telemetry(&tele);
        let inserts = tele.counter(&metric_name(names::KB_OPS, &[("op", "insert")]));
        // Written first, so the stalest entity.
        kb.insert_about("SignalStrength", Entity::from(ShortAddr(40)), -60.0);
        let mut module = WormholeModule::new();
        feed(
            &mut module,
            &mut kb,
            vec![relayed(0, 20, 30, 1), relayed(100, 20, 31, 1)],
        );
        let k1 = KalisId::new("K1");
        let dropped = Knowgget::about(
            labels::DROPPED_ORIGINS,
            KnowValue::Text(format!("{},{}", ShortAddr(30), ShortAddr(31))),
            k1.clone(),
            Entity::from(ShortAddr(10)),
        );
        kb.accept_remote(&k1, dropped).unwrap();
        assert_eq!(tick(&mut module, &mut kb, 1_000).len(), 1);
        // The second tick finds the inputs settled and keeps the verdict.
        tick(&mut module, &mut kb, 2_000);
        let confirmed = |kb: &KnowledgeBase, at: u16| {
            kb.get_about(WORMHOLE_CONFIRMED, &Entity::from(ShortAddr(at)))
        };
        assert_eq!(confirmed(&kb, 10), Some(KnowValue::Bool(true)));
        assert_eq!(confirmed(&kb, 20), Some(KnowValue::Bool(true)));
        let written = inserts.get();
        tick(&mut module, &mut kb, 3_000);
        assert_eq!(inserts.get(), written, "a standing verdict writes nothing");
        // An eviction — here of the unrelated entity — might have taken
        // a confirmation: the next tick writes both again, unchanged.
        kb.set_entity_budget(kb.entity_occupancy());
        kb.insert_about("SignalStrength", Entity::from(ShortAddr(41)), -61.0);
        assert_eq!(kb.entity_evictions(), 1);
        let (written, revision) = (inserts.get(), kb.revision());
        tick(&mut module, &mut kb, 4_000);
        assert_eq!(inserts.get(), written + 2);
        assert_eq!(kb.revision(), revision, "the rewrites changed nothing");
        tick(&mut module, &mut kb, 5_000);
        assert_eq!(inserts.get(), written + 2);
    }

    #[test]
    fn degraded_mode_suppresses_collaborative_verdicts() {
        let mut module = WormholeModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K2"));
        feed(
            &mut module,
            &mut kb,
            vec![relayed(0, 20, 30, 1), relayed(100, 20, 31, 1)],
        );
        let k1 = KalisId::new("K1");
        kb.accept_remote(
            &k1,
            Knowgget::about(
                labels::DROPPED_ORIGINS,
                KnowValue::Text(format!("{},{}", ShortAddr(30), ShortAddr(31))),
                k1.clone(),
                Entity::from(ShortAddr(10)),
            ),
        )
        .unwrap();
        // Same evidence as `cross_node_correlation_raises_wormhole`, but
        // the node is in degraded local-only mode: peer knowledge is
        // stale, so no wormhole verdict.
        kb.insert(crate::knowledge::DEGRADED_LABEL, true);
        assert!(tick(&mut module, &mut kb, 1000).is_empty());
        // Recovery clears the label and the verdict fires again.
        kb.remove(crate::knowledge::DEGRADED_LABEL);
        assert_eq!(tick(&mut module, &mut kb, 2000).len(), 1);
    }

    #[test]
    fn single_vantage_point_does_not_correlate_with_itself() {
        let mut module = WormholeModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K2"));
        feed(
            &mut module,
            &mut kb,
            vec![relayed(0, 20, 30, 1), relayed(100, 20, 31, 1)],
        );
        // Local blackhole evidence with the same creator (K2).
        kb.insert_about_collective(
            labels::DROPPED_ORIGINS,
            Entity::from(ShortAddr(10)),
            format!("{},{}", ShortAddr(30), ShortAddr(31)),
        );
        assert!(tick(&mut module, &mut kb, 1000).is_empty());
    }

    #[test]
    fn origin_bytes_follow_gains_evictions_and_reset() {
        let mut module = WormholeModule::new().with_entity_budget(16);
        let mut kb = KnowledgeBase::new(KalisId::new("K2"));
        assert_eq!(module.state_bytes(), 128);
        // Forty local origins and forty relays against 16 slots a map:
        // relayed origins repeat, forwarders come back after eviction.
        for i in 0..40u16 {
            let ms = u64::from(i) * 10;
            let caps = vec![
                originated(ms, 100 + i, 1),
                relayed(ms + 1, 300 + i % 20, 500 + i % 7, 1),
                relayed(ms + 2, 300 + i % 20, 100 + i, 1),
            ];
            feed(&mut module, &mut kb, caps);
            assert_eq!(module.state_bytes(), 128 + module.recount_origin_bytes());
        }
        assert!(module.local_origins.evictions() > 0 && module.exotic.evictions() > 0);
        module.reset();
        assert_eq!(module.state_bytes(), 128);
    }

    #[test]
    fn disjoint_origin_sets_do_not_correlate() {
        let mut module = WormholeModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K2"));
        feed(
            &mut module,
            &mut kb,
            vec![relayed(0, 20, 30, 1), relayed(100, 20, 31, 1)],
        );
        let k1 = KalisId::new("K1");
        kb.accept_remote(
            &k1,
            Knowgget::about(
                labels::DROPPED_ORIGINS,
                KnowValue::Text(format!("{},{}", ShortAddr(40), ShortAddr(41))),
                k1.clone(),
                Entity::from(ShortAddr(10)),
            ),
        )
        .unwrap();
        assert!(tick(&mut module, &mut kb, 1000).is_empty());
    }
}
