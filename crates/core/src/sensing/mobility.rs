//! Mobility Awareness (paper §V): "a simple approach that detects mobility
//! when any node's signal strength changes more than a certain threshold".
//!
//! Per-entity smoothed RSSI is also published as `SignalStrength@<entity>`
//! knowggets from an entity's second sample on, written only when the
//! rounded value changes: the module keeps what it last published beside
//! the estimate, and reads the Knowledge Base back only after the label's
//! change stamp says someone else wrote it. The estimate is local:
//! no shipped contract reads other nodes' copies (`reads_collective`),
//! so it stays off the sync wire. A cross-node correlation over it (the
//! example of §IV-B3) would need both that read and a collective write.

use kalis_packets::{CapturedPacket, Entity, Timestamp};

use crate::bounded::{
    budget_params, BoundedMap, Touched, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET,
};
use crate::knowledge::{KnowValue, Watch};
use crate::modules::{KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec, ValueType};
use crate::sensing::labels;

/// How strongly new samples update the per-entity RSSI estimate.
const EWMA_ALPHA: f64 = 0.25;
/// How long without any deviation before the network is declared static.
const STATIC_AFTER: core::time::Duration = core::time::Duration::from_secs(15);

/// The Mobility Awareness sensing module.
#[derive(Debug)]
pub struct MobilityAwarenessModule {
    threshold_db: f64,
    entity_budget: usize,
    estimates: BoundedMap<Entity, Estimate>,
    last_deviation: Option<Timestamp>,
    started: Option<Timestamp>,
    /// The `SignalStrength` change stamp.
    watch: Watch,
    /// What the stamp reads while every change to the label is the
    /// module's own.
    stamp: u64,
    /// Bumped where the stamp says someone else changed the label: a
    /// published value remembered under an older epoch is no longer
    /// known to be held.
    epoch: u32,
}

/// One transmitter's smoothed signal strength, and what was last
/// published of it.
#[derive(Debug, Clone, Copy)]
struct Estimate {
    dbm: f64,
    /// The value the Knowledge Base held as of `epoch` (`None`: not
    /// known).
    published: Option<f64>,
    epoch: u32,
}

impl MobilityAwarenessModule {
    /// A module with the default 8 dB deviation threshold.
    pub fn new() -> Self {
        Self::with_threshold(8.0)
    }

    /// A module declaring mobility at RSSI deviations above
    /// `threshold_db`.
    pub fn with_threshold(threshold_db: f64) -> Self {
        Self::build(threshold_db, DEFAULT_ENTITY_BUDGET)
    }

    /// The same module tracking RSSI estimates for at most `budget`
    /// entities (least-recently-heard transmitters are evicted first).
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(self.threshold_db, budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(threshold_db: f64, entity_budget: usize) -> Self {
        MobilityAwarenessModule {
            threshold_db,
            entity_budget,
            estimates: BoundedMap::new(entity_budget),
            last_deviation: None,
            started: None,
            watch: Watch::default(),
            stamp: 0,
            epoch: 0,
        }
    }
}

impl Default for MobilityAwarenessModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for MobilityAwarenessModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::sensing("MobilityAwarenessModule").asserts(&[labels::SIGNAL_STRENGTH])
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            // Reads its own published estimate back, after someone else
            // wrote the label, to publish at 1 dB granularity.
            .reads_per_entity(labels::SIGNAL_STRENGTH, ValueType::Float)
            .writes_per_entity(labels::SIGNAL_STRENGTH, ValueType::Float)
            .exported()
            .writes(labels::MOBILE, ValueType::Bool)
            .accepts_param(ParamSpec::number("thresholdDb", 0.5))
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(rssi) = packet.rssi_dbm else { return };
        let Some(tx) = packet.decoded().and_then(|p| p.transmitter()) else {
            return;
        };
        self.started.get_or_insert(packet.timestamp);
        // A first sample only seeds the estimate: one sample is not a
        // smoothed estimate, and an identity heard once — what a spray is
        // made of — never reaches the Knowledge Base. A sprayed identity
        // that displaces a tracked one only costs its estimate, which
        // re-seeds if the real node speaks again.
        let seed = || Estimate {
            dbm: rssi,
            published: None,
            epoch: self.epoch,
        };
        let Touched::Held(est) = self.estimates.touch_or_insert(&tx, seed) else {
            return;
        };
        let deviation = (rssi - est.dbm).abs();
        est.dbm = est.dbm * (1.0 - EWMA_ALPHA) + rssi * EWMA_ALPHA;
        // Publish at coarse (1 dB) granularity to avoid churning the
        // Knowledge Base on shadowing noise.
        let published = est.dbm.round();
        // Checked before this packet's own write, so that write cannot
        // hide a change by anyone else.
        let stamp = ctx.kb.changed_at(labels::SIGNAL_STRENGTH, &mut self.watch);
        if stamp != self.stamp {
            self.stamp = stamp;
            self.epoch = self.epoch.wrapping_add(1);
        }
        let held = if est.epoch == self.epoch {
            est.published
        } else {
            (ctx.kb.get_about(labels::SIGNAL_STRENGTH, &tx)).and_then(|v| v.as_f64())
        };
        if held != Some(published) {
            let before = ctx.kb.revision();
            if ctx.kb.insert_about(labels::SIGNAL_STRENGTH, tx, published) {
                self.stamp = before + 1;
            }
        }
        est.published = Some(published);
        est.epoch = self.epoch;
        if deviation > self.threshold_db {
            self.last_deviation = Some(packet.timestamp);
            ctx.kb.insert(labels::MOBILE, true);
        }
    }

    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        // Quiet long enough → static. (Also the initial state once we have
        // observed for a while with no deviations.)
        let reference = match (self.last_deviation, self.started) {
            (Some(t), _) => t,
            (None, Some(t)) => t,
            (None, None) => return,
        };
        if ctx.now.saturating_since(reference) > STATIC_AFTER
            && ctx.kb.get_bool(labels::MOBILE) != Some(false)
        {
            ctx.kb.insert(labels::MOBILE, false);
        }
    }

    fn state_bytes(&self) -> usize {
        self.estimates.len() * 64 + 128
    }

    fn occupancy(&self) -> usize {
        self.estimates.len()
    }

    fn evictions(&self) -> u64 {
        self.estimates.evictions()
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.estimates.clear();
        self.last_deviation = None;
        self.started = None;
    }
}

/// The write-on-change rule against the module as it was, which read
/// its published estimate back on every sample: same Knowledge Base, same
/// revision, after every step of random samples, outside writes,
/// removals, peer knowggets and entity purges — some set off by the
/// module's own writes — on a Knowledge Base that watches
/// `SignalStrength` as a node's does.
#[cfg(test)]
mod differential {
    use kalis_packets::{Medium, ShortAddr};
    use proptest::prelude::*;

    use super::*;
    use crate::alert::Alert;
    use crate::id::KalisId;
    use crate::knowledge::{Knowgget, KnowledgeBase, Subscriptions};

    /// `on_packet` as it was, verbatim.
    struct Reference {
        threshold_db: f64,
        estimates: BoundedMap<Entity, f64>,
        last_deviation: Option<Timestamp>,
        started: Option<Timestamp>,
    }

    impl Reference {
        fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
            let Some(rssi) = packet.rssi_dbm else { return };
            let Some(tx) = packet.decoded().and_then(|p| p.transmitter()) else {
                return;
            };
            self.started.get_or_insert(packet.timestamp);
            let Touched::Held(est) = self.estimates.touch_or_insert(&tx, || rssi) else {
                return;
            };
            let deviation = (rssi - *est).abs();
            *est = *est * (1.0 - EWMA_ALPHA) + rssi * EWMA_ALPHA;
            let published = (*est).round();
            let prev = ctx
                .kb
                .get_about(labels::SIGNAL_STRENGTH, &tx)
                .and_then(|v| v.as_f64());
            if prev != Some(published) {
                ctx.kb.insert_about(labels::SIGNAL_STRENGTH, tx, published);
            }
            if deviation > self.threshold_db {
                self.last_deviation = Some(packet.timestamp);
                ctx.kb.insert(labels::MOBILE, true);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// Station `.0` heard at signal level `.1`.
        Sample(u16, u8),
        /// An operator writes `.1` as station `.0`'s signal strength.
        Write(u16, KnowValue),
        /// An operator removes station `.0`'s signal strength.
        Remove(u16),
        /// A peer's signal strength for station `.0`.
        Peer(u16, i64),
        /// The entity budget set to `.0`, and entity `.1` written.
        Budget(usize, u16),
    }

    fn step() -> impl Strategy<Value = Step> {
        let value = prop_oneof![
            (-95..-40i64).prop_map(|dbm| KnowValue::Float(dbm as f64)),
            Just(KnowValue::Text("-60".into())),
            Just(KnowValue::Text("near".into())),
        ];
        let sample = || (2..6u16, 0..8u8).prop_map(|(station, level)| Step::Sample(station, level));
        // Samples four times as often as each kind of outside change.
        prop_oneof![
            sample(),
            sample(),
            sample(),
            sample(),
            (2..6u16, value).prop_map(|(station, v)| Step::Write(station, v)),
            (2..6u16).prop_map(Step::Remove),
            (2..6u16, -90..-50i64).prop_map(|(station, v)| Step::Peer(station, v)),
            (0..6usize, 20..23u16).prop_map(|(budget, entity)| {
                // Mostly tight enough to purge, sometimes back to roomy.
                let budget = if budget == 5 { 4096 } else { budget };
                Step::Budget(budget, entity)
            }),
        ]
    }

    fn sample(station: u16, level: u8) -> CapturedPacket {
        let (me, sink) = (ShortAddr(station), ShortAddr(1));
        let raw = kalis_netsim::craft::zigbee_data(me, sink, 0, me, sink, 0, b"x");
        // Levels 0.7 dB apart, so most samples move the rounded estimate
        // by a dB or not at all; the last one far enough for mobility.
        let rssi = if level == 7 {
            -85.0
        } else {
            -60.0 - 0.7 * f64::from(level)
        };
        CapturedPacket::capture(Timestamp::ZERO, Medium::Ieee802154, Some(rssi), "t", raw)
    }

    fn node_kb() -> KnowledgeBase {
        let mut table = Subscriptions::new(1);
        table.watch(labels::SIGNAL_STRENGTH);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.subscribe_activation(table);
        kb
    }

    fn apply(kb: &mut KnowledgeBase, step: &Step) {
        let k2 = KalisId::new("K2");
        let about = |station: u16| Entity::from(ShortAddr(station));
        match step {
            Step::Sample(..) => {}
            Step::Write(station, value) => {
                kb.insert_about(labels::SIGNAL_STRENGTH, about(*station), value.clone());
            }
            Step::Remove(station) => {
                kb.remove_about(labels::SIGNAL_STRENGTH, &about(*station));
            }
            Step::Peer(station, dbm) => {
                let value = KnowValue::Int(*dbm);
                let theirs =
                    Knowgget::about(labels::SIGNAL_STRENGTH, value, k2.clone(), about(*station));
                kb.accept_remote(&k2, theirs)
                    .expect("a peer's own knowgget");
            }
            Step::Budget(budget, entity) => {
                kb.set_entity_budget(*budget);
                kb.insert_about("Probe", about(*entity), true);
            }
        }
    }

    proptest! {
        #[test]
        fn writing_on_change_leaves_the_knowledge_of_reading_back_every_sample(
            steps in proptest::collection::vec(step(), 1..160),
        ) {
            let mut module = MobilityAwarenessModule::new();
            let mut reference = Reference {
                threshold_db: 8.0,
                estimates: BoundedMap::new(DEFAULT_ENTITY_BUDGET),
                last_deviation: None,
                started: None,
            };
            let (mut kb, mut reference_kb) = (node_kb(), node_kb());
            let mut alerts: Vec<Alert> = Vec::new();
            for step in &steps {
                apply(&mut kb, step);
                apply(&mut reference_kb, step);
                if let Step::Sample(station, level) = *step {
                    let packet = sample(station, level);
                    let now = packet.timestamp;
                    module.on_packet(&mut ModuleCtx { now, kb: &mut kb, alerts: &mut alerts }, &packet);
                    let ctx = &mut ModuleCtx { now, kb: &mut reference_kb, alerts: &mut alerts };
                    reference.on_packet(ctx, &packet);
                }
                prop_assert_eq!(kb.revision(), reference_kb.revision());
                prop_assert_eq!(kb.iter().collect::<Vec<_>>(), reference_kb.iter().collect::<Vec<_>>());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::Alert;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
    use kalis_packets::{Medium, ShortAddr};

    fn zigbee_from(addr: u16, rssi: f64, ms: u64) -> CapturedPacket {
        let raw = kalis_netsim::craft::zigbee_data(
            ShortAddr(addr),
            ShortAddr(1),
            0,
            ShortAddr(addr),
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

    fn feed(module: &mut MobilityAwarenessModule, kb: &mut KnowledgeBase, cap: CapturedPacket) {
        let mut alerts: Vec<Alert> = Vec::new();
        let mut ctx = ModuleCtx {
            now: cap.timestamp,
            kb,
            alerts: &mut alerts,
        };
        module.on_packet(&mut ctx, &cap);
    }

    fn tick(module: &mut MobilityAwarenessModule, kb: &mut KnowledgeBase, ms: u64) {
        let mut alerts: Vec<Alert> = Vec::new();
        let mut ctx = ModuleCtx {
            now: Timestamp::from_millis(ms),
            kb,
            alerts: &mut alerts,
        };
        module.on_tick(&mut ctx);
    }

    #[test]
    fn estimate_spray_stays_within_the_entity_budget() {
        let mut module = MobilityAwarenessModule::new().with_entity_budget(16);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        for addr in 0..200u16 {
            feed(&mut module, &mut kb, zigbee_from(addr, -60.0, addr as u64));
        }
        assert_eq!(module.occupancy(), 16);
        assert!(module.evictions() >= 184);
        // Spray must not fabricate mobility, nor reach the Knowledge Base:
        // every identity was seen once.
        assert_eq!(kb.get_bool(labels::MOBILE), None);
        assert!(kb.entities_with(labels::SIGNAL_STRENGTH).is_empty());
    }

    #[test]
    fn the_second_sample_publishes_the_rounded_estimate() {
        let mut module = MobilityAwarenessModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let tx = Entity::from(ShortAddr(2));
        feed(&mut module, &mut kb, zigbee_from(2, -60.4, 0));
        assert_eq!(kb.get_about(labels::SIGNAL_STRENGTH, &tx), None);
        // -60.4 smoothed towards -61.0 is -60.55.
        feed(&mut module, &mut kb, zigbee_from(2, -61.0, 100));
        let published = kb.get_about(labels::SIGNAL_STRENGTH, &tx);
        assert_eq!(published.and_then(|v| v.as_f64()), Some(-61.0));
    }

    #[test]
    fn stable_rssi_declares_static() {
        let mut module = MobilityAwarenessModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        for i in 0..20 {
            feed(
                &mut module,
                &mut kb,
                zigbee_from(2, -60.0 + (i % 2) as f64, i * 500),
            );
        }
        tick(&mut module, &mut kb, 20_000);
        assert_eq!(kb.get_bool(labels::MOBILE), Some(false));
    }

    #[test]
    fn rssi_jump_declares_mobile() {
        let mut module = MobilityAwarenessModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        feed(&mut module, &mut kb, zigbee_from(2, -60.0, 0));
        feed(&mut module, &mut kb, zigbee_from(2, -61.0, 500));
        assert_eq!(kb.get_bool(labels::MOBILE), None);
        feed(&mut module, &mut kb, zigbee_from(2, -85.0, 1000));
        assert_eq!(kb.get_bool(labels::MOBILE), Some(true));
    }

    #[test]
    fn mobile_network_returns_to_static_after_quiet_period() {
        let mut module = MobilityAwarenessModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        feed(&mut module, &mut kb, zigbee_from(2, -60.0, 0));
        feed(&mut module, &mut kb, zigbee_from(2, -90.0, 500));
        assert_eq!(kb.get_bool(labels::MOBILE), Some(true));
        // Stable again for a long time.
        for i in 0..40 {
            feed(&mut module, &mut kb, zigbee_from(2, -90.0, 1000 + i * 500));
        }
        tick(&mut module, &mut kb, 40_000);
        assert_eq!(kb.get_bool(labels::MOBILE), Some(false));
    }

    #[test]
    fn signal_strength_knowggets_are_local() {
        let mut module = MobilityAwarenessModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        feed(&mut module, &mut kb, zigbee_from(2, -67.0, 0));
        feed(&mut module, &mut kb, zigbee_from(2, -67.0, 100));
        let tx = Entity::from(ShortAddr(2));
        assert!(kb.get_about(labels::SIGNAL_STRENGTH, &tx).is_some());
        // Published, yet nothing for the sync outbox: no peer reads it.
        assert!(kb.drain_dirty_collective().is_empty());
        assert!(kb.collective_knowggets().is_empty());
    }

    #[test]
    fn publication_is_noise_tolerant() {
        let mut module = MobilityAwarenessModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        feed(&mut module, &mut kb, zigbee_from(2, -60.0, 0));
        feed(&mut module, &mut kb, zigbee_from(2, -60.0, 50));
        assert_eq!(kb.drain_changes().len(), 1);
        // Sub-dB jitter must not churn the KB.
        feed(&mut module, &mut kb, zigbee_from(2, -60.3, 100));
        feed(&mut module, &mut kb, zigbee_from(2, -59.8, 200));
        assert!(kb.drain_changes().is_empty());
    }
}
