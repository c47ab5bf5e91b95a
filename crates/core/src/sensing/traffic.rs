//! Traffic Statistics Collection (paper §V): packets/second per traffic
//! type, network-wide and per monitored device, over a configurable
//! window (default 5 seconds, the paper's default).

use std::collections::{BTreeMap, VecDeque}; // kalis-lint: allow(KL301): see field notes
use std::time::Duration;

use kalis_packets::{CapturedPacket, Entity, Timestamp, TrafficClass};

use crate::bounded::{budget_params, BoundedMap, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET};
use crate::knowledge::{KnowKey, KnowValue, KnowledgeBase};
use crate::modules::{KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec, ValueType};
use crate::sensing::labels;

/// Events retained per budget unit: the deque holds whole-window raw
/// events, not per-entity state, so it gets headroom over the entity
/// budget before oldest-first shedding kicks in.
const EVENTS_PER_BUDGET_UNIT: usize = 8;

/// A published rate's identity: network-wide (`None`) or towards one
/// destination.
type RateKey = (TrafficClass, Option<Entity>);

/// One window event.
#[derive(Debug)]
struct Event {
    at: Timestamp,
    class: TrafficClass,
    dst: Option<Entity>,
    /// Whether this event is counted in `written[(class, dst)].count`.
    /// A destination key is counted for all of its window events or for
    /// none, so the flag is the same on every event of one key.
    admitted: bool,
}

/// What `written` holds per key.
#[derive(Debug, Clone, Copy)]
struct Published {
    /// The rate last written to the Knowledge Base.
    rate: f64,
    /// Window events counted towards this key. Live for destination
    /// keys (bumped and decremented as events come and go); for
    /// network-wide keys `class_counts` is the live count and this is the
    /// count as of the last publish.
    count: usize,
}

/// The Traffic Statistics sensing module.
///
/// Writes multilevel knowggets rooted at [`labels::TRAFFIC_FREQUENCY`]:
/// `TrafficFrequency.TCPSYN = 0.037` (network-wide packets/second) and
/// `TrafficFrequency.TCPSYN@10.0.0.3 = …` (towards one device — the
/// per-destination view that "support\[s\] an accurate detection of targeted
/// DoS-like attacks").
///
/// The window counts are kept incrementally, so a publish costs the live
/// keys plus the events that just expired, whatever the window depth.
#[derive(Debug)]
pub struct TrafficStatsModule {
    window: Duration,
    entity_budget: usize,
    // kalis-lint: allow(KL301): capped at budget × EVENTS_PER_BUDGET_UNIT (oldest-first shed)
    events: VecDeque<Event>,
    /// Raw events shed because the deque hit its cap. Rates computed
    /// while shedding under-count — the honest failure mode: a bounded
    /// sensor saturates rather than grows.
    shed_events: u64,
    /// Window events per class, whatever their destination.
    // kalis-lint: allow(KL301): at most one entry per TrafficClass variant
    class_counts: BTreeMap<TrafficClass, usize>,
    /// Window events that carry a destination whose key is not admitted.
    unadmitted: usize,
    written: BoundedMap<RateKey, Published>,
}

impl TrafficStatsModule {
    /// A module with the paper's default 5-second window.
    pub fn new() -> Self {
        Self::with_window(Duration::from_secs(5))
    }

    /// A module with a custom window.
    pub fn with_window(window: Duration) -> Self {
        Self::build(window, DEFAULT_ENTITY_BUDGET)
    }

    /// The same module with its per-destination rate cache bounded at
    /// `budget` entries and the raw event window capped at
    /// `budget * EVENTS_PER_BUDGET_UNIT` events.
    pub fn with_entity_budget(self, budget: usize) -> Self {
        Self::build(self.window, budget.max(MIN_ENTITY_BUDGET))
    }

    fn build(window: Duration, entity_budget: usize) -> Self {
        TrafficStatsModule {
            window,
            entity_budget,
            events: VecDeque::new(),
            shed_events: 0,
            class_counts: BTreeMap::new(), // kalis-lint: allow(KL301): see field note
            unadmitted: 0,
            written: BoundedMap::new(entity_budget),
        }
    }

    fn event_cap(&self) -> usize {
        self.entity_budget * EVENTS_PER_BUDGET_UNIT
    }

    fn key(class: TrafficClass) -> String {
        KnowKey::scoped(labels::TRAFFIC_FREQUENCY, class.label())
    }

    fn write_rate(kb: &mut KnowledgeBase, (class, dst): &RateKey, rate: f64) {
        match dst {
            None => kb.insert(Self::key(*class), rate),
            Some(entity) => kb.insert_about(Self::key(*class), entity.clone(), rate),
        };
    }

    /// Count one arrival into the window, shedding the oldest event at
    /// the cap.
    fn observe(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        at: Timestamp,
        class: TrafficClass,
        dst: Option<Entity>,
    ) {
        if self.events.len() >= self.event_cap() {
            if let Some(oldest) = self.events.pop_front() {
                self.forget(oldest);
            }
            self.shed_events += 1;
        }
        *self.class_counts.entry(class).or_default() += 1;
        // Lend the entity to the key for the lookup, then take it back.
        let key = (class, dst);
        let admitted = key.1.is_some()
            && self
                .written
                .peek_mut(&key)
                .map(|published| published.count += 1)
                .is_some();
        let (class, dst) = key;
        if dst.is_some() && !admitted {
            self.unadmitted += 1;
        }
        self.events.push_back(Event {
            at,
            class,
            dst,
            admitted,
        });
        // Publish opportunistically so rates stay fresh under bursts even
        // between ticks: whenever the window length is a multiple of 16.
        // At the cap the length is pinned (at a multiple of 16, for any
        // even budget), so every packet publishes.
        if self.events.len() % 16 == 0 {
            self.publish(ctx, at);
        }
    }

    /// Take an event that left the window out of the counts.
    fn forget(&mut self, event: Event) {
        if let Some(count) = self.class_counts.get_mut(&event.class) {
            *count -= 1;
        }
        if event.dst.is_none() {
            return;
        }
        if !event.admitted {
            self.unadmitted -= 1;
        } else if let Some(published) = self.written.peek_mut(&(event.class, event.dst)) {
            published.count -= 1;
        }
    }

    /// Admit per-destination keys only while the bounded cache has room,
    /// oldest un-admitted destination first; churning an LRU slot (and a
    /// KB write) per sprayed one-shot destination would let an identity
    /// spray turn every publish into a full-cache rewrite. Destinations
    /// that keep talking re-enter once stale entries expire out of the
    /// window and free their slot. Returns the newly admitted keys with
    /// their window counts; the walk over the window runs only when
    /// there is something to admit and room to admit it into.
    // kalis-lint: allow(KL301): per-publish scratch, admission-capped by the written budget
    fn admit(&mut self) -> BTreeMap<RateKey, usize> {
        // kalis-lint: allow(KL301): the same scratch
        let mut fresh: BTreeMap<RateKey, usize> = BTreeMap::new();
        let room = self.written.budget().saturating_sub(self.written.len());
        if self.unadmitted == 0 || room == 0 {
            return fresh;
        }
        for event in self.events.iter_mut().filter(|e| !e.admitted) {
            if event.dst.is_none() {
                continue;
            }
            // Lend the entity to the key for the lookup; no clone unless
            // the key is new.
            let key = (event.class, event.dst.take());
            if let Some(count) = fresh.get_mut(&key) {
                *count += 1;
                event.admitted = true;
            } else if fresh.len() < room {
                fresh.insert(key.clone(), 1);
                event.admitted = true;
            }
            event.dst = key.1;
            if event.admitted {
                self.unadmitted -= 1;
            }
        }
        fresh
    }

    /// Destination keys evicted from `written` stop being counted: their
    /// events go back to the un-admitted pool, to be re-admitted (or not)
    /// by the room rule like any other destination.
    fn unadmit(&mut self, mut lost: Vec<RateKey>) {
        lost.sort_unstable();
        for event in self.events.iter_mut().filter(|e| e.admitted) {
            let key = (event.class, event.dst.take());
            if lost.binary_search(&key).is_ok() {
                event.admitted = false;
                self.unadmitted += 1;
            }
            event.dst = key.1;
        }
    }

    fn publish(&mut self, ctx: &mut ModuleCtx<'_>, now: Timestamp) {
        while self
            .events
            .front()
            .is_some_and(|e| now.saturating_since(e.at) > self.window)
        {
            if let Some(expired) = self.events.pop_front() {
                self.forget(expired);
            }
        }
        let secs = self.window.as_secs_f64();
        let fresh = self.admit();
        // Every counted key in key order — the order of the KB writes and
        // of the recency refreshes — and the written keys nothing counts
        // towards any more.
        // kalis-lint: allow(KL301): live keys: the bounded written map plus one per class
        let mut counted: Vec<(RateKey, usize)> =
            Vec::with_capacity(self.written.len() + fresh.len());
        // kalis-lint: allow(KL301): drains keys of the bounded written map
        let mut stale: Vec<RateKey> = Vec::new();
        for (key, published) in self.written.iter() {
            let count = match key.1 {
                Some(_) => published.count,
                None => self.class_counts.get(&key.0).copied().unwrap_or(0),
            };
            if count == 0 {
                stale.push(key.clone());
            } else if key.1.is_some() {
                counted.push((key.clone(), count));
            }
        }
        counted.extend(
            self.class_counts
                .iter()
                .filter(|(_, count)| **count > 0)
                .map(|(class, count)| ((*class, None), *count)),
        );
        counted.extend(fresh);
        counted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // Update changed rates; zero out rates that disappeared.
        // kalis-lint: allow(KL301): evictions of the bounded written map within one publish
        let mut lost: Vec<RateKey> = Vec::new();
        for (key, count) in counted {
            let rate = count as f64 / secs;
            if self.written.get(&key).map(|p| p.rate) != Some(rate) {
                Self::write_rate(ctx.kb, &key, rate);
            }
            // Insert even when unchanged: the write refreshes recency so
            // active destinations outlive sprayed one-shot identities.
            if let Some((evicted, published)) = self.written.insert(key, Published { rate, count })
            {
                if evicted.1.is_some() && published.count > 0 {
                    lost.push(evicted);
                }
            }
        }
        for key in stale {
            self.written.remove(&key);
            Self::write_rate(ctx.kb, &key, 0.0);
        }
        // An evicted key that the loop reached afterwards is back in.
        lost.retain(|key| !self.written.contains_key(key));
        if !lost.is_empty() {
            self.unadmit(lost);
        }
    }
}

impl Default for TrafficStatsModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for TrafficStatsModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::sensing("TrafficStatsModule")
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new()
            // Operator-facing traffic statistics: exported knowledge even
            // when no detection module consumes them directly.
            .writes_family(labels::TRAFFIC_FREQUENCY, ValueType::Float)
            .exported()
            // Rate knowggets feed dashboards and recommend_config, not
            // other modules; flood detectors keep their own windows.
            .allow(
                "KL202",
                labels::TRAFFIC_FREQUENCY,
                "operator-facing rate telemetry",
            )
            .accepts_param(ParamSpec::number("windowSecs", 0.1))
            .accepts_param(ParamSpec::number("entity_budget", MIN_ENTITY_BUDGET as f64))
    }

    fn required(&self, _kb: &KnowledgeBase) -> bool {
        true
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let class = packet.traffic_class();
        let dst = packet.decoded().and_then(|p| p.net_dst());
        self.observe(ctx, packet.timestamp, class, dst);
    }

    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now;
        self.publish(ctx, now);
    }

    fn state_bytes(&self) -> usize {
        // 48 per event covers the admission flag (it sits in the event's
        // padding), 64 per written key covers the count beside the rate,
        // and the per-class counts are fixed-size overhead.
        self.events.len() * 48 + self.written.len() * 64 + 128
    }

    fn occupancy(&self) -> usize {
        self.written.len()
    }

    fn evictions(&self) -> u64 {
        self.written.evictions() + self.shed_events
    }

    fn state_budget(&self) -> usize {
        self.entity_budget
    }

    fn current_params(&self) -> Vec<(String, KnowValue)> {
        budget_params(self.entity_budget)
    }

    fn reset(&mut self) {
        self.events.clear();
        self.shed_events = 0;
        self.class_counts.clear();
        self.unadmitted = 0;
        self.written.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::Alert;
    use crate::id::KalisId;
    use kalis_packets::ShortAddr;
    use std::net::Ipv4Addr;

    fn run(
        module: &mut TrafficStatsModule,
        kb: &mut KnowledgeBase,
        packets: Vec<CapturedPacket>,
        tick_at: Timestamp,
    ) {
        let mut alerts: Vec<Alert> = Vec::new();
        for p in packets {
            let mut ctx = ModuleCtx {
                now: p.timestamp,
                kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &p);
        }
        let mut ctx = ModuleCtx {
            now: tick_at,
            kb,
            alerts: &mut alerts,
        };
        module.on_tick(&mut ctx);
    }

    fn wifi_echo_reply(ms: u64, dst: Ipv4Addr) -> CapturedPacket {
        let ip = kalis_netsim::craft::ipv4_echo_reply(Ipv4Addr::new(1, 1, 1, 1), dst, 1, 1);
        let raw = kalis_netsim::craft::wifi_ipv4(
            kalis_packets::MacAddr::from_index(1),
            kalis_packets::MacAddr::from_index(2),
            kalis_packets::MacAddr::from_index(0),
            0,
            &ip,
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            kalis_packets::Medium::Wifi,
            None,
            "w",
            raw,
        )
    }

    fn ctp(ms: u64) -> CapturedPacket {
        let raw =
            kalis_netsim::craft::ctp_data(ShortAddr(2), ShortAddr(1), 0, ShortAddr(2), 1, 0, b"r");
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            kalis_packets::Medium::Ieee802154,
            Some(-55.0),
            "t",
            raw,
        )
    }

    #[test]
    fn global_rates_match_counts() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        // 10 echo replies within the 5s window → 2 pps.
        let packets = (0..10)
            .map(|i| wifi_echo_reply(i * 100, Ipv4Addr::new(10, 0, 0, 7)))
            .collect();
        run(&mut module, &mut kb, packets, Timestamp::from_millis(1000));
        assert_eq!(kb.get_f64("TrafficFrequency.ICMPRESP"), Some(2.0));
    }

    #[test]
    fn per_destination_rates_are_tracked() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let victim = Ipv4Addr::new(10, 0, 0, 7);
        let other = Ipv4Addr::new(10, 0, 0, 8);
        let mut packets: Vec<_> = (0..8).map(|i| wifi_echo_reply(i * 100, victim)).collect();
        packets.push(wifi_echo_reply(900, other));
        run(&mut module, &mut kb, packets, Timestamp::from_millis(1000));
        let per_victim = kb
            .get_about("TrafficFrequency.ICMPRESP", &Entity::new("10.0.0.7"))
            .and_then(|v| v.as_f64())
            .unwrap();
        let per_other = kb
            .get_about("TrafficFrequency.ICMPRESP", &Entity::new("10.0.0.8"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(per_victim > per_other);
    }

    #[test]
    fn window_expiry_zeroes_rates() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        run(
            &mut module,
            &mut kb,
            vec![ctp(0), ctp(100)],
            Timestamp::from_millis(200),
        );
        assert!(kb.get_f64("TrafficFrequency.CTPDATA").unwrap() > 0.0);
        // Tick far in the future: everything expired.
        let mut alerts = Vec::new();
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(60),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        module.on_tick(&mut ctx);
        assert_eq!(kb.get_f64("TrafficFrequency.CTPDATA"), Some(0.0));
    }

    #[test]
    fn distinct_classes_get_distinct_subknowggets() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        run(
            &mut module,
            &mut kb,
            vec![ctp(0), wifi_echo_reply(10, Ipv4Addr::new(1, 2, 3, 4))],
            Timestamp::from_millis(100),
        );
        let subs = kb.sublabels("TrafficFrequency");
        assert!(subs.iter().any(|(k, _)| k == "CTPDATA"));
        assert!(subs.iter().any(|(k, _)| k == "ICMPRESP"));
    }
}

/// The module as it was before the counts became incremental: `publish`
/// recounts the whole window. Kept verbatim as the reference model the
/// differential test holds the incremental module to.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug)]
    pub(super) struct RecountingTrafficStats {
        window: Duration,
        entity_budget: usize,
        events: VecDeque<(Timestamp, TrafficClass, Option<Entity>)>,
        shed_events: u64,
        written: BoundedMap<(TrafficClass, Option<Entity>), f64>,
    }

    impl RecountingTrafficStats {
        pub(super) fn new(window: Duration, entity_budget: usize) -> Self {
            RecountingTrafficStats {
                window,
                entity_budget,
                events: VecDeque::new(),
                shed_events: 0,
                written: BoundedMap::new(entity_budget),
            }
        }

        fn event_cap(&self) -> usize {
            self.entity_budget * EVENTS_PER_BUDGET_UNIT
        }

        fn key(class: TrafficClass) -> String {
            KnowKey::scoped(labels::TRAFFIC_FREQUENCY, class.label())
        }

        fn publish(&mut self, ctx: &mut ModuleCtx<'_>, now: Timestamp) {
            while let Some((ts, ..)) = self.events.front() {
                if now.saturating_since(*ts) > self.window {
                    self.events.pop_front();
                } else {
                    break;
                }
            }
            let secs = self.window.as_secs_f64();
            let mut counts: BTreeMap<(TrafficClass, Option<Entity>), usize> = BTreeMap::new();
            let mut admitted = 0usize;
            for (_, class, dst) in &self.events {
                *counts.entry((*class, None)).or_default() += 1;
                if let Some(dst) = dst {
                    let key = (*class, Some(dst.clone()));
                    if let Some(count) = counts.get_mut(&key) {
                        *count += 1;
                    } else if self.written.contains_key(&key) {
                        counts.insert(key, 1);
                    } else if self.written.len() + admitted < self.written.budget() {
                        admitted += 1;
                        counts.insert(key, 1);
                    }
                }
            }
            let mut stale: Vec<(TrafficClass, Option<Entity>)> = self
                .written
                .iter()
                .map(|(k, _)| k)
                .filter(|k| !counts.contains_key(k))
                .cloned()
                .collect();
            for ((class, dst), count) in counts {
                let rate = count as f64 / secs;
                let prev = self.written.get(&(class, dst.clone())).copied();
                self.written.insert((class, dst.clone()), rate);
                if prev == Some(rate) {
                    continue;
                }
                match dst {
                    None => ctx.kb.insert(Self::key(class), rate),
                    Some(entity) => ctx.kb.insert_about(Self::key(class), entity, rate),
                };
            }
            for (class, dst) in stale.drain(..) {
                self.written.remove(&(class, dst.clone()));
                match dst {
                    None => ctx.kb.insert(Self::key(class), 0.0),
                    Some(entity) => ctx.kb.insert_about(Self::key(class), entity, 0.0),
                };
            }
        }

        pub(super) fn observe(
            &mut self,
            ctx: &mut ModuleCtx<'_>,
            at: Timestamp,
            class: TrafficClass,
            dst: Option<Entity>,
        ) {
            if self.events.len() >= self.event_cap() {
                self.events.pop_front();
                self.shed_events += 1;
            }
            self.events.push_back((at, class, dst));
            if self.events.len() % 16 == 0 {
                self.publish(ctx, at);
            }
        }

        pub(super) fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
            let now = ctx.now;
            self.publish(ctx, now);
        }

        pub(super) fn state_bytes(&self) -> usize {
            self.events.len() * 48 + self.written.len() * 64 + 128
        }

        pub(super) fn occupancy(&self) -> usize {
            self.written.len()
        }

        pub(super) fn evictions(&self) -> u64 {
            self.written.evictions() + self.shed_events
        }
    }
}

#[cfg(test)]
mod differential {
    use super::reference::RecountingTrafficStats;
    use super::*;
    use crate::id::KalisId;
    use proptest::prelude::*;

    const CLASSES: [TrafficClass; 8] = [
        TrafficClass::TcpSyn,
        TrafficClass::TcpAck,
        TrafficClass::Udp,
        TrafficClass::IcmpEchoRequest,
        TrafficClass::IcmpEchoReply,
        TrafficClass::ZigbeeData,
        TrafficClass::CtpData,
        TrafficClass::WifiMgmt,
    ];

    #[derive(Debug, Clone)]
    enum Step {
        /// `gap_us` after the previous step, one packet of class
        /// `CLASSES[class]` towards destination number `dst`.
        Packet {
            gap_us: u64,
            class: usize,
            dst: Option<u32>,
        },
        Tick {
            gap_us: u64,
        },
    }

    /// A stretch of traffic with one character.
    #[derive(Debug, Clone)]
    enum Segment {
        /// Mixed classes over a dozen destinations (and none), ticks mixed in.
        Background { seeds: Vec<(u64, u8, u8)> },
        /// One class towards `fanout` destinations, dense enough to run
        /// past the event cap.
        Flood {
            class: usize,
            fanout: u32,
            gap_us: u64,
            packets: usize,
        },
        /// Every packet a destination never seen before, past the budget.
        Spray {
            class: usize,
            gap_us: u64,
            packets: usize,
        },
        /// Silence for several seconds, ended by a tick or by traffic.
        Gap { secs: u64, tick: bool },
    }

    fn segment() -> impl Strategy<Value = Segment> {
        prop_oneof![
            proptest::collection::vec((1u64..400_000, 0u8..8, 0u8..16), 1..80)
                .prop_map(|seeds| Segment::Background { seeds }),
            (0usize..8, 1u32..4, 200u64..30_000, 20usize..420).prop_map(
                |(class, fanout, gap_us, packets)| Segment::Flood {
                    class,
                    fanout,
                    gap_us,
                    packets,
                }
            ),
            (0usize..8, 500u64..60_000, 10usize..120).prop_map(|(class, gap_us, packets)| {
                Segment::Spray {
                    class,
                    gap_us,
                    packets,
                }
            }),
            (1u64..8, any::<bool>()).prop_map(|(secs, tick)| Segment::Gap { secs, tick }),
        ]
    }

    fn steps(segments: &[Segment]) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut sprayed = 1_000u32;
        for segment in segments {
            match segment {
                Segment::Background { seeds } => {
                    for &(gap_us, class, dst) in seeds {
                        match dst {
                            // One step in eight is a tick, one in eight a
                            // packet with no network destination.
                            0 | 1 => steps.push(Step::Tick { gap_us }),
                            2 | 3 => steps.push(Step::Packet {
                                gap_us,
                                class: class as usize,
                                dst: None,
                            }),
                            dst => steps.push(Step::Packet {
                                gap_us,
                                class: class as usize,
                                dst: Some(u32::from(dst)),
                            }),
                        }
                    }
                }
                Segment::Flood {
                    class,
                    fanout,
                    gap_us,
                    packets,
                } => {
                    for i in 0..*packets {
                        steps.push(Step::Packet {
                            gap_us: *gap_us,
                            class: *class,
                            dst: Some(100 + i as u32 % fanout),
                        });
                        if i % 97 == 96 {
                            steps.push(Step::Tick { gap_us: 1 });
                        }
                    }
                }
                Segment::Spray {
                    class,
                    gap_us,
                    packets,
                } => {
                    for i in 0..*packets {
                        sprayed += 1;
                        steps.push(Step::Packet {
                            gap_us: *gap_us,
                            // A spray crosses two classes, so network-wide
                            // keys keep landing on a full cache.
                            class: (*class + i % 2) % CLASSES.len(),
                            dst: Some(sprayed),
                        });
                    }
                }
                Segment::Gap { secs, tick } => {
                    let gap_us = secs * 1_000_000;
                    steps.push(if *tick {
                        Step::Tick { gap_us }
                    } else {
                        Step::Packet {
                            gap_us,
                            class: 0,
                            dst: Some(4),
                        }
                    });
                }
            }
        }
        steps
    }

    proptest! {
        /// The incremental module and the recounting reference write the
        /// same knowledge in the same order and report the same state,
        /// step by step, on streams that shed at the event cap, spray
        /// past the budget and evict from the `written` LRU.
        #[test]
        fn incremental_counts_match_the_recounting_reference(
            segments in proptest::collection::vec(segment(), 1..24),
            budget in prop_oneof![Just(16usize), Just(24usize)],
            window_ms in prop_oneof![Just(5_000u64), Just(1_500u64)],
        ) {
            let window = Duration::from_millis(window_ms);
            let mut module = TrafficStatsModule::with_window(window).with_entity_budget(budget);
            let mut reference = RecountingTrafficStats::new(window, budget);
            let mut kb = KnowledgeBase::new(KalisId::new("K1"));
            let mut reference_kb = KnowledgeBase::new(KalisId::new("K1"));
            let mut alerts = Vec::new();
            let mut now_us = 0u64;
            for (index, step) in steps(&segments).into_iter().enumerate() {
                let (Step::Packet { gap_us, .. } | Step::Tick { gap_us }) = &step;
                now_us += gap_us;
                let now = Timestamp::from_micros(now_us);
                let mut ctx = ModuleCtx { now, kb: &mut kb, alerts: &mut alerts };
                let mut reference_ctx = ModuleCtx {
                    now,
                    kb: &mut reference_kb,
                    alerts: &mut Vec::new(),
                };
                match step {
                    Step::Packet { class, dst, .. } => {
                        let dst = dst.map(|d| Entity::new(format!("10.0.{}.{}", d / 256, d % 256)));
                        module.observe(&mut ctx, now, CLASSES[class], dst.clone());
                        reference.observe(&mut reference_ctx, now, CLASSES[class], dst);
                    }
                    Step::Tick { .. } => {
                        module.on_tick(&mut ctx);
                        reference.on_tick(&mut reference_ctx);
                    }
                }
                prop_assert_eq!(kb.drain_changes(), reference_kb.drain_changes(), "step {}", index);
                prop_assert_eq!(module.occupancy(), reference.occupancy(), "step {}", index);
                prop_assert_eq!(module.evictions(), reference.evictions(), "step {}", index);
                prop_assert_eq!(module.state_bytes(), reference.state_bytes(), "step {}", index);
            }
            prop_assert_eq!(kb.state_bytes(), reference_kb.state_bytes());
            prop_assert_eq!(kb.revision(), reference_kb.revision());
        }
    }
}
