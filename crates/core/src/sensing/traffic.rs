//! Traffic Statistics Collection (paper §V): packets/second per traffic
//! type, network-wide and per monitored device, over a configurable
//! window (default 5 seconds, the paper's default).

use std::collections::{BTreeMap, HashMap, VecDeque}; // kalis-lint: allow(KL301): see field notes
use std::mem::size_of;
use std::time::Duration;

use kalis_packets::{CapturedPacket, Entity, Timestamp, TrafficClass};

use crate::bounded::{budget_params, BoundedMap, DEFAULT_ENTITY_BUDGET, MIN_ENTITY_BUDGET};
use crate::knowledge::{KnowValue, KnowledgeBase};
use crate::modules::{KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec, ValueType};
use crate::sensing::labels;

/// Events retained per budget unit: the deque holds whole-window raw
/// events, not per-entity state, so it gets headroom over the entity
/// budget before oldest-first shedding kicks in.
const EVENTS_PER_BUDGET_UNIT: usize = 8;

/// Window events a destination needs before its rate may reach the
/// Knowledge Base: one event is not a rate, and a destination heard once
/// is what an identity spray is made of.
const SIGHTINGS_TO_ADMIT: u32 = 2;

/// A published rate's identity: network-wide (`None`) or towards one
/// destination.
type RateKey = (TrafficClass, Option<Entity>);

/// One window event.
#[derive(Debug)]
struct Event {
    at: Timestamp,
    class: TrafficClass,
    dst: Option<Entity>,
}

/// What `written` holds per destination key.
#[derive(Debug, Clone, Copy)]
struct Published {
    /// The rate last written to the Knowledge Base.
    rate: f64,
    /// Window events counted towards this key, bumped and decremented as
    /// events come and go.
    count: u32,
    /// Whether the key sits in `dirty`: a key is queued once, however
    /// many of its events come and go between two publishes.
    queued: bool,
}

/// The destination keys of the window not admitted: the doorkeeper at
/// the Knowledge Base's door.
///
/// Each key has its exact window count, and the keys with at least
/// [`SIGHTINGS_TO_ADMIT`] events stand in line in the order they got
/// there. A key whose count falls back below loses its place.
#[derive(Debug, Default)]
struct Pending {
    /// The keys are identities an attacker picks, so the hash is std's
    /// per-map `RandomState`; the map is never iterated, so no hash order
    /// escapes.
    // kalis-lint: allow(KL301): one entry per key of a window event, so ≤ window events ≤ the event cap
    counts: HashMap<RateKey, Waiting>,
    /// The eligible keys by place.
    // kalis-lint: allow(KL301): one entry per eligible key of `counts`, so ≤ window events / 2
    line: BTreeMap<u64, RateKey>,
    /// The place the next key to become eligible gets.
    next_place: u64,
}

/// What [`Pending`] holds per key.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    /// Window events towards the key.
    count: u32,
    /// The key's place in line, while `count` is at least
    /// [`SIGHTINGS_TO_ADMIT`].
    place: u64,
}

impl Pending {
    /// Hold `key` with `count` window events, last in line if that makes
    /// it eligible.
    fn hold(&mut self, key: RateKey, count: u32) {
        let place = self.next_place;
        if count >= SIGHTINGS_TO_ADMIT {
            self.line.insert(place, key.clone());
            self.next_place += 1;
        }
        self.counts.insert(key, Waiting { count, place });
    }

    /// Count one more window event towards `key`.
    fn arrive(&mut self, key: &RateKey) {
        let Some(waiting) = self.counts.get_mut(key) else {
            return self.hold(key.clone(), 1);
        };
        waiting.count += 1;
        if waiting.count == SIGHTINGS_TO_ADMIT {
            waiting.place = self.next_place;
            self.line.insert(self.next_place, key.clone());
            self.next_place += 1;
        }
    }

    /// Count one fewer window event towards `key`.
    fn forget(&mut self, key: &RateKey) {
        let Some(waiting) = self.counts.get_mut(key) else {
            return;
        };
        waiting.count -= 1;
        if waiting.count == 0 {
            self.counts.remove(key);
        } else if waiting.count + 1 == SIGHTINGS_TO_ADMIT {
            self.line.remove(&waiting.place);
        }
    }

    /// Let the first key in line through, with its window count.
    fn admit(&mut self) -> Option<(RateKey, u32)> {
        let (_, key) = self.line.pop_first()?;
        let waiting = self.counts.remove(&key)?;
        Some((key, waiting.count))
    }

    /// Each key at the size of its entry, in the map and in line.
    fn state_bytes(&self) -> usize {
        self.counts.len() * size_of::<(RateKey, Waiting)>()
            + self.line.len() * size_of::<(u64, RateKey)>()
    }
}

/// The Traffic Statistics sensing module.
///
/// Writes multilevel knowggets rooted at [`labels::TRAFFIC_FREQUENCY`]:
/// `TrafficFrequency.TCPSYN = 0.037` (network-wide packets/second) and
/// `TrafficFrequency.TCPSYN@10.0.0.3 = …` (towards one device — the
/// per-destination view that "support\[s\] an accurate detection of targeted
/// DoS-like attacks").
///
/// The window counts are kept incrementally and keys whose count moved
/// are queued, so a publish costs the changed keys plus the events that
/// just expired, whatever the window depth or the number of live keys.
///
/// A destination's rate reaches the Knowledge Base from its second
/// window event, never its first, and only into room the budget has:
/// until then its count waits in `pending`. So a destination heard once
/// costs a map entry for as long as its event stays in the window, not a
/// slot, a knowgget and the eviction that makes room for both.
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
    class_counts: BTreeMap<TrafficClass, u32>,
    /// The non-zero network-wide rates last written to the Knowledge
    /// Base. Each takes a slot of `entity_budget` beside `written`.
    // kalis-lint: allow(KL301): at most one entry per TrafficClass variant
    class_rates: BTreeMap<TrafficClass, f64>,
    /// Destination keys of the window not admitted, with their counts.
    pending: Pending,
    /// Per-destination rates; a changed write refreshes a key's recency.
    written: BoundedMap<RateKey, Published>,
    /// Keys of `written` whose count moved since the last publish.
    // kalis-lint: allow(KL301): each written key is queued at most once (`Published::queued`)
    dirty: Vec<RateKey>,
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

    /// The same module with its published rates (per destination and
    /// network-wide together) bounded at `budget` entries and the raw
    /// event window capped at `budget * EVENTS_PER_BUDGET_UNIT` events.
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
            class_rates: BTreeMap::new(),  // kalis-lint: allow(KL301): see field note
            pending: Pending::default(),
            written: BoundedMap::new(entity_budget),
            dirty: Vec::new(), // kalis-lint: allow(KL301): see field note
        }
    }

    fn event_cap(&self) -> usize {
        self.entity_budget * EVENTS_PER_BUDGET_UNIT
    }

    fn write_rate(kb: &mut KnowledgeBase, (class, dst): RateKey, rate: f64) {
        let label = labels::traffic_frequency(class);
        match dst {
            None => kb.insert(label, rate),
            Some(entity) => kb.insert_about(label, entity, rate),
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
        // Lend the entity to the key for the lookups, then take it back.
        let key = (class, dst);
        if key.1.is_some() {
            self.arrive(&key);
        }
        let (class, dst) = key;
        self.events.push_back(Event { at, class, dst });
        // Publish opportunistically so rates stay fresh under bursts even
        // between ticks: whenever the window length is a multiple of 16.
        // At the cap the length is pinned (at a multiple of 16, for any
        // even budget), so every packet publishes.
        if self.events.len() % 16 == 0 {
            self.publish(ctx, at);
        }
    }

    /// Count a window event towards destination `key`: into its published
    /// rate if the key is admitted, else into `pending`.
    fn arrive(&mut self, key: &RateKey) {
        match self.written.peek_mut(key) {
            Some(published) => {
                published.count += 1;
                if !std::mem::replace(&mut published.queued, true) {
                    self.dirty.push(key.clone());
                }
            }
            None => self.pending.arrive(key),
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
        let key = (event.class, event.dst);
        match self.written.peek_mut(&key) {
            Some(published) => {
                published.count -= 1;
                if !std::mem::replace(&mut published.queued, true) {
                    self.dirty.push(key);
                }
            }
            None => self.pending.forget(&key),
        }
    }

    /// Admit eligible keys into the room the budget has, the longest
    /// eligible first, each with its exact window count. Churning a slot
    /// and a KB write per one-shot destination would let an identity
    /// spray turn every publish into a full-cache rewrite; destinations
    /// that keep talking get in once stale entries expire out of the
    /// window and free their slot.
    fn admit(&mut self, changed: &mut Vec<(RateKey, u32)>) {
        let room = self.entity_budget.saturating_sub(self.occupancy());
        changed.extend(std::iter::from_fn(|| self.pending.admit()).take(room));
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
        // The keys whose rate moved, with their counts, and the keys
        // nothing counts towards any more.
        // kalis-lint: allow(KL301): queued keys, admitted keys and one per class
        let mut changed: Vec<(RateKey, u32)> = Vec::new();
        // kalis-lint: allow(KL301): queued keys and one per class
        let mut zeroed: Vec<RateKey> = Vec::new();
        for (class, &count) in &self.class_counts {
            let rate = f64::from(count) / secs;
            let published = self.class_rates.get(class).copied();
            if rate == published.unwrap_or(0.0) {
                continue;
            }
            if count == 0 {
                zeroed.push((*class, None));
                continue;
            }
            if published.is_none() && self.occupancy() >= self.entity_budget {
                // A class new to the window takes its slot before any
                // destination is admitted: on a full budget it displaces
                // the least recently written destination, whose count goes
                // back to `pending`.
                let Some((lost, dropped)) = self.written.evict_lru() else {
                    continue;
                };
                if dropped.count > 0 {
                    self.pending.hold(lost.clone(), dropped.count);
                }
                zeroed.push(lost);
            }
            self.class_rates.insert(*class, rate);
            changed.push(((*class, None), count));
        }
        self.admit(&mut changed);
        for key in self.dirty.drain(..) {
            // A key displaced above is gone, and already zeroed.
            let Some(published) = self.written.peek_mut(&key) else {
                continue;
            };
            published.queued = false;
            if published.count == 0 {
                zeroed.push(key);
            } else if f64::from(published.count) / secs != published.rate {
                changed.push((key, published.count));
            }
        }
        // Changed rates in key order, then zeroes in key order.
        changed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        zeroed.sort_unstable();
        for (key, count) in changed {
            let rate = f64::from(count) / secs;
            Self::write_rate(ctx.kb, key.clone(), rate);
            if key.1.is_some() {
                // The write refreshes recency, so destinations whose rate
                // moves outlive quiet ones when a class needs a slot.
                // Admission left room for every new key.
                let published = Published {
                    rate,
                    count,
                    queued: false,
                };
                self.written.insert(key, published);
            }
        }
        for key in zeroed {
            if key.1.is_none() {
                self.class_rates.remove(&key.0);
            } else {
                self.written.remove(&key);
            }
            Self::write_rate(ctx.kb, key, 0.0);
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
        // 48 per event, 64 per published rate covers the count and the
        // queued flag beside it, the keys not admitted count at their
        // entries' size, and the per-class counts are fixed-size overhead.
        self.events.len() * 48 + self.occupancy() * 64 + self.pending.state_bytes() + 128
    }

    fn occupancy(&self) -> usize {
        self.written.len() + self.class_rates.len()
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
        self.class_rates.clear();
        self.pending = Pending::default();
        self.written.clear();
        self.dirty.clear();
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
        packets.extend([wifi_echo_reply(850, other), wifi_echo_reply(900, other)]);
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

    /// Every `TrafficFrequency.*` knowgget in the KB: label, entity, rate.
    fn rates(kb: &KnowledgeBase) -> Vec<(String, Option<Entity>, f64)> {
        kb.iter()
            .filter(|k| k.label.starts_with(labels::TRAFFIC_FREQUENCY))
            .map(|k| {
                let rate = k.value.as_f64().expect("rates are floats");
                (k.label.clone(), k.entity.clone(), rate)
            })
            .collect()
    }

    #[test]
    fn a_class_landing_on_a_full_cache_leaves_no_stale_rate() {
        let budget = 16;
        let mut module = TrafficStatsModule::new().with_entity_budget(budget);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        // Twelve seconds of echo replies, each pair towards a new
        // destination: past the budget within three seconds, and through
        // the 5 s window more than twice. A class the window has not seen
        // arrives on the full cache at 3 s and the spray goes on through
        // many publishes.
        let mut packets: Vec<_> = (0..120u64)
            .map(|i| wifi_echo_reply(i * 100, Ipv4Addr::new(10, 0, 1, (i / 2) as u8)))
            .collect();
        let sent = packets.clone();
        let rest = packets.split_off(30);
        run(&mut module, &mut kb, packets, Timestamp::from_millis(2_900));
        assert_eq!(module.occupancy(), budget);
        let end = Timestamp::from_millis(12_000);
        let rest = std::iter::once(ctp(2_950)).chain(rest).collect();
        run(&mut module, &mut kb, rest, end);
        assert!(kb.get_f64("TrafficFrequency.CTPDATA").is_some());
        assert!(module.occupancy() <= budget);
        // A non-zero per-destination rate is the rate of events still in
        // the window, not the last word about a key the cache dropped.
        let published = rates(&kb);
        assert!(published
            .iter()
            .any(|(_, dst, rate)| dst.is_some() && *rate > 0.0));
        for (label, dst, rate) in published {
            if dst.is_none() || rate == 0.0 {
                continue;
            }
            let in_window = sent
                .iter()
                .filter(|p| end.saturating_since(p.timestamp) <= Duration::from_secs(5))
                .filter(|p| p.decoded().and_then(|d| d.net_dst()) == dst)
                .count();
            assert_eq!(rate, in_window as f64 / 5.0, "{label}@{dst:?}");
        }
        // Once the window has drained, every rate reads zero.
        let mut alerts = Vec::new();
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(60),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        module.on_tick(&mut ctx);
        for (label, dst, rate) in rates(&kb) {
            assert_eq!(rate, 0.0, "{label}@{dst:?} outlived the window");
        }
        assert_eq!(module.occupancy(), 0);
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

    /// The published echo-reply rate towards `dst`, if any.
    fn reply_rate(kb: &KnowledgeBase, dst: Ipv4Addr) -> Option<f64> {
        let label = labels::traffic_frequency(TrafficClass::IcmpEchoReply);
        (kb.get_about(label, &Entity::new(dst.to_string()))).and_then(|v| v.as_f64())
    }

    #[test]
    fn a_destination_heard_once_is_never_written() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let once = Ipv4Addr::new(10, 0, 0, 9);
        let packets = vec![wifi_echo_reply(0, once)];
        run(&mut module, &mut kb, packets, Timestamp::from_millis(100));
        // The class rate counts it; the destination's waits at the door
        // until its one event leaves the window.
        assert_eq!(kb.get_f64("TrafficFrequency.ICMPRESP"), Some(0.2));
        assert_eq!(reply_rate(&kb, once), None);
        run(&mut module, &mut kb, Vec::new(), Timestamp::from_secs(60));
        assert_eq!(reply_rate(&kb, once), None);
        assert!(module.pending.counts.is_empty());
    }

    #[test]
    fn a_destination_heard_twice_is_written_at_its_exact_rate() {
        let mut module = TrafficStatsModule::new();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let twice = Ipv4Addr::new(10, 0, 0, 9);
        let packets = vec![wifi_echo_reply(0, twice), wifi_echo_reply(300, twice)];
        run(&mut module, &mut kb, packets, Timestamp::from_millis(400));
        assert_eq!(reply_rate(&kb, twice), Some(2.0 / 5.0));
        assert!(module.pending.counts.is_empty());
    }

    #[test]
    fn a_first_event_that_leaves_before_the_second_counts_for_nothing() {
        // The first event expires at a tick before the second arrives, or
        // at the publish after it: either way the window never holds two.
        for tick_between in [true, false] {
            let mut module = TrafficStatsModule::new();
            let mut kb = KnowledgeBase::new(KalisId::new("K1"));
            let late = Ipv4Addr::new(10, 0, 0, 9);
            let first = vec![wifi_echo_reply(0, late)];
            run(&mut module, &mut kb, first, Timestamp::from_millis(100));
            if tick_between {
                run(
                    &mut module,
                    &mut kb,
                    Vec::new(),
                    Timestamp::from_millis(5_500),
                );
            }
            let second = vec![wifi_echo_reply(6_000, late)];
            run(&mut module, &mut kb, second, Timestamp::from_millis(6_100));
            assert_eq!(reply_rate(&kb, late), None, "tick between: {tick_between}");
            assert!(module.pending.line.is_empty());
        }
    }

    #[test]
    fn a_destination_a_class_displaces_waits_with_its_count() {
        let budget = 16;
        let mut module = TrafficStatsModule::new().with_entity_budget(budget);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let dst = |n: u8| Ipv4Addr::new(10, 0, 1, n);
        // Destinations 1, 0 and 2 to 14, two replies each: with their
        // class, the whole budget. The first sixteen events publish 0 to 7
        // together, in key order, so 0 is the least recently written.
        let mut packets = vec![
            wifi_echo_reply(0, dst(1)),
            wifi_echo_reply(50, dst(1)),
            wifi_echo_reply(100, dst(0)),
            wifi_echo_reply(150, dst(0)),
        ];
        packets.extend((2..15u8).flat_map(|n| {
            let ms = 200 + u64::from(n) * 20;
            [
                wifi_echo_reply(ms, dst(n)),
                wifi_echo_reply(ms + 10, dst(n)),
            ]
        }));
        run(&mut module, &mut kb, packets, Timestamp::from_millis(1_500));
        assert_eq!(module.occupancy(), budget);
        assert_eq!(reply_rate(&kb, dst(0)), Some(0.4));
        // A class new to the window takes destination 0's slot: its rate
        // reads zero, and its two events wait in line.
        run(
            &mut module,
            &mut kb,
            vec![ctp(2_000)],
            Timestamp::from_millis(2_000),
        );
        assert_eq!(reply_rate(&kb, dst(0)), Some(0.0));
        let key = (
            TrafficClass::IcmpEchoReply,
            Some(Entity::new(dst(0).to_string())),
        );
        let waiting = module.pending.counts.get(&key).map(|waiting| waiting.count);
        assert_eq!(waiting, Some(2));
        assert!(module.pending.line.values().any(|held| *held == key));
        // Destination 1's events leave the window and free a slot, which
        // goes to destination 0 at its exact rate, with no new sighting.
        run(
            &mut module,
            &mut kb,
            Vec::new(),
            Timestamp::from_millis(5_060),
        );
        run(
            &mut module,
            &mut kb,
            Vec::new(),
            Timestamp::from_millis(5_070),
        );
        assert_eq!(reply_rate(&kb, dst(1)), Some(0.0));
        assert_eq!(reply_rate(&kb, dst(0)), Some(0.4));
    }

    #[test]
    fn keys_sent_twice_onto_a_full_budget_wait_in_bounded_state() {
        let budget = 16;
        let mut module = TrafficStatsModule::new().with_entity_budget(budget);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let mut alerts = Vec::new();
        // An event a millisecond for thirty seconds, at the event cap from
        // the first eighth of a second on. Fifteen destinations talk
        // steadily and hold the budget with their class; from two seconds
        // on, two events in three are an adversary's, every key twice.
        for ms in 0..30_000u64 {
            let dst = match (ms / 3, ms % 3) {
                (key, 0) | (key @ 0..=666, _) => format!("10.0.0.{}", key % 15),
                (key, _) => format!("10.9.{}.{}", key >> 8, key & 0xff),
            };
            let now = Timestamp::from_millis(ms);
            let mut ctx = ModuleCtx {
                now,
                kb: &mut kb,
                alerts: &mut alerts,
            };
            module.observe(&mut ctx, now, TrafficClass::Udp, Some(Entity::new(dst)));
            if ms % 100 == 0 {
                module.on_tick(&mut ctx);
            }
            // An eligible key has two events of its own in the window.
            let (pending, line) = (module.pending.counts.len(), module.pending.line.len());
            assert!(
                pending <= module.events.len(),
                "{pending} pending at {ms} ms"
            );
            assert!(line * 2 <= module.events.len(), "{line} in line at {ms} ms");
            assert!(module.occupancy() <= budget);
        }
        // Thousands of keys stood in line, never more than the window's
        // worth at once.
        assert!(module.pending.next_place > 5_000);
        assert_eq!(module.occupancy(), budget);
    }
}

/// The whole-window recounting model the differential test holds the
/// incremental module to: `publish` recounts every event and compares
/// every live key against what it last wrote. It states the publish rule
/// — network-wide rates in their own per-class map, sharing the budget
/// with the per-destination LRU; a destination admitted from its second
/// window event, into room only, the longest eligible first; recency
/// refreshed by changed writes only — without any of the bookkeeping
/// (`count`, `queued`, `dirty`, the counts and places of `pending`) that
/// makes the module's publish cost independent of the number of live
/// keys.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug)]
    pub(super) struct RecountingTrafficStats {
        window: Duration,
        entity_budget: usize,
        events: VecDeque<(Timestamp, TrafficClass, Option<Entity>)>,
        shed_events: u64,
        class_rates: BTreeMap<TrafficClass, f64>,
        written: BoundedMap<RateKey, f64>,
        /// The destination keys not written whose recount is at least
        /// two, in the order they got there: the rule's only memory, as
        /// the order is not in the window.
        line: Vec<RateKey>,
    }

    impl RecountingTrafficStats {
        pub(super) fn new(window: Duration, entity_budget: usize) -> Self {
            RecountingTrafficStats {
                window,
                entity_budget,
                events: VecDeque::new(),
                shed_events: 0,
                class_rates: BTreeMap::new(),
                written: BoundedMap::new(entity_budget),
                line: Vec::new(),
            }
        }

        fn event_cap(&self) -> usize {
            self.entity_budget * EVENTS_PER_BUDGET_UNIT
        }

        fn published(&self, key: &RateKey) -> Option<f64> {
            match key.1 {
                None => self.class_rates.get(&key.0).copied(),
                Some(_) => self.written.get(key).copied(),
            }
        }

        /// Window events towards the destination keys not written.
        fn held(&self) -> BTreeMap<RateKey, u32> {
            let mut held = BTreeMap::new();
            for (_, class, dst) in &self.events {
                let key = (*class, dst.clone());
                if key.1.is_some() && !self.written.contains_key(&key) {
                    *held.entry(key).or_default() += 1;
                }
            }
            held
        }

        /// The window or `written` changed for `key`: after every change,
        /// a destination key not written stands in line exactly while its
        /// recount is at least two, and a key joining goes last.
        fn recount(&mut self, key: RateKey) {
            let count = (self.events.iter())
                .filter(|(_, class, dst)| (*class, dst) == (key.0, &key.1))
                .count();
            let eligible = key.1.is_some()
                && !self.written.contains_key(&key)
                && count >= SIGHTINGS_TO_ADMIT as usize;
            let in_line = self.line.contains(&key);
            if eligible && !in_line {
                self.line.push(key);
            } else if !eligible && in_line {
                self.line.retain(|held| *held != key);
            }
        }

        fn pop(&mut self) {
            if let Some((_, class, dst)) = self.events.pop_front() {
                self.recount((class, dst));
            }
        }

        fn publish(&mut self, ctx: &mut ModuleCtx<'_>, now: Timestamp) {
            while let Some((ts, ..)) = self.events.front() {
                if now.saturating_since(*ts) > self.window {
                    self.pop();
                } else {
                    break;
                }
            }
            let secs = self.window.as_secs_f64();
            let mut counts: BTreeMap<RateKey, u32> = BTreeMap::new();
            for (_, class, _) in &self.events {
                *counts.entry((*class, None)).or_default() += 1;
            }
            // Classes new to the window take their slots first; on a full
            // budget each displaces the least recently written
            // destination, and goes unpublished if there is none.
            let mut stale: Vec<RateKey> = Vec::new();
            let classes: Vec<TrafficClass> = counts.keys().map(|key| key.0).collect();
            for class in classes {
                if self.class_rates.contains_key(&class) {
                    continue;
                }
                if self.occupancy() >= self.entity_budget {
                    match self.written.evict_lru() {
                        Some((lost, _)) => {
                            self.recount(lost.clone());
                            stale.push(lost);
                        }
                        None => {
                            counts.remove(&(class, None));
                            continue;
                        }
                    }
                }
                // No live class has rate 0, so the loop below writes it.
                self.class_rates.insert(class, 0.0);
            }
            let room = self.entity_budget.saturating_sub(self.occupancy());
            let admitted: Vec<RateKey> = self.line.drain(..room.min(self.line.len())).collect();
            for (_, class, dst) in &self.events {
                let key = (*class, dst.clone());
                if key.1.is_some() && (self.written.contains_key(&key) || admitted.contains(&key)) {
                    *counts.entry(key).or_default() += 1;
                }
            }
            stale.extend(
                self.written
                    .iter()
                    .map(|(key, _)| key.clone())
                    .chain(self.class_rates.keys().map(|class| (*class, None)))
                    .filter(|key| !counts.contains_key(key)),
            );
            stale.sort_unstable();
            for (key, count) in counts {
                let rate = f64::from(count) / secs;
                if self.published(&key) == Some(rate) {
                    continue;
                }
                TrafficStatsModule::write_rate(ctx.kb, key.clone(), rate);
                match key.1 {
                    None => self.class_rates.insert(key.0, rate),
                    Some(_) => self.written.insert(key, rate).map(|(_, rate)| rate),
                };
            }
            for key in stale {
                match key.1 {
                    None => self.class_rates.remove(&key.0),
                    Some(_) => self.written.remove(&key),
                };
                TrafficStatsModule::write_rate(ctx.kb, key, 0.0);
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
                self.pop();
                self.shed_events += 1;
            }
            self.events.push_back((at, class, dst.clone()));
            self.recount((class, dst));
            if self.events.len() % 16 == 0 {
                self.publish(ctx, at);
            }
        }

        pub(super) fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
            let now = ctx.now;
            self.publish(ctx, now);
        }

        pub(super) fn state_bytes(&self) -> usize {
            let held = self.held();
            let eligible = held.values().filter(|count| **count >= SIGHTINGS_TO_ADMIT);
            self.events.len() * 48
                + self.occupancy() * 64
                + held.len() * size_of::<(RateKey, Waiting)>()
                + eligible.count() * size_of::<(u64, RateKey)>()
                + 128
        }

        pub(super) fn occupancy(&self) -> usize {
            self.written.len() + self.class_rates.len()
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
        /// A spray of one class past every budget inside one window, then
        /// another class arriving on the full cache, seen through
        /// several publishes.
        ClassOntoFullCache {
            sprayed: usize,
            arriving: usize,
            packets: usize,
        },
        /// One class towards a few destinations, published, then silence
        /// until all of it has left the window: the class key and every
        /// one of its destination keys reach zero in the same publish.
        ClassExpires {
            class: usize,
            fanout: u32,
            packets: usize,
            tick: bool,
        },
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
            (0usize..8, 1usize..8, 1usize..40).prop_map(|(sprayed, offset, packets)| {
                Segment::ClassOntoFullCache {
                    sprayed,
                    arriving: (sprayed + offset) % CLASSES.len(),
                    packets,
                }
            }),
            (0usize..8, 1u32..6, 1usize..40, any::<bool>()).prop_map(
                |(class, fanout, packets, tick)| Segment::ClassExpires {
                    class,
                    fanout,
                    packets,
                    tick,
                }
            ),
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
                Segment::ClassOntoFullCache {
                    sprayed: class,
                    arriving,
                    packets,
                } => {
                    // 48 destinations in 96 ms, each heard twice: twice
                    // the larger budget, well inside the shorter window.
                    for _ in 0..48 {
                        sprayed += 1;
                        for _ in 0..2 {
                            steps.push(Step::Packet {
                                gap_us: 1_000,
                                class: *class,
                                dst: Some(sprayed),
                            });
                        }
                    }
                    for i in 0..*packets {
                        steps.push(Step::Packet {
                            gap_us: 1_000,
                            class: *arriving,
                            dst: (i % 3 != 0).then_some(200 + i as u32 % 2),
                        });
                        if i % 5 == 0 {
                            steps.push(Step::Tick { gap_us: 1 });
                        }
                    }
                }
                Segment::ClassExpires {
                    class,
                    fanout,
                    packets,
                    tick,
                } => {
                    for i in 0..*packets {
                        steps.push(Step::Packet {
                            gap_us: 2_000,
                            class: *class,
                            dst: Some(300 + i as u32 % fanout),
                        });
                    }
                    steps.push(Step::Tick { gap_us: 1 });
                    // Longer than either window.
                    let gap_us = 6_000_000;
                    steps.push(if *tick {
                        Step::Tick { gap_us }
                    } else {
                        Step::Packet {
                            gap_us,
                            class: (*class + 1) % CLASSES.len(),
                            dst: None,
                        }
                    });
                    steps.push(Step::Tick { gap_us: 1 });
                }
            }
        }
        steps
    }

    proptest! {
        /// The incremental module and the recounting reference write the
        /// same knowledge in the same order and report the same state,
        /// step by step, on streams that shed at the event cap, spray
        /// past the budget, bring new classes onto a full cache and let
        /// whole classes expire between two publishes.
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
