//! Shared detection-module utilities: sliding-window counters, alert
//! rate gating, and RSSI-fingerprinting helpers.

// kalis-lint: allow(KL301): `CountIndex`'s hash map, bounded by its counter's event buffer and only looked up or summed
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::collections::VecDeque;
use std::hash::Hash;
use std::time::Duration;

use kalis_packets::ctp::CtpFrame;
use kalis_packets::{Entity, Packet, Timestamp};

use crate::bounded::WindowSketch;

/// The identity to attribute a frame's RSSI to, for fingerprinting
/// detectors (Sybil, replication).
///
/// Relayed frames are excluded: their RSSI belongs to the *relay*, not to
/// the claimed originator, so mixing them into an identity's fingerprint
/// produces false two-level patterns. A frame is attributable only when
/// the claimed network source is the transmitter itself (or no network
/// source is claimed at all).
pub(crate) fn fingerprint_identity(pkt: &Packet) -> Option<Entity> {
    if let Some(CtpFrame::Data(data)) = pkt.ctp() {
        if data.thl > 0 {
            return None; // relayed
        }
    }
    let tx = pkt.transmitter();
    match (pkt.net_src(), tx) {
        (Some(src), Some(tx)) if src == tx => Some(src),
        (Some(_), Some(_)) => None, // claimed source ≠ transmitter: relayed/forged path
        (Some(src), None) => Some(src),
        (None, tx) => tx,
    }
}

/// A sliding-window event counter keyed by `K`.
///
/// # Examples
///
/// ```
/// use kalis_core::detection::SlidingCounter;
/// use kalis_packets::Timestamp;
/// use std::time::Duration;
///
/// let mut counter: SlidingCounter<&str> = SlidingCounter::new(Duration::from_secs(5));
/// counter.push(Timestamp::from_secs(1), "v");
/// counter.push(Timestamp::from_secs(2), "v");
/// assert_eq!(counter.count(&"v", Timestamp::from_secs(3)), 2);
/// assert_eq!(counter.count(&"v", Timestamp::from_secs(60)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingCounter<K> {
    window: Duration,
    budget: usize,
    events: VecDeque<(Timestamp, K)>,
    /// How many of `events` each key has, kept in step wherever an event
    /// enters or leaves: a count is one lookup however long the buffer.
    counts: CountIndex<K>,
    overflow: Option<WindowSketch>,
}

/// Distinct keys a [`CountIndex`] compares in place before it moves to a
/// hash map. A flood's few victims are found faster by comparing them
/// than by hashing: with either mode forced on a full counter, in place
/// was a quarter or more faster up to 16 keys round-robin and tied the
/// hash map from 24 to 32. `sliding_counter_count_few` (five keys) and
/// `sliding_counter_count_at_cap` (a new key per event) in the `bounded`
/// bench measure the two sides.
const FEW_KEYS: usize = 16;

/// How many events of a [`SlidingCounter`]'s buffer each key has: one
/// entry per distinct key, never more than the buffer's events.
///
/// Up to [`FEW_KEYS`] keys sit in a short list compared in place. Past
/// that the index moves to a std `HashMap` with its own `RandomState`,
/// as [`crate::bounded::BoundedMap`] does, because the keys are
/// identities an attacker chooses; it moves back when it empties. The
/// index is only looked up or summed, never listed, so neither the
/// list's order nor a hash order can reach an answer.
#[derive(Debug, Clone)]
enum CountIndex<K> {
    Few(Vec<(K, u32)>),
    // kalis-lint: allow(KL301): one entry per distinct key of the event buffer; only looked up or summed
    Many(HashMap<K, u32, RandomState>),
}

impl<K: Eq + Hash + Clone> CountIndex<K> {
    fn new() -> Self {
        CountIndex::Few(Vec::new())
    }

    /// Events held for `key`.
    fn get(&self, key: &K) -> u32 {
        match self {
            CountIndex::Few(held) => held.iter().find(|(k, _)| k == key).map_or(0, |(_, n)| *n),
            CountIndex::Many(held) => held.get(key).copied().unwrap_or(0),
        }
    }

    /// One event of `key` entered the buffer.
    fn add(&mut self, key: &K) {
        match self {
            CountIndex::Few(held) => {
                if let Some((_, n)) = held.iter_mut().find(|(k, _)| k == key) {
                    *n += 1;
                } else if held.len() < FEW_KEYS {
                    held.push((key.clone(), 1));
                } else {
                    // kalis-lint: allow(KL301): the index past `FEW_KEYS`; only looked up or summed
                    let mut many = HashMap::with_hasher(RandomState::new());
                    many.extend(held.drain(..));
                    many.insert(key.clone(), 1);
                    *self = CountIndex::Many(many);
                }
            }
            CountIndex::Many(held) => match held.get_mut(key) {
                Some(n) => *n += 1,
                None => drop(held.insert(key.clone(), 1)),
            },
        }
    }

    /// One event of `key` left the buffer. The key is the event's own, so
    /// the hash map finds it with one hash whether it stays or goes.
    fn remove(&mut self, key: K) {
        match self {
            CountIndex::Few(held) => {
                if let Some(at) = held.iter().position(|(k, _)| *k == key) {
                    match &mut held[at].1 {
                        n if *n > 1 => *n -= 1,
                        _ => drop(held.swap_remove(at)),
                    }
                }
            }
            CountIndex::Many(held) => {
                if let Entry::Occupied(mut n) = held.entry(key) {
                    match n.get_mut() {
                        n if *n > 1 => *n -= 1,
                        _ => drop(n.remove()),
                    }
                }
                if held.is_empty() {
                    *self = CountIndex::new();
                }
            }
        }
    }

    /// Distinct keys held.
    fn len(&self) -> usize {
        match self {
            CountIndex::Few(held) => held.len(),
            CountIndex::Many(held) => held.len(),
        }
    }

    /// Events held for the keys satisfying `wanted`.
    fn sum_matching(&self, wanted: impl Fn(&K) -> bool) -> usize {
        let held = |(key, n): (&K, &u32)| if wanted(key) { *n as usize } else { 0 };
        match self {
            CountIndex::Few(few) => few.iter().map(|(key, n)| held((key, n))).sum(),
            // kalis-lint: allow(KL305): summed, so no order reaches the answer
            CountIndex::Many(many) => many.iter().map(held).sum(),
        }
    }
}

impl<K: Eq + Clone + Hash> SlidingCounter<K> {
    /// An unbounded counter with the given window length.
    pub fn new(window: Duration) -> Self {
        SlidingCounter {
            window,
            budget: usize::MAX,
            events: VecDeque::new(),
            counts: CountIndex::new(),
            overflow: None,
        }
    }

    /// A counter buffering at most `budget` exact events; overflow
    /// spills into a rotating [`WindowSketch`], so under adversarial
    /// event cardinality memory stays fixed while [`Self::count`] never
    /// under-reports an in-window key (the sketch can only over-count).
    pub fn bounded(window: Duration, budget: usize) -> Self {
        let budget = budget.max(1);
        let width = (budget / 2).clamp(64, 1024);
        SlidingCounter {
            window,
            budget,
            events: VecDeque::new(),
            counts: CountIndex::new(),
            overflow: Some(WindowSketch::new(window, width, 4)),
        }
    }

    /// Record an event. Events outside the window ending at `at` are
    /// forgotten first; if the exact buffer is still at budget, the
    /// oldest buffered event is evicted into the overflow sketch.
    pub fn push(&mut self, at: Timestamp, key: K) {
        self.evict(at);
        while self.events.len() >= self.budget {
            let Some((_, old)) = self.events.pop_front() else {
                break;
            };
            if let Some(sketch) = self.overflow.as_mut() {
                sketch.spill(at, &old);
            }
            self.counts.remove(old);
        }
        self.counts.add(&key);
        self.events.push_back((at, key));
    }

    /// Drop events older than the window relative to `now` (aging out
    /// is not a budget eviction — expired events are simply forgotten).
    pub(crate) fn evict(&mut self, now: Timestamp) {
        let aged = |(ts, _): &(Timestamp, K)| now.saturating_since(*ts) > self.window;
        while self.events.front().is_some_and(aged) {
            if let Some((_, key)) = self.events.pop_front() {
                self.counts.remove(key);
            }
        }
        if let Some(sketch) = self.overflow.as_mut() {
            sketch.rotate_if_due(now);
        }
    }

    /// Events for `key` within the window ending at `now`: exact
    /// buffered matches plus the overflow sketch's (never-undercounting)
    /// estimate for spilled ones.
    pub fn count(&mut self, key: &K, now: Timestamp) -> usize {
        let exact = self.exact(key, now);
        let spilled = self
            .overflow
            .as_ref()
            .map(|s| s.estimate(key) as usize)
            .unwrap_or(0);
        exact + spilled
    }

    /// Buffered events for `key` within the window ending at `now`: the
    /// exact part of [`Self::count`] alone.
    pub fn exact(&mut self, key: &K, now: Timestamp) -> usize {
        self.evict(now);
        self.counts.get(key) as usize
    }

    /// Buffered events within the window ending at `now` whose key
    /// satisfies `wanted`, at one visit per distinct key.
    pub(crate) fn count_matching(&mut self, now: Timestamp, wanted: impl Fn(&K) -> bool) -> usize {
        self.evict(now);
        self.counts.sum_matching(wanted)
    }

    /// Cumulative events evicted into the overflow sketch.
    pub fn evictions(&self) -> u64 {
        self.overflow.as_ref().map(|s| s.spilled()).unwrap_or(0)
    }

    /// The exact-event budget (`usize::MAX` when unbounded).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes held: exact buffer, its per-key count index and overflow
    /// sketch counters.
    pub fn state_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<(Timestamp, K)>()
            + self.counts.len() * std::mem::size_of::<(K, u32)>()
            + self.overflow.as_ref().map(|s| s.state_bytes()).unwrap_or(0)
    }

    /// Iterate the raw windowed events (after eviction at `now`).
    pub fn events(&mut self, now: Timestamp) -> impl Iterator<Item = &(Timestamp, K)> {
        self.evict(now);
        self.events.iter()
    }

    /// Number of buffered events (including not-yet-evicted stale ones).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop every buffered event and overflow spill (supervisor
    /// `reset()` support: the counter reports a just-constructed state).
    pub fn clear(&mut self) {
        self.events.clear();
        self.counts = CountIndex::new();
        if let Some(sketch) = self.overflow.as_mut() {
            sketch.clear();
        }
    }
}

/// Deduplicates alerts: at most one alert per key per `cooldown`.
#[derive(Debug, Clone)]
pub(crate) struct AlertGate<K> {
    cooldown: Duration,
    budget: usize,
    last: Vec<(K, Timestamp)>,
    evictions: u64,
}

impl<K: PartialEq + Clone> AlertGate<K> {
    /// An unbounded gate with the given per-key cooldown.
    pub fn new(cooldown: Duration) -> Self {
        AlertGate {
            cooldown,
            budget: usize::MAX,
            last: Vec::new(),
            evictions: 0,
        }
    }

    /// A gate remembering at most `budget` keys; when full, the
    /// stalest firing record is evicted. An evicted key may re-alert
    /// before its cooldown lapses (bounded duplicate alerts, never
    /// suppressed ones).
    pub fn bounded(cooldown: Duration, budget: usize) -> Self {
        AlertGate {
            cooldown,
            budget: budget.max(1),
            last: Vec::new(),
            evictions: 0,
        }
    }

    /// Whether an alert for `key` may fire now; records the firing when
    /// permitted.
    pub(crate) fn permit(&mut self, key: K, now: Timestamp) -> bool {
        if let Some((_, at)) = self.last.iter_mut().find(|(k, _)| *k == key) {
            if now.saturating_since(*at) < self.cooldown {
                return false;
            }
            *at = now;
            return true;
        }
        while self.last.len() >= self.budget {
            let stalest = self
                .last
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(i, _)| i);
            match stalest {
                Some(i) => {
                    self.last.remove(i);
                    self.evictions += 1;
                }
                None => break,
            }
        }
        self.last.push((key, now));
        true
    }

    /// Cumulative firing records evicted to stay within budget.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Current keys tracked.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.last.len()
    }

    /// Forget all firing history and zero the eviction counter
    /// (supervisor `reset()` support).
    pub fn clear(&mut self) {
        self.last.clear();
        self.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_window_semantics() {
        let mut c: SlidingCounter<u32> = SlidingCounter::new(Duration::from_secs(10));
        for i in 0..5 {
            c.push(Timestamp::from_secs(i), 1);
        }
        c.push(Timestamp::from_secs(4), 2);
        assert_eq!(c.count(&1, Timestamp::from_secs(5)), 5);
        assert_eq!(c.events(Timestamp::from_secs(5)).count(), 6);
        // Window slides: events at t<2 fall out at now=12.
        assert_eq!(c.count(&1, Timestamp::from_secs(12)), 3);
        let keys: Vec<u32> = c
            .events(Timestamp::from_secs(12))
            .map(|(_, k)| *k)
            .collect();
        assert_eq!(keys, vec![1, 1, 1, 2]);
    }

    #[test]
    fn bounded_counter_spills_without_undercounting() {
        let mut c: SlidingCounter<u32> = SlidingCounter::bounded(Duration::from_secs(10), 8);
        // A real attacker's 6 events interleaved with 100 one-shot spray
        // keys that push them out of the exact buffer.
        for i in 0..100u32 {
            if i % 17 == 0 {
                c.push(Timestamp::from_secs(1), 7777);
            }
            c.push(Timestamp::from_secs(1), 10_000 + i);
        }
        assert!(c.len() <= 8, "exact buffer respects budget");
        assert!(c.evictions() > 0, "overflow spilled");
        assert!(
            c.count(&7777, Timestamp::from_secs(2)) >= 6,
            "spilled attacker events still counted"
        );
    }

    #[test]
    fn a_push_forgets_what_left_the_window_before_it_spills() {
        let mut c: SlidingCounter<&str> = SlidingCounter::bounded(Duration::from_secs(5), 2);
        c.push(Timestamp::from_secs(0), "first");
        c.push(Timestamp::from_secs(0), "second");
        // Both earlier events are out of the window: they age out, and
        // neither is spilled into the sketch to be counted again.
        c.push(Timestamp::from_secs(6), "third");
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.count(&"first", Timestamp::from_secs(6)), 0);
        assert_eq!(c.count(&"third", Timestamp::from_secs(6)), 1);
    }

    /// Events of `counter`'s buffer whose key satisfies `wanted`, counted
    /// the slow way.
    fn scan<K>(counter: &SlidingCounter<K>, wanted: impl Fn(&K) -> bool) -> usize {
        let events = counter.events.iter();
        events.filter(|(_, k)| wanted(k)).count()
    }

    /// What `counter`'s index holds, key by key, in key order.
    fn indexed<K: Ord + Clone>(counter: &SlidingCounter<K>) -> Vec<(K, u32)> {
        let mut held: Vec<(K, u32)> = match &counter.counts {
            CountIndex::Few(few) => few.clone(),
            CountIndex::Many(many) => many.iter().map(|(k, n)| (k.clone(), *n)).collect(),
        };
        held.sort();
        held
    }

    /// Drive `counter` through `ops` over keys made by `key_of`; after
    /// every step the index must say what a scan of the buffer says.
    ///
    /// First, every key the ops can name is pushed at once and then aged
    /// out: a counter whose budget holds more than [`FEW_KEYS`] of them
    /// moves its index to the hash map and back.
    fn index_agrees_with_a_scan<K: Ord + Clone + Hash + std::fmt::Debug>(
        mut counter: SlidingCounter<K>,
        ops: &[(u8, u8, u64)],
        key_of: fn(u8) -> K,
    ) {
        for key in 0..KEYS {
            counter.push(Timestamp::from_millis(0), key_of(key));
        }
        let promotes = counter.budget > FEW_KEYS;
        assert_eq!(matches!(counter.counts, CountIndex::Many(_)), promotes);
        let mut millis = 6_000;
        counter.evict(Timestamp::from_millis(millis));
        assert!(matches!(&counter.counts, CountIndex::Few(few) if few.is_empty()));
        for &(op, key, advance) in ops {
            // Time moves forward: mostly a fraction of the window, so the
            // buffer fills past its budget; now and then by more than it.
            millis += if advance % 13 == 0 {
                advance * 6
            } else {
                advance / 4
            };
            let now = Timestamp::from_millis(millis);
            let key = key_of(key);
            match op {
                0..=5 => counter.push(now, key.clone()),
                6 => counter.evict(now),
                7 if advance < 20 => counter.clear(),
                _ => {}
            }
            let held = indexed(&counter);
            let mut keys: Vec<K> = counter.events.iter().map(|(_, k)| k.clone()).collect();
            keys.sort();
            keys.dedup();
            let indexed_keys: Vec<K> = held.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(indexed_keys, keys, "the index holds the buffer's keys");
            for (indexed, held) in &held {
                assert_eq!(
                    *held as usize,
                    scan(&counter, |k| k == indexed),
                    "{indexed:?}"
                );
                assert_ne!(*held, 0, "{indexed:?} left the buffer and stayed indexed");
            }
            match &counter.counts {
                CountIndex::Few(few) => assert!(few.len() <= FEW_KEYS),
                CountIndex::Many(many) => assert!(!many.is_empty(), "an empty hash index"),
            }
            assert!(counter.events.len() <= counter.budget);
            let index_bytes = held.len() * std::mem::size_of::<(K, u32)>();
            let rest = counter.events.len() * std::mem::size_of::<(Timestamp, K)>()
                + (counter.overflow.as_ref()).map_or(0, |s| s.state_bytes());
            assert_eq!(counter.state_bytes(), rest + index_bytes);
            // What is due to leave leaves first, so the reads below see
            // one buffer and one sketch.
            counter.evict(now);
            let spilled = (counter.overflow.as_ref()).map_or(0, |s| s.estimate(&key) as usize);
            let scanned = scan(&counter, |k| *k == key);
            assert_eq!(counter.exact(&key, now), scanned);
            assert_eq!(counter.count(&key, now), scanned + spilled);
            let below = counter.count_matching(now, |k| *k <= key);
            assert_eq!(below, scan(&counter, |k| *k <= key));
            assert_eq!(counter.count_matching(now, |_| true), counter.events.len());
        }
    }

    /// Distinct keys the proptests name: three times what the index
    /// compares in place.
    const KEYS: u8 = 3 * FEW_KEYS as u8;

    /// A short address for `n`, and one name past the inline capacity.
    fn entity(n: u8) -> Entity {
        match n {
            0 => Entity::new("fe80::0202:b3ff:fe1e:8329"),
            n => Entity::from(kalis_packets::ShortAddr(u16::from(n))),
        }
    }

    proptest::proptest! {
        /// Bounded and unbounded, short keys, spilling keys and tuple
        /// keys, few and many of them: wherever an event enters or leaves
        /// — pushed, aged out, spilled at the budget, cleared — the index
        /// moves with it.
        #[test]
        fn the_count_index_agrees_with_a_scan_of_the_buffer(
            ops in proptest::collection::vec((0u8..8, 0u8..KEYS, 0u64..1_500), 1..300),
            budget in 1usize..4 * FEW_KEYS,
        ) {
            let window = Duration::from_secs(5);
            let pair = |n: u8| (entity(n / 2), u16::from(n % 2));
            index_agrees_with_a_scan(SlidingCounter::bounded(window, budget), &ops, entity);
            index_agrees_with_a_scan(SlidingCounter::new(window), &ops, entity);
            index_agrees_with_a_scan(SlidingCounter::bounded(window, budget), &ops, pair);
            index_agrees_with_a_scan(SlidingCounter::new(window), &ops, pair);
        }

        /// No hash order escapes: one history through two counters, each
        /// hash index keyed by its own `RandomState`, gets the same
        /// answers from every read.
        #[test]
        fn two_keyings_of_one_history_count_the_same(
            ops in proptest::collection::vec((0u8..8, 0u8..KEYS, 0u64..1_500), 1..300),
            budget in 1usize..4 * FEW_KEYS,
        ) {
            let window = Duration::from_secs(5);
            let mut a = SlidingCounter::bounded(window, budget);
            let mut b = SlidingCounter::bounded(window, budget);
            let mut millis = 0;
            for (op, key, advance) in ops {
                millis += advance / 4;
                let (now, key) = (Timestamp::from_millis(millis), entity(key));
                if op < 6 {
                    a.push(now, key.clone());
                    b.push(now, key.clone());
                }
                proptest::prop_assert_eq!(a.count(&key, now), b.count(&key, now));
                let below = |k: &Entity| *k <= key;
                proptest::prop_assert_eq!(a.count_matching(now, below), b.count_matching(now, below));
                proptest::prop_assert_eq!(a.evictions(), b.evictions());
                proptest::prop_assert_eq!(a.state_bytes(), b.state_bytes());
            }
        }
    }

    #[test]
    fn bounded_gate_evicts_stalest_never_blocks_fresh() {
        let mut gate: AlertGate<u32> = AlertGate::bounded(Duration::from_secs(100), 2);
        assert!(gate.permit(1, Timestamp::from_secs(0)));
        assert!(gate.permit(2, Timestamp::from_secs(1)));
        assert!(
            gate.permit(3, Timestamp::from_secs(2)),
            "new key always permitted"
        );
        assert_eq!(gate.len(), 2);
        assert_eq!(gate.evictions(), 1);
        assert!(
            !gate.permit(3, Timestamp::from_secs(3)),
            "cooldown still enforced"
        );
    }

    #[test]
    fn gate_blocks_within_cooldown_then_reopens() {
        let mut gate: AlertGate<&str> = AlertGate::new(Duration::from_secs(10));
        assert!(gate.permit("v", Timestamp::from_secs(0)));
        assert!(!gate.permit("v", Timestamp::from_secs(5)));
        assert!(
            gate.permit("w", Timestamp::from_secs(5)),
            "other keys unaffected"
        );
        assert!(gate.permit("v", Timestamp::from_secs(11)));
    }
}
