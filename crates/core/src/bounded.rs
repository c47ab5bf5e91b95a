//! Bounded-state primitives for detection under adversarial cardinality.
//!
//! Every per-entity structure in Kalis — flood/scan counters, watchdog
//! ledgers, fingerprint maps, per-entity knowggets — grows with the
//! number of *distinct identities* observed, and identities are free for
//! an attacker to fabricate (spoofed IPv4 sources, sprayed 802.15.4
//! short addresses). Without budgets, an address-spraying flood is a
//! memory-exhaustion DoS long before any detector fires.
//!
//! This module provides the shared bounded layer those structures sit
//! on:
//!
//! - [`BoundedMap`]: a hash-indexed map with a hard entry budget and
//!   least-recently-used eviction, iterated in order of use. Exact for
//!   everything it still holds; evicted keys are counted and reported so
//!   occupancy pressure is observable.
//! - [`CountMinSketch`]: a fixed-size approximate counter that **never
//!   under-counts**. Evicted exact state spills into it, so detectors
//!   keep firing on real heavy hitters even while churn evicts their
//!   exact entries.
//! - [`WindowSketch`]: two [`CountMinSketch`] epochs rotating on a time
//!   window, giving a windowed never-under-counting estimate for events
//!   spilled out of a bounded sliding window.
//! - [`SpaceSaving`] (re-exported from [`crate::ops`]): the Metwally
//!   top-K heavy-hitter sketch, generalized here for any structure that
//!   needs bounded "who are the biggest offenders" tracking.
//!
//! The invariants the proptests at the bottom pin down:
//!
//! 1. `BoundedMap` occupancy never exceeds its budget, across any
//!    interleaving of inserts, touches, and removes.
//! 2. `CountMinSketch::estimate(k)` ≥ true count of `k`, always.
//! 3. `SpaceSaving` top-K entries satisfy `count - error` ≤ true count
//!    ≤ `count`.
//! 4. `BoundedMap` answers and iterates as a plain LRU list does, the
//!    same whatever key its hash was given.

use std::collections::hash_map::{DefaultHasher, HashMap, RandomState};
use std::hash::{Hash, Hasher};
use std::time::Duration;

use kalis_packets::Timestamp;

/// Default entry budget for per-module bounded structures when the
/// operator does not override `entity_budget` in the module's config.
pub const DEFAULT_ENTITY_BUDGET: usize = 1024;

/// Smallest `entity_budget` a module accepts; overrides below this are
/// clamped so a misconfigured budget cannot blind a detector entirely.
pub(crate) const MIN_ENTITY_BUDGET: usize = 16;

/// The `current_params` contribution of an `entity_budget` override:
/// empty at the default (so recommended configs stay minimal), the
/// explicit value otherwise.
pub(crate) fn budget_params(entity_budget: usize) -> Vec<(String, crate::knowledge::KnowValue)> {
    if entity_budget == DEFAULT_ENTITY_BUDGET {
        Vec::new()
    } else {
        vec![(
            "entity_budget".to_string(),
            crate::knowledge::KnowValue::Int(entity_budget as i64),
        )]
    }
}

/// A map holding at most `budget` entries, evicting the
/// least-recently-used entry when a new key would exceed the budget.
///
/// "Used" means written or deliberately touched ([`BoundedMap::get_mut`],
/// [`BoundedMap::insert`], [`BoundedMap::touch_or_insert`],
/// [`BoundedMap::get_or_insert_with`]); plain [`BoundedMap::get`] (and
/// its in-place twin [`BoundedMap::peek_mut`]) is a non-touching peek so
/// read-side telemetry and bookkeeping do not distort eviction order.
///
/// Keys are found through a hash index, so no operation's cost depends
/// on how many keys the map holds. The hash is std's `RandomState`,
/// keyed afresh for every map: the keys are identities an attacker
/// chooses, and with a hash they could predict they would spray keys
/// that all collide. No hash order ever leaves the map:
/// [`BoundedMap::iter`] walks the entries in order of use, oldest first,
/// which is also the order they are evicted in.
///
/// # Examples
///
/// ```
/// use kalis_core::bounded::BoundedMap;
///
/// let mut m: BoundedMap<u32, &str> = BoundedMap::new(2);
/// m.insert(1, "a");
/// m.insert(2, "b");
/// m.insert(3, "c"); // evicts 1, the least recently used
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.evictions(), 1);
/// assert!(m.get(&1).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct BoundedMap<K, V> {
    budget: usize,
    /// The slot of `recency` that holds each key's entry.
    index: HashMap<K, usize, RandomState>,
    recency: Recency<(K, V)>,
    evictions: u64,
}

/// Entries in order of last use, oldest first: a doubly linked list
/// threaded through a slab by slot number, so a touch is an unlink and a
/// push and the least recently used entry is the head. A released slot
/// goes onto a free list and is the next one handed out: the slab never
/// grows past the most entries listed at once.
#[derive(Debug, Clone)]
struct Recency<T> {
    slots: Vec<Slot<T>>,
    /// The least recently used slot.
    head: usize,
    /// The most recently used slot.
    tail: usize,
    /// The first free slot; free slots chain through `next`.
    free: usize,
}

#[derive(Debug, Clone)]
struct Slot<T> {
    /// `None` while the slot is free.
    item: Option<T>,
    prev: usize,
    next: usize,
}

/// No slot: past either end of the list, or an empty free list.
const NIL: usize = usize::MAX;

/// Why a slot the index points at holds an item: only a listed slot is
/// indexed, and a slot is unlisted only as its key leaves the index.
const LISTED: &str = "an indexed slot is listed";

impl<T> Recency<T> {
    fn new() -> Self {
        Recency {
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// List `item` as the most recently used; returns its slot and the
    /// item in place.
    fn push(&mut self, item: T) -> (usize, &mut T) {
        let slot = match self.free {
            NIL => {
                self.slots.push(Slot {
                    item: None,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
            free => {
                self.free = self.slots[free].next;
                free
            }
        };
        self.link_last(slot);
        (slot, self.slots[slot].item.insert(item))
    }

    /// The item in a listed `slot`.
    fn item(&self, slot: usize) -> &T {
        self.slots[slot].item.as_ref().expect(LISTED)
    }

    /// The item in a listed `slot`, mutably.
    fn item_mut(&mut self, slot: usize) -> &mut T {
        self.slots[slot].item.as_mut().expect(LISTED)
    }

    /// Make the item in `slot` the most recently used.
    fn touch(&mut self, slot: usize) {
        if slot != self.tail {
            self.unlink(slot);
            self.link_last(slot);
        }
    }

    /// Take the item in `slot` off the list and free the slot.
    fn release(&mut self, slot: usize) -> Option<T> {
        self.unlink(slot);
        self.slots[slot].next = self.free;
        self.free = slot;
        self.slots[slot].item.take()
    }

    /// Take the least recently used item off the list.
    fn pop_oldest(&mut self) -> Option<T> {
        if self.head == NIL {
            return None;
        }
        self.release(self.head)
    }

    /// The listed items, oldest first.
    fn iter(&self) -> impl Iterator<Item = &T> {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(at)?;
            at = slot.next;
            slot.item.as_ref()
        })
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        match prev {
            NIL => self.head = next,
            prev => self.slots[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.slots[next].prev = prev,
        }
    }

    fn link_last(&mut self, slot: usize) {
        self.slots[slot].prev = self.tail;
        self.slots[slot].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            tail => self.slots[tail].next = slot,
        }
        self.tail = slot;
    }
}

/// What [`BoundedMap::touch_or_insert`] found under its key.
#[derive(Debug, PartialEq)]
pub(crate) enum Touched<'a, K, V> {
    /// The key was held: its value, now the most recently used.
    Held(&'a mut V),
    /// The key is new: its just-made value, and the entry evicted to
    /// make room for it, if any.
    Inserted(&'a mut V, Option<(K, V)>),
}

impl<K: Hash + Eq + Clone, V> BoundedMap<K, V> {
    /// A map with the given entry budget (min 1).
    pub fn new(budget: usize) -> Self {
        BoundedMap {
            budget: budget.max(1),
            index: HashMap::with_hasher(RandomState::new()),
            recency: Recency::new(),
            evictions: 0,
        }
    }

    /// The entry budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Change the entry budget (min 1) in place. A smaller budget evicts
    /// the least recently used entries down to it, oldest first, and
    /// returns them; they count as evictions like any other, and the
    /// recency of what stays is kept.
    pub(crate) fn set_budget(&mut self, budget: usize) -> Vec<(K, V)> {
        self.budget = budget.max(1);
        let mut evicted = Vec::new();
        while self.index.len() > self.budget {
            let Some(entry) = self.evict_lru() else { break };
            evicted.push(entry);
        }
        if self.recency.slots.len() > self.budget {
            self.compact();
        }
        evicted
    }

    /// Current entries held (never exceeds [`BoundedMap::budget`]).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Cumulative entries evicted to stay within budget (does not count
    /// explicit [`BoundedMap::remove`] calls).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.slot_of(key).is_some()
    }

    /// Non-touching read: does not refresh the entry's recency.
    pub fn get(&self, key: &K) -> Option<&V> {
        let slot = self.slot_of(key)?;
        Some(&self.recency.item(slot).1)
    }

    /// Non-touching write access: updates the value in place without
    /// refreshing the entry's recency (bookkeeping that is not a "use").
    pub(crate) fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let slot = self.slot_of(key)?;
        Some(&mut self.recency.item_mut(slot).1)
    }

    /// Touching read: refreshes the entry's recency.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let slot = self.slot_of(key)?;
        self.recency.touch(slot);
        Some(&mut self.recency.item_mut(slot).1)
    }

    /// Insert or replace `key`, touching it; returns the entry evicted
    /// to make room, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(held) = self.get_mut(&key) {
            *held = value;
            return None;
        }
        self.admit(key, value).1
    }

    /// Touching upsert in one search: the value under `key` if it is
    /// held, else `key` listed newest with `value()` — after the least
    /// recently used entry was evicted, if the map was full.
    pub(crate) fn touch_or_insert(
        &mut self,
        key: &K,
        value: impl FnOnce() -> V,
    ) -> Touched<'_, K, V> {
        let Some(slot) = self.slot_of(key) else {
            let (value, evicted) = self.admit(key.clone(), value());
            return Touched::Inserted(value, evicted);
        };
        self.recency.touch(slot);
        Touched::Held(&mut self.recency.item_mut(slot).1)
    }

    /// Touching upsert: returns the (possibly just-defaulted) value for
    /// `key` and the entry evicted to make room, if any.
    pub fn get_or_insert_with(
        &mut self,
        key: &K,
        default: impl FnOnce() -> V,
    ) -> (&mut V, Option<(K, V)>) {
        match self.touch_or_insert(key, default) {
            Touched::Held(value) => (value, None),
            Touched::Inserted(value, evicted) => (value, evicted),
        }
    }

    /// Remove `key`, returning its value (not counted as an eviction).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.index.remove(key)?;
        self.recency.release(slot).map(|(_, v)| v)
    }

    /// Evict the least-recently-used entry whether or not the map is
    /// full (counted as an eviction): for an owner whose budget this map
    /// shares with state held elsewhere.
    pub(crate) fn evict_lru(&mut self) -> Option<(K, V)> {
        let (key, value) = self.recency.pop_oldest()?;
        self.index.remove(&key);
        self.evictions += 1;
        Some((key, value))
    }

    /// Iterate entries in order of use, least recently used first — the
    /// order they would be evicted in. Allocates nothing.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.recency.iter().map(|(k, v)| (k, v))
    }

    /// Drop every entry and zero the eviction counter (module `reset()`
    /// support: a reset module reports a just-constructed state).
    pub fn clear(&mut self) {
        *self = BoundedMap::new(self.budget);
    }

    /// Where `key`'s entry is. The newest entry is compared before the
    /// index is asked: a key used twice running — a flood's victim, its
    /// transmitter — is found without hashing.
    fn slot_of(&self, key: &K) -> Option<usize> {
        let newest = self.recency.tail;
        match self.recency.slots.get(newest) {
            Some(Slot {
                item: Some((held, _)),
                ..
            }) if held == key => Some(newest),
            _ => self.index.get(key).copied(),
        }
    }

    /// List a key not held as the most recently used, evicting first if
    /// the map is full; returns its value in place and the evicted entry.
    fn admit(&mut self, key: K, value: V) -> (&mut V, Option<(K, V)>) {
        let evicted = if self.index.len() >= self.budget {
            self.evict_lru()
        } else {
            None
        };
        let (slot, (_, value)) = self.recency.push((key.clone(), value));
        self.index.insert(key, slot);
        (value, evicted)
    }

    /// Rebuild the slab with the listed entries alone, in recency order:
    /// what a shrunk budget leaves free goes back to the allocator.
    fn compact(&mut self) {
        let mut old = std::mem::replace(&mut self.recency, Recency::new());
        while let Some(entry) = old.pop_oldest() {
            if let Some(slot) = self.index.get_mut(&entry.0) {
                *slot = self.recency.push(entry).0;
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A count-min sketch: fixed-size approximate counter that never
/// under-counts.
///
/// `depth` rows of `width` counters (width rounded up to a power of
/// two); each observation increments one counter per row, chosen by an
/// independent per-row mix of the key's hash; the estimate is the
/// minimum across rows. Collisions can only inflate counters, so
/// `estimate(k)` ≥ the true count of `k` — the property that lets
/// detectors spill evicted exact state here without losing recall.
///
/// # Examples
///
/// ```
/// use kalis_core::bounded::CountMinSketch;
///
/// let mut cms = CountMinSketch::new(256, 4);
/// for _ in 0..40 {
///     cms.observe(&"attacker");
/// }
/// assert!(cms.estimate(&"attacker") >= 40);
/// ```
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    rows: Vec<u64>,
    observed: u64,
}

impl CountMinSketch {
    /// A sketch of `depth` rows × `width` counters (width rounded up to
    /// a power of two, min 16; depth min 1).
    pub fn new(width: usize, depth: usize) -> Self {
        let width = width.max(16).next_power_of_two();
        let depth = depth.max(1);
        CountMinSketch {
            width,
            depth,
            rows: vec![0; width * depth],
            observed: 0,
        }
    }

    /// Record one observation of `key`.
    pub fn observe<K: Hash + ?Sized>(&mut self, key: &K) {
        self.add(key, 1);
    }

    /// Record `n` observations of `key`.
    pub fn add<K: Hash + ?Sized>(&mut self, key: &K, n: u64) {
        let base = Self::base_hash(key);
        for row in 0..self.depth {
            let idx = row * self.width + self.slot(base, row);
            self.rows[idx] = self.rows[idx].saturating_add(n);
        }
        self.observed = self.observed.saturating_add(n);
    }

    /// Estimated count for `key`: an upper bound on the true count.
    pub fn estimate<K: Hash + ?Sized>(&self, key: &K) -> u64 {
        self.estimate_hashed(Self::base_hash(key))
    }

    /// [`Self::estimate`] for a key whose [`Self::base_hash`] is `base`.
    fn estimate_hashed(&self, base: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.rows[row * self.width + self.slot(base, row)])
            .min()
            .unwrap_or(0)
    }

    /// Total observations recorded (the `N` in the ε·N error bound: any
    /// single estimate overshoots the true count by at most roughly
    /// `N / width` per row, minimized across rows).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Worst-case over-estimation bound for any key: `observed / width`,
    /// rounded up.
    #[cfg(test)]
    pub(crate) fn error_bound(&self) -> u64 {
        self.observed.div_ceil(self.width as u64)
    }

    /// Memory held by the counters, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<u64>()
    }

    /// Zero every counter.
    pub fn clear(&mut self) {
        self.rows.iter_mut().for_each(|c| *c = 0);
        self.observed = 0;
    }

    fn base_hash<K: Hash + ?Sized>(key: &K) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    fn slot(&self, base: u64, row: usize) -> usize {
        (splitmix64(base ^ splitmix64(row as u64 + 1)) as usize) & (self.width - 1)
    }
}

/// Two [`CountMinSketch`] epochs rotating on a time window.
///
/// Sliding-window counters with an entry budget spill their evicted
/// (oldest) events here. An event spilled at time `t` stays counted
/// until at least `t + window` (it lands in the current epoch; one
/// rotation later it is in the previous epoch, still summed; only the
/// second rotation drops it). The estimate `current + previous` is
/// therefore never below the true number of in-window spilled events —
/// bounded over-count, zero under-count. Where the count is evidence for
/// an alert (a flood's datagrams per victim), budget pressure can create
/// false positives but never suppress a real detection. Where it is
/// evidence against one, an over-count can suppress it: the SYN flood
/// detector's handshake completions, the ICMP flood detector's spoofed
/// requests (which defer to Smurf).
#[derive(Debug, Clone)]
pub(crate) struct WindowSketch {
    window: Duration,
    cur: CountMinSketch,
    prev: CountMinSketch,
    epoch_start: Option<Timestamp>,
    spilled: u64,
}

impl WindowSketch {
    /// A window sketch rotating every `window`, with per-epoch sketches
    /// of `width` × `depth` counters.
    pub fn new(window: Duration, width: usize, depth: usize) -> Self {
        WindowSketch {
            window,
            cur: CountMinSketch::new(width, depth),
            prev: CountMinSketch::new(width, depth),
            epoch_start: None,
            spilled: 0,
        }
    }

    /// Spill one evicted event for `key` at time `now`.
    pub(crate) fn spill<K: Hash + ?Sized>(&mut self, now: Timestamp, key: &K) {
        self.rotate_if_due(now);
        if self.epoch_start.is_none() {
            self.epoch_start = Some(now);
        }
        self.cur.observe(key);
        self.spilled = self.spilled.saturating_add(1);
    }

    /// Advance epochs if a full window has elapsed since the current
    /// epoch began. Call at eviction cadence so stale spills decay even
    /// when nothing new spills.
    pub(crate) fn rotate_if_due(&mut self, now: Timestamp) {
        let Some(start) = self.epoch_start else {
            return;
        };
        let mut elapsed = now.saturating_since(start);
        // Catch up across multiple idle windows.
        let mut guard = 0;
        while elapsed >= self.window && guard < 2 {
            std::mem::swap(&mut self.prev, &mut self.cur);
            self.cur.clear();
            elapsed = elapsed.saturating_sub(self.window);
            guard += 1;
        }
        if guard >= 2 {
            // Two+ windows idle: everything spilled is stale.
            self.prev.clear();
            self.cur.clear();
            self.epoch_start = None;
        } else if guard > 0 {
            self.epoch_start = Some(now);
        }
    }

    /// Estimated in-window spilled events for `key` (never an
    /// under-count of events spilled within the last `window`). The key
    /// is hashed once for both epochs.
    pub fn estimate<K: Hash + ?Sized>(&self, key: &K) -> u64 {
        let base = CountMinSketch::base_hash(key);
        (self.cur.estimate_hashed(base)).saturating_add(self.prev.estimate_hashed(base))
    }

    /// Cumulative events ever spilled (the eviction counter).
    pub(crate) fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Memory held by both epochs, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.cur.state_bytes() + self.prev.state_bytes()
    }

    /// Forget everything, including the spill counter (module `reset()`
    /// support).
    pub fn clear(&mut self) {
        self.cur.clear();
        self.prev.clear();
        self.epoch_start = None;
        self.spilled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_map_evicts_lru_not_hot() {
        let mut m: BoundedMap<u32, u32> = BoundedMap::new(3);
        m.insert(1, 10);
        m.insert(2, 20);
        m.insert(3, 30);
        // Touch 1 so 2 becomes the LRU.
        assert_eq!(m.get_mut(&1), Some(&mut 10));
        let evicted = m.insert(4, 40);
        assert_eq!(evicted, Some((2, 20)));
        assert!(m.contains_key(&1), "recently touched survives");
        assert_eq!(m.len(), 3);
        assert_eq!(m.evictions(), 1);
    }

    #[test]
    fn bounded_map_peek_does_not_touch() {
        let mut m: BoundedMap<u32, u32> = BoundedMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        let _ = m.get(&1); // peek, not a touch
        let evicted = m.insert(3, 30);
        assert_eq!(evicted, Some((1, 10)), "peeked entry is still the LRU");
    }

    #[test]
    fn bounded_map_clear_resets_to_constructed_state() {
        let mut m: BoundedMap<u32, u32> = BoundedMap::new(1);
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.evictions(), 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.evictions(), 0);
    }

    #[test]
    fn bounded_map_remove_is_not_an_eviction() {
        let mut m: BoundedMap<u32, u32> = BoundedMap::new(4);
        m.insert(1, 10);
        assert_eq!(m.remove(&1), Some(10));
        assert_eq!(m.evictions(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn bounded_map_touch_or_insert_searches_once_and_says_which() {
        let mut m: BoundedMap<u32, u32> = BoundedMap::new(2);
        assert_eq!(
            m.touch_or_insert(&1, || 10),
            Touched::Inserted(&mut 10, None)
        );
        assert_eq!(
            m.touch_or_insert(&2, || 20),
            Touched::Inserted(&mut 20, None)
        );
        // A held key is touched, and its value is not made again.
        assert_eq!(
            m.touch_or_insert(&1, || unreachable!()),
            Touched::Held(&mut 10)
        );
        assert_eq!(
            m.touch_or_insert(&3, || 30),
            Touched::Inserted(&mut 30, Some((2, 20))),
            "1 was touched, so 2 is the least recently used"
        );
        let held: Vec<(u32, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(held, vec![(1, 10), (3, 30)]);
        assert_eq!(m.evictions(), 1);
    }

    #[test]
    fn bounded_map_set_budget_evicts_the_stalest_in_place() {
        let mut m: BoundedMap<u32, u32> = BoundedMap::new(6);
        for i in 1..=6 {
            m.insert(i, i * 10);
        }
        m.insert(7, 70); // evicts 1
        assert_eq!(m.get_mut(&2), Some(&mut 20)); // 2 is now the newest
        let evicted = m.set_budget(3);
        assert_eq!(evicted, vec![(3, 30), (4, 40), (5, 50)], "oldest first");
        let held: Vec<u32> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(held, vec![6, 7, 2], "in order of use");
        assert_eq!((m.budget(), m.evictions()), (3, 4), "the count carries on");
        assert_eq!(
            m.insert(8, 80),
            Some((6, 60)),
            "recency survived the shrink"
        );
        // Growing evicts nothing; zero is clamped as in `new`.
        assert_eq!(m.set_budget(9), vec![]);
        assert_eq!(m.set_budget(0).len(), 2);
        assert_eq!((m.budget(), m.len(), m.evictions()), (1, 1, 7));
    }

    #[test]
    fn cms_counts_and_never_undercounts_dense_keys() {
        let mut cms = CountMinSketch::new(64, 4);
        for i in 0..1000u32 {
            cms.observe(&(i % 50));
        }
        for k in 0..50u32 {
            assert!(cms.estimate(&k) >= 20, "key {k} undercounted");
        }
        assert_eq!(cms.observed(), 1000);
        assert!(cms.error_bound() >= 1);
    }

    #[test]
    fn window_sketch_rotation_forgets_old_epochs() {
        let mut ws = WindowSketch::new(Duration::from_secs(5), 64, 4);
        ws.spill(Timestamp::from_secs(0), &"k");
        assert_eq!(ws.estimate(&"k"), 1);
        // Within a window: still counted.
        ws.rotate_if_due(Timestamp::from_secs(4));
        assert_eq!(ws.estimate(&"k"), 1);
        // One rotation: moved to prev, still counted (no under-count).
        ws.rotate_if_due(Timestamp::from_secs(6));
        assert_eq!(ws.estimate(&"k"), 1);
        // Two+ windows later: fully decayed.
        ws.rotate_if_due(Timestamp::from_secs(20));
        assert_eq!(ws.estimate(&"k"), 0);
        assert_eq!(ws.spilled(), 1, "cumulative spill counter survives decay");
    }

    #[test]
    fn window_sketch_event_outlives_remaining_window() {
        let mut ws = WindowSketch::new(Duration::from_secs(5), 64, 4);
        ws.spill(Timestamp::from_secs(0), &"a");
        // 4.9s later a second spill arrives; first is still in-window.
        ws.spill(Timestamp::from_millis(4900), &"b");
        assert_eq!(ws.estimate(&"a"), 1);
        assert_eq!(ws.estimate(&"b"), 1);
        // Just past one window: both still counted (prev epoch).
        ws.rotate_if_due(Timestamp::from_millis(5100));
        assert!(ws.estimate(&"a") >= 1);
        assert!(ws.estimate(&"b") >= 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ops::SpaceSaving;
    use proptest::prelude::*;
    use std::collections::BTreeMap as StdMap;

    proptest! {
        /// CMS estimates are always >= true counts, for any stream.
        #[test]
        fn cms_never_undercounts(
            keys in proptest::collection::vec(0u16..200, 1..600),
            width in 16usize..128,
            depth in 1usize..5,
        ) {
            let mut cms = CountMinSketch::new(width, depth);
            let mut truth: StdMap<u16, u64> = StdMap::new();
            for k in &keys {
                cms.observe(k);
                *truth.entry(*k).or_insert(0) += 1;
            }
            for (k, n) in &truth {
                prop_assert!(
                    cms.estimate(k) >= *n,
                    "key {} true {} est {}", k, n, cms.estimate(k)
                );
            }
        }

        /// Space-saving guarantees count-error <= true <= count for every
        /// monitored entry, at any capacity.
        #[test]
        fn space_saving_bounds_hold(
            keys in proptest::collection::vec(0u8..60, 1..500),
            capacity in 1usize..12,
        ) {
            let mut s: SpaceSaving<u8> = SpaceSaving::new(capacity);
            let mut truth: StdMap<u8, u64> = StdMap::new();
            for k in &keys {
                s.observe(k);
                *truth.entry(*k).or_insert(0) += 1;
            }
            for e in s.top() {
                let t = truth[&e.key];
                prop_assert!(e.count >= t, "estimate is an upper bound");
                prop_assert!(
                    e.count - e.error <= t,
                    "guaranteed floor must not exceed truth: {:?} true {}", e, t
                );
            }
        }

        /// LRU occupancy never exceeds the budget across random
        /// insert/touch/remove interleavings, and eviction accounting
        /// matches what actually left the map.
        #[test]
        fn bounded_map_occupancy_within_budget(
            ops in proptest::collection::vec((0u8..3, 0u16..100), 1..400),
            budget in 1usize..20,
        ) {
            let mut m: BoundedMap<u16, u16> = BoundedMap::new(budget);
            let mut inserted = 0u64;
            let mut removed = 0u64;
            for (op, key) in ops {
                match op {
                    0 => {
                        if !m.contains_key(&key) {
                            inserted += 1;
                        }
                        m.insert(key, key);
                    }
                    1 => {
                        let _ = m.get_mut(&key);
                    }
                    _ => {
                        if m.remove(&key).is_some() {
                            removed += 1;
                        }
                    }
                }
                prop_assert!(m.len() <= budget, "occupancy {} > budget {}", m.len(), budget);
            }
            prop_assert_eq!(
                m.len() as u64,
                inserted - removed - m.evictions(),
                "every departure is either a remove or a counted eviction"
            );
        }
    }

    /// What `BoundedMap` promises, as plainly as it can be written: the
    /// entries oldest-used first.
    #[derive(Default)]
    struct LruModel {
        budget: usize,
        entries: Vec<(u8, u16)>,
        evictions: u64,
    }

    impl LruModel {
        fn position(&self, key: u8) -> Option<usize> {
            self.entries.iter().position(|(k, _)| *k == key)
        }

        /// The value under `key`, moved to the newest end when `touch`.
        fn find(&mut self, key: u8, touch: bool) -> Option<&mut u16> {
            let mut at = self.position(key)?;
            if touch {
                let entry = self.entries.remove(at);
                self.entries.push(entry);
                at = self.entries.len() - 1;
            }
            Some(&mut self.entries[at].1)
        }

        fn evict_lru(&mut self) -> Option<(u8, u16)> {
            if self.entries.is_empty() {
                return None;
            }
            self.evictions += 1;
            Some(self.entries.remove(0))
        }

        /// `key` listed newest with `value`, unless it is held already.
        fn admit(&mut self, key: u8, value: u16) -> Option<(u8, u16)> {
            if self.position(key).is_some() {
                return None;
            }
            let full = self.entries.len() >= self.budget;
            let evicted = full.then(|| self.evict_lru()).flatten();
            self.entries.push((key, value));
            evicted
        }
    }

    /// One step of a history over a map: the pairs it answered with — a
    /// value it read, evicted or removed.
    fn apply(m: &mut BoundedMap<u16, u16>, op: u8, key: u16, arg: u16) -> Vec<(u16, u16)> {
        let touched = |key, value: Option<&mut u16>| value.map(|v| (key, *v));
        match op {
            0 => m.insert(key, arg).into_iter().collect(),
            1 => touched(key, m.get_mut(&key)).into_iter().collect(),
            2 => match m.touch_or_insert(&key, || arg) {
                Touched::Held(value) => vec![(key, *value)],
                Touched::Inserted(_, evicted) => evicted.into_iter().collect(),
            },
            3 => m.remove(&key).map(|v| (key, v)).into_iter().collect(),
            4 => m.evict_lru().into_iter().collect(),
            _ => m.set_budget(usize::from(arg)),
        }
    }

    proptest! {
        /// No hash order escapes: one history through two maps, each
        /// keyed by its own `RandomState`, gets the same answers — evicted
        /// pairs, `set_budget` returns — and leaves the same entries in
        /// the same order with the same eviction count. Enough keys that
        /// the two hash orders of what is held differ.
        #[test]
        fn two_keyings_of_one_history_tell_the_same_story(
            budget in 1usize..48,
            ops in proptest::collection::vec((0u8..6, 0u16..200, 0u16..48), 1..400),
        ) {
            let (mut a, mut b) = (BoundedMap::new(budget), BoundedMap::new(budget));
            for (op, key, arg) in ops {
                // `set_budget` on one draw of it in four: a shrink empties
                // a lot.
                let op = if op == 5 && key % 4 != 0 { 0 } else { op };
                prop_assert_eq!(apply(&mut a, op, key, arg), apply(&mut b, op, key, arg));
                prop_assert!(a.iter().eq(b.iter()));
                prop_assert_eq!(a.evictions(), b.evictions());
            }
        }

        /// Every operation, in any interleaving, answers as the plain
        /// model does — evicted pairs included — and leaves the same
        /// entries in the same order of use, the same eviction count, and
        /// a slab no longer than the budget.
        #[test]
        fn bounded_map_behaves_as_a_plain_lru_list(
            budget in 1usize..=6,
            ops in proptest::collection::vec((0u8..10, 0u8..12, 0u16..4), 1..300),
        ) {
            let mut m: BoundedMap<u8, u16> = BoundedMap::new(budget);
            let mut model = LruModel { budget, ..LruModel::default() };
            for (op, key, arg) in ops {
                match op {
                    0 => {
                        let evicted = model.admit(key, arg);
                        if let Some(held) = model.find(key, true) {
                            *held = arg;
                        }
                        prop_assert_eq!(m.insert(key, arg), evicted);
                    }
                    1 => prop_assert_eq!(m.get(&key), model.find(key, false).map(|v| &*v)),
                    2 | 3 => {
                        let touch = op == 2;
                        let (real, plain) = if touch {
                            (m.get_mut(&key), model.find(key, true))
                        } else {
                            (m.peek_mut(&key), model.find(key, false))
                        };
                        prop_assert_eq!(real.as_deref(), plain.as_deref());
                        if let (Some(real), Some(plain)) = (real, plain) {
                            *real += arg;
                            *plain += arg;
                        }
                    }
                    4 => {
                        let evicted = model.admit(key, arg);
                        let plain = model.find(key, true).copied();
                        let (real, real_evicted) = m.get_or_insert_with(&key, || arg);
                        prop_assert_eq!((Some(*real), real_evicted), (plain, evicted));
                    }
                    5 => {
                        let plain = model.position(key).map(|at| model.entries.remove(at).1);
                        prop_assert_eq!(m.remove(&key), plain);
                    }
                    6 => prop_assert_eq!(m.evict_lru(), model.evict_lru()),
                    7 => {
                        let held = model.position(key).is_some();
                        let evicted = model.admit(key, arg);
                        let plain = model.find(key, true).copied();
                        let real = match m.touch_or_insert(&key, || arg) {
                            Touched::Held(value) => (true, Some(*value), None),
                            Touched::Inserted(value, evicted) => (false, Some(*value), evicted),
                        };
                        prop_assert_eq!(real, (held, plain, evicted));
                    }
                    8 => {
                        model.budget = usize::from(key % 7).max(1);
                        let over = model.entries.len().saturating_sub(model.budget);
                        let evicted: Vec<_> = (0..over).filter_map(|_| model.evict_lru()).collect();
                        prop_assert_eq!(m.set_budget(usize::from(key % 7)), evicted);
                    }
                    _ => {
                        // Rarely: one op in ten would leave little to evict.
                        if arg == 0 {
                            m.clear();
                            model.entries.clear();
                            model.evictions = 0;
                        }
                    }
                }
                // One step more than there are entries: a list that loops
                // back on itself shows as too long, not as a hang.
                let by_use = m.iter().take(m.len() + 1).map(|(k, v)| (*k, *v));
                prop_assert_eq!(by_use.collect::<Vec<_>>(), model.entries.clone());
                prop_assert_eq!(
                    (m.len(), m.is_empty(), m.budget(), m.evictions()),
                    (model.entries.len(), model.entries.is_empty(), model.budget, model.evictions)
                );
                prop_assert!(m.recency.slots.len() <= m.budget());
            }
        }
    }
}
