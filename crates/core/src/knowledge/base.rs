//! The Knowledge Base proper: a store keyed by the paper's flat
//! `creator$label@entity` strings and holding typed values, with the
//! paper's prefix/suffix query patterns and change tracking.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

use kalis_packets::{Entity, InlineStr};
use kalis_telemetry::{metric_name, names, Counter, Gauge, Telemetry};

use crate::bounded::BoundedMap;
use crate::id::KalisId;

use super::key::{split, KeyBuf};
use super::subscription::{SlotSet, Subscriptions, Watch};
use super::{KnowKey, KnowValue, Knowgget, KnowggetOrigin};

/// Default cap on distinct entities holding per-entity knowggets. An
/// adversary spraying fake identities otherwise grows the KB without
/// bound; past this many entities the least-recently-written one is
/// evicted wholesale (every knowgget about it removed, with removal
/// change events so modules observe the knowledge disappearing).
pub const DEFAULT_KB_ENTITY_BUDGET: usize = 4096;

/// Cached instrument handles so the KB hot path never touches the
/// registry lock (paper-scale workloads query the KB per packet).
#[derive(Debug, Clone)]
struct KbStats {
    inserts: Arc<Counter>,
    gets: Arc<Counter>,
    removes: Arc<Counter>,
    syncs: Arc<Counter>,
    churn: Arc<Counter>,
    revision: Arc<Gauge>,
}

impl KbStats {
    fn new(registry: &Telemetry) -> Self {
        let op = |name: &str| registry.counter(&metric_name(names::KB_OPS, &[("op", name)]));
        KbStats {
            inserts: op("insert"),
            gets: op("get"),
            removes: op("remove"),
            syncs: op("sync"),
            churn: registry.counter(names::KB_CHURN),
            revision: registry.gauge(names::KB_REVISION),
        }
    }
}

/// A change to the Knowledge Base, consumed by the Module Manager to
/// decide module activation (paper: "the Knowledge Base will in turn
/// notify the Module Manager that recent changes ... might require
/// activating or deactivating specific modules").
#[derive(Debug, Clone, PartialEq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `KnowledgeBase::drain_changes`
pub struct ChangeEvent {
    /// The key that changed.
    pub key: KnowKey,
    /// The new value (the last value before removal when `removed`).
    pub value: KnowValue,
    /// Whether the knowgget was removed.
    pub(crate) removed: bool,
    /// Causal trace the write belongs to (0 = untraced).
    pub trace_id: u64,
}

/// The centralized store of knowggets for one Kalis node.
///
/// Keys are stored in the paper's flat encoding (`creator$label@entity`),
/// which makes the three query shapes cheap (§V):
///
/// * **local vs collective**: prefix match on the local node id,
/// * **per-entity**: suffix match on `@entity`,
/// * **exact**: direct lookup.
///
/// # Examples
///
/// ```
/// use kalis_core::{KalisId, KnowValue, KnowledgeBase};
///
/// let mut kb = KnowledgeBase::new(KalisId::new("K1"));
/// kb.insert("Multihop", KnowValue::Bool(true));
/// kb.insert("MonitoredNodes", KnowValue::Int(8));
/// assert_eq!(kb.get_bool("Multihop"), Some(true));
/// assert_eq!(kb.get_int("MonitoredNodes"), Some(8));
/// ```
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    local: KalisId,
    /// Searched by the bytes a [`KeyBuf`] assembles, never by `str`: no
    /// comparison on the way down a tree of inline keys validates UTF-8.
    entries: BTreeMap<StoredKey, Entry>,
    /// Σ [`entry_bytes`] over `entries`, kept current wherever an entry
    /// is written or removed.
    entries_bytes: usize,
    /// The keys of the entries whose `dirty` flag is set, in key order:
    /// what the sync outbox drains, walked without visiting a clean
    /// entry. A removed entry takes its key out.
    dirty: BTreeSet<StoredKey>,
    /// The change log: every change of a standalone Knowledge Base; in a
    /// node, the changes recorded since someone began listening.
    changes: Vec<ChangeEvent>,
    /// Present in a node: the Module Manager's subscription.
    subscriber: Option<Subscriber>,
    revision: u64,
    /// The module currently dispatching (set by the Module Manager
    /// around each callback); empty = operator/config/embedder write.
    writer: &'static str,
    /// The trace context of the packet/tick being dispatched
    /// (`(trace_id, span_id)`; zeros = untraced).
    trace: (u64, u32),
    /// Set by [`Module::on_tick`](crate::modules::Module::on_tick)'s
    /// default body, taken by the Module Manager after each tick call:
    /// the module called has no tick work.
    no_tick_work: bool,
    /// Bounded index of per-entity knowledge: entity → the encoded keys
    /// of every knowgget about it. When a fresh entity would exceed the
    /// budget, the least-recently-written entity is evicted and all of
    /// its knowggets purged.
    entity_index: BoundedMap<Entity, KeySet>,
    /// Handles into a private registry until
    /// [`KnowledgeBase::set_telemetry`] attaches the node's.
    stats: KbStats,
}

/// The Module Manager as a subscriber: its table, and what the changes
/// recorded since its last pass ([`KnowledgeBase::end_batch`]) mean to it.
#[derive(Debug, Clone)]
struct Subscriber {
    table: Subscriptions,
    /// Slots an activation input of which changed, or that asked to be
    /// looked at ([`KnowledgeBase::mark_pending`]).
    pending: SlotSet,
    /// How many changes the batch holds.
    changed: usize,
    /// The batch's first [`TRIGGER_KEYS`] changed keys, each with whether
    /// it was removed: what a journaled flip names as its trigger.
    first: Vec<(bool, KeyBuf)>,
    /// Whether [`ChangeEvent`]s are logged as well: someone listens.
    listening: bool,
}

/// How many changed keys a flip's journal record spells out.
const TRIGGER_KEYS: usize = 3;

/// An encoded key as the store holds it: inside the tree node up to 46
/// bytes, which under a two-letter node id fits every default label about
/// a short, MAC or IPv4 address but the longest
/// (`K1$TrafficFrequency.TCPSYNACK@100.100.100.100` is 45).
type StoredKey = InlineStr<46>;

/// The encoded keys of the knowggets about one entity, in key order.
/// Most entities have one, held here; more go to a sorted `Vec`.
#[derive(Debug, Clone)]
enum KeySet {
    One(StoredKey),
    Many(Vec<StoredKey>),
}

impl Default for KeySet {
    fn default() -> Self {
        KeySet::Many(Vec::new())
    }
}

impl KeySet {
    fn as_slice(&self) -> &[StoredKey] {
        match self {
            KeySet::One(key) => std::slice::from_ref(key),
            KeySet::Many(keys) => keys,
        }
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Where `encoded` is, or where it goes.
    fn search(&self, encoded: &str) -> Result<usize, usize> {
        (self.as_slice()).binary_search_by(|key| key.as_bytes().cmp(encoded.as_bytes()))
    }

    fn insert(&mut self, encoded: &str) {
        let Err(at) = self.search(encoded) else {
            return;
        };
        let key = StoredKey::from(encoded);
        *self = match std::mem::take(self) {
            KeySet::Many(keys) if keys.is_empty() => KeySet::One(key),
            KeySet::Many(mut keys) => {
                keys.insert(at, key);
                KeySet::Many(keys)
            }
            KeySet::One(held) => {
                let mut keys = Vec::with_capacity(2);
                keys.push(held);
                keys.insert(at, key);
                KeySet::Many(keys)
            }
        };
    }

    fn remove(&mut self, encoded: &str) {
        let Ok(at) = self.search(encoded) else {
            return;
        };
        match self {
            KeySet::One(_) => *self = KeySet::default(),
            KeySet::Many(keys) => drop(keys.remove(at)),
        }
    }
}

/// Everything held under one encoded key.
#[derive(Debug, Clone)]
struct Entry {
    /// In [`KnowValue::canonical`] form: what a lookup returns, unparsed.
    value: KnowValue,
    /// The wire text as written, kept only where it is not `value`'s own:
    /// `Text("1e3")` reads back `Float(1000.0)`, but what "changed" and
    /// `state_bytes()` go by stays `1e3`.
    spelling: Option<Box<str>>,
    /// Length of the wire text.
    wire_len: usize,
    /// Which module last *changed* the value, and under which trace:
    /// replayed or duplicated writes do not churn the recorded provenance.
    origin: Option<KnowggetOrigin>,
    /// Marked collective: changes are shared with peer Kalis nodes.
    collective: bool,
    /// Collective and changed since the sync outbox was last drained.
    dirty: bool,
}

impl Entry {
    /// Whether `value`'s wire text is the one held: a write of it would
    /// change nothing. Builds no string.
    fn holds(&self, value: &KnowValue) -> bool {
        match (&self.spelling, value) {
            (Some(wire), _) => value.wire_is(wire),
            (None, KnowValue::Text(text)) => self.value.wire_is(text),
            (None, scalar) => match (scalar.clone().canonical(), &self.value) {
                (KnowValue::Float(a), KnowValue::Float(b)) if a.is_nan() => b.is_nan(),
                (canonical, held) => canonical == *held,
            },
        }
    }

    /// The decoded knowgget, for the boundaries that hand knowggets out.
    fn knowgget(&self, encoded: &str) -> Option<Knowgget> {
        let key: KnowKey = encoded.parse().ok()?;
        Some(Knowgget {
            label: key.label,
            value: self.value.clone(),
            creator: key.creator,
            entity: key.entity,
            origin: self.origin.clone(),
        })
    }
}

/// Rough live-memory footprint of one stored knowgget.
fn entry_bytes(encoded_len: usize, wire_len: usize) -> usize {
    encoded_len + wire_len + 48
}

impl KnowledgeBase {
    /// An empty Knowledge Base owned by `local`.
    pub fn new(local: KalisId) -> Self {
        KnowledgeBase {
            local,
            entries: BTreeMap::new(),
            entries_bytes: 0,
            dirty: BTreeSet::new(),
            changes: Vec::new(),
            subscriber: None,
            revision: 0,
            writer: "",
            trace: (0, 0),
            no_tick_work: false,
            entity_index: BoundedMap::new(DEFAULT_KB_ENTITY_BUDGET),
            stats: KbStats::new(&Telemetry::new()),
        }
    }

    /// Attach the node's telemetry registry in place of the KB's private
    /// one: from now on every operation is counted there under
    /// `kb.ops[op=...]` and revision churn is tracked there.
    pub fn set_telemetry(&mut self, registry: &Telemetry) {
        self.stats = KbStats::new(registry);
    }

    #[inline]
    fn note_insert(&self) {
        self.stats.inserts.inc();
    }

    #[inline]
    fn note_get(&self) {
        self.stats.gets.inc();
    }

    #[inline]
    fn note_remove(&self) {
        self.stats.removes.inc();
    }

    #[inline]
    fn note_sync(&self) {
        self.stats.syncs.inc();
    }

    /// Record a revision bump (a real state change).
    #[inline]
    fn note_churn(&self) {
        let s = &self.stats;
        s.churn.inc();
        s.revision.set(self.revision);
    }

    /// Monotonic revision counter; bumps on every change.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The revision of the latest change to any knowgget labelled `label`
    /// — whoever created it, whatever it is about, however it changed
    /// (written, removed, purged with its entity, accepted from a peer) —
    /// where the subscribed Module Manager's table watches `label`
    /// ([`Subscriptions::watch`]). For any other label, and in a
    /// standalone Knowledge Base, the current revision: as if it had just
    /// changed, so whoever keeps a result while this stands still
    /// recomputes it.
    pub(crate) fn last_changed(&self, label: &str) -> u64 {
        (self.subscriber.as_ref())
            .and_then(|subscriber| subscriber.table.last_changed(label))
            .unwrap_or(self.revision)
    }

    /// [`KnowledgeBase::last_changed`] through `watch`, which resolves
    /// `label` against the subscribed table the first time and whenever
    /// the table is compiled again: every other call reads the stamp by
    /// index, building no key and looking up no label. How a module that
    /// keeps asserting a value tells whether anyone else — an operator, a
    /// config, a peer, an entity purge — changed the label since its own
    /// last write.
    pub(crate) fn changed_at(&self, label: &str, watch: &mut Watch) -> u64 {
        let Some(subscriber) = &self.subscriber else {
            return self.revision;
        };
        let table = &subscriber.table;
        if !table.resolves(*watch) {
            *watch = table.resolve(label);
        }
        table.stamped(*watch).unwrap_or(self.revision)
    }

    /// Write `value` under `creator$label[@entity]` (`creator` `None`: the
    /// local node; `origin` `None`: the ambient writer and trace). Returns
    /// whether the stored value changed. A write that changes nothing
    /// returns before anything is allocated; a changed value under a key
    /// already held is stored by move, and copied only for the
    /// [`ChangeEvent`], where one is owed.
    fn set_raw<L: Into<String> + AsRef<str>>(
        &mut self,
        creator: Option<KalisId>,
        label: L,
        entity: Option<Entity>,
        value: KnowValue,
        collective: bool,
        origin: Option<Option<KnowggetOrigin>>,
    ) -> bool {
        let buf = KeyBuf::key(
            creator.as_ref().unwrap_or(&self.local).as_bytes(),
            label.as_ref(),
            entity.as_ref().map(Entity::as_str),
        );
        let owed = self.owes_change();
        let mut held = self.entries.get_mut(buf.as_bytes());
        if let Some(entry) = &mut held {
            entry.collective |= collective;
            if entry.holds(&value) {
                return false;
            }
        }
        let written = owed.then(|| value.clone());
        let (canonical, spelling) = value.canonical_spelled();
        let wire_len = (spelling.as_deref()).map_or_else(|| canonical.wire_len(), str::len);
        let encoded = buf.as_str();
        self.entries_bytes += entry_bytes(encoded.len(), wire_len);
        // Provenance follows the value: only a *real* change
        // re-attributes the knowgget (duplicated sync frames and
        // idempotent re-writes leave it untouched).
        let trace_id = match held {
            Some(entry) => {
                self.entries_bytes -= entry_bytes(encoded.len(), entry.wire_len);
                // An entry once marked collective stays so.
                if entry.collective && !entry.dirty {
                    entry.dirty = true;
                    self.dirty.insert(StoredKey::from(encoded));
                }
                entry.value = canonical;
                entry.spelling = spelling;
                entry.wire_len = wire_len;
                match origin {
                    Some(given) => entry.origin = given,
                    None => attribute(&mut entry.origin, self.writer, self.trace),
                }
                entry.origin.as_ref().map_or(0, |o| o.trace_id)
            }
            None => {
                let origin = origin.unwrap_or_else(|| {
                    let mut ambient = None;
                    attribute(&mut ambient, self.writer, self.trace);
                    ambient
                });
                let trace_id = origin.as_ref().map_or(0, |o| o.trace_id);
                if collective {
                    self.dirty.insert(StoredKey::from(encoded));
                }
                let entry = Entry {
                    value: canonical,
                    spelling,
                    wire_len,
                    origin,
                    collective,
                    dirty: collective,
                };
                self.entries.insert(StoredKey::from(encoded), entry);
                trace_id
            }
        };
        self.revision += 1;
        // Entity-scoped knowledge is indexed under its entity so the
        // per-entity budget can evict whole entities at once. The
        // eviction (if any) is purged only after this write's own change
        // is recorded, and can never touch the fresh write.
        let evicted = entity.as_ref().and_then(|entity| {
            let (keys, evicted) = self
                .entity_index
                .get_or_insert_with(entity, KeySet::default);
            keys.insert(encoded);
            evicted
        });
        self.record(encoded, label.as_ref(), false);
        if let Some(value) = written {
            self.changes.push(ChangeEvent {
                key: KnowKey {
                    creator: creator.unwrap_or_else(|| self.local.clone()),
                    label: label.into(),
                    entity,
                },
                value,
                removed: false,
                trace_id,
            });
        }
        if let Some((_, keys)) = evicted {
            self.purge_entity_keys(&keys);
        }
        self.note_churn();
        true
    }

    /// Record that the knowgget under `encoded`, whose label is `label`,
    /// changed. Every path that changes the store comes through here. In
    /// a node the Module Manager's subscription hears of it: the slots
    /// `label` concerns are marked pending, a watched `label` is stamped
    /// with this revision, and the batch's trigger record grows.
    fn record(&mut self, encoded: &str, label: &str, removed: bool) {
        let Some(subscriber) = &mut self.subscriber else {
            return;
        };
        (subscriber.table).collect(label, self.revision, &mut subscriber.pending);
        subscriber.changed += 1;
        if subscriber.first.len() < TRIGGER_KEYS {
            (subscriber.first).push((removed, KeyBuf::concat(&[encoded])));
        }
    }

    /// Whether a recorded change owes the change log a [`ChangeEvent`]:
    /// always in a standalone Knowledge Base; in a node, once someone
    /// listens.
    fn owes_change(&self) -> bool {
        self.subscriber.as_ref().map_or(true, |s| s.listening)
    }

    /// Settle the running totals for `entry`, just taken out from under
    /// `encoded`.
    fn forget(&mut self, encoded: &str, entry: &Entry) {
        self.entries_bytes -= entry_bytes(encoded.len(), entry.wire_len);
        if entry.dirty {
            self.dirty.remove(encoded.as_bytes());
        }
    }

    /// Remove every knowgget belonging to an entity evicted from the
    /// bounded entity index. Each removal is a real change: modules see
    /// removal events exactly as if the knowgget had expired normally.
    fn purge_entity_keys(&mut self, keys: &KeySet) {
        for key in keys.as_slice() {
            let Some(entry) = self.entries.remove(key.as_bytes()) else {
                continue;
            };
            let encoded = key.as_str();
            self.forget(encoded, &entry);
            self.revision += 1;
            let Some((creator, label, entity)) = split(encoded) else {
                continue;
            };
            self.record(encoded, label, true);
            if self.owes_change() {
                self.changes.push(ChangeEvent {
                    key: KnowKey {
                        creator: KalisId::new(creator),
                        label: label.to_owned(),
                        entity: entity.map(Entity::from),
                    },
                    value: entry.value,
                    removed: true,
                    trace_id: 0,
                });
            }
        }
    }

    /// Subscribe the Module Manager: from now on every recorded change
    /// marks the slots `table` names for its label, the changes between
    /// two [`KnowledgeBase::end_batch`] calls form one batch, and
    /// [`ChangeEvent`]s are logged only after [`KnowledgeBase::listen`].
    /// What the log already holds stays until drained.
    pub(crate) fn subscribe_activation(&mut self, table: Subscriptions) {
        self.subscriber = Some(Subscriber {
            pending: SlotSet::with_slots(table.slots()),
            table,
            changed: 0,
            first: Vec::with_capacity(TRIGGER_KEYS),
            listening: false,
        });
    }

    /// Log a [`ChangeEvent`] for every change recorded from now on, as a
    /// standalone Knowledge Base always does.
    pub(crate) fn listen(&mut self) {
        if let Some(subscriber) = &mut self.subscriber {
            subscriber.listening = true;
        }
    }

    /// Ask for `slot` to be re-evaluated at the subscriber's next pass
    /// although none of its activation inputs changed. Nothing to ask of
    /// a standalone Knowledge Base: whoever drives one re-evaluates every
    /// slot.
    pub(crate) fn mark_pending(&mut self, slot: usize) {
        if let Some(subscriber) = &mut self.subscriber {
            subscriber.pending.insert(slot);
        }
    }

    /// Whether the subscriber has a pass to make: a change was recorded or
    /// a slot marked since the last [`KnowledgeBase::end_batch`].
    pub(crate) fn batch_recorded(&self) -> bool {
        (self.subscriber.as_ref())
            .is_some_and(|subscriber| subscriber.changed > 0 || !subscriber.pending.is_empty())
    }

    /// The slots pending re-evaluation, if any are.
    pub(crate) fn pending(&self) -> Option<&SlotSet> {
        let pending = &self.subscriber.as_ref()?.pending;
        (!pending.is_empty()).then_some(pending)
    }

    /// What a module flip caused by the current batch is journaled
    /// against: the batch's first three changed keys (`-` before a
    /// removed one) and how many more changed.
    pub(crate) fn trigger(&self) -> String {
        let Some(subscriber) = &self.subscriber else {
            return String::new();
        };
        let mut parts: Vec<String> = (subscriber.first.iter())
            .map(|(removed, key)| {
                let sign = if *removed { "-" } else { "" };
                format!("{sign}{}", key.as_str())
            })
            .collect();
        if subscriber.changed > TRIGGER_KEYS {
            parts.push(format!("+{} more", subscriber.changed - TRIGGER_KEYS));
        }
        parts.join(",")
    }

    /// Close the batch, the subscriber's pass made: nothing is pending
    /// and the next recorded change opens a new batch.
    pub(crate) fn end_batch(&mut self) {
        if let Some(subscriber) = &mut self.subscriber {
            subscriber.pending.clear();
            subscriber.changed = 0;
            subscriber.first.clear();
        }
    }

    /// Cap the number of distinct entities that may hold per-entity
    /// knowggets (`KB.PerEntityBudget`). Shrinking below the current
    /// occupancy immediately purges the knowledge of the overflow — the
    /// least recently written entities, stalest first.
    pub fn set_entity_budget(&mut self, budget: usize) {
        let budget = budget.max(1);
        if budget == self.entity_index.budget() {
            return;
        }
        for (_, keys) in self.entity_index.set_budget(budget) {
            self.purge_entity_keys(&keys);
        }
        self.note_churn();
    }

    /// The configured per-entity state budget.
    pub fn entity_budget(&self) -> usize {
        self.entity_index.budget()
    }

    /// Distinct entities currently holding per-entity knowggets.
    pub fn entity_occupancy(&self) -> usize {
        self.entity_index.len()
    }

    /// Entities evicted (wholesale) to stay within the budget.
    pub fn entity_evictions(&self) -> u64 {
        self.entity_index.evictions()
    }

    /// Declare the module about to perform writes (called by the Module
    /// Manager around each dispatch). Empty string = no module
    /// (operator/config writes).
    pub fn set_writer(&mut self, module: &'static str) {
        self.writer = module;
    }

    /// Clear the ambient writer attribution.
    pub(crate) fn clear_writer(&mut self) {
        self.writer = "";
    }

    /// Declare the trace context writes should be attributed to
    /// (`(0, 0)` = untraced).
    pub fn set_trace(&mut self, trace_id: u64, span_id: u32) {
        self.trace = (trace_id, span_id);
    }

    /// Clear the ambient trace attribution.
    pub(crate) fn clear_trace(&mut self) {
        self.trace = (0, 0);
    }

    /// Say that the module whose `on_tick` is running has no tick work.
    pub(crate) fn note_no_tick_work(&mut self) {
        self.no_tick_work = true;
    }

    /// Whether the tick call just made said it had no tick work; clears
    /// the answer for the next call.
    pub(crate) fn take_no_tick_work(&mut self) -> bool {
        std::mem::take(&mut self.no_tick_work)
    }

    /// Write provenance for an encoded key (`creator$label@entity`), if
    /// any was recorded.
    pub(crate) fn origin_of_encoded(&self, encoded: &str) -> Option<&KnowggetOrigin> {
        self.entries.get(encoded.as_bytes())?.origin.as_ref()
    }

    /// Write provenance for a key, if any was recorded.
    #[cfg(test)]
    pub(crate) fn origin_of(&self, key: &KnowKey) -> Option<&KnowggetOrigin> {
        let entity = key.entity.as_ref().map(Entity::as_str);
        self.origin_of_encoded(KeyBuf::key(key.creator.as_bytes(), &key.label, entity).as_str())
    }

    /// Insert or update a local network-level knowgget. Returns whether
    /// the stored value changed.
    pub fn insert(
        &mut self,
        label: impl Into<String> + AsRef<str>,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        self.set_raw(None, label, None, value.into(), false, None)
    }

    /// Insert or update a local entity-specific knowgget.
    pub fn insert_about(
        &mut self,
        label: impl Into<String> + AsRef<str>,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        self.set_raw(None, label, Some(entity), value.into(), false, None)
    }

    /// Insert a local knowgget **marked collective**: changes to it are
    /// shared with peer Kalis nodes (paper §IV-B3, Collective Knowledge).
    pub fn insert_collective(
        &mut self,
        label: impl Into<String> + AsRef<str>,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        self.set_raw(None, label, None, value.into(), true, None)
    }

    /// Insert a collective entity-specific knowgget.
    pub fn insert_about_collective(
        &mut self,
        label: impl Into<String> + AsRef<str>,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        self.set_raw(None, label, Some(entity), value.into(), true, None)
    }

    /// Remove a local network-level knowgget.
    pub fn remove(&mut self, label: &str) -> bool {
        self.remove_key(label, None)
    }

    /// Remove a local entity-specific knowgget.
    #[cfg(test)]
    pub(crate) fn remove_about(&mut self, label: &str, entity: &Entity) -> bool {
        self.remove_key(label, Some(entity))
    }

    fn remove_key(&mut self, label: &str, entity: Option<&Entity>) -> bool {
        self.note_remove();
        let buf = KeyBuf::key(self.local.as_bytes(), label, entity.map(Entity::as_str));
        let Some(entry) = self.entries.remove(buf.as_bytes()) else {
            return false;
        };
        let encoded = buf.as_str();
        self.forget(encoded, &entry);
        self.revision += 1;
        if let Some(entity) = entity {
            let emptied = self.entity_index.get_mut(entity).is_some_and(|keys| {
                keys.remove(encoded);
                keys.is_empty()
            });
            if emptied {
                self.entity_index.remove(entity);
            }
        }
        self.record(encoded, label, true);
        if self.owes_change() {
            self.changes.push(ChangeEvent {
                key: KnowKey {
                    creator: self.local.clone(),
                    label: label.to_owned(),
                    entity: entity.cloned(),
                },
                value: entry.value,
                removed: true,
                trace_id: self.trace.0,
            });
        }
        self.note_churn();
        true
    }

    /// The local node's entry for `label[@entity]`, counted as a get.
    fn local_entry(&self, label: &str, entity: Option<&Entity>) -> Option<&Entry> {
        self.note_get();
        let buf = KeyBuf::key(self.local.as_bytes(), label, entity.map(Entity::as_str));
        self.entries.get(buf.as_bytes())
    }

    /// Look up a local network-level knowgget, in the form the paper's
    /// string store gives it back ([`KnowValue::canonical`]).
    pub fn get(&self, label: &str) -> Option<KnowValue> {
        Some(self.local_entry(label, None)?.value.clone())
    }

    /// [`KnowledgeBase::get`], lent instead of cloned: a text value can
    /// be looked at without copying it.
    pub(crate) fn get_ref(&self, label: &str) -> Option<&KnowValue> {
        Some(&self.local_entry(label, None)?.value)
    }

    /// Look up a local entity-specific knowgget.
    pub fn get_about(&self, label: &str, entity: &Entity) -> Option<KnowValue> {
        Some(self.local_entry(label, Some(entity))?.value.clone())
    }

    /// Whether a local knowgget `label@entity` is held, whatever its
    /// value: how a writer that would only repeat itself learns that an
    /// entity eviction took its knowgget. Counted as a get.
    pub(crate) fn holds_about(&self, label: &str, entity: &Entity) -> bool {
        self.local_entry(label, Some(entity)).is_some()
    }

    /// Typed lookup: boolean.
    pub fn get_bool(&self, label: &str) -> Option<bool> {
        self.local_entry(label, None)?.value.as_bool()
    }

    /// Typed lookup: integer.
    pub fn get_int(&self, label: &str) -> Option<i64> {
        self.local_entry(label, None)?.value.as_int()
    }

    /// Typed lookup: float.
    pub fn get_f64(&self, label: &str) -> Option<f64> {
        self.local_entry(label, None)?.value.as_f64()
    }

    /// Typed lookup: text.
    pub fn get_text(&self, label: &str) -> Option<String> {
        Some(self.local_entry(label, None)?.value.as_text())
    }

    /// Every knowgget with the given label across **all** creators — the
    /// collective-correlation query ("other Kalis nodes are noticing
    /// changes in signal strength for specific devices") — in encoded-key
    /// order.
    pub fn get_all_creators(&self, label: &str) -> Vec<(KalisId, Option<Entity>, KnowValue)> {
        self.note_get();
        let mut found = Vec::new();
        // Keys sort by creator first: visit the two places `label` can be
        // in a creator's run of keys, then seek past the run (`%` follows
        // `$`) — a handful of seeks, however many entries.
        let mut seek = KeyBuf::concat::<&str>(&[]);
        while let Some((first, _)) = self.from(seek.as_str()).next() {
            let Some((creator, _)) = first.as_str().split_once('$') else {
                break; // every key is `creator$…`
            };
            let exact = KeyBuf::key(creator.as_bytes(), label, None);
            let scoped = KeyBuf::key(creator.as_bytes(), label, Some(""));
            let hits = (self.entries.get_key_value(exact.as_bytes()).into_iter())
                .chain(self.with_prefix(scoped.as_str()));
            for (encoded, entry) in hits {
                // What the key *decodes* to decides (a label holding `@`
                // decodes as a shorter label about an entity).
                if let Some((creator, found_label, entity)) = split(encoded.as_str()) {
                    if found_label == label {
                        let entity = entity.map(Entity::new);
                        found.push((KalisId::new(creator), entity, entry.value.clone()));
                    }
                }
            }
            seek = KeyBuf::concat(&[creator, "%"]);
        }
        found
    }

    /// Entries from key `start` on, in key order.
    fn from<'a>(&'a self, start: &str) -> impl Iterator<Item = (&'a StoredKey, &'a Entry)> + 'a {
        (self.entries).range::<[u8], _>((Bound::Included(start.as_bytes()), Bound::Unbounded))
    }

    /// Entries whose encoded key starts with `prefix`, in key order.
    fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a StoredKey, &'a Entry)> + 'a {
        (self.from(prefix)).take_while(move |(k, _)| k.as_bytes().starts_with(prefix.as_bytes()))
    }

    /// Every local entry whose key starts `local$root` + `mark`, as what
    /// `decode` makes of the rest of its key, with its value.
    fn family<T>(&self, root: &str, mark: &str, decode: fn(&str) -> T) -> Vec<(T, KnowValue)> {
        self.note_get();
        let prefix = KeyBuf::concat(&[
            self.local.as_bytes(),
            b"$",
            root.as_bytes(),
            mark.as_bytes(),
        ]);
        let prefix = prefix.as_str();
        self.with_prefix(prefix)
            .map(|(k, entry)| (decode(&k.as_str()[prefix.len()..]), entry.value.clone()))
            .collect()
    }

    /// Every local knowgget whose label starts with `root.` (the
    /// sub-knowggets of a multilevel knowgget), as `(sub-label, value)`.
    pub fn sublabels(&self, root: &str) -> Vec<(String, KnowValue)> {
        self.family(root, ".", |rest| {
            rest.split('@').next().unwrap_or(rest).to_owned()
        })
    }

    /// Every entity that has a local knowgget with `label`, with its value
    /// — the suffix query of the paper.
    pub fn entities_with(&self, label: &str) -> Vec<(Entity, KnowValue)> {
        self.family(label, "@", |entity| Entity::new(entity))
    }

    /// Iterate over every entry as decoded knowggets.
    pub fn iter(&self) -> impl Iterator<Item = Knowgget> + '_ {
        (self.entries.iter()).filter_map(|(k, entry)| entry.knowgget(k.as_str()))
    }

    /// Number of knowggets stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rough live-memory footprint (the RAM-usage proxy for experiments):
    /// a running total, so reading it costs nothing however many
    /// knowggets are stored.
    pub fn state_bytes(&self) -> usize {
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.entries_bytes, self.recount_state_bytes());
        self.entries_bytes
    }

    /// `state_bytes()` recomputed by walking every entry.
    #[cfg(any(test, debug_assertions))]
    fn recount_state_bytes(&self) -> usize {
        let wire_len = |e: &Entry| e.spelling.as_deref().map_or(e.value.wire_len(), str::len);
        let walk = self.entries.iter();
        walk.map(|(k, e)| entry_bytes(k.len(), wire_len(e))).sum()
    }

    /// Drain the change log accumulated since the last call. (The
    /// Knowledge Base inside a [`Kalis`](crate::Kalis) node logs changes
    /// only once [`Kalis::subscribe`](crate::Kalis::subscribe) was called:
    /// its Module Manager is notified through its subscription instead.)
    pub fn drain_changes(&mut self) -> Vec<ChangeEvent> {
        std::mem::take(&mut self.changes)
    }

    /// Whether the change log holds undrained changes.
    pub fn has_changes(&self) -> bool {
        !self.changes.is_empty()
    }

    /// Drain the collective knowggets that changed since the last call —
    /// the outbox of the synchronization mechanism — in key order. Visits
    /// the changed entries only.
    pub(crate) fn drain_dirty_collective(&mut self) -> Vec<Knowgget> {
        let mut out = Vec::with_capacity(self.dirty.len());
        // One at a time, so the set keeps its root node for the next round.
        while let Some(key) = self.dirty.pop_first() {
            let entry =
                (self.entries.get_mut(key.as_bytes())).expect("a removed entry takes its key out");
            entry.dirty = false;
            out.extend(entry.knowgget(key.as_str()));
        }
        out
    }

    /// Every knowgget currently marked collective, regardless of dirty
    /// state — the full-state payload sent when a recovered peer needs a
    /// complete re-sync.
    pub fn collective_knowggets(&self) -> Vec<Knowgget> {
        (self.entries.iter())
            .filter(|(_, entry)| entry.collective)
            .filter_map(|(k, entry)| entry.knowgget(k.as_str()))
            .collect()
    }

    /// Accept a knowgget from peer `sender`.
    ///
    /// Enforces the paper's ownership rule: a Kalis node "can only update
    /// those knowggets ... that were originally generated by itself", i.e.
    /// the knowgget's creator must be the sender.
    ///
    /// # Errors
    ///
    /// Returns the rejection reason when the creator does not match the
    /// sender or the creator claims to be the local node.
    pub fn accept_remote(&mut self, sender: &KalisId, knowgget: Knowgget) -> Result<bool, String> {
        self.note_sync();
        if &knowgget.creator != sender {
            return Err(format!(
                "creator `{}` does not match sender `{sender}`",
                knowgget.creator
            ));
        }
        if knowgget.creator == self.local {
            return Err("peer attempted to overwrite local knowledge".to_owned());
        }
        // A remote knowgget carries its own provenance (or none, for
        // peers predating the provenance wire extension) — never the
        // local ambient writer.
        let Knowgget { label, value, .. } = knowgget;
        let (creator, origin) = (Some(knowgget.creator), Some(knowgget.origin));
        Ok(self.set_raw(creator, label, knowgget.entity, value, false, origin))
    }
}

/// Attribute a local write to the ambient writer and trace set by the
/// dispatch loop. A writer changing its own knowgget again keeps the
/// module name already held.
fn attribute(origin: &mut Option<KnowggetOrigin>, writer: &str, (trace_id, span_id): (u64, u32)) {
    if writer.is_empty() && (trace_id, span_id) == (0, 0) {
        *origin = None;
        return;
    }
    match origin {
        Some(held) if held.module == writer => {
            held.trace_id = trace_id;
            held.span_id = span_id;
        }
        _ => {
            *origin = Some(KnowggetOrigin {
                module: writer.into(),
                trace_id,
                span_id,
            });
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::new(KalisId::new("K1"))
    }

    #[test]
    fn paper_figure_5_contents() {
        // Build the exact Knowledge Base of Fig. 5 and check every query.
        let mut kb = kb();
        kb.insert("Multihop", true);
        kb.insert("MonitoredNodes", 8i64);
        kb.insert_about("SignalStrength", Entity::new("SensorA"), -67.0);
        kb.insert("TrafficFrequency.TCPSYN", 0.037);
        kb.insert("TrafficFrequency.TCPACK", 0.090);
        let remote = Knowgget::about(
            "SignalStrength",
            KnowValue::Float(-84.0),
            KalisId::new("K2"),
            Entity::new("SensorA"),
        );
        kb.accept_remote(&KalisId::new("K2"), remote).unwrap();

        assert_eq!(kb.get_bool("Multihop"), Some(true));
        assert_eq!(kb.get_int("MonitoredNodes"), Some(8));
        assert_eq!(
            kb.get_about("SignalStrength", &Entity::new("SensorA"))
                .and_then(|v| v.as_f64()),
            Some(-67.0)
        );
        let subs = kb.sublabels("TrafficFrequency");
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].0, "TCPACK");
        assert_eq!(subs[1].0, "TCPSYN");
        let all = kb.get_all_creators("SignalStrength");
        assert_eq!(all.len(), 2, "local and K2's values both visible");
        assert_eq!(kb.len(), 6);
    }

    #[test]
    fn insert_reports_change_only_on_difference() {
        let mut kb = kb();
        assert!(kb.insert("Multihop", true));
        assert!(!kb.insert("Multihop", true), "same value → no change");
        assert!(kb.insert("Multihop", false));
    }

    #[test]
    fn change_log_records_inserts_and_removals() {
        let mut kb = kb();
        kb.insert("Mobile", false);
        kb.insert("Mobile", true);
        kb.remove("Mobile");
        let changes = kb.drain_changes();
        assert_eq!(changes.len(), 3);
        assert!(!changes[0].removed);
        assert_eq!(changes[1].value, KnowValue::Bool(true));
        assert!(changes[2].removed);
        assert!(kb.drain_changes().is_empty(), "drain empties the log");
    }

    #[test]
    fn entities_with_suffix_query() {
        let mut kb = kb();
        kb.insert_about("SignalStrength", Entity::new("A"), -60.0);
        kb.insert_about("SignalStrength", Entity::new("B"), -70.0);
        kb.insert_about("Other", Entity::new("C"), 1i64);
        let got = kb.entities_with("SignalStrength");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.as_str(), "A");
        assert_eq!(got[1].0.as_str(), "B");
    }

    #[test]
    fn collective_dirty_tracking() {
        let mut kb = kb();
        kb.insert_collective("Mobile", true);
        kb.insert("Private", 1i64);
        let dirty = kb.drain_dirty_collective();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].label, "Mobile");
        assert!(kb.drain_dirty_collective().is_empty());
        // Unchanged re-insert does not re-dirty.
        kb.insert_collective("Mobile", true);
        assert!(kb.drain_dirty_collective().is_empty());
        // A real change does.
        kb.insert_collective("Mobile", false);
        assert_eq!(kb.drain_dirty_collective().len(), 1);
    }

    #[test]
    fn collective_knowggets_snapshot_ignores_dirty_state() {
        let mut kb = kb();
        kb.insert_collective("Mobile", true);
        kb.insert_collective("Multihop", false);
        kb.insert("Private", 1i64);
        kb.drain_dirty_collective();
        // Even with nothing dirty, the full snapshot is available for a
        // recovering peer's re-sync.
        let snap = kb.collective_knowggets();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().all(|k| k.creator == KalisId::new("K1")));
    }

    #[test]
    fn remote_updates_enforce_creator_ownership() {
        let mut kb = kb();
        let k2 = KalisId::new("K2");
        let k3 = KalisId::new("K3");
        // Legitimate: K2 sends its own knowgget.
        let own = Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone());
        assert_eq!(kb.accept_remote(&k2, own), Ok(true));
        // Forged: K3 sends a knowgget claiming K2 as creator.
        let forged = Knowgget::new("Multihop", KnowValue::Bool(false), k2.clone());
        assert!(kb.accept_remote(&k3, forged).is_err());
        // Forged: K2 tries to overwrite local (K1) knowledge.
        let local_forge = Knowgget::new("Multihop", KnowValue::Bool(false), KalisId::new("K1"));
        assert!(kb.accept_remote(&KalisId::new("K1"), local_forge).is_err());
        // The accepted value is still K2's original.
        let all = kb.get_all_creators("Multihop");
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].2, KnowValue::Bool(true));
    }

    #[test]
    fn remote_and_local_keys_do_not_collide() {
        let mut kb = kb();
        kb.insert("Multihop", false);
        let k2 = KalisId::new("K2");
        kb.accept_remote(
            &k2,
            Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone()),
        )
        .unwrap();
        assert_eq!(kb.get_bool("Multihop"), Some(false), "local view unchanged");
        assert_eq!(kb.len(), 2);
    }

    #[test]
    fn state_bytes_grows_with_content() {
        let mut kb = kb();
        let empty = kb.state_bytes();
        kb.insert("TrafficFrequency.TCPSYN", 0.037);
        assert!(kb.state_bytes() > empty);
    }

    #[test]
    fn writes_are_attributed_to_the_ambient_writer_and_trace() {
        let mut kb = kb();
        kb.set_writer("TopologyModule");
        kb.set_trace(0xABCD, 7);
        kb.insert("Multihop", true);
        let key = KnowKey::new(KalisId::new("K1"), "Multihop");
        let origin = kb.origin_of(&key).expect("attributed");
        assert_eq!(origin.module, "TopologyModule");
        assert_eq!(origin.trace_id, 0xABCD);
        assert_eq!(origin.span_id, 7);
        // Idempotent re-write under a different trace keeps the original
        // attribution: provenance follows the value.
        kb.set_trace(0xEEEE, 9);
        kb.insert("Multihop", true);
        assert_eq!(kb.origin_of(&key).unwrap().trace_id, 0xABCD);
        // A real change re-attributes.
        kb.insert("Multihop", false);
        assert_eq!(kb.origin_of(&key).unwrap().trace_id, 0xEEEE);
        // Operator writes (no writer, no trace) clear the attribution.
        kb.clear_writer();
        kb.clear_trace();
        kb.insert("Multihop", true);
        assert!(kb.origin_of(&key).is_none());
        // iter() carries the recorded origin on each knowgget.
        kb.set_writer("MobilityModule");
        kb.insert("Mobile", true);
        let got = kb
            .iter()
            .find(|k| k.label == "Mobile")
            .expect("knowgget present");
        assert_eq!(got.origin.as_ref().unwrap().module, "MobilityModule");
    }

    #[test]
    fn remote_origin_rides_the_knowgget_not_the_local_writer() {
        let mut kb = kb();
        kb.set_writer("LocalModule");
        let k2 = KalisId::new("K2");
        let remote = Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone()).with_origin(
            KnowggetOrigin {
                module: "TrafficModule".into(),
                trace_id: 42,
                span_id: 3,
            },
        );
        kb.accept_remote(&k2, remote.clone()).unwrap();
        let key = KnowKey::new(k2.clone(), "Multihop");
        let origin = kb.origin_of(&key).expect("remote origin stored");
        assert_eq!(origin.module, "TrafficModule");
        assert_eq!(origin.trace_id, 42);
        // A duplicated frame (same value) must not churn provenance.
        let dup = remote.with_origin(KnowggetOrigin {
            module: "Imposter".into(),
            trace_id: 99,
            span_id: 1,
        });
        kb.accept_remote(&k2, dup).unwrap();
        assert_eq!(kb.origin_of(&key).unwrap().module, "TrafficModule");
        // Removal drops the attribution entry alongside the value.
        kb.set_writer("");
        kb.insert("Gone", 1i64);
        kb.remove("Gone");
        let gone = KnowKey::new(KalisId::new("K1"), "Gone");
        assert!(kb.origin_of(&gone).is_none());
    }

    #[test]
    fn entity_budget_evicts_stalest_entity_wholesale() {
        let mut kb = kb();
        kb.set_entity_budget(3);
        // Each entity holds two knowggets; E0 is written first.
        for i in 0..4 {
            let e = Entity::new(format!("E{i}"));
            kb.insert_about("SignalStrength", e.clone(), -60.0 - f64::from(i));
            kb.insert_about_collective("Suspicious", e, i % 2 == 0);
        }
        assert_eq!(kb.entity_occupancy(), 3, "occupancy capped at budget");
        assert_eq!(kb.entity_evictions(), 1, "E0 evicted");
        assert!(
            kb.get_about("SignalStrength", &Entity::new("E0")).is_none(),
            "every knowgget about the evicted entity is purged"
        );
        assert!(kb.get_about("Suspicious", &Entity::new("E0")).is_none());
        assert!(kb.get_about("SignalStrength", &Entity::new("E3")).is_some());
        // The purge surfaced as removal change events for modules.
        let changes = kb.drain_changes();
        let removed: Vec<_> = changes.iter().filter(|c| c.removed).collect();
        assert_eq!(removed.len(), 2, "both E0 knowggets removed");
        assert!(removed
            .iter()
            .all(|c| c.key.entity.as_ref().map(Entity::as_str) == Some("E0")));
        // Network-level (entity-less) knowledge is never budgeted.
        kb.insert("Multihop", true);
        assert_eq!(kb.get_bool("Multihop"), Some(true));
        assert_eq!(kb.entity_occupancy(), 3);
    }

    #[test]
    fn entity_budget_spray_stays_bounded_and_recency_protects_hot_entities() {
        let mut kb = kb();
        kb.set_entity_budget(8);
        let hot = Entity::new("Gateway");
        for i in 0..200 {
            kb.insert_about("SignalStrength", Entity::new(format!("fake-{i}")), -80.0);
            // The real entity is re-written every round, so LRU keeps it.
            kb.insert_about("SignalStrength", hot.clone(), -60.0 - f64::from(i % 3));
        }
        assert!(kb.entity_occupancy() <= 8);
        assert!(kb.entity_evictions() > 0);
        assert!(
            kb.get_about("SignalStrength", &hot).is_some(),
            "recently-touched entity survives the spray"
        );
        assert_eq!(
            kb.len(),
            kb.entity_occupancy(),
            "one knowgget per surviving entity; nothing leaks"
        );
    }

    #[test]
    fn explicit_remove_unindexes_the_entity() {
        let mut kb = kb();
        kb.set_entity_budget(4);
        let e = Entity::new("A");
        kb.insert_about("SignalStrength", e.clone(), -60.0);
        assert_eq!(kb.entity_occupancy(), 1);
        kb.remove_about("SignalStrength", &e);
        assert_eq!(
            kb.entity_occupancy(),
            0,
            "last knowgget removed → entity gone"
        );
        // Shrinking the budget below occupancy purges overflow.
        for i in 0..4 {
            kb.insert_about("X", Entity::new(format!("E{i}")), 1i64);
        }
        kb.set_entity_budget(2);
        assert_eq!(kb.entity_occupancy(), 2);
        assert_eq!(kb.len(), 2);
        assert_eq!(kb.entity_budget(), 2);
    }

    #[test]
    fn shrinking_the_entity_budget_purges_the_stalest_and_keeps_counting() {
        let mut kb = kb();
        kb.set_entity_budget(8);
        for name in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            kb.insert_about("SignalStrength", Entity::new(name), -60.0);
        }
        // `a` is written again: the most recently written of the eight.
        kb.insert_about("SignalStrength", Entity::new("a"), -61.0);
        kb.drain_changes();
        kb.set_entity_budget(4);
        let survivors: Vec<_> = (kb.entities_with("SignalStrength").into_iter())
            .map(|(entity, _)| entity.to_string())
            .collect();
        assert_eq!(survivors, ["a", "f", "g", "h"], "not the last four by name");
        let purged: Vec<_> = (kb.drain_changes().iter())
            .map(|change| {
                (
                    change.removed,
                    change.key.entity.as_ref().unwrap().to_string(),
                )
            })
            .collect();
        let stalest_first = ["b", "c", "d", "e"].map(|name| (true, name.to_owned()));
        assert_eq!(purged, stalest_first);
        assert_eq!((kb.entity_occupancy(), kb.entity_evictions()), (4, 4));
        // The count carries on from there.
        kb.insert_about("SignalStrength", Entity::new("i"), -62.0);
        assert_eq!(kb.entity_evictions(), 5);
        assert!(kb.get_about("SignalStrength", &Entity::new("f")).is_none());
    }

    proptest::proptest! {
        /// The running total equals the recomputed walk after every
        /// kind of mutation: insert, overwrite with a value of another
        /// length, `remove`, `remove_about`, the per-entity purge at the
        /// budget, a `set_entity_budget` shrink, and a peer's knowgget.
        #[test]
        fn running_state_bytes_equal_the_walk(
            ops in proptest::collection::vec((0u8..7, 0u8..6, 0u8..12, 0u8..4), 1..200),
        ) {
            let mut kb = kb();
            kb.set_entity_budget(6);
            for (op, label, entity_no, value) in ops {
                let label = format!("L{label}");
                let entity = Entity::new(format!("E{entity_no}"));
                // Wire forms of different lengths, so an overwrite moves
                // the total.
                let value = match value {
                    0 => KnowValue::Bool(true),
                    1 => KnowValue::Int(1_000_000_007),
                    2 => KnowValue::Float(0.037),
                    _ => KnowValue::Text("a longer textual value".to_owned()),
                };
                match op {
                    0 => drop(kb.insert(label, value)),
                    1 | 2 => drop(kb.insert_about(label, entity, value)),
                    3 => drop(kb.remove(&label)),
                    4 => drop(kb.remove_about(&label, &entity)),
                    5 => kb.set_entity_budget(2 + usize::from(entity_no) % 6),
                    _ => {
                        let peer = KalisId::new("K2");
                        let knowgget = Knowgget::about(label, value, peer.clone(), entity);
                        kb.accept_remote(&peer, knowgget).unwrap();
                    }
                }
                proptest::prop_assert_eq!(kb.state_bytes(), kb.recount_state_bytes());
                proptest::prop_assert!(kb.entity_occupancy() <= kb.entity_budget());
            }
        }
    }

    #[test]
    fn revision_increases_monotonically() {
        let mut kb = kb();
        let r0 = kb.revision();
        kb.insert("A", 1i64);
        let r1 = kb.revision();
        kb.insert("A", 1i64); // no-op
        let r2 = kb.revision();
        assert!(r1 > r0);
        assert_eq!(r1, r2);
    }

    #[test]
    fn last_changed_is_the_current_revision_unless_the_label_is_watched() {
        // Standing alone, nothing is watched: every label reads as
        // changed just now.
        let mut alone = kb();
        alone.insert_about("DroppedOrigins", Entity::from("0x000a"), "1,2");
        alone.insert("Multihop", true);
        for label in ["DroppedOrigins", "Multihop", "NeverWritten"] {
            assert_eq!(alone.last_changed(label), alone.revision());
        }

        let mut table = Subscriptions::new(1);
        table.subscribe("Multihop", 0);
        table.watch("DroppedOrigins");
        let mut node = kb();
        node.subscribe_activation(table);
        assert_eq!(node.last_changed("DroppedOrigins"), 0);
        let b1 = Entity::from("0x000a");
        // A local write, whatever it is about ...
        node.insert_about("DroppedOrigins", b1.clone(), "1,2");
        let written = node.revision();
        assert_eq!(node.last_changed("DroppedOrigins"), written);
        // ... stands while other labels change (a subscribed label is
        // not thereby watched) and while the write repeats unchanged.
        node.insert("Multihop", true);
        node.insert_about("SignalStrength", b1.clone(), -60.0);
        node.insert_about("DroppedOrigins", b1.clone(), "1,2");
        assert!(node.revision() > written);
        assert_eq!(node.last_changed("DroppedOrigins"), written);
        for label in ["Multihop", "SignalStrength", "NeverWritten"] {
            assert_eq!(node.last_changed(label), node.revision());
        }
        // A peer's knowgget, a removal and an entity purge all move it.
        let k2 = KalisId::new("K2");
        let theirs = Knowgget::about("DroppedOrigins", "3,4".into(), k2.clone(), b1.clone());
        assert_eq!(node.accept_remote(&k2, theirs), Ok(true));
        assert_eq!(node.last_changed("DroppedOrigins"), node.revision());
        node.insert("Multihop", false);
        assert!(node.remove_about("DroppedOrigins", &b1));
        assert_eq!(node.last_changed("DroppedOrigins"), node.revision());
        node.insert("Multihop", true);
        node.set_entity_budget(1);
        let before = node.revision();
        node.insert_about("SignalStrength", Entity::from("0x0014"), -70.0);
        assert_eq!(node.get_all_creators("DroppedOrigins"), []);
        // The write, then what was still held about the evicted entity:
        // the peer's list and the signal strength.
        assert_eq!(node.revision(), before + 3);
        assert_eq!(node.last_changed("DroppedOrigins"), node.revision());
    }
}
