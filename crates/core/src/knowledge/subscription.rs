//! What the Module Manager subscribed to (paper §IV-B: "the Knowledge
//! Base will in turn notify the Module Manager that recent changes …
//! might require activating or deactivating specific modules"): the
//! labels whose changes can move a module's activation, and the manager
//! slots each one concerns — and the labels its modules correlate across
//! creators on every tick or keep asserting on every packet, which are
//! *watched*: the table remembers when each last changed, so such a
//! module can tell without reading them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A set of Module Manager slot numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotSet {
    /// Bit `slot % 64` of word `slot / 64`.
    words: Vec<u64>,
}

impl SlotSet {
    /// The empty set with room for slots `0..slots`: sets of one size
    /// combine without allocating.
    pub fn with_slots(slots: usize) -> Self {
        SlotSet {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    /// Add `slot`.
    pub fn insert(&mut self, slot: usize) {
        if slot / 64 >= self.words.len() {
            self.words.resize(slot / 64 + 1, 0);
        }
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    /// Whether `slot` is in the set.
    pub fn contains(&self, slot: usize) -> bool {
        (self.words.get(slot / 64)).is_some_and(|word| word & (1 << (slot % 64)) != 0)
    }

    /// Whether no slot is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|word| *word == 0)
    }

    /// Add every slot of `other`.
    pub fn union_with(&mut self, other: &SlotSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (word, more) in self.words.iter_mut().zip(&other.words) {
            *word |= more;
        }
    }

    /// Remove every slot, keeping the room.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The slots in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len() * 64).filter(|slot| self.contains(*slot))
    }
}

/// The subscription table: which slots to re-evaluate when a label
/// changes. Compiled by
/// [`ModuleManager::subscriptions`](crate::modules::ModuleManager::subscriptions)
/// from the activation inputs its modules' descriptors declare.
#[derive(Debug, Clone)]
pub struct Subscriptions {
    /// Which compilation this is: a [`Watch`] resolved against another
    /// table does not resolve here (0: never handed out).
    id: u64,
    slots: usize,
    exact: BTreeMap<String, Exact>,
    /// Slots that declared no activation input: subscribed to everything.
    wildcard: SlotSet,
    /// Per watched label, the Knowledge Base revision of the latest
    /// change to any knowgget so labelled (0: none yet).
    stamps: Vec<u64>,
}

/// What the table holds for one exact label.
#[derive(Debug, Clone)]
struct Exact {
    /// The slots re-evaluated when the label changes; none, for a label
    /// that is only watched.
    slots: SlotSet,
    /// Watched: where in `stamps` its change stamp is. `None`: not
    /// watched.
    stamp: Option<u32>,
}

/// A label resolved once against one subscription table, so reading its
/// change stamp ([`KnowledgeBase::changed_at`]) costs an index instead
/// of a label lookup. The default resolves against no table.
///
/// [`KnowledgeBase::changed_at`]: super::KnowledgeBase::changed_at
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watch {
    /// The [`Subscriptions::id`] resolved against.
    table: u64,
    /// The label's place in the table's stamps; `None`: not watched.
    stamp: Option<u32>,
}

/// The next [`Subscriptions::id`].
static NEXT_TABLE: AtomicU64 = AtomicU64::new(1);

impl Subscriptions {
    /// An empty table over a manager of `slots` slots.
    pub fn new(slots: usize) -> Self {
        Subscriptions {
            id: NEXT_TABLE.fetch_add(1, Ordering::Relaxed),
            slots,
            exact: BTreeMap::new(),
            wildcard: SlotSet::with_slots(slots),
            stamps: Vec::new(),
        }
    }

    /// The slot count the table was compiled over.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Re-evaluate `slot` whenever `label` changes.
    pub fn subscribe(&mut self, label: &str, slot: usize) {
        self.exact_entry(label).slots.insert(slot);
    }

    fn exact_entry(&mut self, label: &str) -> &mut Exact {
        let slots = self.slots;
        self.exact.entry(label.to_owned()).or_insert_with(|| Exact {
            slots: SlotSet::with_slots(slots),
            stamp: None,
        })
    }

    /// Re-evaluate `slot` whenever anything changes.
    pub fn subscribe_all(&mut self, slot: usize) {
        self.wildcard.insert(slot);
    }

    /// Remember when `label` last changed
    /// ([`Subscriptions::last_changed`]).
    pub fn watch(&mut self, label: &str) {
        let next = self.stamps.len() as u32;
        let stamp = &mut self.exact_entry(label).stamp;
        if stamp.is_some() {
            return;
        }
        *stamp = Some(next);
        self.stamps.push(0);
    }

    /// The watched labels, in label order.
    pub fn watched(&self) -> impl Iterator<Item = &str> + '_ {
        (self.exact.iter())
            .filter(|(_, held)| held.stamp.is_some())
            .map(|(label, _)| label.as_str())
    }

    /// The revision [`Subscriptions::collect`] last heard `label` change
    /// at; `None` for a label that is not watched.
    pub fn last_changed(&self, label: &str) -> Option<u64> {
        self.stamped(self.resolve(label))
    }

    /// `label` resolved against this table, watched or not.
    pub fn resolve(&self, label: &str) -> Watch {
        Watch {
            table: self.id,
            stamp: self.exact.get(label).and_then(|held| held.stamp),
        }
    }

    /// Whether `watch` was resolved against this table.
    pub fn resolves(&self, watch: Watch) -> bool {
        watch.table == self.id
    }

    /// [`Subscriptions::last_changed`] of the label `watch` resolved
    /// here: no label lookup. `None` for a label that is not watched, or
    /// resolved against another table.
    pub fn stamped(&self, watch: Watch) -> Option<u64> {
        let at = watch.stamp.filter(|_| self.resolves(watch))?;
        self.stamps.get(at as usize).copied()
    }

    /// A knowgget labelled `label` changed, at `revision`: add to
    /// `pending` every slot that concerns, and note the revision if the
    /// label is watched — one map lookup for both.
    pub fn collect(&mut self, label: &str, revision: u64, pending: &mut SlotSet) {
        pending.union_with(&self.wildcard);
        if let Some(held) = self.exact.get_mut(label) {
            pending.union_with(&held.slots);
            if let Some(at) = held.stamp {
                self.stamps[at as usize] = revision;
            }
        }
    }

    /// Every subscription as `(label, slots)`, in label order; then the
    /// subscribed-to-everything slots under `None`, if any.
    pub fn edges(&self) -> Vec<(Option<&str>, Vec<usize>)> {
        let mut edges: Vec<_> = (self.exact.iter())
            .filter(|(_, held)| !held.slots.is_empty())
            .map(|(label, held)| (Some(label.as_str()), held.slots.iter().collect()))
            .collect();
        if !self.wildcard.is_empty() {
            edges.push((None, self.wildcard.iter().collect()));
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_sets_hold_what_was_inserted_across_word_boundaries() {
        let mut set = SlotSet::with_slots(17);
        assert!(set.is_empty());
        for slot in [0, 16, 63, 64, 200] {
            set.insert(slot);
            assert!(set.contains(slot));
        }
        assert!(!set.contains(1) && !set.contains(65) && !set.contains(9_999));
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 16, 63, 64, 200]);
        let mut other = SlotSet::with_slots(17);
        other.insert(3);
        other.union_with(&set);
        assert_eq!(other.iter().collect::<Vec<_>>(), [0, 3, 16, 63, 64, 200]);
        other.clear();
        assert!(other.is_empty());
    }

    #[test]
    fn collect_matches_exact_labels_family_members_and_wildcards() {
        let mut table = Subscriptions::new(4);
        table.subscribe("Multihop", 0);
        table.subscribe("Multihop", 1);
        table.subscribe("ProtocolSeen.IP", 2);
        let hit = |table: &mut Subscriptions, label: &str| {
            let mut pending = SlotSet::with_slots(4);
            table.collect(label, 0, &mut pending);
            pending.iter().collect::<Vec<_>>()
        };
        assert_eq!(hit(&mut table, "Multihop"), [0, 1]);
        assert_eq!(hit(&mut table, "ProtocolSeen.IP"), [2]);
        // A family member is subscribed by its whole label: not by the
        // family root, a sibling, or a longer label.
        assert!(hit(&mut table, "ProtocolSeen").is_empty());
        assert!(hit(&mut table, "ProtocolSeen.CTP").is_empty());
        assert!(hit(&mut table, "ProtocolSeenX.IP").is_empty());
        assert!(hit(&mut table, "Multihop.X").is_empty());
        assert!(hit(&mut table, "SignalStrength").is_empty());
        table.subscribe_all(3);
        assert_eq!(hit(&mut table, "SignalStrength"), [3]);
        assert_eq!(hit(&mut table, "Multihop"), [0, 1, 3]);
        assert_eq!(
            table.edges(),
            [
                (Some("Multihop"), vec![0, 1]),
                (Some("ProtocolSeen.IP"), vec![2]),
                (None, vec![3]),
            ]
        );
    }

    #[test]
    fn a_watched_label_remembers_its_latest_change_and_subscribes_nobody() {
        let mut table = Subscriptions::new(2);
        table.subscribe("Multihop", 0);
        table.watch("DroppedOrigins");
        table.watch("Multihop");
        table.watch("Multihop");
        assert_eq!(
            table.watched().collect::<Vec<_>>(),
            ["DroppedOrigins", "Multihop"]
        );
        assert_eq!(table.last_changed("DroppedOrigins"), Some(0));
        assert_eq!(table.last_changed("ExoticOrigins"), None);
        let mut pending = SlotSet::with_slots(2);
        table.collect("DroppedOrigins", 7, &mut pending);
        assert!(pending.is_empty());
        table.collect("ExoticOrigins", 8, &mut pending);
        table.collect("Multihop", 9, &mut pending);
        assert_eq!(pending.iter().collect::<Vec<_>>(), [0]);
        assert_eq!(table.last_changed("DroppedOrigins"), Some(7));
        assert_eq!(table.last_changed("ExoticOrigins"), None);
        assert_eq!(table.last_changed("Multihop"), Some(9));
        // Watching adds no edge: the activation table reads as before.
        assert_eq!(table.edges(), [(Some("Multihop"), vec![0])]);
    }

    #[test]
    fn a_resolved_watch_reads_its_own_tables_stamp_only() {
        let compile = || {
            let mut table = Subscriptions::new(1);
            table.watch("MediumSeen.wifi");
            table.watch("Multihop");
            table
        };
        let mut table = compile();
        let wifi = table.resolve("MediumSeen.wifi");
        let unwatched = table.resolve("MonitoredNodes");
        assert_eq!(table.stamped(wifi), Some(0));
        assert_eq!(table.stamped(unwatched), None);
        let mut pending = SlotSet::with_slots(1);
        table.collect("Multihop", 4, &mut pending);
        table.collect("MediumSeen.wifi", 5, &mut pending);
        assert_eq!(table.stamped(wifi), Some(5));
        assert_eq!(table.stamped(table.resolve("Multihop")), Some(4));
        // A table compiled again, even alike, resolves afresh.
        let again = compile();
        assert!(table.resolves(wifi) && !again.resolves(wifi));
        assert_eq!(again.stamped(wifi), None);
        assert!(!table.resolves(Watch::default()));
    }
}
