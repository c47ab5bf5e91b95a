//! What the Module Manager subscribed to (paper §IV-B: "the Knowledge
//! Base will in turn notify the Module Manager that recent changes …
//! might require activating or deactivating specific modules"): the
//! labels whose changes can move a module's activation, and the manager
//! slots each one concerns — and the labels its modules correlate across
//! creators on every tick, which are *watched*: the table remembers when
//! each last changed, so such a module can tell without reading them.

use std::collections::BTreeMap;

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subscriptions {
    slots: usize,
    exact: BTreeMap<String, Exact>,
    /// Slots that declared no activation input: subscribed to everything.
    wildcard: SlotSet,
}

/// What the table holds for one exact label.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Exact {
    /// The slots re-evaluated when the label changes; none, for a label
    /// that is only watched.
    slots: SlotSet,
    /// Watched: the Knowledge Base revision of the latest change to any
    /// knowgget so labelled (0: none yet). `None`: not watched.
    changed_at: Option<u64>,
}

impl Subscriptions {
    /// An empty table over a manager of `slots` slots.
    pub fn new(slots: usize) -> Self {
        Subscriptions {
            slots,
            exact: BTreeMap::new(),
            wildcard: SlotSet::with_slots(slots),
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
            changed_at: None,
        })
    }

    /// Re-evaluate `slot` whenever anything changes.
    pub fn subscribe_all(&mut self, slot: usize) {
        self.wildcard.insert(slot);
    }

    /// Remember when `label` last changed
    /// ([`Subscriptions::last_changed`]).
    pub fn watch(&mut self, label: &str) {
        self.exact_entry(label).changed_at.get_or_insert(0);
    }

    /// The watched labels, in label order.
    pub fn watched(&self) -> impl Iterator<Item = &str> + '_ {
        (self.exact.iter())
            .filter(|(_, held)| held.changed_at.is_some())
            .map(|(label, _)| label.as_str())
    }

    /// The revision [`Subscriptions::collect`] last heard `label` change
    /// at; `None` for a label that is not watched.
    pub fn last_changed(&self, label: &str) -> Option<u64> {
        self.exact.get(label)?.changed_at
    }

    /// A knowgget labelled `label` changed, at `revision`: add to
    /// `pending` every slot that concerns, and note the revision if the
    /// label is watched — one map lookup for both.
    pub fn collect(&mut self, label: &str, revision: u64, pending: &mut SlotSet) {
        pending.union_with(&self.wildcard);
        if let Some(held) = self.exact.get_mut(label) {
            pending.union_with(&held.slots);
            if let Some(changed_at) = &mut held.changed_at {
                *changed_at = revision;
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
}
