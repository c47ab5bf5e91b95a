//! What the Module Manager subscribed to (paper §IV-B: "the Knowledge
//! Base will in turn notify the Module Manager that recent changes …
//! might require activating or deactivating specific modules"): the
//! labels whose changes can move a module's activation, and the manager
//! slots each one concerns.

use std::collections::BTreeMap;

use crate::modules::KeyPattern;

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
/// from the activation inputs its modules' contracts declare.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subscriptions {
    slots: usize,
    exact: BTreeMap<String, SlotSet>,
    /// `Family` patterns, by root.
    families: Vec<(KeyPattern, SlotSet)>,
    /// Slots that declared no activation input: subscribed to everything.
    wildcard: SlotSet,
}

impl Subscriptions {
    /// An empty table over a manager of `slots` slots.
    pub fn new(slots: usize) -> Self {
        Subscriptions {
            slots,
            exact: BTreeMap::new(),
            families: Vec::new(),
            wildcard: SlotSet::with_slots(slots),
        }
    }

    /// The slot count the table was compiled over.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Re-evaluate `slot` whenever a label `pattern` covers changes.
    pub fn subscribe(&mut self, pattern: &KeyPattern, slot: usize) {
        let room = SlotSet::with_slots(self.slots);
        let set = match pattern {
            KeyPattern::Exact(label) => self.exact.entry(label.clone()).or_insert(room),
            KeyPattern::Family(_) => {
                let at = (self.families.iter())
                    .position(|(held, _)| held == pattern)
                    .unwrap_or_else(|| {
                        self.families.push((pattern.clone(), room));
                        self.families.len() - 1
                    });
                &mut self.families[at].1
            }
        };
        set.insert(slot);
    }

    /// Re-evaluate `slot` whenever anything changes.
    pub fn subscribe_all(&mut self, slot: usize) {
        self.wildcard.insert(slot);
    }

    /// Add to `pending` every slot a change of `label` concerns: one map
    /// lookup, plus a prefix test per declared family.
    pub fn collect(&self, label: &str, pending: &mut SlotSet) {
        pending.union_with(&self.wildcard);
        if let Some(slots) = self.exact.get(label) {
            pending.union_with(slots);
        }
        for (family, slots) in &self.families {
            if family.matches(label) {
                pending.union_with(slots);
            }
        }
    }

    /// Every subscription as `(pattern, slots)`, exact labels first, each
    /// group in label order; then the subscribed-to-everything slots
    /// under `None`, if any.
    pub fn edges(&self) -> Vec<(Option<KeyPattern>, Vec<usize>)> {
        let exact = (self.exact.iter()).map(|(label, slots)| (KeyPattern::exact(label), slots));
        let mut families: Vec<_> = (self.families.iter())
            .map(|(family, slots)| (family.clone(), slots))
            .collect();
        families.sort_by(|a, b| a.0.root().cmp(b.0.root()));
        let mut edges: Vec<_> = exact
            .chain(families)
            .map(|(pattern, slots)| (Some(pattern), slots.iter().collect()))
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
        table.subscribe(&KeyPattern::exact("Multihop"), 0);
        table.subscribe(&KeyPattern::exact("Multihop"), 1);
        table.subscribe(&KeyPattern::family("ProtocolSeen"), 2);
        let hit = |table: &Subscriptions, label: &str| {
            let mut pending = SlotSet::with_slots(4);
            table.collect(label, &mut pending);
            pending.iter().collect::<Vec<_>>()
        };
        assert_eq!(hit(&table, "Multihop"), [0, 1]);
        assert_eq!(hit(&table, "ProtocolSeen.IP"), [2]);
        // A family root is not one of its members, nor a longer label.
        assert!(hit(&table, "ProtocolSeen").is_empty());
        assert!(hit(&table, "ProtocolSeenX.IP").is_empty());
        assert!(hit(&table, "Multihop.X").is_empty());
        assert!(hit(&table, "SignalStrength").is_empty());
        table.subscribe_all(3);
        assert_eq!(hit(&table, "SignalStrength"), [3]);
        assert_eq!(hit(&table, "Multihop"), [0, 1, 3]);
        assert_eq!(
            table.edges(),
            [
                (Some(KeyPattern::exact("Multihop")), vec![0, 1]),
                (Some(KeyPattern::family("ProtocolSeen")), vec![2]),
                (None, vec![3]),
            ]
        );
    }
}
