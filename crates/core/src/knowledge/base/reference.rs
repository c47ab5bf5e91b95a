//! The string-valued Knowledge Base as it stood before values were
//! stored typed, kept verbatim (imports aside) as the model the
//! differential test holds the typed store to: every value is its wire
//! string, every lookup encodes a `KnowKey` and parses the value back,
//! and provenance, the collective marks and the sync outbox live in
//! side tables keyed by the encoded string. Where the store's rules
//! changed since, the model was edited to the new rule: a shrunk entity
//! budget evicts the least recently written entities, in place.

// The model keeps the old API whole, used by the test or not.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use kalis_packets::Entity;

use crate::bounded::BoundedMap;
use crate::id::KalisId;

use super::super::{KnowKey, KnowValue, Knowgget, KnowggetOrigin};
use super::{ChangeEvent, DEFAULT_KB_ENTITY_BUDGET};

/// The string-valued store.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    local: KalisId,
    entries: BTreeMap<String, String>,
    /// Σ [`entry_bytes`] over `entries`, kept current wherever an entry
    /// is written or removed.
    entries_bytes: usize,
    collective: BTreeSet<String>,
    dirty_collective: BTreeSet<String>,
    changes: Vec<ChangeEvent>,
    revision: u64,
    /// Write provenance per encoded key: which module last changed the
    /// value, and under which trace. Only updated when the stored value
    /// actually changes, so replayed/duplicated writes cannot churn the
    /// recorded provenance.
    attribution: BTreeMap<String, KnowggetOrigin>,
    /// The module currently dispatching (set by the Module Manager
    /// around each callback); empty = operator/config/embedder write.
    writer: String,
    /// The trace context of the packet/tick being dispatched
    /// (`(trace_id, span_id)`; zeros = untraced).
    trace: (u64, u32),
    /// Bounded index of per-entity knowledge: entity string → the
    /// encoded keys of every knowgget about it. When a fresh entity
    /// would exceed the budget, the least-recently-written entity is
    /// evicted and all of its knowggets purged.
    entity_index: BoundedMap<String, BTreeSet<String>>,
}

/// Rough live-memory footprint of one stored knowgget.
fn entry_bytes(encoded: &str, wire: &str) -> usize {
    encoded.len() + wire.len() + 48
}

impl KnowledgeBase {
    /// An empty Knowledge Base owned by `local`.
    pub fn new(local: KalisId) -> Self {
        KnowledgeBase {
            local,
            entries: BTreeMap::new(),
            entries_bytes: 0,
            collective: BTreeSet::new(),
            dirty_collective: BTreeSet::new(),
            changes: Vec::new(),
            revision: 0,
            attribution: BTreeMap::new(),
            writer: String::new(),
            trace: (0, 0),
            entity_index: BoundedMap::new(DEFAULT_KB_ENTITY_BUDGET),
        }
    }

    /// The owning Kalis node's identifier.
    pub fn local_id(&self) -> &KalisId {
        &self.local
    }

    /// Monotonic revision counter; bumps on every change.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    fn set_raw(&mut self, key: KnowKey, value: KnowValue, collective: bool) -> bool {
        let origin = self.current_origin();
        self.set_raw_with_origin(key, value, collective, origin)
    }

    fn set_raw_with_origin(
        &mut self,
        key: KnowKey,
        value: KnowValue,
        collective: bool,
        origin: Option<KnowggetOrigin>,
    ) -> bool {
        let encoded = key.encode();
        let wire = value.to_wire();
        let changed = self.entries.get(&encoded) != Some(&wire);
        if collective {
            self.collective.insert(encoded.clone());
        }
        if changed {
            let trace_id = origin.as_ref().map_or(0, |o| o.trace_id);
            // Provenance follows the value: only a *real* change
            // re-attributes the knowgget (duplicated sync frames and
            // idempotent re-writes leave it untouched).
            match origin {
                Some(o) => {
                    self.attribution.insert(encoded.clone(), o);
                }
                None => {
                    self.attribution.remove(&encoded);
                }
            }
            self.entries_bytes += entry_bytes(&encoded, &wire);
            if let Some(old) = self.entries.insert(encoded.clone(), wire) {
                self.entries_bytes -= entry_bytes(&encoded, &old);
            }
            self.revision += 1;
            if self.collective.contains(&encoded) {
                self.dirty_collective.insert(encoded.clone());
            }
            let entity_tag = key.entity.as_ref().map(|e| e.as_str().to_owned());
            self.changes.push(ChangeEvent {
                key,
                value,
                removed: false,
                trace_id,
            });
            // Entity-scoped knowledge is indexed under its entity so the
            // per-entity budget can evict whole entities at once. The
            // eviction (if any) happens *before* the new entity is
            // indexed, so the purge can never touch the fresh write.
            if let Some(entity) = entity_tag {
                let evicted = {
                    let (set, evicted) =
                        self.entity_index.get_or_insert_with(&entity, BTreeSet::new);
                    set.insert(encoded);
                    evicted
                };
                if let Some((_, keys)) = evicted {
                    self.purge_entity_keys(&keys);
                }
            }
        }
        true
    }

    /// Remove every knowgget belonging to an entity evicted from the
    /// bounded entity index. Each removal is a real change: modules see
    /// removal events exactly as if the knowgget had expired normally.
    fn purge_entity_keys(&mut self, keys: &BTreeSet<String>) {
        for encoded in keys {
            let Some(old) = self.entries.remove(encoded) else {
                continue;
            };
            self.entries_bytes -= entry_bytes(encoded, &old);
            self.revision += 1;
            self.collective.remove(encoded);
            self.dirty_collective.remove(encoded);
            self.attribution.remove(encoded);
            if let Ok(key) = encoded.parse::<KnowKey>() {
                self.changes.push(ChangeEvent {
                    key,
                    value: KnowValue::from_wire(&old),
                    removed: true,
                    trace_id: 0,
                });
            }
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

    /// The origin the next local write will be attributed to, from the
    /// ambient writer/trace set by the dispatch loop.
    fn current_origin(&self) -> Option<KnowggetOrigin> {
        if self.writer.is_empty() && self.trace == (0, 0) {
            return None;
        }
        Some(KnowggetOrigin {
            module: self.writer.as_str().into(),
            trace_id: self.trace.0,
            span_id: self.trace.1,
        })
    }

    /// Declare the module about to perform writes (called by the Module
    /// Manager around each dispatch). Empty string = no module
    /// (operator/config writes).
    pub fn set_writer(&mut self, module: &str) {
        if self.writer != module {
            self.writer.clear();
            self.writer.push_str(module);
        }
    }

    /// Clear the ambient writer attribution.
    pub fn clear_writer(&mut self) {
        self.writer.clear();
    }

    /// Declare the trace context writes should be attributed to
    /// (`(0, 0)` = untraced).
    pub fn set_trace(&mut self, trace_id: u64, span_id: u32) {
        self.trace = (trace_id, span_id);
    }

    /// Clear the ambient trace attribution.
    pub fn clear_trace(&mut self) {
        self.trace = (0, 0);
    }

    /// Write provenance for an encoded key (`creator$label@entity`), if
    /// any was recorded.
    pub fn origin_of_encoded(&self, encoded: &str) -> Option<&KnowggetOrigin> {
        self.attribution.get(encoded)
    }

    /// Write provenance for a key, if any was recorded.
    pub fn origin_of(&self, key: &KnowKey) -> Option<&KnowggetOrigin> {
        self.attribution.get(&key.encode())
    }

    /// Insert or update a local network-level knowgget. Returns whether
    /// the stored value changed.
    pub fn insert(&mut self, label: impl Into<String>, value: impl Into<KnowValue>) -> bool {
        let key = KnowKey::new(self.local.clone(), label);
        let before = self.revision;
        self.set_raw(key, value.into(), false);
        self.revision != before
    }

    /// Insert or update a local entity-specific knowgget.
    pub fn insert_about(
        &mut self,
        label: impl Into<String>,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        let key = KnowKey::about(self.local.clone(), label, entity);
        let before = self.revision;
        self.set_raw(key, value.into(), false);
        self.revision != before
    }

    /// Insert a local knowgget **marked collective**: changes to it are
    /// shared with peer Kalis nodes (paper §IV-B3, Collective Knowledge).
    pub fn insert_collective(
        &mut self,
        label: impl Into<String>,
        value: impl Into<KnowValue>,
    ) -> bool {
        let key = KnowKey::new(self.local.clone(), label);
        let before = self.revision;
        self.set_raw(key, value.into(), true);
        self.revision != before
    }

    /// Insert a collective entity-specific knowgget.
    pub fn insert_about_collective(
        &mut self,
        label: impl Into<String>,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        let key = KnowKey::about(self.local.clone(), label, entity);
        let before = self.revision;
        self.set_raw(key, value.into(), true);
        self.revision != before
    }

    /// Remove a local network-level knowgget.
    pub fn remove(&mut self, label: &str) -> bool {
        let key = KnowKey::new(self.local.clone(), label);
        self.remove_key(key)
    }

    /// Remove a local entity-specific knowgget.
    pub fn remove_about(&mut self, label: &str, entity: &Entity) -> bool {
        let key = KnowKey::about(self.local.clone(), label, entity.clone());
        self.remove_key(key)
    }

    fn remove_key(&mut self, key: KnowKey) -> bool {
        let encoded = key.encode();
        if let Some(old) = self.entries.remove(&encoded) {
            self.entries_bytes -= entry_bytes(&encoded, &old);
            self.revision += 1;
            self.collective.remove(&encoded);
            self.dirty_collective.remove(&encoded);
            self.attribution.remove(&encoded);
            if let Some(entity) = key.entity.as_ref().map(|e| e.as_str().to_owned()) {
                let emptied = self.entity_index.get_mut(&entity).is_some_and(|set| {
                    set.remove(&encoded);
                    set.is_empty()
                });
                if emptied {
                    self.entity_index.remove(&entity);
                }
            }
            self.changes.push(ChangeEvent {
                key,
                value: KnowValue::from_wire(&old),
                removed: true,
                trace_id: self.trace.0,
            });
            true
        } else {
            false
        }
    }

    /// Look up a local network-level knowgget.
    pub fn get(&self, label: &str) -> Option<KnowValue> {
        let key = KnowKey::new(self.local.clone(), label).encode();
        self.entries.get(&key).map(|w| KnowValue::from_wire(w))
    }

    /// Look up a local entity-specific knowgget.
    pub fn get_about(&self, label: &str, entity: &Entity) -> Option<KnowValue> {
        let key = KnowKey::about(self.local.clone(), label, entity.clone()).encode();
        self.entries.get(&key).map(|w| KnowValue::from_wire(w))
    }

    /// Typed lookup: boolean.
    pub fn get_bool(&self, label: &str) -> Option<bool> {
        self.get(label)?.as_bool()
    }

    /// Typed lookup: integer.
    pub fn get_int(&self, label: &str) -> Option<i64> {
        self.get(label)?.as_int()
    }

    /// Typed lookup: float.
    pub fn get_f64(&self, label: &str) -> Option<f64> {
        self.get(label)?.as_f64()
    }

    /// Typed lookup: text.
    pub fn get_text(&self, label: &str) -> Option<String> {
        self.get(label).map(|v| v.as_text())
    }

    /// Every knowgget with the given label across **all** creators — the
    /// collective-correlation query ("other Kalis nodes are noticing
    /// changes in signal strength for specific devices").
    pub fn get_all_creators(&self, label: &str) -> Vec<(KalisId, Option<Entity>, KnowValue)> {
        self.entries
            .iter()
            .filter_map(|(k, w)| {
                let key: KnowKey = k.parse().ok()?;
                (key.label == label).then(|| (key.creator, key.entity, KnowValue::from_wire(w)))
            })
            .collect()
    }

    /// Every local knowgget whose label starts with `root.` (the
    /// sub-knowggets of a multilevel knowgget), as `(sub-label, value)`.
    pub fn sublabels(&self, root: &str) -> Vec<(String, KnowValue)> {
        let prefix = format!("{}${}.", self.local, root);
        self.entries
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, w)| {
                let rest = &k[prefix.len()..];
                let sub = rest.split('@').next().unwrap_or(rest).to_owned();
                (sub, KnowValue::from_wire(w))
            })
            .collect()
    }

    /// Every entity that has a local knowgget with `label`, with its value
    /// — the suffix query of the paper.
    pub fn entities_with(&self, label: &str) -> Vec<(Entity, KnowValue)> {
        let prefix = format!("{}${}@", self.local, label);
        self.entries
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, w)| {
                (
                    Entity::new(k[prefix.len()..].to_owned()),
                    KnowValue::from_wire(w),
                )
            })
            .collect()
    }

    /// Iterate over every entry as decoded knowggets.
    pub fn iter(&self) -> impl Iterator<Item = Knowgget> + '_ {
        self.entries.iter().filter_map(|(k, w)| {
            let key: KnowKey = k.parse().ok()?;
            Some(Knowgget {
                label: key.label,
                value: KnowValue::from_wire(w),
                creator: key.creator,
                entity: key.entity,
                origin: self.attribution.get(k).cloned(),
            })
        })
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
        self.entries.iter().map(|(k, v)| entry_bytes(k, v)).sum()
    }

    /// Drain the change log accumulated since the last call.
    pub fn drain_changes(&mut self) -> Vec<ChangeEvent> {
        std::mem::take(&mut self.changes)
    }

    /// Whether there are undrained changes.
    pub fn has_changes(&self) -> bool {
        !self.changes.is_empty()
    }

    /// Drain the collective knowggets that changed since the last call —
    /// the outbox of the synchronization mechanism.
    pub fn drain_dirty_collective(&mut self) -> Vec<Knowgget> {
        let dirty = std::mem::take(&mut self.dirty_collective);
        dirty
            .into_iter()
            .filter_map(|encoded| {
                let key: KnowKey = encoded.parse().ok()?;
                let wire = self.entries.get(&encoded)?;
                Some(Knowgget {
                    label: key.label,
                    value: KnowValue::from_wire(wire),
                    creator: key.creator,
                    entity: key.entity,
                    origin: self.attribution.get(&encoded).cloned(),
                })
            })
            .collect()
    }

    /// Every knowgget currently marked collective, regardless of dirty
    /// state — the full-state payload sent when a recovered peer needs a
    /// complete re-sync.
    pub fn collective_knowggets(&self) -> Vec<Knowgget> {
        self.collective
            .iter()
            .filter_map(|encoded| {
                let key: KnowKey = encoded.parse().ok()?;
                let wire = self.entries.get(encoded)?;
                Some(Knowgget {
                    label: key.label,
                    value: KnowValue::from_wire(wire),
                    creator: key.creator,
                    entity: key.entity,
                    origin: self.attribution.get(encoded).cloned(),
                })
            })
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
        if &knowgget.creator != sender {
            return Err(format!(
                "creator `{}` does not match sender `{sender}`",
                knowgget.creator
            ));
        }
        if knowgget.creator == self.local {
            return Err("peer attempted to overwrite local knowledge".to_owned());
        }
        let key = knowgget.key();
        let before = self.revision;
        // A remote knowgget carries its own provenance (or none, for
        // peers predating the provenance wire extension) — never the
        // local ambient writer.
        self.set_raw_with_origin(key, knowgget.value, false, knowgget.origin);
        Ok(self.revision != before)
    }
}
