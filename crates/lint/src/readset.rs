//! Per-peer sync read sets (`kalis-lint --read-sets`).
//!
//! Interest-based synchronization (ROADMAP item 3) needs to know, for
//! each peer, *which collective knowggets that peer actually consumes* —
//! its **read set** — so beacons can carry only knowledge someone will
//! read instead of the full collective surface. The knowgget contracts
//! already declare this: a module consumes peer knowledge only where it
//! declares a collective-correlation read (`reads_collective`) of a key
//! some contract writes collectively, the rule `KL201` applies too. A
//! plain read sees the local copy alone, whatever peers send.
//!
//! This module computes that set purely from contracts — deterministic
//! for a given registry, no runtime state — and renders it as a
//! hand-rolled JSON artifact (schema `kalis.read-sets.v1`, documented in
//! `OBSERVABILITY_MAP.md`) with three views: per-module, rolled up per
//! attack family (via each detection module's `detects` descriptor), and
//! the node-wide union an undifferentiated peer would subscribe to.
//!
//! A fourth view is the read set of the node's *own* subscriber: the
//! `activation` edges, label → the detection modules whose activation
//! reads it. Both the Module Manager's runtime subscription table and
//! this view come from the features each module's descriptor needs; a
//! test below holds the two equal.

use std::collections::BTreeMap;

use kalis_core::modules::{KeyUse, KnowggetContract, ModuleRegistry};
use kalis_core::AttackKind;
use kalis_telemetry::json::quote;

use crate::graph::{reads_peer_copies, GraphNode, NodeKind};

/// Why a key is in a module's sync read set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadReason {
    /// The module declares a collective-correlation read
    /// (`reads_collective`): it iterates peer creators of the key.
    CollectiveRead,
}

impl ReadReason {
    /// Stable JSON label.
    pub fn name(self) -> &'static str {
        match self {
            ReadReason::CollectiveRead => "collective-read",
        }
    }
}

/// One entry of a module's sync read set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSetEntry {
    /// The key label (pattern rendering, `Family.*` for families).
    pub key: String,
    /// Why sync matters for this key.
    pub reason: ReadReason,
    /// Whether the key is entity-scoped (`label@entity`).
    pub per_entity: bool,
}

/// The per-peer sync read sets derived from a registry's contracts.
#[derive(Debug, Clone)]
pub struct ReadSets {
    /// `module name → sorted entries`; modules with empty sync read
    /// sets are included (with an empty list) so the artifact is a
    /// complete inventory.
    pub modules: BTreeMap<String, Vec<ReadSetEntry>>,
    /// `attack family label → sorted key labels`, unioned over the
    /// detection modules that detect the family. Sync-only, like
    /// `modules`.
    pub families: BTreeMap<&'static str, Vec<String>>,
    /// `attack family label → every key the family's detection modules
    /// read at all` (synced or locally sensed) — the family's full
    /// knowledge dependency surface. Families without a shipped
    /// detector are absent here (unlike `families`, which lists every
    /// `AttackKind` label).
    pub knowledge: BTreeMap<&'static str, Vec<String>>,
    /// The node-wide union: every key any module needs from sync.
    pub union: Vec<String>,
    /// `activation input → sorted detection modules re-evaluated when it
    /// changes` — the Module Manager's subscription. `*` lists the
    /// detection modules that declare no activation input (`KL206`) and
    /// are re-evaluated on every change; absent when there are none.
    pub activation: BTreeMap<String, Vec<String>>,
}

/// The sync read set of one contract against the set of collective
/// writes in the system.
fn contract_read_set(contract: &KnowggetContract, collective: &[&KeyUse]) -> Vec<ReadSetEntry> {
    let mut entries: Vec<ReadSetEntry> = (contract.reads.iter())
        .filter(|read| {
            collective
                .iter()
                .any(|write| reads_peer_copies(read, write))
        })
        .map(|read| ReadSetEntry {
            key: read.pattern.to_string(),
            reason: ReadReason::CollectiveRead,
            per_entity: read.per_entity,
        })
        .collect();
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    entries.dedup();
    entries
}

impl ReadSets {
    /// Compute every module's sync read set from the registry's
    /// contracts. Deterministic: registries iterate in name order and
    /// every collection here is sorted.
    pub fn from_registry(registry: &ModuleRegistry) -> Self {
        let nodes = GraphNode::from_registry(registry);
        let modules_only = || nodes.iter().filter(|n| n.kind != NodeKind::System);
        let collective: Vec<&KeyUse> = modules_only()
            .flat_map(|n| n.contract.writes.iter().filter(|w| w.collective))
            .collect();

        let mut modules = BTreeMap::new();
        let mut families: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        let mut knowledge: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        let mut union: Vec<String> = Vec::new();
        let mut activation: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for node in modules_only() {
            let (name, contract) = (&node.name, &node.contract);
            if node.kind == NodeKind::Detection {
                let inputs = if node.activation.is_empty() {
                    &["*"][..]
                } else {
                    &node.activation[..]
                };
                for input in inputs {
                    activation
                        .entry(input.to_string())
                        .or_default()
                        .push(name.clone());
                }
            }
            let entries = contract_read_set(contract, &collective);
            union.extend(entries.iter().map(|e| e.key.clone()));
            if let Some(attack) = node.detects {
                let keys = families.entry(attack.label()).or_default();
                keys.extend(entries.iter().map(|e| e.key.clone()));
                let deps = knowledge.entry(attack.label()).or_default();
                deps.extend(contract.reads.iter().map(|r| r.pattern.to_string()));
            }
            modules.insert(name.clone(), entries);
        }
        // Every attack family appears, even with an empty read set, so
        // the `experiments --lint` preflight can assert per-family
        // coverage explicitly.
        for attack in AttackKind::all() {
            families.entry(attack.label()).or_default();
        }
        let sorted = (families.values_mut())
            .chain(knowledge.values_mut())
            .chain(activation.values_mut());
        for keys in sorted {
            keys.sort();
            keys.dedup();
        }
        union.sort();
        union.dedup();
        ReadSets {
            modules,
            families,
            knowledge,
            union,
            activation,
        }
    }

    /// The rolled-up read set for one attack family label, if known.
    pub fn family(&self, label: &str) -> Option<&[String]> {
        self.families.get(label).map(Vec::as_slice)
    }

    /// Render the artifact as deterministic JSON (`kalis.read-sets.v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"kalis.read-sets.v1\",\n");
        out.push_str("  \"modules\": {\n");
        let last_module = self.modules.len().saturating_sub(1);
        for (i, (name, entries)) in self.modules.iter().enumerate() {
            out.push_str(&format!("    {}: [", quote(name)));
            for (j, e) in entries.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"key\": {}, \"reason\": {}, \"per_entity\": {}}}",
                    quote(&e.key),
                    quote(e.reason.name()),
                    e.per_entity
                ));
            }
            out.push(']');
            if i != last_module {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  },\n  \"families\": {\n");
        let last_family = self.families.len().saturating_sub(1);
        for (i, (label, keys)) in self.families.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {}",
                quote(label),
                json_string_array(keys)
            ));
            if i != last_family {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  },\n  \"knowledge\": {\n");
        let last_dep = self.knowledge.len().saturating_sub(1);
        for (i, (label, keys)) in self.knowledge.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {}",
                quote(label),
                json_string_array(keys)
            ));
            if i != last_dep {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  },\n  \"activation\": {\n");
        let last_input = self.activation.len().saturating_sub(1);
        for (i, (input, modules)) in self.activation.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {}",
                quote(input),
                json_string_array(modules)
            ));
            if i != last_input {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"union\": {}\n}}\n",
            json_string_array(&self.union)
        ));
        out
    }
}

fn json_string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_read_sets_are_deterministic_and_plausible() {
        let reg = ModuleRegistry::with_defaults();
        let a = ReadSets::from_registry(&reg);
        let b = ReadSets::from_registry(&reg);
        assert_eq!(a.to_json(), b.to_json(), "artifact must be deterministic");

        // The wormhole detector correlates peer watchdog evidence.
        let wormhole = &a.modules["WormholeModule"];
        assert!(wormhole.iter().any(|e| e.key == "DroppedOrigins"
            && e.reason == ReadReason::CollectiveRead
            && e.per_entity));
        // A module reading only its own copies needs nothing from sync,
        // but still appears: the blackhole reads back the local
        // `WormholeConfirmed` alone.
        assert!(a.modules["BlackholeModule"].is_empty());
        assert!(a.modules["FragmentFloodModule"].is_empty());
        // Family roll-up: wormhole's family carries its keys.
        assert!(a
            .family("wormhole")
            .unwrap()
            .contains(&"DroppedOrigins".to_owned()));
        // Every attack family label is present in the artifact.
        for attack in AttackKind::all() {
            assert!(
                a.family(attack.label()).is_some(),
                "{} missing",
                attack.label()
            );
        }
        // Knowledge dependency surface: every family with a shipped
        // detector reads *something* — the knowledge-driven claim —
        // including families whose sync read set is empty.
        assert!(!a.knowledge["icmp-flood"].is_empty());
        assert!(a.knowledge["wormhole"].contains(&"DroppedOrigins".to_owned()));
        assert!(
            !a.knowledge.contains_key("anomaly"),
            "no shipped anomaly detector"
        );
        // The union is sorted and deduplicated.
        let mut sorted = a.union.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(a.union, sorted);
        assert!(!a.union.is_empty());
    }

    /// The artifact's first consumer: the activation edges kalis-lint
    /// emits are the subscription table a node compiles at build time,
    /// label for label and module for module — the static picture and
    /// the running system cannot drift apart.
    #[test]
    fn activation_edges_are_the_runtime_subscription_table() {
        use kalis_core::config::ModuleDef;
        use kalis_core::modules::ModuleManager;

        let reg = ModuleRegistry::with_defaults();
        // As `with_default_modules()` loads it: every module, unpinned.
        let mut manager = ModuleManager::new();
        for name in reg.names() {
            manager.add(reg.build(&ModuleDef::new(name)).unwrap(), false);
        }
        let mut runtime = manager.subscriptions_by_name();
        for (_, modules) in &mut runtime {
            modules.sort_unstable();
        }
        runtime.sort();
        assert!(runtime.len() >= 6, "{runtime:?}");

        let sets = ReadSets::from_registry(&reg);
        let emitted: Vec<(String, Vec<&str>)> = (sets.activation.iter())
            .map(|(input, modules)| (input.clone(), modules.iter().map(String::as_str).collect()))
            .collect();
        assert_eq!(emitted, runtime);
        // ... and the emitted text spells each of them.
        let json = sets.to_json();
        for (input, modules) in &sets.activation {
            let line = format!("    {}: {}", quote(input), json_string_array(modules));
            assert!(json.contains(&line), "{line} missing from:\n{json}");
        }

        // The same table tells the Knowledge Base which labels to watch
        // for change: the keys the artifact gives the reason
        // `collective-read`, so contract, linter and runtime agree on
        // what a tick correlates across creators — and the labels the
        // sensing modules' descriptors assert, which they write only on
        // change.
        let mut collective_reads: Vec<&str> = (sets.modules.values().flatten())
            .filter(|entry| entry.reason == ReadReason::CollectiveRead)
            .map(|entry| entry.key.as_str())
            .collect();
        collective_reads.sort_unstable();
        collective_reads.dedup();
        assert_eq!(collective_reads, ["DroppedOrigins", "ExoticOrigins"]);
        let mut watched = collective_reads.clone();
        for name in reg.names() {
            let module = reg.build(&ModuleDef::new(name)).unwrap();
            watched.extend(module.descriptor().asserts);
        }
        watched.sort_unstable();
        watched.dedup();
        assert_eq!(watched.len(), 13, "{watched:?}");
        let table = manager.subscriptions();
        assert_eq!(table.watched().collect::<Vec<_>>(), watched);
    }

    #[test]
    fn json_artifact_shape() {
        let json = ReadSets::from_registry(&ModuleRegistry::with_defaults()).to_json();
        assert!(json.starts_with("{\n  \"schema\": \"kalis.read-sets.v1\""));
        assert!(json.contains("\"modules\""));
        assert!(json.contains("\"families\""));
        assert!(json.contains("\"knowledge\""));
        assert!(json.contains("\"activation\""));
        assert!(json.contains("\"union\""));
        assert!(json.contains("\"collective-read\""));
        assert!(json.trim_end().ends_with('}'));
        // Balanced braces/brackets (cheap well-formedness check; the CLI
        // test parses it properly).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
