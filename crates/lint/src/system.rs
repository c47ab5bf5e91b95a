//! Whole-system contract analysis (`KL00x`): with every registered
//! module's [`KnowggetContract`] plus the node-level contract in hand,
//! verify the knowledge graph the paper's knowledge-driven activation
//! relies on — every read has a producer, producers and consumers agree
//! on value types, nothing is written into the void, and every module has
//! at least one satisfiable path to activation.

use kalis_core::modules::{KeyPattern, KeyUse, ModuleRegistry};

use crate::diagnostics::{Code, Diagnostic};
use crate::distance::closest;
use crate::graph::GraphNode;

/// Display name for the node-level contract (supervisor/sync knobs and
/// the degraded-mode flag) in diagnostics.
pub(crate) const SYSTEM_OWNER: &str = "kalis-node";

/// The flattened system view: every contract edge with its owner.
#[derive(Debug, Clone)]
pub(crate) struct SystemModel {
    /// Every registered module, plus the node-level contract under
    /// [`SYSTEM_OWNER`].
    pub nodes: Vec<GraphNode>,
}

impl SystemModel {
    /// Build the model from a registry, appending the node-level
    /// contract from [`kalis_core::system_contract`].
    pub fn from_registry(registry: &ModuleRegistry) -> Self {
        SystemModel {
            nodes: GraphNode::from_registry(registry),
        }
    }

    /// Every write edge, with its owner's name.
    pub fn writes(&self) -> impl Iterator<Item = (&str, &KeyUse)> {
        (self.nodes.iter())
            .flat_map(|n| n.contract.writes.iter().map(move |w| (n.name.as_str(), w)))
    }

    /// Every read edge, with its owner's name.
    pub fn reads(&self) -> impl Iterator<Item = (&str, &KeyUse)> {
        (self.nodes.iter()).flat_map(|n| n.contract.reads.iter().map(move |r| (n.name.as_str(), r)))
    }

    /// The writers whose pattern overlaps `read`'s.
    pub(crate) fn producers_of<'a>(&'a self, read: &'a KeyPattern) -> Vec<(&'a str, &'a KeyUse)> {
        self.writes()
            .filter(|(_, w)| overlaps(&w.pattern, read))
            .collect()
    }
}

/// Whether two patterns can name the same concrete knowgget label.
pub(crate) fn overlaps(a: &KeyPattern, b: &KeyPattern) -> bool {
    a.covers(b) || b.covers(a)
}

/// Candidate label spellings for "did you mean" suggestions, derived
/// from `patterns`: exact labels verbatim, family roots both bare and —
/// when `label` itself is dotted — recombined with `label`'s suffix (so
/// `ProtcolSeen.IP` can be matched to a `ProtocolSeen.*` family as
/// `ProtocolSeen.IP`).
pub(crate) fn suggestion_candidates<'a>(
    label: &str,
    patterns: impl Iterator<Item = &'a KeyPattern>,
) -> Vec<String> {
    let suffix = label.split_once('.').map(|(_, s)| s);
    let mut out = Vec::new();
    for p in patterns {
        match p {
            KeyPattern::Exact(exact) => out.push(exact.clone()),
            KeyPattern::Family(root) => {
                out.push(root.clone());
                if let Some(suffix) = suffix {
                    out.push(format!("{root}.{suffix}"));
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Run every `KL00x` check over the registry plus the node contract.
pub fn lint_system(registry: &ModuleRegistry) -> Vec<Diagnostic> {
    let model = SystemModel::from_registry(registry);
    let mut diags = Vec::new();

    // KL001 / KL002 / KL003: every module read needs a producer of a
    // compatible type. The node-level contract's reads are exempt from
    // the producer requirement — they are operator knobs sourced from
    // a-priori configuration, not from other modules.
    for node in &model.nodes {
        let owner = &node.name;
        if owner != SYSTEM_OWNER {
            for read in &node.contract.reads {
                let producers = model.producers_of(&read.pattern);
                if producers.is_empty() {
                    diags.push(orphan_read(&model, owner, read));
                    continue;
                }
                for (writer, w) in producers {
                    if !read.value_type.compatible_with(w.value_type) {
                        diags.push(Diagnostic::system(
                            Code::TypeMismatch,
                            format!(
                                "`{owner}` reads `{}` as {} but `{writer}` writes it as {}",
                                read.pattern, read.value_type, w.value_type
                            ),
                        ));
                    }
                }
            }
        }

        // KL006: a module whose every activation input is producer-less
        // can never be switched on by the Module Manager.
        if !node.activation.is_empty()
            && (node.activation.iter())
                .all(|label| model.producers_of(&KeyPattern::exact(*label)).is_empty())
        {
            diags.push(Diagnostic::system(
                Code::NeverActivatable,
                format!(
                    "`{owner}` can never activate: none of its activation inputs has a producer"
                ),
            ));
        }
    }

    // KL004: a non-exported write nobody reads back.
    for (owner, write) in model.writes() {
        if write.exported {
            continue;
        }
        let consumed = model
            .reads()
            .any(|(_, r)| overlaps(&write.pattern, &r.pattern));
        if !consumed {
            diags.push(Diagnostic::system(
                Code::DeadWrite,
                format!(
                    "`{owner}` writes `{}` but no contract reads it (mark it `.exported()` if it is operator-facing)",
                    write.pattern
                ),
            ));
        }
    }

    // KL005: overlapping writers must agree on the value type, or every
    // reader of the shared key sees a schizophrenic producer.
    let writes: Vec<(&str, &KeyUse)> = model.writes().collect();
    for (i, (owner_a, a)) in writes.iter().enumerate() {
        for (owner_b, b) in writes.iter().skip(i + 1) {
            if owner_a == owner_b || !overlaps(&a.pattern, &b.pattern) {
                continue;
            }
            let agree = a.value_type.compatible_with(b.value_type)
                && b.value_type.compatible_with(a.value_type);
            if !agree {
                diags.push(Diagnostic::system(
                    Code::ConflictingWriters,
                    format!(
                        "`{owner_a}` writes `{}` as {} but `{owner_b}` writes `{}` as {}",
                        a.pattern, a.value_type, b.pattern, b.value_type
                    ),
                ));
            }
        }
    }

    diags
}

fn orphan_read(model: &SystemModel, owner: &str, read: &KeyUse) -> Diagnostic {
    let label = read.pattern.to_string();
    let candidates = suggestion_candidates(&label, model.writes().map(|(_, w)| &w.pattern));
    match closest(&label, candidates.iter().map(String::as_str)) {
        Some(near) => Diagnostic::system(
            Code::NearMissKey,
            format!("`{owner}` reads `{label}`, which nothing produces"),
        )
        .with_note(format!("did you mean `{near}`?")),
        None => Diagnostic::system(
            Code::OrphanRead,
            format!("`{owner}` reads `{label}`, which nothing produces"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_core::config::ModuleDef;
    use kalis_core::modules::{KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ValueType};
    use kalis_core::taxonomy::Feature;
    use kalis_core::AttackKind;
    use kalis_packets::CapturedPacket;

    /// The shipped library must lint clean — that is the whole point of
    /// migrating every module to a declared contract.
    #[test]
    fn default_library_is_clean() {
        let diags = lint_system(&ModuleRegistry::with_defaults());
        assert!(
            diags.is_empty(),
            "default registry must lint clean, got: {:#?}",
            diags
        );
    }

    struct FakeModule {
        contract: KnowggetContract,
    }

    impl Module for FakeModule {
        fn descriptor(&self) -> ModuleDescriptor {
            ModuleDescriptor::sensing("FakeModule")
        }
        fn contract(&self) -> KnowggetContract {
            self.contract.clone()
        }
        fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
    }

    fn registry_with(contract: KnowggetContract) -> ModuleRegistry {
        let mut reg = ModuleRegistry::with_defaults();
        reg.register("FakeModule", move |_| {
            Box::new(FakeModule {
                contract: contract.clone(),
            })
        });
        reg
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn orphan_read_is_kl001() {
        let reg = registry_with(KnowggetContract::new().reads("NoSuchKnowledge", ValueType::Bool));
        let diags = lint_system(&reg);
        assert_eq!(codes(&diags), vec!["KL001"]);
        assert!(diags[0].message.contains("NoSuchKnowledge"));
    }

    #[test]
    fn near_miss_read_is_kl003_with_suggestion() {
        // `Mutlihop` is two edits from the topology module's `Multihop`.
        let reg = registry_with(KnowggetContract::new().reads("Mutlihop", ValueType::Bool));
        let diags = lint_system(&reg);
        assert!(codes(&diags).contains(&"KL003"), "got {:?}", diags);
        let kl003 = diags.iter().find(|d| d.code == Code::NearMissKey).unwrap();
        assert!(kl003.notes[0].contains("`Multihop`"));
    }

    #[test]
    fn family_member_typo_is_suggested() {
        let reg = registry_with(KnowggetContract::new().reads("ProtcolSeen.IP", ValueType::Bool));
        let diags = lint_system(&reg);
        let kl003 = diags.iter().find(|d| d.code == Code::NearMissKey).unwrap();
        assert!(
            kl003.notes[0].contains("`ProtocolSeen.IP`"),
            "family roots recombine with the read's suffix: {:?}",
            kl003
        );
    }

    #[test]
    fn type_mismatch_is_kl002() {
        // Topology writes `Multihop` as bool; reading it as int clashes.
        let reg = registry_with(KnowggetContract::new().reads("Multihop", ValueType::Int));
        assert_eq!(codes(&lint_system(&reg)), vec!["KL002"]);
    }

    #[test]
    fn dead_write_is_kl004_warning_and_exported_suppresses_it() {
        let reg = registry_with(KnowggetContract::new().writes("Unread", ValueType::Int));
        let diags = lint_system(&reg);
        assert_eq!(codes(&diags), vec!["KL004"]);
        assert_eq!(diags[0].severity, crate::diagnostics::Severity::Warning);

        let reg = registry_with(
            KnowggetContract::new()
                .writes("Unread", ValueType::Int)
                .exported(),
        );
        assert!(lint_system(&reg).is_empty());
    }

    #[test]
    fn conflicting_writers_is_kl005() {
        // Topology writes `CtpRoot` as text; a bool writer conflicts.
        let reg = registry_with(
            KnowggetContract::new()
                .writes("CtpRoot", ValueType::Bool)
                .exported(),
        );
        let diags = lint_system(&reg);
        assert!(codes(&diags).contains(&"KL005"), "got {:?}", diags);
    }

    #[test]
    fn never_activatable_is_kl006() {
        // A library with no sensing module: nothing produces `Multihop`.
        struct Stranded;
        impl Module for Stranded {
            fn descriptor(&self) -> ModuleDescriptor {
                ModuleDescriptor::detection("Stranded", AttackKind::Anomaly)
                    .needs(&[Feature::MultiHop])
            }
            fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, _packet: &CapturedPacket) {}
        }
        let mut reg = ModuleRegistry::new();
        reg.register("Stranded", |_| Box::new(Stranded));
        let diags = lint_system(&reg);
        assert!(codes(&diags).contains(&"KL001"));
        assert!(codes(&diags).contains(&"KL006"), "got {:?}", diags);
    }

    #[test]
    fn registry_contract_accessor_round_trips() {
        let reg = ModuleRegistry::with_defaults();
        let contract = reg.contract("TopologyDiscoveryModule").unwrap();
        assert!(contract.mentions("Multihop"));
        assert!(reg.contract("NoSuchModule").is_none());
        assert!(reg
            .build(&ModuleDef::new("TopologyDiscoveryModule"))
            .is_ok());
    }
}
