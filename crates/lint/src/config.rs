//! Static validation of one Kalis configuration file (`KL1xx`): the
//! Fig. 6 grammar checked not just for shape but against the registry's
//! knowgget contracts — module names exist, parameters are declared and
//! in range, a-priori knowggets are spelled like knowledge some module
//! actually handles, and every configured module's reads are satisfiable
//! within the configured module set.

use kalis_core::config::{SpannedConfig, SpannedEntry, SpannedModule};
use kalis_core::modules::{KnowggetContract, ModuleRegistry};

use crate::diagnostics::{Code, Diagnostic, Severity};
use crate::distance::closest;
use crate::graph::{GraphNode, NodeKind};
use crate::system::{overlaps, suggestion_candidates, SystemModel};

/// Run every `KL1xx` check over one configuration file's text.
///
/// `file` is only used to label diagnostics; the text is supplied by the
/// caller so the library stays filesystem-free (the `kalis-lint` binary
/// does the reading).
pub fn lint_config(file: &str, text: &str, registry: &ModuleRegistry) -> Vec<Diagnostic> {
    let config = match SpannedConfig::parse(text) {
        Ok(config) => config,
        Err(err) => {
            return vec![Diagnostic::at(
                Code::ConfigParse,
                file,
                err.pos,
                err.message,
            )]
        }
    };

    let model = SystemModel::from_registry(registry);
    let mut diags = Vec::new();

    for module in &config.modules {
        match registry.contract(&module.name) {
            None => diags.push(unknown_module(file, module, registry)),
            Some(contract) => check_params(file, module, &contract, &mut diags),
        }
    }

    for entry in &config.knowggets {
        check_knowgget(file, entry, &model, &mut diags);
    }

    check_scope_satisfaction(file, &config, &model, &mut diags);
    diags
}

fn unknown_module(file: &str, module: &SpannedModule, registry: &ModuleRegistry) -> Diagnostic {
    let diag = Diagnostic::at(
        Code::UnknownModule,
        file,
        module.name_pos,
        format!("unknown module `{}`", module.name),
    );
    match closest(&module.name, registry.names()) {
        Some(near) => diag.with_note(format!("did you mean `{near}`?")),
        None => diag,
    }
}

fn check_params(
    file: &str,
    module: &SpannedModule,
    contract: &KnowggetContract,
    diags: &mut Vec<Diagnostic>,
) {
    for param in &module.params {
        let Some(spec) = contract.params.iter().find(|s| s.name == param.key) else {
            let diag = Diagnostic::at(
                Code::UnknownParam,
                file,
                param.key_pos,
                format!(
                    "`{}` does not declare a parameter `{}`; it will be ignored",
                    module.name, param.key
                ),
            );
            let names = contract.params.iter().map(|s| s.name);
            diags.push(match closest(&param.key, names) {
                Some(near) => diag.with_note(format!("did you mean `{near}`?")),
                None => diag,
            });
            continue;
        };
        if !spec.value_type.accepts(&param.value) {
            diags.push(Diagnostic::at(
                Code::BadParamValue,
                file,
                param.value_pos,
                format!(
                    "parameter `{}` of `{}` expects {}, got `{}`",
                    param.key, module.name, spec.value_type, param.value
                ),
            ));
            continue;
        }
        if let Some(v) = param.value.as_f64() {
            let low = spec.min.is_some_and(|min| v < min);
            let high = spec.max.is_some_and(|max| v > max);
            if low || high {
                let bound = if low {
                    format!(">= {}", spec.min.unwrap_or_default())
                } else {
                    format!("<= {}", spec.max.unwrap_or_default())
                };
                diags.push(Diagnostic::at(
                    Code::BadParamValue,
                    file,
                    param.value_pos,
                    format!(
                        "parameter `{}` of `{}` must be {bound}, got `{}`",
                        param.key, module.name, param.value
                    ),
                ));
            }
        }
    }
}

/// The label part of a config knowgget key (`SignalStrength@SensorA`
/// carries an entity; contracts are declared over bare labels).
fn label_of(key: &str) -> &str {
    key.split('@').next().unwrap_or(key)
}

fn check_knowgget(
    file: &str,
    entry: &SpannedEntry,
    model: &SystemModel,
    diags: &mut Vec<Diagnostic>,
) {
    let label = label_of(&entry.key);
    let mentioned: Vec<_> = model
        .reads()
        .chain(model.writes())
        .filter(|(_, k)| k.pattern.matches(label))
        .collect();
    if mentioned.is_empty() {
        let patterns: Vec<_> = (model.reads().chain(model.writes()))
            .map(|(_, k)| &k.pattern)
            .collect();
        let candidates = suggestion_candidates(label, patterns.into_iter());
        let diag = Diagnostic::at(
            Code::UnknownKnowgget,
            file,
            entry.key_pos,
            format!("unknown knowgget key `{label}`: no module contract mentions it"),
        );
        diags.push(
            match closest(label, candidates.iter().map(String::as_str)) {
                Some(near) => diag.with_note(format!("did you mean `{near}`?")),
                None => diag,
            },
        );
        return;
    }
    for (owner, key_use) in mentioned {
        if !key_use.value_type.accepts(&entry.value) {
            diags.push(Diagnostic::at(
                Code::KnowggetTypeMismatch,
                file,
                entry.value_pos,
                format!(
                    "knowgget `{label}` is `{}` here, but `{owner}` handles it as {}",
                    entry.value, key_use.value_type
                ),
            ));
            return; // one mismatch per entry is enough signal
        }
        if let Some(v) = entry.value.as_f64() {
            let low = key_use.min.is_some_and(|min| v < min);
            let high = key_use.max.is_some_and(|max| v > max);
            if low || high {
                let bound = if low {
                    format!(">= {}", key_use.min.unwrap_or_default())
                } else {
                    format!("<= {}", key_use.max.unwrap_or_default())
                };
                diags.push(Diagnostic::at(
                    Code::KnowggetOutOfRange,
                    file,
                    entry.value_pos,
                    format!(
                        "knowgget `{label}` must be {bound} for `{owner}`, got `{}`",
                        entry.value
                    ),
                ));
                return; // one range violation per entry is enough signal
            }
        }
    }
}

/// KL106: within *this* configuration's module set, every read of every
/// configured module must have a producer — a configured module that
/// writes it, the node itself, or an a-priori knowgget. Unsatisfied
/// activation inputs are errors (the module can never switch on);
/// unsatisfied plain reads are warnings; collective reads are exempt
/// because peer synchronization may supply them at runtime.
fn check_scope_satisfaction(
    file: &str,
    config: &SpannedConfig,
    model: &SystemModel,
    diags: &mut Vec<Diagnostic>,
) {
    let configured = |module: &SpannedModule| {
        (model.nodes.iter()).find(|n| n.kind != NodeKind::System && n.name == module.name)
    };
    let nodes: Vec<(&SpannedModule, &GraphNode)> = (config.modules.iter())
        .filter_map(|m| configured(m).map(|n| (m, n)))
        .collect();
    let system = kalis_core::system_contract();
    let scope_writes: Vec<_> = nodes
        .iter()
        .flat_map(|(_, n)| n.contract.writes.iter())
        .chain(system.writes.iter())
        .collect();
    let apriori: Vec<&str> = config.knowggets.iter().map(|e| label_of(&e.key)).collect();

    for (module, node) in &nodes {
        for read in &node.contract.reads {
            let satisfied = scope_writes
                .iter()
                .any(|w| overlaps(&w.pattern, &read.pattern))
                || apriori.iter().any(|label| read.pattern.matches(label));
            if satisfied {
                continue;
            }
            if node.activates(read) {
                diags.push(Diagnostic::at(
                    Code::UnsatisfiedRead,
                    file,
                    module.name_pos,
                    format!(
                        "`{}` will never activate: activation input `{}` has no producer in this configuration",
                        module.name, read.pattern
                    ),
                ).with_note(
                    "add the sensing module that produces it, or an a-priori knowgget".to_owned(),
                ));
            } else if !read.collective {
                let mut diag = Diagnostic::at(
                    Code::UnsatisfiedRead,
                    file,
                    module.name_pos,
                    format!(
                        "`{}` reads `{}`, which nothing in this configuration produces",
                        module.name, read.pattern
                    ),
                );
                diag.severity = Severity::Warning;
                diags.push(diag);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(text: &str) -> Vec<Diagnostic> {
        lint_config("test.kalis", text, &ModuleRegistry::with_defaults())
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn well_formed_config_is_clean() {
        let text = "modules = {
            TopologyDiscoveryModule,
            MobilityAwarenessModule,
            IcmpFloodModule (threshold = 25)
        }
        knowggets = { Multihop = true }";
        assert!(lint(text).is_empty(), "got {:#?}", lint(text));
    }

    #[test]
    fn parse_error_is_kl100_at_position() {
        let diags = lint("modules = { A B }");
        assert_eq!(codes(&diags), vec!["KL100"]);
        assert_eq!(diags[0].pos.unwrap().line, 1);
    }

    #[test]
    fn unknown_module_is_kl101_with_suggestion() {
        let diags = lint("modules = { TopologyDetectionModule }");
        assert_eq!(codes(&diags), vec!["KL101"]);
        assert!(diags[0].notes[0].contains("TopologyDiscoveryModule"));
        assert_eq!(diags[0].pos.unwrap().column, 13);
    }

    #[test]
    fn bad_param_value_is_kl102() {
        let diags =
            lint("modules = { TopologyDiscoveryModule, IcmpFloodModule (threshold = banana) }");
        assert_eq!(codes(&diags), vec!["KL102"]);
        assert!(diags[0].message.contains("expects float"));
    }

    #[test]
    fn out_of_range_param_is_kl102() {
        let diags =
            lint("modules = { TopologyDiscoveryModule, TrafficStatsModule (windowSecs = 0) }");
        assert_eq!(codes(&diags), vec!["KL102"]);
        assert!(diags[0].message.contains(">="));
    }

    #[test]
    fn unknown_param_is_kl103_warning() {
        let diags = lint("modules = { TopologyDiscoveryModule, IcmpFloodModule (treshold = 25) }");
        assert_eq!(codes(&diags), vec!["KL103"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].notes[0].contains("threshold"));
    }

    #[test]
    fn unknown_knowgget_is_kl104_with_suggestion() {
        let diags = lint("modules = { TopologyDiscoveryModule } knowggets = { Mutlihop = true }");
        assert_eq!(codes(&diags), vec!["KL104"]);
        assert!(diags[0].notes[0].contains("`Multihop`"));
    }

    #[test]
    fn knowgget_type_mismatch_is_kl105() {
        let diags = lint("modules = { TopologyDiscoveryModule } knowggets = { Multihop = 3 }");
        assert_eq!(codes(&diags), vec!["KL105"]);
    }

    #[test]
    fn out_of_range_knowgget_is_kl107() {
        // `Trace.SampleRate` is declared `bounded(0.0, 1.0)` by the
        // node-level contract; a-priori values outside that are rejected.
        let diags =
            lint("modules = { TopologyDiscoveryModule } knowggets = { Trace.SampleRate = 7 }");
        assert_eq!(codes(&diags), vec!["KL107"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("<= 1"), "got {:#?}", diags);

        let diags =
            lint("modules = { TopologyDiscoveryModule } knowggets = { Trace.SampleRate = -0.5 }");
        assert_eq!(codes(&diags), vec!["KL107"]);
        assert!(diags[0].message.contains(">= 0"), "got {:#?}", diags);
    }

    #[test]
    fn in_range_trace_rate_is_clean() {
        let diags =
            lint("modules = { TopologyDiscoveryModule } knowggets = { Trace.SampleRate = 0.5 }");
        assert!(diags.is_empty(), "got {:#?}", diags);
    }

    #[test]
    fn entity_suffix_is_stripped_before_lookup() {
        let diags = lint(
            "modules = { TopologyDiscoveryModule, MobilityAwarenessModule }
             knowggets = { SignalStrength@SensorA = -67.5 }",
        );
        assert!(diags.is_empty(), "got {:#?}", diags);
    }

    #[test]
    fn unsatisfied_activation_input_is_kl106_error() {
        let diags = lint("modules = { IcmpFloodModule }");
        assert_eq!(codes(&diags), vec!["KL106"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("never activate"));
    }

    #[test]
    fn apriori_knowgget_satisfies_activation() {
        let diags = lint("modules = { IcmpFloodModule } knowggets = { Multihop = true }");
        assert!(diags.is_empty(), "got {:#?}", diags);
    }

    #[test]
    fn unsatisfied_plain_read_is_kl106_warning() {
        // Sinkhole's activation input is satisfied a-priori, but its
        // `CtpRoot` lookup has no producer without the topology module.
        let diags = lint("modules = { SinkholeModule } knowggets = { Multihop = true }");
        assert_eq!(codes(&diags), vec!["KL106"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("CtpRoot"));
    }

    #[test]
    fn collective_reads_trust_peer_sync() {
        // Wormhole reads DroppedOrigins/ExoticOrigins collectively; in a
        // lone-module config those come from peers, not local modules.
        let diags = lint("modules = { WormholeModule } knowggets = { Multihop = true }");
        assert!(diags.is_empty(), "got {:#?}", diags);
    }
}
