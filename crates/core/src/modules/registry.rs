//! The module registry: constructs modules by name — the idiomatic Rust
//! replacement for the paper's Java-reflection module loading ("the
//! corresponding class is dynamically instantiated by name"). New modules
//! can be registered without touching the core, as long as they implement
//! the [`Module`] trait.

use std::collections::BTreeMap;

use crate::bounded::DEFAULT_ENTITY_BUDGET;
use crate::config::ModuleDef;
use crate::detection::{
    BlackholeModule, DeauthModule, FragmentFloodModule, IcmpFloodModule, ReplicationMobileModule,
    ReplicationStaticModule, ScanModule, SelectiveForwardingModule, SinkholeModule, SmurfModule,
    SybilModule, SynFloodModule, UdpFloodModule, WormholeModule,
};
use crate::error::KalisError;
use crate::sensing::{MobilityAwarenessModule, TopologyDiscoveryModule, TrafficStatsModule};

use super::Module;

type Factory = Box<dyn Fn(&ModuleDef) -> Box<dyn Module> + Send + Sync>;

/// The configured per-entity state budget for a module definition.
fn entity_budget(def: &ModuleDef) -> usize {
    def.param_f64("entity_budget", DEFAULT_ENTITY_BUDGET as f64) as usize
}

/// Maps module names (as referenced in configuration files) to factories.
pub struct ModuleRegistry {
    factories: BTreeMap<String, Factory>,
}

impl ModuleRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModuleRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// The registry of every built-in Kalis module.
    pub fn with_defaults() -> Self {
        let mut reg = ModuleRegistry::new();
        // Sensing.
        reg.register("TopologyDiscoveryModule", |def| {
            Box::new(TopologyDiscoveryModule::new().with_entity_budget(entity_budget(def)))
        });
        reg.register("TrafficStatsModule", |def| {
            let secs = def.param_f64("windowSecs", 5.0);
            Box::new(
                TrafficStatsModule::with_window(core::time::Duration::from_secs_f64(secs.max(0.1)))
                    .with_entity_budget(entity_budget(def)),
            )
        });
        reg.register("MobilityAwarenessModule", |def| {
            Box::new(
                MobilityAwarenessModule::with_threshold(def.param_f64("thresholdDb", 8.0))
                    .with_entity_budget(entity_budget(def)),
            )
        });
        // Detection. Stateful detectors also honor an `entity_budget`
        // parameter bounding their per-entity structures.
        reg.register("IcmpFloodModule", |def| {
            Box::new(
                IcmpFloodModule::new(def.param_f64("threshold", 25.0) as usize)
                    .with_entity_budget(entity_budget(def)),
            )
        });
        reg.register("SmurfModule", |def| {
            Box::new(
                SmurfModule::new(def.param_f64("threshold", 25.0) as usize)
                    .with_entity_budget(entity_budget(def)),
            )
        });
        reg.register("SynFloodModule", |def| {
            Box::new(
                SynFloodModule::new(def.param_f64("threshold", 30.0) as usize)
                    .with_entity_budget(entity_budget(def)),
            )
        });
        reg.register("UdpFloodModule", |def| {
            Box::new(
                UdpFloodModule::new(def.param_f64("threshold", 100.0) as usize)
                    .with_entity_budget(entity_budget(def)),
            )
        });
        reg.register("SelectiveForwardingModule", |def| {
            Box::new(SelectiveForwardingModule::new().with_entity_budget(entity_budget(def)))
        });
        reg.register("BlackholeModule", |def| {
            Box::new(BlackholeModule::new().with_entity_budget(entity_budget(def)))
        });
        reg.register("SinkholeModule", |_| Box::new(SinkholeModule::new()));
        reg.register("SybilModule", |def| {
            Box::new(SybilModule::new().with_entity_budget(entity_budget(def)))
        });
        reg.register("ReplicationStaticModule", |def| {
            Box::new(ReplicationStaticModule::new().with_entity_budget(entity_budget(def)))
        });
        reg.register("ReplicationMobileModule", |def| {
            Box::new(ReplicationMobileModule::new().with_entity_budget(entity_budget(def)))
        });
        reg.register("WormholeModule", |def| {
            Box::new(WormholeModule::new().with_entity_budget(entity_budget(def)))
        });
        reg.register("DeauthModule", |def| {
            Box::new(DeauthModule::new(def.param_f64("threshold", 8.0) as usize))
        });
        reg.register("ScanModule", |def| {
            Box::new(
                ScanModule::new(def.param_f64("threshold", 10.0) as usize)
                    .with_entity_budget(entity_budget(def)),
            )
        });
        reg.register("FragmentFloodModule", |def| {
            Box::new(FragmentFloodModule::new(
                def.param_f64("threshold", 8.0) as u64
            ))
        });
        reg
    }

    /// Register a factory under `name`, replacing any previous entry.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&ModuleDef) -> Box<dyn Module> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Construct a module from its configuration definition.
    ///
    /// # Errors
    ///
    /// Returns [`KalisError::UnknownModule`] for unregistered names.
    pub fn build(&self, def: &ModuleDef) -> Result<Box<dyn Module>, KalisError> {
        self.factories
            .get(&def.name)
            .map(|f| f(def))
            .ok_or_else(|| KalisError::UnknownModule {
                name: def.name.clone(),
            })
    }

    /// Registered module names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Whether a name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// The knowgget contract of a registered module, obtained by building
    /// it with a default (parameterless) definition — contracts are
    /// construction-independent by design.
    pub fn contract(&self, name: &str) -> Option<super::KnowggetContract> {
        let def = ModuleDef::new(name);
        self.factories.get(name).map(|f| f(&def).contract())
    }

    /// Every registered module's `(name, descriptor, contract)`, sorted by
    /// name — the whole-system view the `kalis-lint` analysis consumes.
    pub fn contracts(&self) -> Vec<(String, super::ModuleDescriptor, super::KnowggetContract)> {
        self.factories
            .iter()
            .map(|(name, f)| {
                let module = f(&ModuleDef::new(name));
                (name.clone(), module.descriptor(), module.contract())
            })
            .collect()
    }
}

impl Default for ModuleRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl core::fmt::Debug for ModuleRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ModuleRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowValue;

    #[test]
    fn defaults_cover_the_whole_library() {
        let reg = ModuleRegistry::with_defaults();
        assert!(reg.names().len() >= 17);
        for name in [
            "TopologyDiscoveryModule",
            "TrafficStatsModule",
            "MobilityAwarenessModule",
            "IcmpFloodModule",
            "SmurfModule",
            "SynFloodModule",
            "UdpFloodModule",
            "SelectiveForwardingModule",
            "BlackholeModule",
            "SinkholeModule",
            "SybilModule",
            "ReplicationStaticModule",
            "ReplicationMobileModule",
            "WormholeModule",
            "DeauthModule",
            "ScanModule",
            "FragmentFloodModule",
        ] {
            assert!(reg.contains(name), "{name} missing from defaults");
            let module = reg.build(&ModuleDef::new(name)).unwrap();
            assert_eq!(
                module.descriptor().name,
                name,
                "descriptor name must match registry key"
            );
        }
    }

    #[test]
    fn unknown_module_is_an_error() {
        let reg = ModuleRegistry::with_defaults();
        let err = match reg.build(&ModuleDef::new("NoSuchModule")) {
            Err(err) => err,
            Ok(_) => panic!("unknown module must not build"),
        };
        assert!(err.to_string().contains("NoSuchModule"));
    }

    #[test]
    fn parameters_reach_the_module() {
        let reg = ModuleRegistry::with_defaults();
        let mut def = ModuleDef::new("IcmpFloodModule");
        def.params.push(("threshold".into(), KnowValue::Int(5)));
        // Construction succeeds; threshold behaviour is covered by the
        // module's own tests.
        assert!(reg.build(&def).is_ok());
    }

    #[test]
    fn entity_budget_param_reaches_the_module_and_round_trips() {
        let reg = ModuleRegistry::with_defaults();
        for name in [
            "TopologyDiscoveryModule",
            "TrafficStatsModule",
            "MobilityAwarenessModule",
            "IcmpFloodModule",
            "SmurfModule",
            "SynFloodModule",
            "UdpFloodModule",
            "SelectiveForwardingModule",
            "BlackholeModule",
            "SybilModule",
            "ReplicationStaticModule",
            "ReplicationMobileModule",
            "WormholeModule",
            "ScanModule",
        ] {
            let mut def = ModuleDef::new(name);
            def.params
                .push(("entity_budget".into(), KnowValue::Int(64)));
            let module = reg.build(&def).unwrap();
            assert_eq!(module.state_budget(), 64, "{name} honors entity_budget");
            assert_eq!(
                module.current_params(),
                vec![("entity_budget".to_string(), KnowValue::Int(64))],
                "{name} reports the non-default budget for recommend_config"
            );
            let contract = reg.contract(name).unwrap();
            assert!(
                contract.params.iter().any(|p| p.name == "entity_budget"),
                "{name} declares entity_budget in its contract"
            );
            // Default construction emits no params (round-trip stability).
            let module = reg.build(&ModuleDef::new(name)).unwrap();
            assert!(module.current_params().is_empty());
        }
    }

    #[test]
    fn custom_registration_overrides() {
        let mut reg = ModuleRegistry::with_defaults();
        reg.register("ScanModule", |_| {
            Box::new(crate::detection::ScanModule::new(99))
        });
        assert!(reg.build(&ModuleDef::new("ScanModule")).is_ok());
    }
}
