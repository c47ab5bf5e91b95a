//! The traditional-IDS baseline: Kalis' own module library with
//! knowledge-driven activation disabled.

use kalis_core::config::ModuleDef;
use kalis_core::modules::ModuleRegistry;
use kalis_core::{Kalis, KalisId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which replication detector a traditional-IDS run carries.
///
/// The paper: "The traditional IDS randomly selects one of the two modules
/// for each of our experiment runs, closely simulating a static module
/// library configuration that does not adapt to the changes in network
/// features."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationChoice {
    /// The static-network technique is loaded.
    Static,
    /// The mobile-network technique is loaded.
    Mobile,
}

impl ReplicationChoice {
    /// Pick uniformly at random with a seeded generator.
    pub(crate) fn random(seed: u64) -> Self {
        if StdRng::seed_from_u64(seed).gen::<bool>() {
            ReplicationChoice::Static
        } else {
            ReplicationChoice::Mobile
        }
    }
}

/// Build a traditional IDS instance: the full library minus one
/// replication variant, every module pinned active, no adaptation.
///
/// # Examples
///
/// ```
/// use kalis_baselines::traditional::{build, ReplicationChoice};
///
/// let ids = build("T1", ReplicationChoice::Static);
/// assert!(ids.active_modules().len() > 10, "everything is always on");
/// ```
pub fn build(id: &str, replication: ReplicationChoice) -> Kalis {
    let registry = ModuleRegistry::with_defaults();
    let excluded = match replication {
        ReplicationChoice::Static => "ReplicationMobileModule",
        ReplicationChoice::Mobile => "ReplicationStaticModule",
    };
    let mut builder = Kalis::builder(KalisId::new(id)).traditional();
    for name in registry.names() {
        if name == excluded {
            continue;
        }
        let module = registry
            .build(&ModuleDef::new(name))
            .expect("default registry builds its own names");
        builder = builder.with_module(module, true);
    }
    builder.build()
}

/// Build with a seeded random replication choice (one per run, per the
/// paper's §VI-B2 protocol).
pub fn build_with_seed(id: &str, seed: u64) -> Kalis {
    build(id, ReplicationChoice::random(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_everything_except_one_replication_variant() {
        let ids = build("T1", ReplicationChoice::Static);
        let names = ids.active_modules();
        assert!(names.contains(&"ReplicationStaticModule"));
        assert!(!names.contains(&"ReplicationMobileModule"));
        assert!(
            names.contains(&"SmurfModule"),
            "smurf is on even with no knowledge"
        );
        assert!(names.contains(&"IcmpFloodModule"));
        assert_eq!(
            names.len(),
            16,
            "17 built-ins minus one replication variant"
        );
    }

    #[test]
    fn random_choice_is_seed_deterministic_and_varied() {
        let a = ReplicationChoice::random(1);
        assert_eq!(a, ReplicationChoice::random(1));
        let picks: Vec<_> = (0..32).map(ReplicationChoice::random).collect();
        assert!(picks.contains(&ReplicationChoice::Static));
        assert!(picks.contains(&ReplicationChoice::Mobile));
    }

    #[test]
    fn no_adaptation_ever_happens() {
        let mut ids = build("T1", ReplicationChoice::Mobile);
        let before = ids.active_modules().len();
        ids.insert_knowledge("Multihop", false);
        assert_eq!(
            ids.active_modules().len(),
            before,
            "knowledge changes nothing"
        );
    }
}
