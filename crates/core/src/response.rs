//! Response actions (paper §VI-A): "we program as a simple countermeasure
//! the temporary revocation from the network of any node identified as
//! suspect by the IDS".

use std::collections::BTreeMap;
use std::time::Duration;

use kalis_packets::{Entity, Timestamp};

use crate::alert::Alert;

/// A revocation issued in response to an alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Revocation {
    /// The revoked entity.
    pub entity: Entity,
    /// When the revocation was issued.
    pub issued: Timestamp,
    /// When it expires.
    pub expires: Timestamp,
    /// The attack that motivated it.
    pub reason: String,
}

/// The temporary-revocation response engine.
///
/// # Examples
///
/// ```
/// use kalis_core::response::ResponseEngine;
/// use kalis_core::{Alert, AttackKind};
/// use kalis_packets::{Entity, Timestamp};
///
/// let mut engine = ResponseEngine::new();
/// let alert = Alert::new(Timestamp::ZERO, AttackKind::IcmpFlood, "m")
///     .with_suspect(Entity::new("attacker"));
/// engine.apply(&alert);
/// assert!(engine.is_revoked(&Entity::new("attacker"), Timestamp::from_secs(1)));
/// ```
#[derive(Debug)]
pub struct ResponseEngine {
    duration: Duration,
    revocations: BTreeMap<Entity, Revocation>,
    history: Vec<Revocation>,
}

impl ResponseEngine {
    /// An engine with the default 60-second revocation period.
    pub fn new() -> Self {
        Self::with_duration(Duration::from_secs(60))
    }

    /// An engine with a custom revocation period.
    pub(crate) fn with_duration(duration: Duration) -> Self {
        ResponseEngine {
            duration,
            revocations: BTreeMap::new(),
            history: Vec::new(),
        }
    }

    /// Revoke every suspect named by `alert`.
    pub fn apply(&mut self, alert: &Alert) -> Vec<Revocation> {
        let mut issued = Vec::new();
        for suspect in &alert.suspects {
            let revocation = Revocation {
                entity: suspect.clone(),
                issued: alert.time,
                expires: alert.time + self.duration,
                reason: alert.attack.label().to_owned(),
            };
            self.revocations.insert(suspect.clone(), revocation.clone());
            self.history.push(revocation.clone());
            issued.push(revocation);
        }
        issued
    }

    /// Whether `entity` is revoked at time `now`.
    pub fn is_revoked(&self, entity: &Entity, now: Timestamp) -> bool {
        self.revocations
            .get(entity)
            .is_some_and(|r| now < r.expires)
    }

    /// The currently revoked entities at `now`.
    pub fn revoked(&self, now: Timestamp) -> Vec<&Entity> {
        self.revocations
            .iter()
            .filter(|(_, r)| now < r.expires)
            .map(|(e, _)| e)
            .collect()
    }

    /// Every revocation ever issued, in order.
    pub fn history(&self) -> &[Revocation] {
        &self.history
    }

    /// Drop expired revocations.
    pub fn expire(&mut self, now: Timestamp) {
        self.revocations.retain(|_, r| now < r.expires);
    }
}

impl Default for ResponseEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AttackKind;

    #[test]
    fn revocations_expire() {
        let mut engine = ResponseEngine::with_duration(Duration::from_secs(10));
        let alert =
            Alert::new(Timestamp::ZERO, AttackKind::Blackhole, "m").with_suspect(Entity::new("B1"));
        engine.apply(&alert);
        assert!(engine.is_revoked(&Entity::new("B1"), Timestamp::from_secs(5)));
        assert!(!engine.is_revoked(&Entity::new("B1"), Timestamp::from_secs(11)));
        engine.expire(Timestamp::from_secs(11));
        assert!(engine.revoked(Timestamp::from_secs(11)).is_empty());
        assert_eq!(engine.history().len(), 1, "history survives expiry");
    }

    #[test]
    fn multiple_suspects_all_revoked() {
        let mut engine = ResponseEngine::new();
        let alert = Alert::new(Timestamp::ZERO, AttackKind::Wormhole, "m")
            .with_suspects([Entity::new("B1"), Entity::new("B2")]);
        let issued = engine.apply(&alert);
        assert_eq!(issued.len(), 2);
        assert_eq!(engine.revoked(Timestamp::from_secs(1)).len(), 2);
    }

    #[test]
    fn unknown_entities_are_not_revoked() {
        let engine = ResponseEngine::new();
        assert!(!engine.is_revoked(&Entity::new("X"), Timestamp::ZERO));
    }
}
