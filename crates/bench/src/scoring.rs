//! Scoring: the paper's evaluation metrics computed against injected
//! ground truth.
//!
//! * **Detection rate** — "number of adverse events detected out of all
//!   the adverse events in the test scenario": a symptom instance counts
//!   as detected when any detection lands within the match window of it.
//! * **Classification accuracy** — "number of correctly classified
//!   attacks out of all the detected attacks": over every
//!   (instance, matching detection) pair, the fraction whose claimed
//!   attack kind equals the ground truth. A system that raises both a
//!   correct and an incorrect alert for the same symptom (the
//!   flood/smurf ambiguity) scores 50% here.
//! * **Countermeasure effectiveness** — how well the revocation response
//!   targets the true attackers and spares the victim.

use std::time::Duration;

use kalis_attacks::SymptomInstance;
use kalis_core::response::Revocation;
use kalis_packets::Entity;

use crate::runner::Detection;

/// Default match window: a detection within ±15 s of a symptom covers it
/// (alert gating means one alert stands for a burst of symptoms).
pub(crate) const MATCH_WINDOW: Duration = Duration::from_secs(15);

/// The effectiveness metrics for one system on one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Ground-truth symptom instances.
    pub instances: usize,
    /// Instances with at least one matching detection.
    pub detected: usize,
    /// (instance, detection) pairs with the correct classification.
    pub correct_pairs: usize,
    /// All (instance, detection) pairs.
    pub total_pairs: usize,
    /// Detections that matched no instance at all (false positives).
    pub false_positives: usize,
}

impl Score {
    /// Detected / instances (1.0 for an empty scenario).
    pub fn detection_rate(&self) -> f64 {
        if self.instances == 0 {
            1.0
        } else {
            self.detected as f64 / self.instances as f64
        }
    }

    /// Correct / total matching pairs (1.0 when nothing matched — the
    /// paper computes accuracy over *detected* attacks only).
    pub fn classification_accuracy(&self) -> f64 {
        if self.total_pairs == 0 {
            1.0
        } else {
            self.correct_pairs as f64 / self.total_pairs as f64
        }
    }

    /// Merge another score into this one (for cross-scenario averages).
    pub fn merge(&mut self, other: &Score) {
        self.instances += other.instances;
        self.detected += other.detected;
        self.correct_pairs += other.correct_pairs;
        self.total_pairs += other.total_pairs;
        self.false_positives += other.false_positives;
    }
}

/// Score `detections` against `truth` with the given match window.
pub(crate) fn score_with_window(
    truth: &[SymptomInstance],
    detections: &[Detection],
    window: Duration,
) -> Score {
    let mut detected = 0;
    let mut correct_pairs = 0;
    let mut total_pairs = 0;
    let mut matched_detection = vec![false; detections.len()];
    for instance in truth {
        let mut any = false;
        for (di, detection) in detections.iter().enumerate() {
            let dt = if detection.time >= instance.time {
                detection.time.saturating_since(instance.time)
            } else {
                instance.time.saturating_since(detection.time)
            };
            if dt > window {
                continue;
            }
            any = true;
            matched_detection[di] = true;
            total_pairs += 1;
            if detection.attack == instance.attack {
                correct_pairs += 1;
            }
        }
        if any {
            detected += 1;
        }
    }
    Score {
        instances: truth.len(),
        detected,
        correct_pairs,
        total_pairs,
        false_positives: matched_detection.iter().filter(|m| !**m).count(),
    }
}

/// Score with the default [`MATCH_WINDOW`].
pub fn score(truth: &[SymptomInstance], detections: &[Detection]) -> Score {
    score_with_window(truth, detections, MATCH_WINDOW)
}

/// Countermeasure effectiveness (§VI-B metric iii): precision of the
/// revocation set against the true attackers, and whether the victim was
/// (wrongly) revoked — the paper's anecdote has the traditional IDS
/// "disconnecting the entire network" by revoking the victim.
#[derive(Debug, Clone, PartialEq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `SystemResult::countermeasures`
pub struct CountermeasureScore {
    /// Entities revoked over the run.
    pub revoked: usize,
    /// Revoked entities that are true attackers.
    pub revoked_attackers: usize,
    /// Whether the victim itself was revoked.
    pub victim_revoked: bool,
}

impl CountermeasureScore {
    /// Fraction of revocations that hit true attackers (1.0 when no
    /// revocations were issued).
    pub fn precision(&self) -> f64 {
        if self.revoked == 0 {
            1.0
        } else {
            self.revoked_attackers as f64 / self.revoked as f64
        }
    }
}

/// Evaluate the revocation history against the scenario's identities.
pub(crate) fn score_countermeasures(
    revocations: &[Revocation],
    attackers: &[Entity],
    victim: Option<&Entity>,
) -> CountermeasureScore {
    let mut revoked_entities: Vec<&Entity> = revocations.iter().map(|r| &r.entity).collect();
    revoked_entities.sort();
    revoked_entities.dedup();
    let revoked_attackers = revoked_entities
        .iter()
        .filter(|e| attackers.contains(e))
        .count();
    let victim_revoked = victim.is_some_and(|v| revoked_entities.contains(&v));
    CountermeasureScore {
        revoked: revoked_entities.len(),
        revoked_attackers,
        victim_revoked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_core::AttackKind;
    use kalis_packets::Timestamp;

    fn instance(secs: u64, attack: AttackKind) -> SymptomInstance {
        SymptomInstance {
            time: Timestamp::from_secs(secs),
            attack,
            victim: None,
            attackers: vec![Entity::new("evil")],
        }
    }

    fn detection(secs: u64, attack: AttackKind) -> Detection {
        Detection {
            time: Timestamp::from_secs(secs),
            attack,
            victim: None,
            suspects: vec![],
        }
    }

    #[test]
    fn perfect_detection_scores_full() {
        let truth = vec![
            instance(10, AttackKind::IcmpFlood),
            instance(30, AttackKind::IcmpFlood),
        ];
        let dets = vec![
            detection(11, AttackKind::IcmpFlood),
            detection(31, AttackKind::IcmpFlood),
        ];
        let s = score(&truth, &dets);
        assert_eq!(s.detection_rate(), 1.0);
        assert_eq!(s.classification_accuracy(), 1.0);
        assert_eq!(s.false_positives, 0);
    }

    #[test]
    fn missed_instances_lower_detection_rate() {
        let truth = vec![
            instance(10, AttackKind::Sybil),
            instance(100, AttackKind::Sybil),
        ];
        let dets = vec![detection(12, AttackKind::Sybil)];
        let s = score(&truth, &dets);
        assert_eq!(s.detection_rate(), 0.5);
        assert_eq!(s.classification_accuracy(), 1.0);
    }

    #[test]
    fn ambiguous_classification_halves_accuracy() {
        // The flood/smurf double alert of the traditional IDS.
        let truth = vec![instance(10, AttackKind::IcmpFlood)];
        let dets = vec![
            detection(10, AttackKind::IcmpFlood),
            detection(10, AttackKind::Smurf),
        ];
        let s = score(&truth, &dets);
        assert_eq!(s.detection_rate(), 1.0);
        assert_eq!(s.classification_accuracy(), 0.5);
    }

    #[test]
    fn unmatched_detections_are_false_positives() {
        let truth = vec![instance(10, AttackKind::IcmpFlood)];
        let dets = vec![detection(500, AttackKind::Blackhole)];
        let s = score(&truth, &dets);
        assert_eq!(s.detection_rate(), 0.0);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.classification_accuracy(), 1.0, "vacuous: nothing matched");
    }

    #[test]
    fn empty_truth_is_vacuously_perfect() {
        let s = score(&[], &[]);
        assert_eq!(s.detection_rate(), 1.0);
        assert_eq!(s.classification_accuracy(), 1.0);
    }

    #[test]
    fn countermeasure_scoring() {
        let attacker = Entity::new("evil");
        let victim = Entity::new("victim");
        let revs = vec![
            Revocation {
                entity: attacker.clone(),
                issued: Timestamp::ZERO,
                expires: Timestamp::from_secs(60),
                reason: "icmp-flood".into(),
            },
            Revocation {
                entity: victim.clone(),
                issued: Timestamp::ZERO,
                expires: Timestamp::from_secs(60),
                reason: "smurf".into(),
            },
        ];
        let s = score_countermeasures(&revs, &[attacker], Some(&victim));
        assert_eq!(s.revoked, 2);
        assert_eq!(s.revoked_attackers, 1);
        assert!(s.victim_revoked);
        assert_eq!(s.precision(), 0.5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Score {
            instances: 2,
            detected: 1,
            correct_pairs: 1,
            total_pairs: 2,
            false_positives: 0,
        };
        a.merge(&Score {
            instances: 2,
            detected: 2,
            correct_pairs: 2,
            total_pairs: 2,
            false_positives: 1,
        });
        assert_eq!(a.instances, 4);
        assert_eq!(a.detection_rate(), 0.75);
        assert_eq!(a.false_positives, 1);
    }
}
