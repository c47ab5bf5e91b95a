//! The paper's two taxonomies (§III-B): attack patterns by source/target
//! (Table I) and the feature/attack relationship matrix (Fig. 3).
//!
//! Fig. 3's features are also the vocabulary of knowledge-driven
//! activation: each detection module names the features that switch it
//! on ([`crate::modules::ModuleDescriptor::needs`]), and
//! [`Feature::knowgget`] says which knowgget senses each one.

use kalis_packets::Medium;

use crate::alert::AttackKind;
use crate::sensing::labels;

/// An actor in the taxonomy by target (Table I's rows and columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Actor {
    /// A cloud/Internet service.
    InternetService,
    /// The untrusted Internet at large (source only).
    Internet,
    /// An IoT hub (coordinator of subs).
    Hub,
    /// A constrained sub device.
    Sub,
    /// A smart router/gateway.
    Router,
}

/// The attack-pattern nomenclature of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackPattern {
    /// Denial of Service against an Internet service.
    DenialOfService,
    /// Remote Denial of Thing (Internet → hub).
    RemoteDenialOfThing,
    /// Control Denial of Thing (against a hub and everything it controls).
    ControlDenialOfThing,
    /// Denial of Thing (disrupting a thing's functionality).
    DenialOfThing,
    /// Denial of Routing (against the smart router).
    DenialOfRouting,
}

impl core::fmt::Display for AttackPattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            AttackPattern::DenialOfService => "Denial of Service",
            AttackPattern::RemoteDenialOfThing => "Remote Denial of Thing",
            AttackPattern::ControlDenialOfThing => "Control Denial of Thing",
            AttackPattern::DenialOfThing => "Denial of Thing",
            AttackPattern::DenialOfRouting => "Denial of Routing",
        };
        f.write_str(name)
    }
}

/// Table I: the attack pattern possible from `source` to `target`, or
/// `None` where the paper marks the pair infeasible (e.g. a sub "lacks
/// the communication hardware" to attack a router or Internet service).
///
/// Note: per the paper, attacks from the Internet to the local smart
/// router "cannot be addressed by any local solution" and are out of
/// scope; the cell is `None`.
pub fn attack_pattern(source: Actor, target: Actor) -> Option<AttackPattern> {
    use Actor::*;
    use AttackPattern::*;
    match (source, target) {
        (Internet, InternetService) => Some(DenialOfService),
        (Internet, Hub) => Some(RemoteDenialOfThing),
        (Hub, InternetService) => Some(DenialOfService),
        (Hub, Hub) => Some(ControlDenialOfThing),
        (Hub, Sub) => Some(DenialOfThing),
        (Hub, Router) => Some(DenialOfRouting),
        (Sub, Sub) => Some(DenialOfThing),
        (Router, Hub) => Some(ControlDenialOfThing),
        (Router, Router) => Some(DenialOfRouting),
        _ => None,
    }
}

/// A network/device feature from the taxonomy by features (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Feature {
    /// The network portion is multi-hop.
    MultiHop,
    /// The network portion is single-hop.
    SingleHop,
    /// Nodes move.
    Mobile,
    /// Nodes are fixed.
    Static,
    /// Devices are constrained (WSN-class).
    ConstrainedDevices,
    /// Devices speak IP.
    IpConnectivity,
    /// An 802.11 medium is present.
    WifiMedium,
    /// An 802.15.4 medium is present.
    Ieee802154Medium,
    /// Link/network-layer cryptography is deployed (a *prevention
    /// technique* counted as a feature, per the paper).
    CryptoDeployed,
    /// 6LoWPAN adaptation is in use.
    SixLowpan,
}

impl Feature {
    /// The medium a medium feature says is present; `None` for the
    /// other features.
    pub fn medium(self) -> Option<Medium> {
        match self {
            Feature::WifiMedium => Some(Medium::Wifi),
            Feature::Ieee802154Medium => Some(Medium::Ieee802154),
            _ => None,
        }
    }

    /// The knowgget that senses this feature, as `(label, value)`: the
    /// feature holds where the Knowledge Base has `label = value`.
    /// `None` for the features no module senses.
    pub fn knowgget(self) -> Option<(&'static str, bool)> {
        match self {
            Feature::MultiHop => Some((labels::MULTIHOP, true)),
            Feature::SingleHop => Some((labels::MULTIHOP, false)),
            Feature::Mobile => Some((labels::MOBILE, true)),
            Feature::Static => Some((labels::MOBILE, false)),
            Feature::IpConnectivity => Some((labels::PROTOCOL_SEEN_IP, true)),
            Feature::WifiMedium => Some((labels::MEDIUM_SEEN_WIFI, true)),
            Feature::Ieee802154Medium => Some((labels::MEDIUM_SEEN_802154, true)),
            Feature::SixLowpan => Some((labels::PROTOCOL_SEEN_SIXLOWPAN, true)),
            Feature::ConstrainedDevices | Feature::CryptoDeployed => None,
        }
    }
}

/// A cell of the Fig. 3 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Dot: the attack is possible under this feature.
    Possible,
    /// Cross: the attack is impossible under this feature.
    Impossible,
    /// Circle: possible, and the appropriate detection *technique*
    /// depends on this feature.
    TechniqueDepends,
}

/// The Fig. 3 relationship between a feature and an attack.
///
/// The instantiation follows the paper's stated cells (Smurf and
/// forwarding-misbehaviour attacks are impossible in single-hop networks;
/// Sybil/sinkhole/replication techniques depend on topology or mobility;
/// cryptography immunizes against payload-alteration-class attacks) and
/// fills the remainder with `Possible` — the paper itself notes the
/// instantiation "is not to be considered exhaustive".
pub fn relation(feature: Feature, attack: AttackKind) -> Relation {
    use AttackKind::*;
    use Feature::*;
    use Relation::*;
    match (feature, attack) {
        // Single-hop rules out everything that needs a forwarding path.
        (SingleHop, Smurf | SelectiveForwarding | Blackhole | Sinkhole | Wormhole) => Impossible,
        // Topology determines the right technique for these.
        (MultiHop | SingleHop, Sybil | Replication) => TechniqueDepends,
        (MultiHop, IcmpFlood) | (SingleHop, IcmpFlood) => TechniqueDepends,
        // Mobility determines the replication technique (paper §VI-B2).
        (Mobile | Static, Replication) => TechniqueDepends,
        // Deployed crypto immunizes against spoofed control traffic.
        (CryptoDeployed, Smurf | Sybil | Replication | Sinkhole) => Impossible,
        // WiFi-specific and IP-specific attacks need their substrate.
        (Ieee802154Medium, Deauth | SynFlood | UdpFlood | Scan) => Impossible,
        (WifiMedium, SelectiveForwarding | Blackhole | Sinkhole) => Impossible,
        _ => Possible,
    }
}

/// Every attack possible under *all* of `features` (the set an IDS should
/// load detection modules for).
pub fn possible_attacks(features: &[Feature]) -> Vec<AttackKind> {
    (AttackKind::all().iter().copied())
        .filter(|attack| {
            features
                .iter()
                .all(|f| relation(*f, *attack) != Relation::Impossible)
        })
        .collect()
}

/// Render Table I as text (used by the experiments binary).
pub fn render_table1() -> String {
    use Actor::*;
    let sources = [Internet, Hub, Sub, Router];
    let targets = [InternetService, Hub, Sub, Router];
    let mut out = String::from("source \\ target | InternetService | Hub | Sub | Router\n");
    for s in sources {
        out.push_str(&format!("{s:?}"));
        for t in targets {
            let cell = attack_pattern(s, t).map_or_else(|| "-".to_owned(), |p| p.to_string());
            out.push_str(&format!(" | {cell}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        use Actor::*;
        use AttackPattern::*;
        // Row: Internet.
        assert_eq!(
            attack_pattern(Internet, InternetService),
            Some(DenialOfService)
        );
        assert_eq!(attack_pattern(Internet, Hub), Some(RemoteDenialOfThing));
        assert_eq!(attack_pattern(Internet, Sub), None);
        assert_eq!(attack_pattern(Internet, Router), None, "out of local scope");
        // Row: Hub.
        assert_eq!(attack_pattern(Hub, InternetService), Some(DenialOfService));
        assert_eq!(attack_pattern(Hub, Hub), Some(ControlDenialOfThing));
        assert_eq!(attack_pattern(Hub, Sub), Some(DenialOfThing));
        assert_eq!(attack_pattern(Hub, Router), Some(DenialOfRouting));
        // Row: Sub — only sub→sub is feasible.
        assert_eq!(attack_pattern(Sub, Sub), Some(DenialOfThing));
        assert_eq!(attack_pattern(Sub, InternetService), None);
        assert_eq!(attack_pattern(Sub, Hub), None);
        assert_eq!(attack_pattern(Sub, Router), None);
        // Row: Router.
        assert_eq!(attack_pattern(Router, Hub), Some(ControlDenialOfThing));
        assert_eq!(attack_pattern(Router, Router), Some(DenialOfRouting));
        assert_eq!(attack_pattern(Router, Sub), None);
        assert_eq!(attack_pattern(Router, InternetService), None);
    }

    #[test]
    fn single_hop_rules_out_smurf_and_forwarding_attacks() {
        for attack in [
            AttackKind::Smurf,
            AttackKind::SelectiveForwarding,
            AttackKind::Blackhole,
            AttackKind::Wormhole,
            AttackKind::Sinkhole,
        ] {
            assert_eq!(relation(Feature::SingleHop, attack), Relation::Impossible);
        }
        assert_ne!(
            relation(Feature::SingleHop, AttackKind::IcmpFlood),
            Relation::Impossible,
            "ICMP flood works in single-hop networks (the working example)"
        );
    }

    #[test]
    fn mobility_is_a_technique_selector_for_replication() {
        assert_eq!(
            relation(Feature::Mobile, AttackKind::Replication),
            Relation::TechniqueDepends
        );
        assert_eq!(
            relation(Feature::Static, AttackKind::Replication),
            Relation::TechniqueDepends
        );
    }

    #[test]
    fn possible_attacks_shrink_with_knowledge() {
        let unknown = possible_attacks(&[]);
        assert_eq!(unknown, AttackKind::all(), "nothing is ruled out unsensed");
        let single_hop = possible_attacks(&[Feature::SingleHop]);
        let single_hop_crypto = possible_attacks(&[Feature::SingleHop, Feature::CryptoDeployed]);
        assert!(single_hop.len() < unknown.len());
        assert!(single_hop_crypto.len() < single_hop.len());
        assert!(!single_hop.contains(&AttackKind::Smurf));
        assert!(single_hop.contains(&AttackKind::IcmpFlood));
    }

    #[test]
    fn render_table1_mentions_every_pattern() {
        let text = render_table1();
        for pattern in [
            "Denial of Service",
            "Remote Denial of Thing",
            "Control Denial of Thing",
            "Denial of Routing",
        ] {
            assert!(text.contains(pattern), "missing {pattern}");
        }
    }
}
