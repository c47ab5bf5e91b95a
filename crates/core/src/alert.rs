//! Alerts: what detection modules raise when they find a security incident.

use core::fmt;

use kalis_packets::{Entity, Timestamp};

/// The attack classifications known to the module library.
///
/// The set mirrors the paper's feature/attack taxonomy (Fig. 3) plus the
/// attacks exercised in its evaluation (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AttackKind {
    /// ICMP Echo-Reply flood from a single attacker using many identities.
    IcmpFlood,
    /// Smurf: spoofed Echo Requests amplify replies onto the victim.
    Smurf,
    /// TCP SYN flood ("SYN flow" in the paper).
    SynFlood,
    /// UDP datagram flood.
    UdpFlood,
    /// A forwarder silently dropping part of the traffic.
    SelectiveForwarding,
    /// A forwarder dropping (essentially) all traffic.
    Blackhole,
    /// A node attracting routes with forged routing advertisements.
    Sinkhole,
    /// One physical device speaking under many identities.
    Sybil,
    /// Cloned devices reusing a legitimate identity.
    Replication,
    /// Two colluders tunnelling traffic between network regions.
    Wormhole,
    /// 802.11 deauthentication flood.
    Deauth,
    /// Port/host scanning from the untrusted network.
    Scan,
    /// Incomplete 6LoWPAN fragment flood (reassembly-buffer exhaustion).
    FragmentFlood,
    /// An anomaly without a known signature.
    Anomaly,
}

impl AttackKind {
    /// Every classification, in declaration order (for validating
    /// user-supplied attack labels and enumerating report axes).
    pub fn all() -> &'static [AttackKind] {
        &[
            AttackKind::IcmpFlood,
            AttackKind::Smurf,
            AttackKind::SynFlood,
            AttackKind::UdpFlood,
            AttackKind::SelectiveForwarding,
            AttackKind::Blackhole,
            AttackKind::Sinkhole,
            AttackKind::Sybil,
            AttackKind::Replication,
            AttackKind::Wormhole,
            AttackKind::Deauth,
            AttackKind::Scan,
            AttackKind::FragmentFlood,
            AttackKind::Anomaly,
        ]
    }

    /// Short stable label (used in reports and knowgget values).
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::IcmpFlood => "icmp-flood",
            AttackKind::Smurf => "smurf",
            AttackKind::SynFlood => "syn-flood",
            AttackKind::UdpFlood => "udp-flood",
            AttackKind::SelectiveForwarding => "selective-forwarding",
            AttackKind::Blackhole => "blackhole",
            AttackKind::Sinkhole => "sinkhole",
            AttackKind::Sybil => "sybil",
            AttackKind::Replication => "replication",
            AttackKind::Wormhole => "wormhole",
            AttackKind::Deauth => "deauth",
            AttackKind::Scan => "scan",
            AttackKind::FragmentFlood => "fragment-flood",
            AttackKind::Anomaly => "anomaly",
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How severe an alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth logging.
    Info,
    /// Suspicious: worth a user notification.
    Warning,
    /// An active attack: response actions are justified.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        };
        f.write_str(name)
    }
}

/// A detection event raised by a module.
///
/// # Examples
///
/// ```
/// use kalis_core::{Alert, AttackKind, Severity};
/// use kalis_packets::{Entity, Timestamp};
///
/// let alert = Alert::new(Timestamp::from_secs(12), AttackKind::IcmpFlood, "IcmpFloodModule")
///     .with_victim(Entity::new("10.0.0.7"))
///     .with_suspect(Entity::new("10.0.0.66"));
/// assert_eq!(alert.attack, AttackKind::IcmpFlood);
/// assert_eq!(alert.severity, Severity::Critical);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// When the incident was detected.
    pub time: Timestamp,
    /// The classification.
    pub attack: AttackKind,
    /// Severity (defaults to [`Severity::Critical`]).
    pub severity: Severity,
    /// The module that raised the alert.
    pub module: String,
    /// The entity under attack, when identifiable.
    pub victim: Option<Entity>,
    /// Entities suspected of carrying out the attack, most suspicious
    /// first. Response actions (e.g. revocation) act on this list.
    pub suspects: Vec<Entity>,
    /// Free-form supporting evidence.
    pub(crate) details: String,
    /// The causal trace this alert was raised under (0 = untraced, e.g.
    /// sampling was off for the triggering packet).
    pub trace_id: u64,
}

impl Alert {
    /// Create a critical alert.
    pub fn new(time: Timestamp, attack: AttackKind, module: impl Into<String>) -> Self {
        Alert {
            time,
            attack,
            severity: Severity::Critical,
            module: module.into(),
            victim: None,
            suspects: Vec::new(),
            details: String::new(),
            trace_id: 0,
        }
    }

    /// Set the victim.
    pub fn with_victim(mut self, victim: Entity) -> Self {
        self.victim = Some(victim);
        self
    }

    /// Append a suspect.
    pub fn with_suspect(mut self, suspect: Entity) -> Self {
        self.suspects.push(suspect);
        self
    }

    /// Append several suspects.
    pub fn with_suspects(mut self, suspects: impl IntoIterator<Item = Entity>) -> Self {
        self.suspects.extend(suspects);
        self
    }

    /// Set the severity.
    #[cfg(test)]
    pub(crate) fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Set the details text.
    pub(crate) fn with_details(mut self, details: impl Into<String>) -> Self {
        self.details = details.into();
        self
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} by {}",
            self.time, self.severity, self.attack, self.module
        )?;
        if let Some(victim) = &self.victim {
            write!(f, " victim={victim}")?;
        }
        if !self.suspects.is_empty() {
            write!(f, " suspects=[")?;
            for (i, s) in self.suspects.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let alert = Alert::new(Timestamp::ZERO, AttackKind::Wormhole, "WormholeModule")
            .with_victim(Entity::new("net"))
            .with_suspects([Entity::new("B1"), Entity::new("B2")])
            .with_severity(Severity::Warning)
            .with_details("correlated");
        assert_eq!(alert.suspects.len(), 2);
        assert_eq!(alert.severity, Severity::Warning);
        assert_eq!(alert.details, "correlated");
    }

    #[test]
    fn display_mentions_key_fields() {
        let alert = Alert::new(Timestamp::from_secs(1), AttackKind::Smurf, "SmurfModule")
            .with_victim(Entity::new("V"))
            .with_suspect(Entity::new("A"));
        let text = alert.to_string();
        assert!(text.contains("smurf"));
        assert!(text.contains("victim=V"));
        assert!(text.contains("suspects=[A]"));
    }

    #[test]
    fn labels_are_unique() {
        let kinds = [
            AttackKind::IcmpFlood,
            AttackKind::Smurf,
            AttackKind::SynFlood,
            AttackKind::UdpFlood,
            AttackKind::SelectiveForwarding,
            AttackKind::Blackhole,
            AttackKind::Sinkhole,
            AttackKind::Sybil,
            AttackKind::Replication,
            AttackKind::Wormhole,
            AttackKind::Deauth,
            AttackKind::Scan,
            AttackKind::FragmentFlood,
            AttackKind::Anomaly,
        ];
        let mut labels: Vec<_> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        let n = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
    }
}
