//! SIEM integration (paper §I: Kalis "can act as data source for
//! multisource security information management (SIEM) systems").
//!
//! Alerts are exported in ArcSight **Common Event Format** (CEF), the
//! lingua franca of SIEM ingestion pipelines:
//!
//! ```text
//! CEF:0|Kalis|kalis-ids|0.1.0|icmp-flood|ICMP Echo-Reply flood|9|rt=12000 dst=10.0.0.7 ...
//! ```

use core::fmt::Write as _;

use crate::alert::{Alert, AttackKind, Severity};

/// CEF severity (0–10) for an alert severity.
fn cef_severity(severity: Severity) -> u8 {
    match severity {
        Severity::Info => 3,
        Severity::Warning => 6,
        Severity::Critical => 9,
    }
}

/// Human-readable event names per attack kind.
fn event_name(attack: AttackKind) -> &'static str {
    match attack {
        AttackKind::IcmpFlood => "ICMP Echo-Reply flood",
        AttackKind::Smurf => "Smurf amplification attack",
        AttackKind::SynFlood => "TCP SYN flood",
        AttackKind::UdpFlood => "UDP flood",
        AttackKind::SelectiveForwarding => "Selective forwarding",
        AttackKind::Blackhole => "Blackhole forwarder",
        AttackKind::Sinkhole => "Sinkhole routing attraction",
        AttackKind::Sybil => "Sybil identities",
        AttackKind::Replication => "Node replication (clone)",
        AttackKind::Wormhole => "Wormhole tunnel",
        AttackKind::Deauth => "802.11 deauthentication flood",
        AttackKind::Scan => "Network scan",
        AttackKind::FragmentFlood => "6LoWPAN incomplete-fragment flood",
        AttackKind::Anomaly => "Traffic anomaly",
    }
}

/// Escape a CEF header field (`|` and `\`).
fn escape_header(text: &str) -> String {
    text.replace('\\', "\\\\").replace('|', "\\|")
}

/// Escape a CEF extension value (`=`, `\`, and newline characters —
/// both `\n` and `\r`, either of which would otherwise break the
/// one-event-per-line framing SIEM collectors rely on).
fn escape_extension(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('=', "\\=")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Render one alert as a CEF line.
///
/// # Examples
///
/// ```
/// use kalis_core::siem::to_cef;
/// use kalis_core::{Alert, AttackKind};
/// use kalis_packets::{Entity, Timestamp};
///
/// let alert = Alert::new(Timestamp::from_secs(12), AttackKind::IcmpFlood, "IcmpFloodModule")
///     .with_victim(Entity::new("10.0.0.7"));
/// let line = to_cef(&alert);
/// assert!(line.starts_with("CEF:0|Kalis|kalis-ids|"));
/// assert!(line.contains("dst=10.0.0.7"));
/// ```
pub fn to_cef(alert: &Alert) -> String {
    let mut line = format!(
        "CEF:0|Kalis|kalis-ids|{}|{}|{}|{}|",
        env!("CARGO_PKG_VERSION"),
        escape_header(alert.attack.label()),
        escape_header(event_name(alert.attack)),
        cef_severity(alert.severity),
    );
    let _ = write!(line, "rt={}", alert.time.as_micros() / 1000);
    let _ = write!(
        line,
        " cs1Label=module cs1={}",
        escape_extension(&alert.module)
    );
    if let Some(victim) = &alert.victim {
        let _ = write!(line, " dst={}", escape_extension(victim.as_str()));
    }
    for (i, suspect) in alert.suspects.iter().enumerate() {
        if i == 0 {
            let _ = write!(line, " src={}", escape_extension(suspect.as_str()));
        } else {
            let _ = write!(
                line,
                " cs{}Label=suspect cs{}={}",
                i + 1,
                i + 1,
                escape_extension(suspect.as_str())
            );
        }
    }
    if !alert.details.is_empty() {
        let _ = write!(line, " msg={}", escape_extension(&alert.details));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_packets::{Entity, Timestamp};

    fn sample() -> Alert {
        Alert::new(
            Timestamp::from_millis(12_500),
            AttackKind::Wormhole,
            "WormholeModule",
        )
        .with_suspects([Entity::new("0x0002"), Entity::new("0x0014")])
        .with_details("2 origins correlated")
    }

    #[test]
    fn cef_line_structure() {
        let line = to_cef(&sample());
        let headers: Vec<&str> = line.splitn(8, '|').collect();
        assert_eq!(headers[0], "CEF:0");
        assert_eq!(headers[1], "Kalis");
        assert_eq!(headers[4], "wormhole");
        assert_eq!(headers[6], "9", "critical maps to CEF 9");
        assert!(headers[7].contains("rt=12500"));
        assert!(headers[7].contains("src=0x0002"));
        assert!(headers[7].contains("cs2Label=suspect cs2=0x0014"));
        assert!(headers[7].contains("msg=2 origins correlated"));
    }

    #[test]
    fn header_and_extension_escaping() {
        let mut alert = sample();
        alert.details = "a=b|c\nd".into();
        let line = to_cef(&alert);
        assert!(line.contains("msg=a\\=b|c\\nd"));
    }

    #[test]
    fn header_escapes_pipe_and_backslash() {
        assert_eq!(escape_header(r"a|b\c"), r"a\|b\\c");
        // Backslash is escaped first, so pre-existing backslashes cannot
        // swallow the pipe escape.
        assert_eq!(escape_header(r"\|"), r"\\\|");
    }

    #[test]
    fn extension_escapes_equals_backslash_and_newlines() {
        assert_eq!(escape_extension("k=v"), r"k\=v");
        assert_eq!(escape_extension(r"c:\path"), r"c:\\path");
        assert_eq!(escape_extension("a\nb\rc"), r"a\nb\rc");
        // Pipes are legal inside extension values and stay literal.
        assert_eq!(escape_extension("a|b"), "a|b");
    }

    #[test]
    fn extension_injection_cannot_forge_fields_or_lines() {
        let mut alert = sample();
        alert.suspects = vec![Entity::new("x\nsrc=spoof")];
        alert.details = "owned=yes\r\nCEF:0|fake".into();
        let line = to_cef(&alert);
        // A crafted entity cannot smuggle a raw key=value pair or start a
        // new CEF record: every `=`, `\n`, and `\r` arrives escaped.
        assert!(line.contains(r"src=x\nsrc\=spoof"));
        assert!(line.contains(r"msg=owned\=yes\r\nCEF:0|fake"));
        assert_eq!(line.lines().count(), 1, "one alert stays one line");
    }

    #[test]
    fn every_attack_kind_has_an_event_name() {
        for kind in [
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
            AttackKind::Anomaly,
        ] {
            assert!(!event_name(kind).is_empty());
        }
    }
}
