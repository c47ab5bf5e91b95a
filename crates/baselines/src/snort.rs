//! A from-scratch simplified-Snort: rule language, matching engine, and a
//! community-style ruleset.
//!
//! Faithful to the properties the paper's comparison relies on:
//!
//! * signature matching with per-rule thresholds over **IP traffic only**
//!   — frames on 802.15.4 mediums are skipped entirely ("Snort is unable
//!   to intercept and analyze the traffic" of ZigBee scenarios, §VI-B2);
//! * a sizeable always-on rule list, every rule evaluated per packet
//!   (the resource-cost contrast with Kalis' adaptive module set);
//! * no notion of network features: the flood/smurf ambiguity is baked
//!   into the ruleset, "it is not able to distinguish between the Smurf
//!   and ICMP Flood attacks" (§VI-B1).

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::str::FromStr;
use std::time::Duration;

use kalis_core::metrics::ResourceMeter;
use kalis_core::AttackKind;
use kalis_packets::packet::{LinkLayer, NetworkLayer, Transport};
use kalis_packets::tcp::TcpFlags;
use kalis_packets::{CapturedPacket, Timestamp};

/// Protocol selector in a rule header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Rule::proto`
pub enum RuleProto {
    /// Any IP datagram.
    Ip,
    /// ICMP messages.
    Icmp,
    /// TCP segments.
    Tcp,
    /// UDP datagrams.
    Udp,
}

/// `any` or a specific IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Rule::src`
pub enum AddrSpec {
    /// Matches every address.
    Any,
    /// Matches one address.
    Exact(Ipv4Addr),
}

impl AddrSpec {
    fn matches(self, addr: Ipv4Addr) -> bool {
        match self {
            AddrSpec::Any => true,
            AddrSpec::Exact(a) => a == addr,
        }
    }
}

/// `any` or a specific port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Rule::src_port`
pub enum PortSpec {
    /// Matches every port.
    Any,
    /// Matches one port.
    Exact(u16),
}

impl PortSpec {
    fn matches(self, port: Option<u16>) -> bool {
        match self {
            PortSpec::Any => true,
            PortSpec::Exact(p) => port == Some(p),
        }
    }
}

/// Which endpoint a threshold tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Track {
    /// Count per destination.
    ByDst,
    /// Count per source.
    BySrc,
}

/// A rule threshold: fire only when the rule matched `count` times within
/// `seconds`, tracked per endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Rule::threshold`
pub struct Threshold {
    /// Tracked endpoint.
    pub(crate) track: Track,
    /// Matches required.
    pub count: usize,
    /// Window length in seconds.
    pub seconds: u64,
}

/// A parsed rule.
#[derive(Debug, Clone, PartialEq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `SnortIds::new`
pub struct Rule {
    /// Rule protocol.
    pub proto: RuleProto,
    /// Source address constraint.
    pub src: AddrSpec,
    /// Source port constraint.
    pub src_port: PortSpec,
    /// Destination address constraint.
    pub dst: AddrSpec,
    /// Destination port constraint.
    pub dst_port: PortSpec,
    /// Human-readable message.
    pub msg: String,
    /// ICMP type constraint.
    pub(crate) itype: Option<u8>,
    /// TCP flags that must all be set.
    pub flags: Option<TcpFlags>,
    /// Payload substring constraint.
    pub(crate) content: Option<Vec<u8>>,
    /// Alert threshold.
    pub threshold: Option<Threshold>,
    /// Snort classtype.
    pub(crate) classtype: String,
    /// Rule id.
    pub(crate) sid: u32,
}

/// A rule-parse error with context.
#[derive(Debug, Clone, PartialEq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Rule::from_str`
pub struct RuleParseError {
    /// What was wrong.
    pub message: String,
}

impl core::fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid snort rule: {}", self.message)
    }
}

impl std::error::Error for RuleParseError {}

fn err(message: impl Into<String>) -> RuleParseError {
    RuleParseError {
        message: message.into(),
    }
}

impl FromStr for Rule {
    type Err = RuleParseError;

    /// Parse one rule, e.g.:
    ///
    /// ```text
    /// alert icmp any any -> any any (msg:"ICMP flood"; itype:0; \
    ///   threshold:track by_dst,count 25,seconds 5; classtype:attempted-dos; sid:1000001;)
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let open = s.find('(').ok_or_else(|| err("missing options block"))?;
        let close = s.rfind(')').ok_or_else(|| err("missing `)`"))?;
        let header: Vec<&str> = s[..open].split_whitespace().collect();
        let [action, proto, src, src_port, arrow, dst, dst_port] = header[..] else {
            return Err(err(format!("header needs 7 fields, got {}", header.len())));
        };
        if action != "alert" {
            return Err(err(format!("unsupported action `{action}`")));
        }
        if arrow != "->" {
            return Err(err("only `->` direction is supported"));
        }
        let proto = match proto {
            "ip" => RuleProto::Ip,
            "icmp" => RuleProto::Icmp,
            "tcp" => RuleProto::Tcp,
            "udp" => RuleProto::Udp,
            other => return Err(err(format!("unknown protocol `{other}`"))),
        };
        let parse_addr = |text: &str| -> Result<AddrSpec, RuleParseError> {
            if text == "any" {
                Ok(AddrSpec::Any)
            } else {
                text.parse()
                    .map(AddrSpec::Exact)
                    .map_err(|_| err(format!("bad address `{text}`")))
            }
        };
        let parse_port = |text: &str| -> Result<PortSpec, RuleParseError> {
            if text == "any" {
                Ok(PortSpec::Any)
            } else {
                text.parse()
                    .map(PortSpec::Exact)
                    .map_err(|_| err(format!("bad port `{text}`")))
            }
        };
        let mut rule = Rule {
            proto,
            src: parse_addr(src)?,
            src_port: parse_port(src_port)?,
            dst: parse_addr(dst)?,
            dst_port: parse_port(dst_port)?,
            msg: String::new(),
            itype: None,
            flags: None,
            content: None,
            threshold: None,
            classtype: String::new(),
            sid: 0,
        };
        for option in s[open + 1..close].split(';') {
            let option = option.trim();
            if option.is_empty() {
                continue;
            }
            let (key, value) = option
                .split_once(':')
                .ok_or_else(|| err(format!("option `{option}` missing `:`")))?;
            let value = value.trim();
            match key.trim() {
                "msg" => rule.msg = value.trim_matches('"').to_owned(),
                "itype" => {
                    rule.itype = Some(
                        value
                            .parse()
                            .map_err(|_| err(format!("bad itype `{value}`")))?,
                    )
                }
                "flags" => {
                    let mut flags = TcpFlags::EMPTY;
                    for c in value.chars() {
                        flags = flags
                            | match c {
                                'S' => TcpFlags::SYN,
                                'A' => TcpFlags::ACK,
                                'F' => TcpFlags::FIN,
                                'R' => TcpFlags::RST,
                                'P' => TcpFlags::PSH,
                                'U' => TcpFlags::URG,
                                other => return Err(err(format!("bad flag `{other}`"))),
                            };
                    }
                    rule.flags = Some(flags);
                }
                "content" => rule.content = Some(value.trim_matches('"').as_bytes().to_vec()),
                "threshold" | "detection_filter" => {
                    let mut track = Track::ByDst;
                    let mut count = 1usize;
                    let mut seconds = 60u64;
                    for part in value.split(',') {
                        let part = part.trim();
                        if let Some(rest) = part.strip_prefix("track ") {
                            track = match rest.trim() {
                                "by_dst" => Track::ByDst,
                                "by_src" => Track::BySrc,
                                other => return Err(err(format!("bad track `{other}`"))),
                            };
                        } else if let Some(rest) = part.strip_prefix("count ") {
                            count = rest
                                .trim()
                                .parse()
                                .map_err(|_| err(format!("bad count `{rest}`")))?;
                        } else if let Some(rest) = part.strip_prefix("seconds ") {
                            seconds = rest
                                .trim()
                                .parse()
                                .map_err(|_| err(format!("bad seconds `{rest}`")))?;
                        } else if part.starts_with("type ") {
                            // `type threshold|limit|both` accepted, ignored.
                        } else {
                            return Err(err(format!("bad threshold part `{part}`")));
                        }
                    }
                    rule.threshold = Some(Threshold {
                        track,
                        count,
                        seconds,
                    });
                }
                "classtype" => rule.classtype = value.to_owned(),
                "sid" => {
                    rule.sid = value
                        .parse()
                        .map_err(|_| err(format!("bad sid `{value}`")))?
                }
                "rev" | "priority" | "reference" | "metadata" => {}
                other => return Err(err(format!("unknown option `{other}`"))),
            }
        }
        if rule.sid == 0 {
            return Err(err("rule needs a sid"));
        }
        Ok(rule)
    }
}

/// An alert raised by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SnortAlert {
    /// Detection time.
    pub time: Timestamp,
    /// Rule id.
    pub(crate) sid: u32,
    /// Rule message.
    pub msg: String,
    /// Rule classtype.
    pub(crate) classtype: String,
    /// Datagram source.
    pub src: Ipv4Addr,
    /// Datagram destination.
    pub dst: Ipv4Addr,
}

impl SnortAlert {
    /// Best-effort mapping from the rule message to the evaluation's
    /// attack classification (the scorer compares this to ground truth).
    pub fn attack_hint(&self) -> AttackKind {
        let msg = self.msg.to_ascii_lowercase();
        if msg.contains("smurf") {
            AttackKind::Smurf
        } else if msg.contains("icmp") && msg.contains("flood") {
            AttackKind::IcmpFlood
        } else if msg.contains("syn") {
            AttackKind::SynFlood
        } else if msg.contains("udp") && msg.contains("flood") {
            AttackKind::UdpFlood
        } else if msg.contains("scan") || msg.contains("sweep") {
            AttackKind::Scan
        } else {
            AttackKind::Anomaly
        }
    }
}

struct Extracted {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: RuleProto,
    src_port: Option<u16>,
    dst_port: Option<u16>,
    itype: Option<u8>,
    flags: Option<TcpFlags>,
    payload: Vec<u8>,
}

fn extract(packet: &CapturedPacket) -> Option<Extracted> {
    let pkt = packet.decoded()?;
    // Snort only sees IP traffic — and only on mediums tcpdump can open.
    match &pkt.link {
        LinkLayer::Wifi(_) | LinkLayer::Ethernet(_) => {}
        LinkLayer::Ieee802154(_) | LinkLayer::Ble(_) => return None,
    }
    let Some(NetworkLayer::Ipv4(ip)) = pkt.net.as_ref() else {
        return None;
    };
    let mut out = Extracted {
        src: ip.src,
        dst: ip.dst,
        proto: RuleProto::Ip,
        src_port: None,
        dst_port: None,
        itype: None,
        flags: None,
        payload: Vec::new(),
    };
    match pkt.transport.as_ref() {
        Some(Transport::Icmpv4(icmp)) => {
            out.proto = RuleProto::Icmp;
            out.itype = Some(icmp.icmp_type().number());
            out.payload = icmp.payload().to_vec();
        }
        Some(Transport::Tcp(tcp)) => {
            out.proto = RuleProto::Tcp;
            out.src_port = Some(tcp.src_port);
            out.dst_port = Some(tcp.dst_port);
            out.flags = Some(tcp.flags);
            out.payload = tcp.payload.to_vec();
        }
        Some(Transport::Udp(udp)) => {
            out.proto = RuleProto::Udp;
            out.src_port = Some(udp.src_port);
            out.dst_port = Some(udp.dst_port);
            out.payload = udp.payload.to_vec();
        }
        _ => {}
    }
    Some(out)
}

/// Size of the pcap-style capture ring (frames). Snort/tcpdump buffer
/// captured frames before rule evaluation; this dominates its memory
/// footprint under sustained traffic, which is what makes the paper's
/// RAM comparison (Kalis < traditional < Snort) hold here too.
const CAPTURE_RING_FRAMES: usize = 16384;

/// The Snort-like IDS engine.
pub struct SnortIds {
    rules: Vec<Rule>,
    /// Per (sid, tracked endpoint): match timestamps inside the window.
    threshold_state: HashMap<(u32, Ipv4Addr), Vec<Timestamp>>,
    alerts: Vec<SnortAlert>,
    meter: ResourceMeter,
    /// Re-alert suppression per (sid, endpoint).
    last_alert: HashMap<(u32, Ipv4Addr), Timestamp>,
    /// pcap-style ring of recent frame sizes (bytes retained per frame).
    capture_ring: VecDeque<usize>,
    capture_ring_bytes: usize,
}

impl SnortIds {
    /// An engine with the given ruleset.
    pub fn new(rules: Vec<Rule>) -> Self {
        SnortIds {
            rules,
            threshold_state: HashMap::new(),
            alerts: Vec::new(),
            meter: ResourceMeter::new(),
            last_alert: HashMap::new(),
            capture_ring: VecDeque::new(),
            capture_ring_bytes: 0,
        }
    }

    /// An engine loaded with [`community_ruleset`].
    pub fn with_community_rules() -> Self {
        Self::new(community_ruleset())
    }

    /// Parse a ruleset from text (one rule per line, `#` comments).
    ///
    /// # Errors
    ///
    /// Returns the first rule that fails to parse.
    pub(crate) fn parse_ruleset(text: &str) -> Result<Vec<Rule>, RuleParseError> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(Rule::from_str)
            .collect()
    }

    /// Number of loaded rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Process one captured packet through every rule.
    pub fn process(&mut self, packet: &CapturedPacket) {
        self.meter.count_packet();
        // Buffer the frame in the capture ring (libpcap keeps frames
        // queued regardless of whether rules can parse them).
        self.capture_ring.push_back(packet.raw.len() + 64);
        self.capture_ring_bytes += packet.raw.len() + 64;
        while self.capture_ring.len() > CAPTURE_RING_FRAMES {
            if let Some(old) = self.capture_ring.pop_front() {
                self.capture_ring_bytes -= old;
            }
        }
        let Some(info) = extract(packet) else {
            // Unparseable medium: no rules run, but the packet was seen.
            self.observe_state();
            return;
        };
        let now = packet.timestamp;
        // Snort evaluates its whole rule list for every packet.
        self.meter.add_work(self.rules.len() as u64);
        let mut fired: Vec<SnortAlert> = Vec::new();
        for rule in &self.rules {
            if !Self::matches(rule, &info) {
                continue;
            }
            let tracked = match rule.threshold.map(|t| t.track) {
                Some(Track::BySrc) => info.src,
                _ => info.dst,
            };
            if let Some(threshold) = rule.threshold {
                let window = Duration::from_secs(threshold.seconds);
                let state = self.threshold_state.entry((rule.sid, tracked)).or_default();
                state.push(now);
                state.retain(|ts| now.saturating_since(*ts) <= window);
                if state.len() < threshold.count {
                    continue;
                }
            }
            // Suppress duplicate alerts within 10 s per endpoint.
            let suppressed = self
                .last_alert
                .get(&(rule.sid, tracked))
                .is_some_and(|at| now.saturating_since(*at) < Duration::from_secs(10));
            if suppressed {
                continue;
            }
            self.last_alert.insert((rule.sid, tracked), now);
            fired.push(SnortAlert {
                time: now,
                sid: rule.sid,
                msg: rule.msg.clone(),
                classtype: rule.classtype.clone(),
                src: info.src,
                dst: info.dst,
            });
        }
        self.alerts.extend(fired);
        self.observe_state();
    }

    fn matches(rule: &Rule, info: &Extracted) -> bool {
        if rule.proto != RuleProto::Ip && rule.proto != info.proto {
            return false;
        }
        if !rule.src.matches(info.src) || !rule.dst.matches(info.dst) {
            return false;
        }
        if !rule.src_port.matches(info.src_port) || !rule.dst_port.matches(info.dst_port) {
            return false;
        }
        if let Some(itype) = rule.itype {
            if info.itype != Some(itype) {
                return false;
            }
        }
        if let Some(flags) = rule.flags {
            match info.flags {
                Some(f) if f.contains(flags) => {}
                _ => return false,
            }
        }
        if let Some(content) = &rule.content {
            if !info
                .payload
                .windows(content.len().max(1))
                .any(|w| w == content.as_slice())
            {
                return false;
            }
        }
        true
    }

    fn observe_state(&mut self) {
        let rules = self.rules.len() * 160;
        let state: usize = self
            .threshold_state
            .values()
            .map(|v| v.len() * 16 + 48)
            .sum();
        self.meter
            .observe_state_bytes(rules + state + self.alerts.len() * 96 + self.capture_ring_bytes);
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> &[SnortAlert] {
        &self.alerts
    }

    /// Remove and return all alerts.
    pub fn drain_alerts(&mut self) -> Vec<SnortAlert> {
        std::mem::take(&mut self.alerts)
    }

    /// Resource accounting.
    pub fn meter(&self) -> ResourceMeter {
        self.meter
    }
}

impl core::fmt::Debug for SnortIds {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SnortIds")
            .field("rules", &self.rules.len())
            .field("alerts", &self.alerts.len())
            .finish()
    }
}

/// A community-flavoured default ruleset: the attack signatures relevant
/// to the evaluation plus the bulk of typical always-on signatures (which
/// cost work on every packet — the paper's resource-usage contrast).
pub fn community_ruleset() -> Vec<Rule> {
    let text = r#"
# --- DoS / flood signatures -------------------------------------------
alert icmp any any -> any any (msg:"ICMP flood detected"; itype:0; threshold:track by_dst,count 25,seconds 5; classtype:attempted-dos; sid:1000001;)
alert icmp any any -> any any (msg:"Smurf attack echo reply storm"; itype:0; threshold:track by_dst,count 25,seconds 5; classtype:attempted-dos; sid:1000002;)
alert icmp any any -> any any (msg:"ICMP ping sweep"; itype:8; threshold:track by_src,count 30,seconds 10; classtype:attempted-recon; sid:1000003;)
alert tcp any any -> any any (msg:"TCP SYN flood"; flags:S; threshold:track by_dst,count 30,seconds 5; classtype:attempted-dos; sid:1000004;)
alert udp any any -> any any (msg:"UDP flood"; threshold:track by_dst,count 100,seconds 5; classtype:attempted-dos; sid:1000005;)
alert tcp any any -> any any (msg:"TCP portscan SYN probes"; flags:S; threshold:track by_src,count 40,seconds 10; classtype:attempted-recon; sid:1000006;)
# --- Generic probe / malware signatures (always-on bulk) ---------------
alert tcp any any -> any 23 (msg:"Telnet probe to IoT device"; flags:S; classtype:attempted-recon; sid:1000101;)
alert tcp any any -> any 2323 (msg:"Telnet alt-port probe"; flags:S; classtype:attempted-recon; sid:1000102;)
alert tcp any any -> any 7547 (msg:"TR-064 exploit probe"; flags:S; classtype:attempted-admin; sid:1000103;)
alert tcp any any -> any 5555 (msg:"ADB remote probe"; flags:S; classtype:attempted-admin; sid:1000104;)
alert tcp any any -> any 8080 (msg:"HTTP alt-port admin probe"; content:"/admin"; classtype:web-application-attack; sid:1000105;)
alert tcp any any -> any 80 (msg:"Shellshock attempt"; content:"() {"; classtype:web-application-attack; sid:1000106;)
alert tcp any any -> any 80 (msg:"Directory traversal"; content:"../.."; classtype:web-application-attack; sid:1000107;)
alert tcp any any -> any 80 (msg:"SQL injection probe"; content:"UNION SELECT"; classtype:web-application-attack; sid:1000108;)
alert tcp any any -> any 445 (msg:"SMB probe"; flags:S; classtype:attempted-recon; sid:1000109;)
alert tcp any any -> any 1433 (msg:"MSSQL probe"; flags:S; classtype:attempted-recon; sid:1000110;)
alert tcp any any -> any 3389 (msg:"RDP probe"; flags:S; classtype:attempted-recon; sid:1000111;)
alert tcp any any -> any 22 (msg:"SSH brute-force burst"; flags:S; threshold:track by_src,count 10,seconds 30; classtype:attempted-user; sid:1000112;)
alert udp any any -> any 53 (msg:"DNS amplification query"; content:"ANY"; classtype:attempted-dos; sid:1000113;)
alert udp any any -> any 123 (msg:"NTP monlist query"; content:"monlist"; classtype:attempted-dos; sid:1000114;)
alert udp any any -> any 1900 (msg:"SSDP amplification M-SEARCH"; content:"M-SEARCH"; classtype:attempted-dos; sid:1000115;)
alert tcp any any -> any 25 (msg:"SMTP relay probe"; flags:S; classtype:attempted-recon; sid:1000116;)
alert tcp any any -> any 21 (msg:"FTP probe"; flags:S; classtype:attempted-recon; sid:1000117;)
alert tcp any any -> any 8443 (msg:"HTTPS alt-port probe"; flags:S; classtype:attempted-recon; sid:1000118;)
alert icmp any any -> any any (msg:"ICMP timestamp recon"; itype:13; classtype:attempted-recon; sid:1000119;)
alert tcp any any -> any 502 (msg:"Modbus scan"; flags:S; classtype:attempted-recon; sid:1000120;)
alert tcp any any -> any 102 (msg:"S7comm scan"; flags:S; classtype:attempted-recon; sid:1000121;)
alert tcp any any -> any 47808 (msg:"BACnet scan"; flags:S; classtype:attempted-recon; sid:1000122;)
alert udp any any -> any 5683 (msg:"CoAP discovery probe"; content:".well-known"; classtype:attempted-recon; sid:1000123;)
alert tcp any any -> any 1883 (msg:"MQTT connect flood"; threshold:track by_dst,count 50,seconds 10; classtype:attempted-dos; sid:1000124;)
alert tcp any any -> any 9000 (msg:"Crossdomain probe"; content:"crossdomain"; classtype:web-application-attack; sid:1000125;)
"#;
    SnortIds::parse_ruleset(text).expect("built-in ruleset parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_netsim::craft;
    use kalis_packets::{MacAddr, Medium};

    fn reply_flood_packets(n: usize) -> Vec<CapturedPacket> {
        (0..n)
            .map(|i| {
                let ip = craft::ipv4_echo_reply(
                    Ipv4Addr::new(172, 16, 0, i as u8),
                    Ipv4Addr::new(10, 0, 0, 7),
                    1,
                    i as u16,
                );
                let raw = craft::wifi_ipv4(
                    MacAddr::from_index(66),
                    MacAddr::BROADCAST,
                    MacAddr::from_index(0),
                    i as u16,
                    &ip,
                );
                CapturedPacket::capture(
                    Timestamp::from_millis(i as u64 * 50),
                    Medium::Wifi,
                    Some(-50.0),
                    "w",
                    raw,
                )
            })
            .collect()
    }

    #[test]
    fn rule_parses_the_documented_syntax() {
        let rule: Rule = r#"alert icmp any any -> any any (msg:"ICMP flood"; itype:0; threshold:track by_dst,count 25,seconds 5; classtype:attempted-dos; sid:1000001;)"#
            .parse()
            .unwrap();
        assert_eq!(rule.proto, RuleProto::Icmp);
        assert_eq!(rule.itype, Some(0));
        assert_eq!(
            rule.threshold,
            Some(Threshold {
                track: Track::ByDst,
                count: 25,
                seconds: 5
            })
        );
        assert_eq!(rule.sid, 1000001);
    }

    #[test]
    fn rule_parse_errors_are_descriptive() {
        assert!("".parse::<Rule>().is_err());
        assert!("alert icmp any any -> any any (sid:1;"
            .parse::<Rule>()
            .is_err());
        assert!("drop icmp any any -> any any (sid:1;)"
            .parse::<Rule>()
            .is_err());
        assert!("alert icmp any any <> any any (sid:1;)"
            .parse::<Rule>()
            .is_err());
        assert!(
            "alert icmp any any -> any any (msg:\"x\";)"
                .parse::<Rule>()
                .is_err(),
            "sid required"
        );
        assert!("alert icmp any any -> any any (bogus:1; sid:2;)"
            .parse::<Rule>()
            .is_err());
    }

    #[test]
    fn community_ruleset_is_large_and_parses() {
        let rules = community_ruleset();
        assert!(rules.len() >= 25);
        let mut sids: Vec<u32> = rules.iter().map(|r| r.sid).collect();
        sids.sort_unstable();
        let n = sids.len();
        sids.dedup();
        assert_eq!(sids.len(), n, "sids must be unique");
    }

    #[test]
    fn flood_triggers_both_flood_and_smurf_rules() {
        // The paper: Snort "is not able to distinguish between the Smurf
        // and ICMP Flood attacks".
        let mut snort = SnortIds::with_community_rules();
        for p in reply_flood_packets(40) {
            snort.process(&p);
        }
        let hints: Vec<AttackKind> = snort.alerts().iter().map(SnortAlert::attack_hint).collect();
        assert!(hints.contains(&AttackKind::IcmpFlood));
        assert!(hints.contains(&AttackKind::Smurf));
    }

    #[test]
    fn below_threshold_traffic_is_silent() {
        let mut snort = SnortIds::with_community_rules();
        for p in reply_flood_packets(10) {
            snort.process(&p);
        }
        assert!(snort.alerts().is_empty());
    }

    #[test]
    fn zigbee_traffic_is_invisible() {
        let mut snort = SnortIds::with_community_rules();
        let raw = craft::ctp_data(
            kalis_packets::ShortAddr(2),
            kalis_packets::ShortAddr(1),
            0,
            kalis_packets::ShortAddr(2),
            1,
            0,
            b"r",
        );
        let cap =
            CapturedPacket::capture(Timestamp::ZERO, Medium::Ieee802154, Some(-50.0), "t", raw);
        snort.process(&cap);
        assert!(snort.alerts().is_empty());
        assert_eq!(
            snort.meter().work_units,
            0,
            "no rules run on 802.15.4 frames"
        );
        assert_eq!(snort.meter().packets, 1);
    }

    #[test]
    fn every_ip_packet_costs_the_whole_rule_list() {
        let mut snort = SnortIds::with_community_rules();
        let packets = reply_flood_packets(10);
        for p in &packets {
            snort.process(p);
        }
        assert_eq!(
            snort.meter().work_units,
            10 * snort.rule_count() as u64,
            "Snort evaluates all rules per packet"
        );
    }

    #[test]
    fn content_rules_match_payload() {
        let mut snort = SnortIds::with_community_rules();
        let seg = kalis_packets::tcp::TcpSegment {
            src_port: 5000,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 100,
            payload: bytes::Bytes::from_static(b"GET /x?q=UNION SELECT * HTTP/1.1"),
        };
        let ip = craft::ipv4_tcp(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(10, 0, 0, 5), &seg);
        let raw = craft::ethernet_ipv4(MacAddr::from_index(1), MacAddr::from_index(2), &ip);
        snort.process(&CapturedPacket::capture(
            Timestamp::ZERO,
            Medium::Ethernet,
            None,
            "eth0",
            raw,
        ));
        assert!(snort
            .alerts()
            .iter()
            .any(|a| a.msg.contains("SQL injection")));
    }

    #[test]
    fn alert_hint_mapping() {
        let mk = |msg: &str| SnortAlert {
            time: Timestamp::ZERO,
            sid: 1,
            msg: msg.into(),
            classtype: String::new(),
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
        };
        assert_eq!(mk("Smurf attack").attack_hint(), AttackKind::Smurf);
        assert_eq!(
            mk("ICMP flood detected").attack_hint(),
            AttackKind::IcmpFlood
        );
        assert_eq!(mk("TCP SYN flood").attack_hint(), AttackKind::SynFlood);
        assert_eq!(mk("TCP portscan").attack_hint(), AttackKind::Scan);
        assert_eq!(mk("weird thing").attack_hint(), AttackKind::Anomaly);
    }
}
