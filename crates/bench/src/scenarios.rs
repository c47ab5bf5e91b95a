//! Scenario builders: the labelled attack workloads of the paper's
//! evaluation, constructed on the `kalis-netsim` substrate.
//!
//! Each scenario mirrors §VI-A's setup: a heterogeneous network (a
//! six-mote CTP WSN and/or a WiFi LAN with the five commodity-device
//! profiles), baseline traffic, one attack with ground-truth symptom
//! recording, and a promiscuous tap at the Kalis vantage point.

use std::net::Ipv4Addr;
use std::time::Duration;

use kalis_attacks::{
    BlackholePolicy, DeauthAttacker, FragmentFloodAttacker, IcmpFloodAttacker, ReplicaNode,
    ScanAttacker, SelectiveForwardPolicy, SinkholeAttacker, SmurfAttacker, SybilAttacker,
    SymptomInstance, SynFloodAttacker, TruthLog, UdpFloodAttacker, WormholeEndpointA,
    WormholeEndpointB, WormholeTunnel,
};
use kalis_netsim::behaviors::{
    CtpForwarderBehavior, CtpSensorBehavior, CtpSinkBehavior, PingBehavior, PingResponderBehavior,
    TcpServerBehavior,
};
use kalis_netsim::devices::DeviceProfile;
use kalis_netsim::fault::{FaultPlan, FaultStats};
use kalis_netsim::mobility::MobilityModel;
use kalis_netsim::node::{NodeId, NodeSpec};
use kalis_netsim::radio::RadioConfig;
use kalis_netsim::{Position, Simulator, Tap};
use kalis_packets::{CapturedPacket, Entity, MacAddr, Medium, ShortAddr};

/// The victim device IP used across WiFi scenarios.
pub(crate) const VICTIM_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// The cloud service IP the devices heartbeat to.
pub(crate) const CLOUD_IP: Ipv4Addr = Ipv4Addr::new(52, 0, 0, 1);

/// The attack scenarios of the evaluation. The first eight are the
/// paper's Fig. 8 set; the remainder extend breadth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// §VI-B1: ICMP Flood on a single-hop network.
    IcmpFlood,
    /// Smurf on a multi-hop network.
    Smurf,
    /// TCP SYN flood on a device.
    SynFlood,
    /// Selective forwarding in the CTP WSN.
    SelectiveForwarding,
    /// Blackhole in the CTP WSN.
    Blackhole,
    /// §VI-B2: replication with static/mobile phases.
    Replication,
    /// Sybil identities in the WSN.
    Sybil,
    /// §VI-D: wormhole across two network regions.
    Wormhole,
    /// Sinkhole (forged root advertisements).
    Sinkhole,
    /// UDP flood on a device.
    UdpFlood,
    /// 802.11 deauthentication flood.
    Deauth,
    /// Internet-side scan through the router uplink.
    Scan,
    /// 6LoWPAN incomplete-fragment flood.
    FragmentFlood,
}

impl ScenarioKind {
    /// The Fig. 8 scenario set (eight attack scenarios, §VI-E).
    pub fn fig8_set() -> &'static [ScenarioKind] {
        &[
            ScenarioKind::IcmpFlood,
            ScenarioKind::Smurf,
            ScenarioKind::SynFlood,
            ScenarioKind::SelectiveForwarding,
            ScenarioKind::Blackhole,
            ScenarioKind::Replication,
            ScenarioKind::Sybil,
            ScenarioKind::Wormhole,
        ]
    }

    /// Every scenario this harness can build.
    pub fn all() -> &'static [ScenarioKind] {
        &[
            ScenarioKind::IcmpFlood,
            ScenarioKind::Smurf,
            ScenarioKind::SynFlood,
            ScenarioKind::SelectiveForwarding,
            ScenarioKind::Blackhole,
            ScenarioKind::Replication,
            ScenarioKind::Sybil,
            ScenarioKind::Wormhole,
            ScenarioKind::Sinkhole,
            ScenarioKind::UdpFlood,
            ScenarioKind::Deauth,
            ScenarioKind::Scan,
            ScenarioKind::FragmentFlood,
        ]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::IcmpFlood => "icmp-flood",
            ScenarioKind::Smurf => "smurf",
            ScenarioKind::SynFlood => "syn-flood",
            ScenarioKind::SelectiveForwarding => "selective-forwarding",
            ScenarioKind::Blackhole => "blackhole",
            ScenarioKind::Replication => "replication",
            ScenarioKind::Sybil => "sybil",
            ScenarioKind::Wormhole => "wormhole",
            ScenarioKind::Sinkhole => "sinkhole",
            ScenarioKind::UdpFlood => "udp-flood",
            ScenarioKind::Deauth => "deauth",
            ScenarioKind::Scan => "scan",
            ScenarioKind::FragmentFlood => "fragment-flood",
        }
    }

    /// Whether the attack traffic is IP-family (visible to Snort). The
    /// 802.15.4 scenarios are invisible to it, as in the paper.
    pub(crate) fn ip_visible(self) -> bool {
        matches!(
            self,
            ScenarioKind::IcmpFlood
                | ScenarioKind::Smurf
                | ScenarioKind::SynFlood
                | ScenarioKind::UdpFlood
                | ScenarioKind::Scan
        )
    }
}

impl core::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A built scenario: the captured traffic, the injected ground truth, and
/// identity metadata for countermeasure scoring.
#[derive(Debug)]
pub struct Scenario {
    /// Which scenario this is.
    pub kind: ScenarioKind,
    /// The primary Kalis vantage point's captures, in time order.
    pub captures: Vec<CapturedPacket>,
    /// The second tap's captures, in time order (wormhole scenario
    /// only); the runner gives it its own node.
    pub captures_b: Option<Vec<CapturedPacket>>,
    /// Injected symptom ground truth.
    pub truth: Vec<SymptomInstance>,
    /// The true attacker identities (for countermeasure scoring).
    pub attackers: Vec<Entity>,
    /// The victim identity, when the attack has one.
    pub victim: Option<Entity>,
    /// Faults injected during the build (zero without a fault plan).
    pub fault_stats: FaultStats,
    /// Per-directed-link fault counters (empty without a fault plan).
    pub link_fault_stats: Vec<((u32, u32), FaultStats)>,
}

/// Cross-cutting build machinery threaded into every scenario builder.
/// Today that is a seeded [`FaultPlan`] degrading the simulated network
/// under observation (never the tap); the scenario language compiles its
/// `faults` section into this.
#[derive(Debug, Default)]
pub struct BuildOptions {
    /// Installed on the simulator before the run, when present.
    pub fault_plan: Option<FaultPlan>,
}

impl Scenario {
    /// Build a scenario with `symptoms` injected symptom instances
    /// (bursts/rounds, or a drop budget for forwarding attacks), seeded
    /// deterministically.
    pub fn build(kind: ScenarioKind, seed: u64, symptoms: u32) -> Scenario {
        Scenario::build_with(kind, seed, symptoms, &BuildOptions::default())
    }

    /// The capture taps, one per node: `captures`, then `captures_b`
    /// when there is a second tap.
    pub fn vantages(&self) -> Vec<&[CapturedPacket]> {
        std::iter::once(self.captures.as_slice())
            .chain(self.captures_b.as_deref())
            .collect()
    }

    /// [`Scenario::build`] with cross-cutting options (fault plans).
    pub fn build_with(
        kind: ScenarioKind,
        seed: u64,
        symptoms: u32,
        options: &BuildOptions,
    ) -> Scenario {
        match kind {
            ScenarioKind::IcmpFlood => build_icmp_flood(seed, symptoms, options),
            ScenarioKind::Smurf => build_smurf(seed, symptoms, options),
            ScenarioKind::SynFlood => build_syn_flood(seed, symptoms, options),
            ScenarioKind::SelectiveForwarding => build_forwarding(seed, symptoms, false, options),
            ScenarioKind::Blackhole => build_forwarding(seed, symptoms, true, options),
            ScenarioKind::Replication => build_replication(seed, symptoms, options),
            ScenarioKind::Sybil => build_sybil(seed, symptoms, options),
            ScenarioKind::Wormhole => build_wormhole(seed, symptoms, options),
            ScenarioKind::Sinkhole => build_sinkhole(seed, symptoms, options),
            ScenarioKind::UdpFlood => build_udp_flood(seed, symptoms, options),
            ScenarioKind::Deauth => build_deauth(seed, symptoms, options),
            ScenarioKind::Scan => build_scan(seed, symptoms, options),
            ScenarioKind::FragmentFlood => build_fragment_flood(seed, symptoms, options),
        }
    }
}

/// Install the options' fault plan, if any, on a freshly built simulator.
fn install_faults(sim: &mut Simulator, options: &BuildOptions) {
    if let Some(plan) = &options.fault_plan {
        sim.set_fault_plan(plan.clone());
    }
}

/// The WiFi LAN common to the IP scenarios: router (node 0, also the
/// cloud-side TCP responder), the ping pair providing ICMP baseline
/// traffic, and the five commodity-device profiles.
struct Lan {
    sim: Simulator,
    router: NodeId,
    tap: Tap,
}

fn build_lan(seed: u64, extra_mediums: &[Medium], options: &BuildOptions) -> Lan {
    let mut sim = Simulator::new(seed);
    install_faults(&mut sim, options);
    let router_mac = MacAddr::from_index(0);
    let router = sim.add_node(
        NodeSpec::new("router")
            .with_position(0.0, 0.0)
            .with_radio(RadioConfig::wifi())
            .with_mac(router_mac)
            .with_ip(Ipv4Addr::new(10, 0, 0, 1)),
    );
    sim.set_behavior(
        router,
        TcpServerBehavior::new(router_mac, router_mac, vec![CLOUD_IP]),
    );
    // Victim device: answers pings (baseline ICMP traffic).
    let victim = sim.add_node(
        NodeSpec::new("thermostat")
            .with_position(5.0, 0.0)
            .with_radio(RadioConfig::wifi())
            .with_mac(MacAddr::from_index(1))
            .with_ip(VICTIM_IP),
    );
    sim.set_behavior(
        victim,
        PingResponderBehavior::new(MacAddr::from_index(1), VICTIM_IP, router_mac),
    );
    // Pinger: low-rate baseline echo requests to the victim.
    let pinger_ip = Ipv4Addr::new(10, 0, 0, 3);
    let pinger = sim.add_node(
        NodeSpec::new("pinger")
            .with_position(-5.0, 0.0)
            .with_radio(RadioConfig::wifi())
            .with_mac(MacAddr::from_index(2))
            .with_ip(pinger_ip),
    );
    sim.set_behavior(
        pinger,
        PingBehavior::new(
            MacAddr::from_index(2),
            pinger_ip,
            router_mac,
            router_mac,
            VICTIM_IP,
            Duration::from_secs(2),
        ),
    );
    // The commodity devices.
    for (i, profile) in DeviceProfile::all().iter().enumerate() {
        let mac = MacAddr::from_index(3 + i as u32);
        let ip = Ipv4Addr::new(10, 0, 0, 4 + i as u8);
        let node =
            sim.add_node(profile.node_spec(profile.name(), 3.0 + 2.0 * i as f64, 4.0, ip, mac));
        sim.set_behavior(node, profile.behavior(mac, ip, router_mac, CLOUD_IP));
    }
    let mut mediums = vec![Medium::Wifi];
    mediums.extend_from_slice(extra_mediums);
    let tap = sim.add_tap("kalis0", Position::new(1.0, 1.0), &mediums);
    Lan { sim, router, tap }
}

fn burst_schedule(symptoms: u32) -> (u32, Duration, Duration) {
    // bursts, interval, total run time.
    let interval = Duration::from_secs(12);
    let run = Duration::from_secs(5) + interval * symptoms + Duration::from_secs(5);
    (symptoms, interval, run)
}

fn build_icmp_flood(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let Lan { mut sim, tap, .. } = build_lan(seed, &[], options);
    let attacker = sim.add_node(
        NodeSpec::new("attacker")
            .with_position(3.0, -4.0)
            .with_radio(RadioConfig::wifi()),
    );
    let (bursts, interval, run) = burst_schedule(symptoms);
    sim.set_behavior(
        attacker,
        IcmpFloodAttacker::new(VICTIM_IP, truth.clone()).with_bursts(bursts, interval),
    );
    sim.run_for(run);
    Scenario {
        kind: ScenarioKind::IcmpFlood,
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::from(MacAddr::from_index(attacker.0))],
        victim: Some(Entity::new(VICTIM_IP.to_string())),
    }
}

fn add_ctp_chain(sim: &mut Simulator) {
    // A three-mote multi-hop chain that reveals the multi-hop feature.
    let sink = sim.add_node(NodeSpec::new("chain-sink").with_position(0.0, 10.0));
    let fwd = sim.add_node(NodeSpec::new("chain-fwd").with_position(10.0, 10.0));
    let leaf = sim.add_node(NodeSpec::new("chain-leaf").with_position(20.0, 10.0));
    sim.set_behavior(sink, CtpSinkBehavior::new(ShortAddr(1)));
    sim.set_behavior(fwd, CtpForwarderBehavior::new(ShortAddr(2), ShortAddr(1)));
    sim.set_behavior(leaf, CtpSensorBehavior::leaf(ShortAddr(3), ShortAddr(2)));
}

fn build_smurf(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let Lan { mut sim, tap, .. } = build_lan(seed, &[Medium::Ieee802154], options);
    add_ctp_chain(&mut sim);
    // Reflectors: devices that answer pings.
    let mut reflector_ips = Vec::new();
    for i in 0..3u32 {
        let ip = Ipv4Addr::new(10, 0, 0, 10 + i as u8);
        let mac = MacAddr::from_index(40 + i);
        let node = sim.add_node(
            NodeSpec::new(format!("reflector-{i}"))
                .with_position(-3.0, 3.0 + i as f64)
                .with_radio(RadioConfig::wifi())
                .with_mac(mac)
                .with_ip(ip),
        );
        sim.set_behavior(
            node,
            PingResponderBehavior::new(mac, ip, MacAddr::from_index(0)),
        );
        reflector_ips.push(ip);
    }
    let attacker = sim.add_node(
        NodeSpec::new("smurf-attacker")
            .with_position(4.0, -3.0)
            .with_radio(RadioConfig::wifi()),
    );
    let (bursts, interval, run) = burst_schedule(symptoms);
    sim.set_behavior(
        attacker,
        SmurfAttacker::new(VICTIM_IP, reflector_ips, truth.clone()).with_bursts(bursts, interval),
    );
    sim.run_for(run);
    Scenario {
        kind: ScenarioKind::Smurf,
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::from(MacAddr::from_index(attacker.0))],
        victim: Some(Entity::new(VICTIM_IP.to_string())),
    }
}

fn build_syn_flood(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let Lan { mut sim, tap, .. } = build_lan(seed, &[], options);
    let attacker = sim.add_node(
        NodeSpec::new("syn-attacker")
            .with_position(-4.0, -4.0)
            .with_radio(RadioConfig::wifi()),
    );
    let (bursts, interval, run) = burst_schedule(symptoms);
    sim.set_behavior(
        attacker,
        SynFloodAttacker::new(VICTIM_IP, truth.clone()).with_bursts(bursts, interval),
    );
    sim.run_for(run);
    Scenario {
        kind: ScenarioKind::SynFlood,
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::from(MacAddr::from_index(attacker.0))],
        victim: Some(Entity::new(VICTIM_IP.to_string())),
    }
}

fn build_udp_flood(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let Lan { mut sim, tap, .. } = build_lan(seed, &[], options);
    let attacker = sim.add_node(
        NodeSpec::new("udp-attacker")
            .with_position(-4.0, 4.0)
            .with_radio(RadioConfig::wifi()),
    );
    let (bursts, interval, run) = burst_schedule(symptoms);
    sim.set_behavior(
        attacker,
        UdpFloodAttacker::new(VICTIM_IP, truth.clone()).with_bursts(bursts, interval),
    );
    sim.run_for(run);
    Scenario {
        kind: ScenarioKind::UdpFlood,
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::from(MacAddr::from_index(attacker.0))],
        victim: Some(Entity::new(VICTIM_IP.to_string())),
    }
}

fn build_deauth(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let Lan { mut sim, tap, .. } = build_lan(seed, &[], options);
    let attacker = sim.add_node(
        NodeSpec::new("deauth-attacker")
            .with_position(2.0, -5.0)
            .with_radio(RadioConfig::wifi()),
    );
    let (bursts, interval, run) = burst_schedule(symptoms);
    sim.set_behavior(
        attacker,
        DeauthAttacker::new(
            MacAddr::from_index(1),
            MacAddr::from_index(0),
            truth.clone(),
        )
        .with_bursts(bursts, interval),
    );
    sim.run_for(run);
    Scenario {
        kind: ScenarioKind::Deauth,
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::from(MacAddr::from_index(attacker.0))],
        victim: Some(Entity::from(MacAddr::from_index(1))),
    }
}

fn build_scan(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let Lan {
        mut sim,
        router,
        tap: _,
    } = build_lan(seed, &[], options);
    // The firewall vantage: the router's wired uplink.
    let wired_tap = sim.add_wired_tap("eth0", router, &[]);
    let scanner_ip = Ipv4Addr::new(203, 0, 113, 66);
    let scanner = sim.add_node(NodeSpec::new("scanner").with_position(900.0, 0.0));
    sim.set_behavior(
        scanner,
        ScanAttacker::new(
            router,
            scanner_ip,
            vec![
                VICTIM_IP,
                Ipv4Addr::new(10, 0, 0, 4),
                Ipv4Addr::new(10, 0, 0, 5),
            ],
            vec![22, 23, 80, 443, 8080],
            truth.clone(),
        )
        .with_sweeps(symptoms),
    );
    sim.run_for(
        Duration::from_secs(5) + Duration::from_secs(3) * symptoms + Duration::from_secs(5),
    );
    Scenario {
        kind: ScenarioKind::Scan,
        captures: wired_tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::new(scanner_ip.to_string())],
        victim: None,
    }
}

fn build_fragment_flood(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let Wsn { mut sim, tap, .. } = build_wsn(seed, None, options);
    let attacker = sim.add_node(NodeSpec::new("fragger").with_position(6.0, -4.0));
    // The reassembly timeout is 15 s: space bursts past it so every burst
    // produces a fresh wave of expirations.
    sim.set_behavior(
        attacker,
        FragmentFloodAttacker::new(ShortAddr(9), ShortAddr(1), truth.clone())
            .with_bursts(symptoms, Duration::from_secs(25)),
    );
    sim.run_for(
        Duration::from_secs(5) + Duration::from_secs(25) * symptoms + Duration::from_secs(25),
    );
    Scenario {
        kind: ScenarioKind::FragmentFlood,
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::from(ShortAddr(9))],
        victim: Some(Entity::from(ShortAddr(1))),
    }
}

/// The six-mote TelosB WSN of §VI-A, with the Kalis tap "near the middle
/// portion ... able to overhear intermediate hops".
struct Wsn {
    sim: Simulator,
    tap: Tap,
    forwarder: NodeId,
}

fn build_wsn(
    seed: u64,
    forwarder_policy: Option<Box<dyn kalis_netsim::behaviors::ForwardPolicy>>,
    options: &BuildOptions,
) -> Wsn {
    let mut sim = Simulator::new(seed);
    install_faults(&mut sim, options);
    let sink = sim.add_node(NodeSpec::new("mote-1-sink").with_position(0.0, 0.0));
    let forwarder = sim.add_node(NodeSpec::new("mote-2-fwd").with_position(10.0, 0.0));
    let leaf3 = sim.add_node(NodeSpec::new("mote-3").with_position(20.0, 0.0));
    let leaf4 = sim.add_node(NodeSpec::new("mote-4").with_position(18.0, 6.0));
    let leaf5 = sim.add_node(NodeSpec::new("mote-5").with_position(5.0, 5.0));
    let leaf6 = sim.add_node(NodeSpec::new("mote-6").with_position(12.0, -6.0));
    sim.set_behavior(sink, CtpSinkBehavior::new(ShortAddr(1)));
    match forwarder_policy {
        Some(policy) => sim.set_behavior(
            forwarder,
            CtpForwarderBehavior::with_boxed_policy(ShortAddr(2), ShortAddr(1), policy),
        ),
        None => sim.set_behavior(
            forwarder,
            CtpForwarderBehavior::new(ShortAddr(2), ShortAddr(1)),
        ),
    }
    sim.set_behavior(leaf3, CtpSensorBehavior::leaf(ShortAddr(3), ShortAddr(2)));
    sim.set_behavior(leaf4, CtpSensorBehavior::leaf(ShortAddr(4), ShortAddr(2)));
    sim.set_behavior(leaf5, CtpSensorBehavior::leaf(ShortAddr(5), ShortAddr(1)));
    sim.set_behavior(leaf6, CtpSensorBehavior::leaf(ShortAddr(6), ShortAddr(2)));
    let tap = sim.add_tap("kalis0", Position::new(10.0, 2.0), &[Medium::Ieee802154]);
    Wsn {
        sim,
        tap,
        forwarder,
    }
}

fn build_forwarding(seed: u64, symptoms: u32, blackhole: bool, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let policy: Box<dyn kalis_netsim::behaviors::ForwardPolicy> = if blackhole {
        Box::new(BlackholePolicy::new(ShortAddr(2), truth.clone()))
    } else {
        Box::new(SelectiveForwardPolicy::new(
            ShortAddr(2),
            0.5,
            truth.clone(),
        ))
    };
    let Wsn {
        mut sim,
        tap,
        forwarder,
    } = build_wsn(seed, Some(policy), options);
    let _ = forwarder;
    // Through-traffic ≈1 frame/s; run long enough for the symptom budget.
    let per_second = if blackhole { 1.0 } else { 0.5 };
    let run = Duration::from_secs((symptoms as f64 / per_second) as u64 + 20);
    sim.run_for(run);
    Scenario {
        kind: if blackhole {
            ScenarioKind::Blackhole
        } else {
            ScenarioKind::SelectiveForwarding
        },
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::from(ShortAddr(2))],
        victim: None,
    }
}

fn build_replication(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let mut sim = Simulator::new(seed);
    install_faults(&mut sim, options);
    let sink = sim.add_node(NodeSpec::new("sink").with_position(0.0, 0.0));
    sim.set_behavior(sink, CtpSinkBehavior::new(ShortAddr(1)));
    let legit_positions = [(4.0, 0.0), (0.0, 4.0), (-4.0, 0.0)];
    let mut legit_nodes = Vec::new();
    for (i, (x, y)) in legit_positions.iter().enumerate() {
        let addr = ShortAddr(2 + i as u16);
        let node = sim.add_node(NodeSpec::new(format!("mote-{}", 2 + i)).with_position(*x, *y));
        sim.set_behavior(node, CtpSensorBehavior::leaf(addr, ShortAddr(1)));
        legit_nodes.push(node);
    }
    // Three replicas of the legitimate motes, placed across the area
    // (paper §VI-B2: "3 replication attacks ... replicas of legitimate
    // nodes in the network").
    let replica_positions = [(12.0, 12.0), (-12.0, 11.0), (11.0, -12.0)];
    for (i, (x, y)) in replica_positions.iter().enumerate() {
        let cloned = ShortAddr(2 + i as u16);
        let node =
            sim.add_node(NodeSpec::new(format!("replica-of-{}", 2 + i)).with_position(*x, *y));
        sim.set_behavior(
            node,
            ReplicaNode::new(cloned, ShortAddr(1), truth.clone())
                .with_period(Duration::from_millis(1500)),
        );
    }
    let tap = sim.add_tap("kalis0", Position::new(2.0, 2.0), &[Medium::Ieee802154]);
    // The network "randomly changes between a static and mobile behavior
    // over time": alternate 40 s phases, starting phase chosen by seed.
    let phase = Duration::from_secs(40);
    let phases = (symptoms as u64 * 3 / 2 / 40).max(2); // enough phases for the budget
    let mut mobile = seed % 2 == 0;
    for _ in 0..phases {
        for &node in &legit_nodes {
            let model = if mobile {
                MobilityModel::RandomWaypoint {
                    speed: 3.0,
                    min: (-6.0, -6.0),
                    max: (6.0, 6.0),
                }
            } else {
                MobilityModel::Static
            };
            sim.set_mobility(node, model);
        }
        sim.run_for(phase);
        mobile = !mobile;
    }
    Scenario {
        kind: ScenarioKind::Replication,
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: (2..5).map(|i| Entity::from(ShortAddr(i))).collect(),
        victim: None,
    }
}

fn build_sybil(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let mut sim = Simulator::new(seed);
    install_faults(&mut sim, options);
    let sink = sim.add_node(NodeSpec::new("sink").with_position(0.0, 0.0));
    sim.set_behavior(sink, CtpSinkBehavior::new(ShortAddr(1)));
    for (i, (x, y)) in [(6.0, 0.0), (0.0, 6.0)].iter().enumerate() {
        let addr = ShortAddr(2 + i as u16);
        let node = sim.add_node(NodeSpec::new(format!("mote-{}", 2 + i)).with_position(*x, *y));
        sim.set_behavior(node, CtpSensorBehavior::leaf(addr, ShortAddr(1)));
    }
    let attacker = sim.add_node(NodeSpec::new("sybil").with_position(-8.0, -4.0));
    let identities: Vec<ShortAddr> = (20..25).map(ShortAddr).collect();
    sim.set_behavior(
        attacker,
        SybilAttacker::new(identities.clone(), ShortAddr(1), truth.clone())
            .with_rounds(symptoms, Duration::from_secs(5)),
    );
    let tap = sim.add_tap("kalis0", Position::new(1.0, 1.0), &[Medium::Ieee802154]);
    sim.run_for(
        Duration::from_secs(5) + Duration::from_secs(5) * symptoms + Duration::from_secs(10),
    );
    Scenario {
        kind: ScenarioKind::Sybil,
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: identities.into_iter().map(Entity::from).collect(),
        victim: None,
    }
}

fn build_sinkhole(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let Wsn { mut sim, tap, .. } = build_wsn(seed, None, options);
    let attacker = sim.add_node(NodeSpec::new("sinkhole").with_position(8.0, 4.0));
    sim.set_behavior(
        attacker,
        SinkholeAttacker::new(ShortAddr(9), truth.clone())
            .with_bursts(symptoms, Duration::from_secs(5)),
    );
    sim.run_for(
        Duration::from_secs(8) + Duration::from_secs(5) * symptoms + Duration::from_secs(10),
    );
    Scenario {
        kind: ScenarioKind::Sinkhole,
        captures: tap.drain(),
        captures_b: None,
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::from(ShortAddr(9))],
        victim: None,
    }
}

fn build_wormhole(seed: u64, symptoms: u32, options: &BuildOptions) -> Scenario {
    let truth = TruthLog::new();
    let tunnel = WormholeTunnel::new();
    let mut sim = Simulator::new(seed);
    install_faults(&mut sim, options);
    // Region A: two leaves route through B1 towards sink 1.
    let sink_a = sim.add_node(NodeSpec::new("sink-a").with_position(-10.0, 0.0));
    sim.set_behavior(sink_a, CtpSinkBehavior::new(ShortAddr(1)));
    let b1 = sim.add_node(NodeSpec::new("b1").with_position(0.0, 0.0));
    sim.set_behavior(
        b1,
        WormholeEndpointA::new(ShortAddr(2), tunnel.clone(), truth.clone()),
    );
    for (i, (x, y)) in [(10.0, 0.0), (8.0, 6.0)].iter().enumerate() {
        let addr = ShortAddr(3 + i as u16);
        let node = sim.add_node(NodeSpec::new(format!("leaf-a{i}")).with_position(*x, *y));
        sim.set_behavior(node, CtpSensorBehavior::leaf(addr, ShortAddr(2)));
    }
    // Region B, 500 m away: B2 re-injects towards sink 21; one honest
    // local leaf 22 provides baseline.
    let sink_b = sim.add_node(NodeSpec::new("sink-b").with_position(510.0, 0.0));
    sim.set_behavior(sink_b, CtpSinkBehavior::new(ShortAddr(21)));
    let b2 = sim.add_node(NodeSpec::new("b2").with_position(500.0, 0.0));
    sim.set_behavior(
        b2,
        WormholeEndpointB::new(ShortAddr(20), ShortAddr(21), tunnel.clone()),
    );
    let leaf_b = sim.add_node(NodeSpec::new("leaf-b").with_position(505.0, 6.0));
    sim.set_behavior(
        leaf_b,
        CtpSensorBehavior::leaf(ShortAddr(22), ShortAddr(21)),
    );
    let tap_a = sim.add_tap("kalis-a", Position::new(2.0, 2.0), &[Medium::Ieee802154]);
    let tap_b = sim.add_tap("kalis-b", Position::new(503.0, 2.0), &[Medium::Ieee802154]);
    // Absorption rate ≈ 0.66 frames/s across the two leaves.
    let run = Duration::from_secs((symptoms as f64 / 0.6) as u64 + 20);
    sim.run_for(run);
    Scenario {
        kind: ScenarioKind::Wormhole,
        captures: tap_a.drain(),
        captures_b: Some(tap_b.drain()),
        truth: truth.instances(),
        fault_stats: sim.fault_stats(),
        link_fault_stats: sim.link_fault_stats(),
        attackers: vec![Entity::from(ShortAddr(2)), Entity::from(ShortAddr(20))],
        victim: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalis_packets::TrafficClass;

    #[test]
    fn icmp_flood_scenario_has_baseline_and_attack_traffic() {
        let scenario = Scenario::build(ScenarioKind::IcmpFlood, 1, 3);
        assert_eq!(scenario.truth.len(), 3);
        let classes: Vec<TrafficClass> = scenario
            .captures
            .iter()
            .map(|c| c.traffic_class())
            .collect();
        let replies = classes
            .iter()
            .filter(|c| **c == TrafficClass::IcmpEchoReply)
            .count();
        assert!(replies >= 120, "attack replies present: {replies}");
        assert!(
            classes.contains(&TrafficClass::TcpSyn),
            "device baseline present"
        );
        assert!(
            classes.contains(&TrafficClass::IcmpEchoRequest),
            "ping baseline present"
        );
    }

    #[test]
    fn forwarding_scenarios_record_drops() {
        let scenario = Scenario::build(ScenarioKind::SelectiveForwarding, 2, 10);
        assert!(scenario.truth.len() >= 10);
        let blackhole = Scenario::build(ScenarioKind::Blackhole, 2, 10);
        assert!(blackhole.truth.len() >= 10);
    }

    #[test]
    fn wormhole_scenario_has_two_vantage_points() {
        let scenario = Scenario::build(ScenarioKind::Wormhole, 3, 10);
        assert!(scenario.captures_b.is_some());
        assert!(!scenario.captures.is_empty());
        assert!(!scenario.captures_b.as_ref().unwrap().is_empty());
        assert!(scenario.truth.len() >= 8);
    }

    #[test]
    fn scenarios_are_seed_deterministic() {
        let a = Scenario::build(ScenarioKind::Smurf, 5, 2);
        let b = Scenario::build(ScenarioKind::Smurf, 5, 2);
        assert_eq!(a.captures.len(), b.captures.len());
        assert_eq!(a.truth.len(), b.truth.len());
    }

    #[test]
    fn ip_visibility_splits_the_set() {
        assert!(ScenarioKind::IcmpFlood.ip_visible());
        assert!(!ScenarioKind::Replication.ip_visible());
        assert!(!ScenarioKind::Wormhole.ip_visible());
    }
}
