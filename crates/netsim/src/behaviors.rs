//! Ready-made traffic behaviors: CTP motes, WiFi stations, ping traffic,
//! and a TCP responder. Attack injectors in `kalis-attacks` reuse these by
//! composition (e.g. a selective forwarder is a [`CtpForwarderBehavior`]
//! with a dropping [`ForwardPolicy`]).

use std::net::Ipv4Addr;
use std::time::Duration;

use kalis_packets::ctp::{CtpData, CtpFrame};
use kalis_packets::icmpv4::Icmpv4Type;
use kalis_packets::tcp::TcpSegment;
use kalis_packets::udp::UdpPacket;
use kalis_packets::{MacAddr, Medium, ShortAddr, Timestamp};
use rand::RngCore;

use crate::behavior::{Behavior, Ctx, ReceivedFrame};
use crate::craft;

const TIMER_SEND: u64 = 1;
const TIMER_BEACON: u64 = 2;

/// Decides whether a CTP forwarder relays a given data frame — the hook
/// that turns an honest forwarder into a selective-forwarding or blackhole
/// attacker.
pub trait ForwardPolicy: Send {
    /// Whether to relay this frame, observed at time `now`.
    fn should_forward(&mut self, now: Timestamp, frame: &CtpData, rng: &mut dyn RngCore) -> bool;
}

impl<P: ForwardPolicy + ?Sized> ForwardPolicy for Box<P> {
    fn should_forward(&mut self, now: Timestamp, frame: &CtpData, rng: &mut dyn RngCore) -> bool {
        (**self).should_forward(now, frame, rng)
    }
}

/// The honest policy: forward everything.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AlwaysForward;

impl ForwardPolicy for AlwaysForward {
    fn should_forward(
        &mut self,
        _now: Timestamp,
        _frame: &CtpData,
        _rng: &mut dyn RngCore,
    ) -> bool {
        true
    }
}

/// A WSN mote: periodically originates CTP data towards its parent, and
/// broadcasts routing beacons. Matches the paper's TinyOS application
/// ("a data message every 3 seconds towards a node acting as base
/// station").
#[derive(Debug)]
pub struct CtpSensorBehavior {
    addr: ShortAddr,
    parent: ShortAddr,
    period: Duration,
    beacon_period: Duration,
    etx: u16,
    mac_seq: u8,
    origin_seq: u8,
}

impl CtpSensorBehavior {
    /// A leaf mote sending every 3 seconds (the paper's period).
    pub fn leaf(addr: ShortAddr, parent: ShortAddr) -> Self {
        CtpSensorBehavior {
            addr,
            parent,
            period: Duration::from_secs(3),
            beacon_period: Duration::from_secs(10),
            etx: 20,
            mac_seq: 0,
            origin_seq: 0,
        }
    }

    /// Override the data period.
    pub fn with_period(mut self, period: Duration) -> Self {
        self.period = period;
        self
    }
}

impl Behavior for CtpSensorBehavior {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TIMER_SEND);
        // First beacon goes out quickly so observers can learn the
        // topology before data traffic starts; steady-state beaconing is
        // slower.
        ctx.set_timer(Duration::from_secs(1), TIMER_BEACON);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TIMER_SEND => {
                self.mac_seq = self.mac_seq.wrapping_add(1);
                self.origin_seq = self.origin_seq.wrapping_add(1);
                let reading = format!("r={}", self.origin_seq);
                let raw = craft::ctp_data(
                    self.addr,
                    self.parent,
                    self.mac_seq,
                    self.addr,
                    self.origin_seq,
                    0,
                    reading.as_bytes(),
                );
                ctx.transmit(Medium::Ieee802154, raw);
                ctx.set_timer(self.period, TIMER_SEND);
            }
            TIMER_BEACON => {
                self.mac_seq = self.mac_seq.wrapping_add(1);
                let raw = craft::ctp_beacon(self.addr, self.mac_seq, self.parent, self.etx);
                ctx.transmit(Medium::Ieee802154, raw);
                ctx.set_timer(self.beacon_period, TIMER_BEACON);
            }
            _ => {}
        }
    }
}

/// An intermediate collection-tree node: originates its own readings like
/// a sensor *and* relays CTP data addressed to it towards its parent,
/// subject to a [`ForwardPolicy`].
pub struct CtpForwarderBehavior {
    sensor: CtpSensorBehavior,
    policy: Box<dyn ForwardPolicy>,
    forwarded: u64,
    dropped: u64,
}

impl CtpForwarderBehavior {
    /// An honest forwarder.
    pub fn new(addr: ShortAddr, parent: ShortAddr) -> Self {
        Self::with_policy(addr, parent, AlwaysForward)
    }

    /// A forwarder with a custom relay policy.
    pub fn with_policy(
        addr: ShortAddr,
        parent: ShortAddr,
        policy: impl ForwardPolicy + 'static,
    ) -> Self {
        CtpForwarderBehavior {
            sensor: CtpSensorBehavior::leaf(addr, parent),
            policy: Box::new(policy),
            forwarded: 0,
            dropped: 0,
        }
    }

    /// A forwarder with an already-boxed relay policy.
    pub fn with_boxed_policy(
        addr: ShortAddr,
        parent: ShortAddr,
        policy: Box<dyn ForwardPolicy>,
    ) -> Self {
        CtpForwarderBehavior {
            sensor: CtpSensorBehavior::leaf(addr, parent),
            policy,
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Frames relayed so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Frames dropped by the policy so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl core::fmt::Debug for CtpForwarderBehavior {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CtpForwarderBehavior")
            .field("addr", &self.sensor.addr)
            .field("parent", &self.sensor.parent)
            .field("forwarded", &self.forwarded)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl Behavior for CtpForwarderBehavior {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sensor.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.sensor.on_timer(ctx, token);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &ReceivedFrame) {
        let Some(pkt) = frame.decoded() else { return };
        let Some(mac) = pkt.ieee802154() else { return };
        if mac.dst.short() != Some(self.sensor.addr) {
            return; // not addressed to us at the MAC layer
        }
        let Some(CtpFrame::Data(data)) = pkt.ctp() else {
            return;
        };
        let now = ctx.now();
        if self.policy.should_forward(now, data, ctx.rng()) {
            self.forwarded += 1;
            self.sensor.mac_seq = self.sensor.mac_seq.wrapping_add(1);
            let raw = craft::ctp_data(
                self.sensor.addr,
                self.sensor.parent,
                self.sensor.mac_seq,
                data.origin,
                data.origin_seq,
                data.thl.saturating_add(1),
                &data.payload,
            );
            ctx.transmit(Medium::Ieee802154, raw);
        } else {
            self.dropped += 1;
        }
    }
}

/// The collection-tree root (base station): counts what it receives.
#[derive(Debug)]
pub struct CtpSinkBehavior {
    addr: ShortAddr,
    received: u64,
    beacon_seq: u8,
}

impl CtpSinkBehavior {
    /// A sink with address `addr` advertising ETX 0 (it is the root).
    pub fn new(addr: ShortAddr) -> Self {
        CtpSinkBehavior {
            addr,
            received: 0,
            beacon_seq: 0,
        }
    }

    /// Data frames received so far.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Behavior for CtpSinkBehavior {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::from_secs(1), TIMER_BEACON);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_BEACON {
            self.beacon_seq = self.beacon_seq.wrapping_add(1);
            // The root advertises itself as its own parent at ETX 0.
            let raw = craft::ctp_beacon(self.addr, self.beacon_seq, self.addr, 0);
            ctx.transmit(Medium::Ieee802154, raw);
            ctx.set_timer(Duration::from_secs(10), TIMER_BEACON);
        }
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, frame: &ReceivedFrame) {
        if let Some(pkt) = frame.decoded() {
            if pkt.ieee802154().map(|m| m.dst.short()) == Some(Some(self.addr))
                && matches!(pkt.ctp(), Some(CtpFrame::Data(_)))
            {
                self.received += 1;
            }
        }
    }
}

/// A WiFi station generating periodic cloud "heartbeats": a TCP handshake
/// followed by a data push — the traffic shape of commodity IoT devices.
#[derive(Debug)]
pub(crate) struct WifiStationBehavior {
    mac: MacAddr,
    ip: Ipv4Addr,
    bssid: MacAddr,
    gateway_mac: MacAddr,
    server_ip: Ipv4Addr,
    period: Duration,
    payload_len: usize,
    use_udp: bool,
    wifi_seq: u16,
    tcp_seq: u32,
    src_port: u16,
}

impl WifiStationBehavior {
    /// A TCP heartbeat station.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mac: MacAddr,
        ip: Ipv4Addr,
        bssid: MacAddr,
        gateway_mac: MacAddr,
        server_ip: Ipv4Addr,
        period: Duration,
        payload_len: usize,
    ) -> Self {
        WifiStationBehavior {
            mac,
            ip,
            bssid,
            gateway_mac,
            server_ip,
            period,
            payload_len,
            use_udp: false,
            wifi_seq: 0,
            tcp_seq: 1000,
            src_port: 42000,
        }
    }

    /// Switch the heartbeat to UDP (e.g. a Lifx-style bulb).
    pub fn udp(mut self) -> Self {
        self.use_udp = true;
        self
    }

    fn next_seq(&mut self) -> u16 {
        self.wifi_seq = self.wifi_seq.wrapping_add(1);
        self.wifi_seq
    }
}

impl Behavior for WifiStationBehavior {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TIMER_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TIMER_SEND {
            return;
        }
        if self.use_udp {
            let dgram = UdpPacket::new(self.src_port, 56700, vec![0xab; self.payload_len]);
            let ip = craft::ipv4_udp(self.ip, self.server_ip, &dgram);
            let seq = self.next_seq();
            ctx.transmit(
                Medium::Wifi,
                craft::wifi_ipv4(self.mac, self.gateway_mac, self.bssid, seq, &ip),
            );
        } else {
            // Open a connection: the gateway's TCP responder answers with
            // SYN+ACK, and `on_frame` completes the handshake + push.
            self.tcp_seq = self.tcp_seq.wrapping_add(97);
            let syn = TcpSegment::syn(self.src_port, 443, self.tcp_seq);
            let ip = craft::ipv4_tcp(self.ip, self.server_ip, &syn);
            let seq = self.next_seq();
            ctx.transmit(
                Medium::Wifi,
                craft::wifi_ipv4(self.mac, self.gateway_mac, self.bssid, seq, &ip),
            );
        }
        ctx.set_timer(self.period, TIMER_SEND);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &ReceivedFrame) {
        let Some(pkt) = frame.decoded() else { return };
        // Complete our handshake when the server answers our SYN.
        let (Some(tcp), Some(dst)) = (pkt.tcp(), pkt.net_dst()) else {
            return;
        };
        if dst.as_str() != self.ip.to_string()
            || !tcp.flags.contains(kalis_packets::tcp::TcpFlags::SYN)
        {
            return;
        }
        let ack = TcpSegment::ack(
            self.src_port,
            443,
            self.tcp_seq + 1,
            tcp.seq.wrapping_add(1),
        );
        let ip = craft::ipv4_tcp(self.ip, self.server_ip, &ack);
        let seq = self.next_seq();
        ctx.transmit(
            Medium::Wifi,
            craft::wifi_ipv4(self.mac, self.gateway_mac, self.bssid, seq, &ip),
        );
        // Push the heartbeat payload.
        let mut push = TcpSegment::ack(
            self.src_port,
            443,
            self.tcp_seq + 1,
            tcp.seq.wrapping_add(1),
        );
        push.flags = kalis_packets::tcp::TcpFlags::PSH | kalis_packets::tcp::TcpFlags::ACK;
        push.payload = vec![0x42; self.payload_len].into();
        let ip = craft::ipv4_tcp(self.ip, self.server_ip, &push);
        let seq = self.next_seq();
        ctx.transmit(
            Medium::Wifi,
            craft::wifi_ipv4(self.mac, self.gateway_mac, self.bssid, seq, &ip),
        );
    }
}

/// A gateway-side TCP responder: answers SYNs addressed to the IPs it
/// fronts with SYN+ACK (the cloud side of heartbeat handshakes).
#[derive(Debug)]
pub struct TcpServerBehavior {
    mac: MacAddr,
    bssid: MacAddr,
    fronted: Vec<Ipv4Addr>,
    wifi_seq: u16,
    isn: u32,
}

impl TcpServerBehavior {
    /// A responder fronting `fronted` service IPs.
    pub fn new(mac: MacAddr, bssid: MacAddr, fronted: Vec<Ipv4Addr>) -> Self {
        TcpServerBehavior {
            mac,
            bssid,
            fronted,
            wifi_seq: 0,
            isn: 77000,
        }
    }
}

impl Behavior for TcpServerBehavior {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &ReceivedFrame) {
        let Some(pkt) = frame.decoded() else { return };
        let Some(tcp) = pkt.tcp() else { return };
        let Some(net) = pkt.net.as_ref() else { return };
        let kalis_packets::packet::NetworkLayer::Ipv4(ip) = net else {
            return;
        };
        if !self.fronted.contains(&ip.dst) {
            return;
        }
        if tcp.flags.is_pure_syn() {
            self.isn = self.isn.wrapping_add(104729);
            let synack = TcpSegment::syn_ack(tcp.dst_port, tcp.src_port, self.isn, tcp.seq);
            let reply = craft::ipv4_tcp(ip.dst, ip.src, &synack);
            self.wifi_seq = self.wifi_seq.wrapping_add(1);
            // Reply towards the station that sent the SYN.
            if let kalis_packets::packet::LinkLayer::Wifi(w) = &pkt.link {
                let raw = craft::wifi_ipv4(self.mac, w.src, self.bssid, self.wifi_seq, &reply);
                ctx.transmit(Medium::Wifi, raw);
            }
        }
    }
}

/// An IoT hub coordinating ZigBee subs (the paper's Fig. 1 hub-to-subs
/// pattern): periodically sends a command to each sub in turn.
#[derive(Debug)]
pub struct ZigbeeHubBehavior {
    addr: ShortAddr,
    subs: Vec<ShortAddr>,
    period: Duration,
    seq: u8,
    cursor: usize,
}

impl ZigbeeHubBehavior {
    /// A hub at `addr` commanding `subs` every `period`.
    pub fn new(addr: ShortAddr, subs: Vec<ShortAddr>, period: Duration) -> Self {
        ZigbeeHubBehavior {
            addr,
            subs,
            period,
            seq: 0,
            cursor: 0,
        }
    }
}

impl Behavior for ZigbeeHubBehavior {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TIMER_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TIMER_SEND || self.subs.is_empty() {
            return;
        }
        let sub = self.subs[self.cursor % self.subs.len()];
        self.cursor += 1;
        self.seq = self.seq.wrapping_add(1);
        let command = if self.seq % 2 == 0 {
            &b"on"[..]
        } else {
            &b"off"[..]
        };
        ctx.transmit(
            Medium::Ieee802154,
            craft::zigbee_data(self.addr, sub, self.seq, self.addr, sub, self.seq, command),
        );
        ctx.set_timer(self.period, TIMER_SEND);
    }
}

/// A ZigBee sub (e.g. a light bulb): acknowledges each command from its
/// hub with a status report.
#[derive(Debug)]
pub struct ZigbeeSubBehavior {
    addr: ShortAddr,
    hub: ShortAddr,
    seq: u8,
}

impl ZigbeeSubBehavior {
    /// A sub at `addr` paired with `hub`.
    pub fn new(addr: ShortAddr, hub: ShortAddr) -> Self {
        ZigbeeSubBehavior { addr, hub, seq: 0 }
    }
}

impl Behavior for ZigbeeSubBehavior {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &ReceivedFrame) {
        let Some(pkt) = frame.decoded() else { return };
        let Some(z) = pkt.zigbee() else { return };
        if z.dst != self.addr || z.src != self.hub {
            return;
        }
        self.seq = self.seq.wrapping_add(1);
        ctx.transmit(
            Medium::Ieee802154,
            craft::zigbee_data(
                self.addr, self.hub, self.seq, self.addr, self.hub, self.seq, b"ok",
            ),
        );
    }
}

/// Sends periodic ICMP echo requests to a target IP.
#[derive(Debug)]
pub struct PingBehavior {
    mac: MacAddr,
    ip: Ipv4Addr,
    bssid: MacAddr,
    gateway_mac: MacAddr,
    target: Ipv4Addr,
    period: Duration,
    id: u16,
    seq: u16,
    wifi_seq: u16,
}

impl PingBehavior {
    /// Ping `target` every `period`.
    pub fn new(
        mac: MacAddr,
        ip: Ipv4Addr,
        bssid: MacAddr,
        gateway_mac: MacAddr,
        target: Ipv4Addr,
        period: Duration,
    ) -> Self {
        PingBehavior {
            mac,
            ip,
            bssid,
            gateway_mac,
            target,
            period,
            id: 0x77,
            seq: 0,
            wifi_seq: 0,
        }
    }
}

impl Behavior for PingBehavior {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TIMER_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TIMER_SEND {
            return;
        }
        self.seq = self.seq.wrapping_add(1);
        self.wifi_seq = self.wifi_seq.wrapping_add(1);
        let ip = craft::ipv4_echo_request(self.ip, self.target, self.id, self.seq);
        ctx.transmit(
            Medium::Wifi,
            craft::wifi_ipv4(self.mac, self.gateway_mac, self.bssid, self.wifi_seq, &ip),
        );
        ctx.set_timer(self.period, TIMER_SEND);
    }
}

/// Replies to ICMP echo requests addressed to its IP.
#[derive(Debug)]
pub struct PingResponderBehavior {
    mac: MacAddr,
    ip: Ipv4Addr,
    bssid: MacAddr,
    wifi_seq: u16,
}

impl PingResponderBehavior {
    /// A responder owning `ip`.
    pub fn new(mac: MacAddr, ip: Ipv4Addr, bssid: MacAddr) -> Self {
        PingResponderBehavior {
            mac,
            ip,
            bssid,
            wifi_seq: 0,
        }
    }
}

impl Behavior for PingResponderBehavior {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &ReceivedFrame) {
        let Some(pkt) = frame.decoded() else { return };
        let Some(icmp) = pkt.icmpv4() else { return };
        if icmp.icmp_type() != Icmpv4Type::EchoRequest {
            return;
        }
        let Some(net) = pkt.net.as_ref() else { return };
        let kalis_packets::packet::NetworkLayer::Ipv4(iph) = net else {
            return;
        };
        if iph.dst != self.ip {
            return;
        }
        self.wifi_seq = self.wifi_seq.wrapping_add(1);
        let reply = craft::ipv4_echo_reply(
            self.ip,
            iph.src,
            icmp.echo_id().unwrap_or(0),
            icmp.echo_seq().unwrap_or(0),
        );
        ctx.transmit(
            Medium::Wifi,
            craft::wifi_ipv4(
                self.mac,
                MacAddr::BROADCAST,
                self.bssid,
                self.wifi_seq,
                &reply,
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use crate::sim::Simulator;
    use crate::Position;
    use kalis_packets::TrafficClass;

    #[test]
    fn sensor_emits_ctp_data_every_period() {
        let mut sim = Simulator::new(1);
        let mote = sim.add_node(NodeSpec::new("mote"));
        sim.set_behavior(mote, CtpSensorBehavior::leaf(ShortAddr(2), ShortAddr(1)));
        let tap = sim.add_tap("t", Position::new(1.0, 0.0), &[Medium::Ieee802154]);
        sim.run_for(Duration::from_secs(10));
        let data: Vec<_> = tap
            .drain()
            .into_iter()
            .filter(|c| c.traffic_class() == TrafficClass::CtpData)
            .collect();
        assert_eq!(data.len(), 3, "3s period over 10s → 3 messages");
    }

    #[test]
    fn forwarder_relays_with_incremented_thl() {
        let mut sim = Simulator::new(2);
        let leaf = sim.add_node(NodeSpec::new("leaf").with_position(0.0, 0.0));
        let fwd = sim.add_node(NodeSpec::new("fwd").with_position(10.0, 0.0));
        let sink = sim.add_node(NodeSpec::new("sink").with_position(20.0, 0.0));
        sim.set_behavior(leaf, CtpSensorBehavior::leaf(ShortAddr(3), ShortAddr(2)));
        sim.set_behavior(fwd, CtpForwarderBehavior::new(ShortAddr(2), ShortAddr(1)));
        sim.set_behavior(sink, CtpSinkBehavior::new(ShortAddr(1)));
        let tap = sim.add_tap("t", Position::new(10.0, 1.0), &[Medium::Ieee802154]);
        sim.run_for(Duration::from_secs(7));
        let frames = tap.drain();
        let forwarded: Vec<_> = frames
            .iter()
            .filter_map(|c| c.decoded())
            .filter_map(|p| match p.ctp() {
                Some(CtpFrame::Data(d)) if d.thl == 1 => Some(d.clone()),
                _ => None,
            })
            .collect();
        assert!(!forwarded.is_empty(), "forwarder must relay with thl=1");
        assert!(forwarded.iter().all(|d| d.origin == ShortAddr(3)));
    }

    #[test]
    fn wifi_station_completes_handshakes_with_server() {
        let mut sim = Simulator::new(3);
        let router_mac = MacAddr::from_index(0);
        let dev_mac = MacAddr::from_index(1);
        let server_ip = Ipv4Addr::new(52, 0, 0, 1);
        let station =
            sim.add_node(NodeSpec::new("nest").with_radio(crate::radio::RadioConfig::wifi()));
        let router = sim.add_node(
            NodeSpec::new("router")
                .with_position(5.0, 0.0)
                .with_radio(crate::radio::RadioConfig::wifi()),
        );
        sim.set_behavior(
            station,
            WifiStationBehavior::new(
                dev_mac,
                Ipv4Addr::new(10, 0, 0, 2),
                router_mac,
                router_mac,
                server_ip,
                Duration::from_secs(2),
                64,
            ),
        );
        sim.set_behavior(
            router,
            TcpServerBehavior::new(router_mac, router_mac, vec![server_ip]),
        );
        let tap = sim.add_tap("w", Position::new(2.0, 0.0), &[Medium::Wifi]);
        sim.run_for(Duration::from_secs(9));
        let classes: Vec<_> = tap.drain().iter().map(|c| c.traffic_class()).collect();
        let syns = classes
            .iter()
            .filter(|c| **c == TrafficClass::TcpSyn)
            .count();
        let synacks = classes
            .iter()
            .filter(|c| **c == TrafficClass::TcpSynAck)
            .count();
        let acks = classes
            .iter()
            .filter(|c| **c == TrafficClass::TcpAck)
            .count();
        assert!(syns >= 3, "expected ≥3 SYNs, saw {syns}");
        assert_eq!(syns, synacks, "every SYN answered");
        assert_eq!(syns, acks, "every handshake completed");
    }

    #[test]
    fn ping_pairs_generate_requests_and_replies() {
        let mut sim = Simulator::new(4);
        let a_ip = Ipv4Addr::new(10, 0, 0, 2);
        let b_ip = Ipv4Addr::new(10, 0, 0, 3);
        let bssid = MacAddr::from_index(0);
        let a = sim.add_node(NodeSpec::new("a").with_radio(crate::radio::RadioConfig::wifi()));
        let b = sim.add_node(
            NodeSpec::new("b")
                .with_position(4.0, 0.0)
                .with_radio(crate::radio::RadioConfig::wifi()),
        );
        sim.set_behavior(
            a,
            PingBehavior::new(
                MacAddr::from_index(1),
                a_ip,
                bssid,
                bssid,
                b_ip,
                Duration::from_secs(1),
            ),
        );
        sim.set_behavior(
            b,
            PingResponderBehavior::new(MacAddr::from_index(2), b_ip, bssid),
        );
        let tap = sim.add_tap("w", Position::new(2.0, 0.0), &[Medium::Wifi]);
        sim.run_for(Duration::from_secs(5));
        let classes: Vec<_> = tap.drain().iter().map(|c| c.traffic_class()).collect();
        let reqs = classes
            .iter()
            .filter(|c| **c == TrafficClass::IcmpEchoRequest)
            .count();
        let resps = classes
            .iter()
            .filter(|c| **c == TrafficClass::IcmpEchoReply)
            .count();
        assert!(reqs >= 4);
        // The final request may land right at the deadline, leaving its
        // reply unscheduled.
        assert!(
            resps >= reqs - 1 && resps <= reqs,
            "requests {reqs} vs replies {resps}"
        );
    }

    #[test]
    fn zigbee_hub_commands_and_subs_acknowledge() {
        let mut sim = Simulator::new(6);
        let hub = sim.add_node(NodeSpec::new("hub"));
        let bulb_a = sim.add_node(NodeSpec::new("bulb-a").with_position(5.0, 0.0));
        let bulb_b = sim.add_node(NodeSpec::new("bulb-b").with_position(0.0, 5.0));
        sim.set_behavior(
            hub,
            ZigbeeHubBehavior::new(
                ShortAddr(1),
                vec![ShortAddr(2), ShortAddr(3)],
                Duration::from_secs(1),
            ),
        );
        sim.set_behavior(bulb_a, ZigbeeSubBehavior::new(ShortAddr(2), ShortAddr(1)));
        sim.set_behavior(bulb_b, ZigbeeSubBehavior::new(ShortAddr(3), ShortAddr(1)));
        let tap = sim.add_tap("t", Position::new(1.0, 1.0), &[Medium::Ieee802154]);
        sim.run_for(Duration::from_secs(6));
        let frames = tap.drain();
        let data = frames
            .iter()
            .filter(|c| c.traffic_class() == TrafficClass::ZigbeeData)
            .count();
        // 5 commands + 5 acks (the 6th command may land on the deadline).
        assert!(data >= 10, "saw {data} ZigBee data frames");
        // Both subs answered.
        let mut repliers: Vec<_> = frames
            .iter()
            .filter_map(|c| c.decoded().and_then(|p| p.zigbee().map(|z| z.src)))
            .filter(|s| *s != ShortAddr(1))
            .collect();
        repliers.sort();
        repliers.dedup();
        assert_eq!(repliers, vec![ShortAddr(2), ShortAddr(3)]);
    }

    #[test]
    fn lossy_radio_degrades_but_does_not_break_traffic() {
        let mut sim = Simulator::new(7);
        let lossy = crate::radio::RadioConfig::default().with_loss(0.4);
        let mote = sim.add_node(NodeSpec::new("mote").with_radio(lossy));
        sim.set_behavior(mote, CtpSensorBehavior::leaf(ShortAddr(2), ShortAddr(1)));
        let tap = sim.add_tap("t", Position::new(1.0, 0.0), &[Medium::Ieee802154]);
        sim.run_for(Duration::from_secs(60));
        let heard = tap.drain().len();
        // 20 data + beacons sent; ~60% delivery.
        assert!(heard > 5 && heard < 26, "heard {heard}");
    }

    #[test]
    fn udp_station_emits_udp() {
        let mut sim = Simulator::new(5);
        let bulb =
            sim.add_node(NodeSpec::new("lifx").with_radio(crate::radio::RadioConfig::wifi()));
        sim.set_behavior(
            bulb,
            WifiStationBehavior::new(
                MacAddr::from_index(1),
                Ipv4Addr::new(10, 0, 0, 9),
                MacAddr::from_index(0),
                MacAddr::from_index(0),
                Ipv4Addr::new(52, 0, 0, 9),
                Duration::from_secs(1),
                16,
            )
            .udp(),
        );
        let tap = sim.add_tap("w", Position::new(1.0, 0.0), &[Medium::Wifi]);
        sim.run_for(Duration::from_secs(4));
        assert!(tap
            .drain()
            .iter()
            .all(|c| c.traffic_class() == TrafficClass::Udp));
    }
}
