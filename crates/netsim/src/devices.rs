//! Synthetic profiles for the paper's testbed devices.
//!
//! The paper records traces from a Nest Thermostat, an August SmartLock, a
//! Lifx bulb, an Arlo camera, and an Amazon Dash Button. We cannot record
//! those devices here, so each profile generates the corresponding traffic
//! *shape* instead: heartbeat cadence, transport protocol, and payload
//! size. The IDS never inspects payload contents (the paper treats them as
//! encrypted/opaque), so shape-equivalence is behaviour-equivalence from
//! the detector's point of view.

use std::net::Ipv4Addr;
use std::time::Duration;

use kalis_packets::MacAddr;

use crate::behavior::Behavior;
use crate::behaviors::WifiStationBehavior;
use crate::node::NodeSpec;
use crate::radio::RadioConfig;

/// A commodity IoT device profile from the paper's experimental setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DeviceProfile {
    /// Nest Thermostat: periodic TLS-like heartbeats, moderate payloads.
    NestThermostat,
    /// August SmartLock: infrequent event bursts, small payloads.
    AugustSmartLock,
    /// Lifx bulb: frequent small UDP state updates.
    LifxBulb,
    /// Arlo camera: high-rate stream of large payloads.
    ArloCamera,
    /// Amazon Dash Button: rare one-shot bursts.
    DashButton,
}

impl DeviceProfile {
    /// All profiles, in a stable order.
    pub fn all() -> &'static [DeviceProfile] {
        &[
            DeviceProfile::NestThermostat,
            DeviceProfile::AugustSmartLock,
            DeviceProfile::LifxBulb,
            DeviceProfile::ArloCamera,
            DeviceProfile::DashButton,
        ]
    }

    /// A human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceProfile::NestThermostat => "nest-thermostat",
            DeviceProfile::AugustSmartLock => "august-smartlock",
            DeviceProfile::LifxBulb => "lifx-bulb",
            DeviceProfile::ArloCamera => "arlo-camera",
            DeviceProfile::DashButton => "dash-button",
        }
    }

    /// Heartbeat period of the synthetic traffic.
    pub fn period(self) -> Duration {
        match self {
            DeviceProfile::NestThermostat => Duration::from_secs(10),
            DeviceProfile::AugustSmartLock => Duration::from_secs(30),
            DeviceProfile::LifxBulb => Duration::from_secs(2),
            DeviceProfile::ArloCamera => Duration::from_millis(500),
            DeviceProfile::DashButton => Duration::from_secs(120),
        }
    }

    /// Payload size of one heartbeat.
    pub fn payload_len(self) -> usize {
        match self {
            DeviceProfile::NestThermostat => 256,
            DeviceProfile::AugustSmartLock => 64,
            DeviceProfile::LifxBulb => 32,
            DeviceProfile::ArloCamera => 1200,
            DeviceProfile::DashButton => 128,
        }
    }

    /// Whether the device talks UDP (vs TCP).
    pub(crate) fn uses_udp(self) -> bool {
        matches!(self, DeviceProfile::LifxBulb)
    }

    /// Build the node spec for this device.
    pub fn node_spec(self, name: &str, x: f64, y: f64, ip: Ipv4Addr, mac: MacAddr) -> NodeSpec {
        NodeSpec::new(name)
            .with_position(x, y)
            .with_radio(RadioConfig::wifi())
            .with_ip(ip)
            .with_mac(mac)
    }

    /// Build the traffic behavior for this device.
    pub fn behavior(
        self,
        mac: MacAddr,
        ip: Ipv4Addr,
        gateway_mac: MacAddr,
        cloud_ip: Ipv4Addr,
    ) -> Box<dyn Behavior> {
        let station = WifiStationBehavior::new(
            mac,
            ip,
            gateway_mac,
            gateway_mac,
            cloud_ip,
            self.period(),
            self.payload_len(),
        );
        if self.uses_udp() {
            Box::new(station.udp())
        } else {
            Box::new(station)
        }
    }
}

impl core::fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behaviors::TcpServerBehavior;
    use crate::sim::Simulator;
    use crate::Position;
    use kalis_packets::{Medium, TrafficClass};

    #[test]
    fn profiles_have_distinct_names_and_sane_params() {
        let mut names: Vec<_> = DeviceProfile::all().iter().map(|p| p.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        for p in DeviceProfile::all() {
            assert!(p.period() > Duration::ZERO);
            assert!(p.payload_len() > 0);
        }
    }

    #[test]
    fn camera_outpaces_lock() {
        assert!(DeviceProfile::ArloCamera.period() < DeviceProfile::AugustSmartLock.period());
    }

    #[test]
    fn all_profiles_generate_traffic_in_sim() {
        let mut sim = Simulator::new(11);
        let gw_mac = MacAddr::from_index(0);
        let cloud_ip = Ipv4Addr::new(52, 10, 0, 1);
        let router = sim.add_node(NodeSpec::new("router").with_radio(RadioConfig::wifi()));
        sim.set_behavior(
            router,
            TcpServerBehavior::new(gw_mac, gw_mac, vec![cloud_ip]),
        );
        for (i, profile) in DeviceProfile::all().iter().enumerate() {
            let mac = MacAddr::from_index(i as u32 + 1);
            let ip = Ipv4Addr::new(10, 0, 0, i as u8 + 2);
            let node =
                sim.add_node(profile.node_spec(profile.name(), 2.0 + i as f64, 0.0, ip, mac));
            sim.set_behavior(node, profile.behavior(mac, ip, gw_mac, cloud_ip));
        }
        let tap = sim.add_tap("w", Position::new(3.0, 1.0), &[Medium::Wifi]);
        sim.run_for(Duration::from_secs(130));
        let captured = tap.drain();
        assert!(captured.len() > 100);
        let udp = captured
            .iter()
            .filter(|c| c.traffic_class() == TrafficClass::Udp)
            .count();
        let tcp_syn = captured
            .iter()
            .filter(|c| c.traffic_class() == TrafficClass::TcpSyn)
            .count();
        assert!(udp > 0, "Lifx profile produces UDP");
        assert!(tcp_syn > 0, "TCP profiles produce SYNs");
    }
}
