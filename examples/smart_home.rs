//! The paper's Fig. 1 home-automation scenario: a smart-lighting hub with
//! ZigBee bulbs, a thermostat, and cloud connectivity through a router —
//! monitored by one Kalis box that watches WiFi and 802.15.4 at once.
//!
//! Run with: `cargo run --example smart_home`

use std::net::Ipv4Addr;
use std::time::Duration;

use kalis_core::capture::{CommunicationSystem, ReplaySource};
use kalis_core::{Kalis, KalisId};
use kalis_netsim::behaviors::{TcpServerBehavior, ZigbeeHubBehavior, ZigbeeSubBehavior};
use kalis_netsim::devices::DeviceProfile;
use kalis_netsim::prelude::*;
use kalis_packets::MacAddr;

fn main() {
    let mut sim = Simulator::new(3);
    let router_mac = MacAddr::from_index(0);
    let cloud_ip = Ipv4Addr::new(52, 0, 0, 1);
    let router = sim.add_node(NodeSpec::new("router").with_radio(RadioConfig::wifi()));
    sim.set_behavior(
        router,
        TcpServerBehavior::new(router_mac, router_mac, vec![cloud_ip]),
    );

    // WiFi side: thermostat + camera heartbeating to their clouds.
    for (i, profile) in [DeviceProfile::NestThermostat, DeviceProfile::ArloCamera]
        .iter()
        .enumerate()
    {
        let mac = MacAddr::from_index(1 + i as u32);
        let ip = Ipv4Addr::new(10, 0, 0, 2 + i as u8);
        let node = sim.add_node(profile.node_spec(profile.name(), 4.0 + i as f64, 2.0, ip, mac));
        sim.set_behavior(node, profile.behavior(mac, ip, router_mac, cloud_ip));
    }

    // Hub-to-subs side: the lighting hub coordinates two bulbs over a
    // ZigBee link — "a powerful device coordinates several constrained
    // devices" (paper §II-A).
    let hub = sim.add_node(NodeSpec::new("lighting-hub").with_position(0.0, 5.0));
    sim.set_behavior(
        hub,
        ZigbeeHubBehavior::new(
            ShortAddr(1),
            vec![ShortAddr(2), ShortAddr(3)],
            std::time::Duration::from_secs(2),
        ),
    );
    for (i, pos) in [(6.0, 8.0), (-6.0, 8.0)].iter().enumerate() {
        let addr = ShortAddr(2 + i as u16);
        let bulb = sim.add_node(NodeSpec::new(format!("bulb-{i}")).with_position(pos.0, pos.1));
        sim.set_behavior(bulb, ZigbeeSubBehavior::new(addr, ShortAddr(1)));
    }

    // One Kalis box, two capture interfaces.
    let wifi_tap = sim.add_tap("wlan0", Position::new(1.0, 1.0), &[Medium::Wifi]);
    let pan_tap = sim.add_tap("154-0", Position::new(1.0, 1.0), &[Medium::Ieee802154]);
    sim.run_for(Duration::from_secs(60));

    let mut comms = CommunicationSystem::new();
    comms.add_source(ReplaySource::new("wlan0", wifi_tap.drain()));
    comms.add_source(ReplaySource::new("154-0", pan_tap.drain()));

    let mut kalis = Kalis::builder(KalisId::new("home"))
        .with_default_modules()
        .build();
    while let Some(packet) = comms.next_packet() {
        kalis.ingest(packet);
    }
    println!("mediums observed: {:?}", comms.mediums_seen());
    println!("knowledge learned:");
    for knowgget in kalis.knowledge().iter() {
        println!("  {knowgget}");
    }
    println!("active modules: {:?}", kalis.active_modules());
    println!(
        "alerts: {} (expected none in the benign home)",
        kalis.alerts().len()
    );
    assert!(kalis.knowledge().len() > 5);
}
