//! The smart-firewall deployment (paper §V): Kalis on an OpenWRT-class
//! router filters suspicious inbound traffic from untrusted Internet
//! sources. A scanner sweeps the local devices; once the scan detector
//! fires, the source is revoked and its packets are dropped.
//!
//! Run with: `cargo run --example smart_firewall`

use std::net::Ipv4Addr;

use kalis_attacks::{ScanAttacker, TruthLog};
use kalis_core::firewall::{SmartFirewall, Verdict};
use kalis_core::{Kalis, KalisId};
use kalis_netsim::prelude::*;

fn main() {
    let mut sim = Simulator::new(9);
    let router = sim.add_node(NodeSpec::new("router"));
    let truth = TruthLog::new();
    let scanner_ip = Ipv4Addr::new(203, 0, 113, 66);
    let scanner = sim.add_node(NodeSpec::new("scanner").with_position(900.0, 0.0));
    sim.set_behavior(
        scanner,
        ScanAttacker::new(
            router,
            scanner_ip,
            vec![
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(10, 0, 0, 3),
                Ipv4Addr::new(10, 0, 0, 4),
            ],
            vec![22, 23, 80, 443, 8080],
            truth.clone(),
        )
        .with_sweeps(4),
    );
    let uplink = sim.add_wired_tap("eth0", router, &[]);
    sim.run_for(std::time::Duration::from_secs(90));

    let kalis = Kalis::builder(KalisId::new("router"))
        .with_default_modules()
        .build();
    let mut firewall = SmartFirewall::new(kalis);
    let mut dropped = 0u32;
    let mut forwarded = 0u32;
    for packet in uplink.drain() {
        match firewall.filter(packet) {
            Verdict::Forward => forwarded += 1,
            Verdict::Drop { reason } => {
                if dropped == 0 {
                    println!("first drop: {reason}");
                }
                dropped += 1;
            }
        }
    }
    println!("forwarded={forwarded} dropped={dropped}");
    println!("alerts:");
    for alert in firewall.kalis().alerts() {
        println!("  {alert}");
    }
    assert!(dropped > 0, "the scan must be filtered once detected");
}
