//! WSN monitoring: the paper's six-mote TelosB network running CTP, with a
//! selective-forwarding attacker at the intermediate hop. Kalis starts with
//! an *empty* configuration (the §VI-C reactivity setting), autonomously
//! discovers the multi-hop topology, activates the watchdog modules, and
//! catches the attack.
//!
//! Run with: `cargo run --example wsn_monitoring`

use kalis_attacks::{SelectiveForwardPolicy, TruthLog};
use kalis_bench::runner;
use kalis_bench::scoring;
use kalis_core::config::Config;
use kalis_core::{Kalis, KalisId};
use kalis_netsim::behaviors::{CtpForwarderBehavior, CtpSensorBehavior, CtpSinkBehavior};
use kalis_netsim::prelude::*;
use std::time::Duration;

fn main() {
    let truth = TruthLog::new();
    let mut sim = Simulator::new(11);
    // Collection tree: 3,4,6 → 2 → 1; 5 → 1.
    let sink = sim.add_node(NodeSpec::new("sink").with_short_addr(ShortAddr(1)));
    sim.set_behavior(sink, CtpSinkBehavior::new(ShortAddr(1)));
    let fwd = sim.add_node(
        NodeSpec::new("forwarder")
            .with_position(10.0, 0.0)
            .with_short_addr(ShortAddr(2)),
    );
    sim.set_behavior(
        fwd,
        CtpForwarderBehavior::with_policy(
            ShortAddr(2),
            ShortAddr(1),
            SelectiveForwardPolicy::new(ShortAddr(2), 0.5, truth.clone()),
        ),
    );
    for (addr, x, y, parent) in [
        (3u16, 20.0, 0.0, 2u16),
        (4, 18.0, 6.0, 2),
        (5, 5.0, 5.0, 1),
        (6, 12.0, -6.0, 2),
    ] {
        let node = sim.add_node(
            NodeSpec::new(format!("mote-{addr}"))
                .with_position(x, y)
                .with_short_addr(ShortAddr(addr)),
        );
        sim.set_behavior(
            node,
            CtpSensorBehavior::leaf(ShortAddr(addr), ShortAddr(parent)),
        );
    }
    let tap = sim.add_tap("154-0", Position::new(10.0, 2.0), &[Medium::Ieee802154]);
    sim.run_for(Duration::from_secs(60));

    // Kalis with an empty config: no modules pinned, no a-priori knowledge.
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_config(Config::empty())
        .with_default_modules()
        .build();
    println!(
        "modules active before traffic: {:?}",
        kalis.active_modules()
    );
    let captures = tap.drain();
    let nodes = std::slice::from_mut(&mut kalis);
    runner::run_nodes(nodes, &[&captures]);
    let outcome = runner::outcome(nodes);
    println!(
        "modules active after discovery: {:?}",
        kalis.active_modules()
    );
    println!(
        "learned: Multihop={:?} MonitoredNodes={:?} CtpRoot={:?}",
        kalis.knowledge().get_bool("Multihop"),
        kalis.knowledge().get_int("MonitoredNodes"),
        kalis.knowledge().get_text("CtpRoot"),
    );
    let score = scoring::score(&truth.instances(), &outcome.detections);
    println!(
        "symptoms={} detected={} detection-rate={:.0}%",
        score.instances,
        score.detected,
        score.detection_rate() * 100.0
    );
    for d in &outcome.detections {
        println!(
            "  {} {} suspects={:?}",
            d.time,
            d.attack.label(),
            d.suspects
        );
    }
    assert!(score.detection_rate() > 0.9);
}
