//! The §VI-D knowledge-sharing experiment: two Kalis nodes watch two
//! ZigBee network regions; colluders B1/B2 tunnel traffic between them.
//! Alone, node A sees a blackhole and node B sees a mysterious traffic
//! source; exchanging collective knowggets over the encrypted channel,
//! they classify the wormhole.
//!
//! Run with: `cargo run --example collaborative_wormhole`
//!
//! Pass `--trace-out DIR` to re-run the collaborative pair with 100%
//! causal-trace sampling and export each node's trace buffer
//! (`k1.trace.json`, `k2.trace.json` — feed them to `kalis-trace`) plus
//! the wormhole alert's provenance record (`wormhole.provenance.json`,
//! render it with `kalis-trace --explain`).

use kalis_bench::experiments;
use kalis_bench::runner::{run_nodes, Link};
use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_core::{AttackKind, Kalis, KalisId};
use kalis_telemetry::SampleRate;

fn main() {
    let trace_out = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.as_slice() {
            [] => None,
            [flag, dir] if flag == "--trace-out" => Some(dir.clone()),
            _ => {
                eprintln!("usage: collaborative_wormhole [--trace-out DIR]");
                std::process::exit(2);
            }
        }
    };

    let result = experiments::run_knowledge_sharing(42, 30);
    println!(
        "isolated verdicts     : {:?}",
        result
            .isolated_kinds
            .iter()
            .map(|k| k.label())
            .collect::<Vec<_>>()
    );
    println!(
        "collaborative verdicts: {:?}",
        result
            .collaborative_kinds
            .iter()
            .map(|k| k.label())
            .collect::<Vec<_>>()
    );
    println!("wormhole identified   : {}", result.wormhole_identified);
    println!(
        "detection rate        : {:.0}%",
        result.score.detection_rate() * 100.0
    );
    assert!(
        result.wormhole_identified,
        "collaboration must find the wormhole"
    );
    assert!(
        !result
            .isolated_kinds
            .iter()
            .any(|k| k.label() == "wormhole"),
        "isolated nodes must not be able to identify the wormhole"
    );

    // Replay the collaborative run with full causal-trace sampling and
    // explain the wormhole verdict end to end.
    let scenario = Scenario::build(ScenarioKind::Wormhole, 42, 30);
    let mut nodes = ["K1", "K2"].map(|id| {
        Kalis::builder(KalisId::new(id))
            .with_default_modules()
            .with_trace_sampling(SampleRate::full())
            .build()
    });
    run_nodes(&mut nodes, &scenario.vantages(), &mut Link::default());
    let (node, index) = nodes
        .iter()
        .find_map(|node| {
            node.alerts()
                .iter()
                .position(|alert| alert.attack == AttackKind::Wormhole)
                .map(|i| (node, i))
        })
        .expect("the traced run classifies the wormhole too");
    let provenance = node.explain_alert(index).expect("provenance record");
    println!();
    println!("why the wormhole verdict (raised by {}):", node.id());
    print!("{}", provenance.render_tree());

    if let Some(dir) = trace_out {
        std::fs::create_dir_all(&dir).expect("create trace-out dir");
        let write = |name: &str, contents: String| {
            let path = format!("{dir}/{name}");
            std::fs::write(&path, contents).expect("write trace artifact");
            println!("wrote {path}");
        };
        write("k1.trace.json", nodes[0].tracer().to_json());
        write("k2.trace.json", nodes[1].tracer().to_json());
        write("wormhole.provenance.json", provenance.to_json());
    }
}
