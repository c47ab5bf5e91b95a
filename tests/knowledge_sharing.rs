//! The §VI-D knowledge-sharing experiment: only the collaborating pair of
//! Kalis nodes can classify the wormhole.

use kalis_bench::experiments::run_knowledge_sharing;
use kalis_bench::runner::{run_nodes, Link};
use kalis_bench::scenarios::{Scenario, ScenarioKind};
use kalis_core::config::Config;
use kalis_core::knowledge::{SyncMessage, XorChannel};
use kalis_core::{AttackKind, Kalis, KalisId, KnowValue, Knowgget};

#[test]
fn collaboration_identifies_the_wormhole() {
    let result = run_knowledge_sharing(42, 25);
    assert!(result.wormhole_identified);
    assert!(
        !result.isolated_kinds.contains(&AttackKind::Wormhole),
        "isolated nodes must see only the local half (got {:?})",
        result.isolated_kinds
    );
    assert!(
        result.isolated_kinds.contains(&AttackKind::Blackhole),
        "the node watching B1 sees a blackhole"
    );
    assert!(result.score.detection_rate() > 0.6);
}

/// The acceptance criterion of the tracing layer: a collaborative
/// wormhole alert's provenance must span both vantage points — the local
/// blackhole evidence plus the remote traffic-source knowgget, stamped
/// with the originating node and its trace id.
#[test]
fn wormhole_provenance_spans_both_nodes() {
    let scenario = Scenario::build(ScenarioKind::Wormhole, 42, 25);
    let traced: Config = "knowggets = { Trace.SampleRate = 1 }".parse().unwrap();
    let mut nodes = ["K1", "K2"].map(|id| {
        Kalis::builder(KalisId::new(id))
            .with_config(traced.clone())
            .with_default_modules()
            .build()
    });
    run_nodes(&mut nodes, &scenario.vantages(), &mut Link::default());

    let (node, index, alert) = nodes
        .iter()
        .find_map(|node| {
            node.alerts()
                .iter()
                .enumerate()
                .find(|(_, alert)| alert.attack == AttackKind::Wormhole)
                .map(|(i, alert)| (node, i, alert))
        })
        .expect("the collaborating pair classifies the wormhole");

    assert_ne!(alert.trace_id, 0, "wormhole alert must carry its trace");
    let provenance = node
        .explain_alert(index)
        .expect("every alert has a provenance record");
    assert_eq!(provenance.attack, AttackKind::Wormhole.label());
    assert_eq!(provenance.trace.trace_id, alert.trace_id);

    let nodes = provenance.nodes();
    assert!(
        nodes.contains(&"K1".to_owned()) && nodes.contains(&"K2".to_owned()),
        "provenance must span both vantage points (got {nodes:?})"
    );
    let remote: Vec<_> = provenance.remote_evidence().collect();
    assert!(
        !remote.is_empty(),
        "the wormhole verdict rests on remote evidence"
    );
    let raising = node.id().to_string();
    for evidence in &remote {
        assert_ne!(
            evidence.origin.node, raising,
            "remote evidence must name the other node"
        );
        assert_ne!(
            evidence.origin.trace_id, 0,
            "remote evidence must carry the originating trace id"
        );
    }
}

#[test]
fn sync_messages_survive_the_sealed_channel() {
    let channel = XorChannel::new(0x1234);
    let msg = SyncMessage::new(
        KalisId::new("K1"),
        vec![Knowgget::new(
            "Mobile",
            KnowValue::Bool(true),
            KalisId::new("K1"),
        )],
    );
    let opened = SyncMessage::open(&msg.seal(&channel), &channel).unwrap();
    assert_eq!(opened, msg);
}

#[test]
fn hostile_sync_cannot_poison_a_node() {
    let mut kalis = Kalis::builder(KalisId::new("K2"))
        .with_default_modules()
        .build();
    // An attacker replays a message claiming to be K1 but carrying
    // knowggets created by K9 — the ownership rule rejects it.
    let forged = SyncMessage::new(
        KalisId::new("K1"),
        vec![Knowgget::new(
            "Multihop",
            KnowValue::Bool(true),
            KalisId::new("K9"),
        )],
    );
    assert!(kalis.accept_sync(forged).is_err());
    assert_eq!(kalis.knowledge().get_all_creators("Multihop").len(), 0);
}
