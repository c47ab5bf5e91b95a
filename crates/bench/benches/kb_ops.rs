//! Microbenchmarks for the Knowledge Base: insert, typed lookup, prefix
//! and suffix queries, and collective-sync acceptance (supports the
//! paper's claim that the knowgget key encoding "allows for fast
//! queries"). `get_hit`, `get_about_hit`, `insert_unchanged` and
//! `insert_changed` are the operations the benchmark's traced
//! `knowledge.get_ns` / `knowledge.insert_ns` time from outside;
//! `get_all_creators` is the wormhole detector's per-tick query.
//! `insert_new_entity_at_cap` and `insert_changed_held` are the two
//! writes a sprayed identity and a known one cost, on the Knowledge Base
//! of a built node: its Module Manager subscribed, telemetry attached,
//! nobody listening for change events. `sync_round_trip` is one
//! direction of a sync exchange carrying the two knowggets a wormhole
//! verdict correlates, both changed: `collective_outbox → seal → open →
//! accept_sync`, the two writes that dirtied them included.

use std::net::Ipv4Addr;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kalis_core::knowledge::{SyncMessage, XorChannel};
use kalis_core::{Kalis, KalisId, KnowValue, Knowgget, KnowledgeBase};
use kalis_packets::Entity;

fn populated(entries: usize) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new(KalisId::new("K1"));
    for i in 0..entries {
        kb.insert(format!("TrafficFrequency.CLASS{i}"), i as f64 * 0.001);
        kb.insert_about(
            "SignalStrength",
            Entity::new(format!("node-{i}")),
            -40.0 - i as f64,
        );
    }
    kb.drain_changes();
    kb
}

/// A default node whose Knowledge Base holds a signal strength about as
/// many sprayed addresses as its entity budget allows.
fn node_at_entity_cap() -> Kalis {
    let mut node = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    let kb = node.knowledge_mut();
    for i in 0..kb.entity_budget() as u32 {
        kb.insert_about("SignalStrength", sprayed(i), -60.0);
    }
    assert_eq!(kb.entity_occupancy(), kb.entity_budget());
    node
}

/// Sprayed address `i`, scrambled as the state-exhaustion attacker
/// scrambles its counter: new keys land all over the key space.
fn sprayed(i: u32) -> Entity {
    Entity::from(Ipv4Addr::from(
        0x6400_0000 | i.wrapping_mul(0x9e37_79b1) & 0x00ff_ffff,
    ))
}

fn bench_kb(c: &mut Criterion) {
    let mut group = c.benchmark_group("kb");
    group.bench_function("insert_update", |b| {
        let mut kb = populated(128);
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            kb.insert("Multihop", flip);
        });
    });
    group.bench_function("get_typed", |b| {
        let mut kb = populated(128);
        kb.insert("MonitoredNodes", 8i64);
        b.iter(|| black_box(kb.get_int("MonitoredNodes")));
    });
    group.bench_function("get_hit", |b| {
        let mut kb = populated(128);
        kb.insert("Multihop", true);
        b.iter(|| black_box(kb.get(black_box("Multihop"))));
    });
    group.bench_function("get_about_hit", |b| {
        let kb = populated(128);
        let entity = Entity::new("node-64");
        b.iter(|| black_box(kb.get_about("SignalStrength", black_box(&entity))));
    });
    group.bench_function("insert_unchanged", |b| {
        let mut kb = populated(128);
        kb.insert("TrafficFrequency.UDP", 0.037);
        b.iter(|| black_box(kb.insert("TrafficFrequency.UDP", black_box(0.037))));
    });
    group.bench_function("insert_changed", |b| {
        let mut kb = populated(128);
        let entity = Entity::new("node-64");
        let mut rssi = -40.0;
        b.iter(|| {
            rssi = if rssi < -80.0 { -40.0 } else { rssi - 0.5 };
            kb.insert_about("SignalStrength", entity.clone(), rssi);
            black_box(kb.drain_changes().len())
        });
    });
    group.bench_function("insert_new_entity_at_cap", |b| {
        let mut node = node_at_entity_cap();
        let kb = node.knowledge_mut();
        let mut next = kb.entity_budget() as u32;
        b.iter(|| {
            next += 1;
            black_box(kb.insert_about("SignalStrength", sprayed(next), -60.0))
        });
        assert_eq!(kb.entity_occupancy(), kb.entity_budget());
    });
    group.bench_function("insert_changed_held", |b| {
        let mut node = node_at_entity_cap();
        let kb = node.knowledge_mut();
        let held = sprayed(7);
        let mut rssi = -40.0;
        b.iter(|| {
            rssi = if rssi < -80.0 { -40.0 } else { rssi - 1.0 };
            black_box(kb.insert_about("SignalStrength", held.clone(), rssi))
        });
    });
    group.bench_function("get_all_creators", |b| {
        // ≈100 entries, two of them matches: one local, one a peer's.
        let mut kb = populated(49);
        let k2 = KalisId::new("K2");
        let origins = || KnowValue::Text("0x001e,0x001f".to_owned());
        kb.insert_about_collective("DroppedOrigins", Entity::new("0x000a"), origins());
        let peer = Knowgget::about(
            "DroppedOrigins",
            origins(),
            k2.clone(),
            Entity::new("0x0014"),
        );
        kb.accept_remote(&k2, peer).unwrap();
        assert_eq!(
            (kb.len(), kb.get_all_creators("DroppedOrigins").len()),
            (100, 2)
        );
        b.iter(|| black_box(kb.get_all_creators(black_box("DroppedOrigins")).len()));
    });
    group.bench_function("sublabels_prefix_query", |b| {
        let kb = populated(128);
        b.iter(|| black_box(kb.sublabels("TrafficFrequency").len()));
    });
    group.bench_function("entities_suffix_query", |b| {
        let kb = populated(128);
        b.iter(|| black_box(kb.entities_with("SignalStrength").len()));
    });
    group.bench_function("accept_remote", |b| {
        let mut kb = populated(32);
        let k2 = KalisId::new("K2");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let knowgget = Knowgget::new("Mobile", KnowValue::Int(i as i64), k2.clone());
            black_box(kb.accept_remote(&k2, knowgget).unwrap());
        });
    });
    group.bench_function("sync_round_trip", |b| {
        // Two default nodes; K1's dropped and exotic origin lists about
        // two forwarders move between rounds.
        let node = |id: &str| {
            Kalis::builder(KalisId::new(id))
                .with_default_modules()
                .build()
        };
        let (mut k1, mut k2) = (node("K1"), node("K2"));
        let channel = XorChannel::new(0x006b_616c_6973);
        let (near, far) = (Entity::new("0x0002"), Entity::new("0x0003"));
        let lists = [
            "0x001e,0x001f",
            "0x001e,0x0020",
            "0x001f,0x0020",
            "0x001e,0x001f,0x0020",
        ];
        let mut round = 0usize;
        b.iter(|| {
            round += 1;
            let kb = k1.knowledge_mut();
            kb.insert_about_collective("DroppedOrigins", near.clone(), lists[round % 4]);
            kb.insert_about_collective("ExoticOrigins", far.clone(), lists[(round + 1) % 4]);
            let message = k1.collective_outbox().expect("two knowggets moved");
            let sealed = message.seal(&channel);
            let opened = SyncMessage::open(&sealed, &channel).expect("authentic");
            black_box(k2.accept_sync(opened).expect("K1's own knowledge"))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_kb);
criterion_main!(benches);
