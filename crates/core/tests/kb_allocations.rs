//! The Knowledge Base's read path and its unchanged-write path allocate
//! nothing: counted with a global allocator that exists in the
//! allocation-pin test binaries only (`counting_alloc/mod.rs`).

mod counting_alloc;

use kalis_core::{KalisId, KnowValue, Knowgget, KnowledgeBase};
use kalis_packets::Entity;
use kalis_telemetry::Telemetry;

use counting_alloc::allocations;

#[test]
fn reads_and_unchanged_writes_do_not_allocate() {
    let mut kb = KnowledgeBase::new(KalisId::new("K1"));
    // As a node runs it: operation counters attached.
    kb.set_telemetry(&Telemetry::new());
    kb.set_writer("TopologyDiscoveryModule");
    kb.set_trace(7, 1);
    let sensor = Entity::new("SensorA");
    let stranger = Entity::new("10.0.0.99");
    kb.insert("Multihop", true);
    kb.insert("MonitoredNodes", 8i64);
    kb.insert("TrafficFrequency.TCPSYN", 0.037);
    kb.insert_collective("Mobile", false);
    kb.insert_about("SignalStrength", sensor.clone(), -67.5);
    kb.insert_about_collective("Suspicious", sensor.clone(), true);
    let k2 = KalisId::new("K2");
    kb.accept_remote(
        &k2,
        Knowgget::about(
            "SignalStrength",
            KnowValue::Float(-84.0),
            k2.clone(),
            sensor.clone(),
        ),
    )
    .expect("K2 writes its own knowgget");

    // Hits returning a bool, an integer and a float; then misses.
    assert_eq!(allocations(|| kb.get("Multihop")), 0);
    assert_eq!(allocations(|| kb.get("MonitoredNodes")), 0);
    assert_eq!(allocations(|| kb.get("TrafficFrequency.TCPSYN")), 0);
    assert_eq!(allocations(|| kb.get_about("SignalStrength", &sensor)), 0);
    assert_eq!(allocations(|| kb.get_about("Suspicious", &sensor)), 0);
    assert_eq!(allocations(|| kb.get_bool("Multihop")), 0);
    assert_eq!(allocations(|| kb.get_int("MonitoredNodes")), 0);
    assert_eq!(allocations(|| kb.get_f64("TrafficFrequency.TCPSYN")), 0);
    assert_eq!(allocations(|| kb.get("ProtocolSeen.RPL")), 0);
    assert_eq!(allocations(|| kb.get_about("SignalStrength", &stranger)), 0);
    assert_eq!(allocations(|| kb.get_bool("ProtocolSeen.RPL")), 0);

    // The collective query on a label nobody holds.
    assert!(kb.get_all_creators("DroppedOrigins").is_empty());
    assert_eq!(allocations(|| kb.get_all_creators("DroppedOrigins")), 0);

    // Writes of the value already held, every flavour; the entity is the
    // caller's to build, so it is built outside the count.
    assert_eq!(allocations(|| kb.insert("Multihop", true)), 0);
    assert_eq!(allocations(|| kb.insert("MonitoredNodes", 8i64)), 0);
    // The same wire form through another type changes nothing either.
    assert_eq!(allocations(|| kb.insert("MonitoredNodes", 8.0)), 0);
    assert_eq!(
        allocations(|| kb.insert("TrafficFrequency.TCPSYN", 0.037)),
        0
    );
    assert_eq!(allocations(|| kb.insert_collective("Mobile", false)), 0);
    let about = sensor.clone();
    assert_eq!(
        allocations(|| kb.insert_about("SignalStrength", about, -67.5)),
        0
    );
    let about = sensor.clone();
    assert_eq!(
        allocations(|| kb.insert_about_collective("Suspicious", about, true)),
        0
    );
    assert_eq!(allocations(|| kb.remove("NeverWritten")), 0);

    // None of it was a change.
    let revision = kb.revision();
    kb.insert("Multihop", true);
    assert_eq!(kb.revision(), revision);

    // The counter does count: a changed write allocates.
    assert!(allocations(|| kb.insert("Multihop", false)) > 0);
}
