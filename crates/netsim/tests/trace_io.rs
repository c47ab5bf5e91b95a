//! Trace record/replay integration: record a live simulation to a trace
//! file, enhance it with attack symptoms (the paper's methodology), and
//! replay — the replayed stream must be byte-identical.

use std::io::{BufReader, Cursor};

use kalis_netsim::behaviors::{CtpForwarderBehavior, CtpSensorBehavior, CtpSinkBehavior};
use kalis_netsim::prelude::*;
use kalis_netsim::trace;
use std::time::Duration;

fn record_wsn(seed: u64) -> Vec<kalis_packets::CapturedPacket> {
    let mut sim = Simulator::new(seed);
    let sink = sim.add_node(NodeSpec::new("sink"));
    let fwd = sim.add_node(NodeSpec::new("fwd").with_position(10.0, 0.0));
    let leaf = sim.add_node(NodeSpec::new("leaf").with_position(20.0, 0.0));
    sim.set_behavior(sink, CtpSinkBehavior::new(ShortAddr(1)));
    sim.set_behavior(fwd, CtpForwarderBehavior::new(ShortAddr(2), ShortAddr(1)));
    sim.set_behavior(leaf, CtpSensorBehavior::leaf(ShortAddr(3), ShortAddr(2)));
    let tap = sim.add_tap("t0", Position::new(10.0, 2.0), &[Medium::Ieee802154]);
    sim.run_for(Duration::from_secs(30));
    tap.drain()
}

#[test]
fn record_write_read_replay_is_lossless() {
    let recorded = record_wsn(5);
    assert!(recorded.len() > 20);
    let mut text = Vec::new();
    trace::write_trace(&mut text, &recorded).unwrap();
    let replayed = trace::read_trace(BufReader::new(Cursor::new(text))).unwrap();
    assert_eq!(replayed.len(), recorded.len());
    for (a, b) in recorded.iter().zip(&replayed) {
        assert_eq!(a.timestamp, b.timestamp);
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.medium, b.medium);
        // The decoded stack is reconstructed identically from the bytes.
        assert_eq!(a.packet.is_some(), b.packet.is_some());
    }
}

#[test]
fn enhanced_trace_interleaves_symptom_packets() {
    // The paper: "record and replay actual traces ... enhanced with
    // additional packets representing symptoms of such attacks".
    let base = record_wsn(6);
    let attack: Vec<_> = (0..5u64)
        .map(|i| {
            kalis_packets::CapturedPacket::capture(
                Timestamp::from_secs(3 + i * 5),
                Medium::Ieee802154,
                Some(-58.0),
                "t0",
                kalis_netsim::craft::ctp_beacon(ShortAddr(9), i as u8, ShortAddr(9), 0),
            )
        })
        .collect();
    let base_len = base.len();
    let merged = trace::merge_traces(vec![base, attack]);
    assert_eq!(merged.len(), base_len + 5);
    assert!(merged.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
}

#[test]
fn recording_is_seed_deterministic() {
    let a = record_wsn(9);
    let b = record_wsn(9);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.timestamp, y.timestamp);
        assert_eq!(x.raw, y.raw);
        assert_eq!(x.rssi_dbm, y.rssi_dbm);
    }
}
