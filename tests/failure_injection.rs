//! Failure injection: malformed frames, hostile sync traffic, and lossy
//! channels must never break the IDS.

use bytes::Bytes;
use kalis_core::knowledge::{SecureChannel, SyncMessage, XorChannel};
use kalis_core::{Kalis, KalisId};
use kalis_packets::{CapturedPacket, Medium, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

#[test]
fn garbage_frames_are_ingested_without_panic() {
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    let mut rng = StdRng::seed_from_u64(13);
    for i in 0..2000u64 {
        let len = rng.gen_range(0..96);
        let mut raw = vec![0u8; len];
        rng.fill_bytes(&mut raw);
        let medium = match i % 4 {
            0 => Medium::Ieee802154,
            1 => Medium::Wifi,
            2 => Medium::Ethernet,
            _ => Medium::Ble,
        };
        kalis.ingest(CapturedPacket::capture(
            Timestamp::from_millis(i * 10),
            medium,
            Some(-60.0),
            "fuzz",
            Bytes::from(raw),
        ));
    }
    assert_eq!(kalis.meter().packets, 2000);
}

#[test]
fn truncated_real_frames_are_tolerated() {
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    let full = kalis_netsim::craft::ctp_data(
        kalis_packets::ShortAddr(2),
        kalis_packets::ShortAddr(1),
        0,
        kalis_packets::ShortAddr(2),
        1,
        0,
        b"reading",
    );
    for cut in 0..full.len() {
        kalis.ingest(CapturedPacket::capture(
            Timestamp::from_millis(cut as u64),
            Medium::Ieee802154,
            Some(-50.0),
            "t",
            full.slice(..cut),
        ));
    }
}

#[test]
fn corrupted_sync_blobs_are_rejected_not_fatal() {
    let channel = XorChannel::new(99);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..200 {
        let len = rng.gen_range(0..64);
        let mut blob = vec![0u8; len];
        rng.fill_bytes(&mut blob);
        assert!(SyncMessage::open(&blob, &channel).is_err());
    }
}

#[test]
fn bitflips_on_sealed_messages_never_authenticate() {
    let channel = XorChannel::new(4242);
    let msg = SyncMessage::new(
        KalisId::new("K1"),
        vec![kalis_core::Knowgget::new(
            "Multihop",
            kalis_core::KnowValue::Bool(true),
            KalisId::new("K1"),
        )],
    );
    let sealed = msg.seal(&channel);
    for i in 0..sealed.len() {
        let mut tampered = sealed.clone();
        tampered[i] ^= 0x01;
        assert!(
            SyncMessage::open(&tampered, &channel).is_err(),
            "bitflip at {i} authenticated"
        );
    }
}

#[test]
fn lossy_capture_still_detects_floods() {
    // Drop a quarter of the packets on the way into the IDS: flood bursts
    // (40 replies vs a threshold of 25) survive that much loss.
    let scenario = kalis_bench::scenarios::Scenario::build(
        kalis_bench::scenarios::ScenarioKind::IcmpFlood,
        3,
        6,
    );
    let mut rng = StdRng::seed_from_u64(77);
    let lossy: Vec<_> = scenario
        .captures
        .iter()
        .filter(|_| rng.gen_bool(0.75))
        .cloned()
        .collect();
    let outcome = kalis_bench::runner::run_kalis(&[&lossy]);
    let score = kalis_bench::scoring::score(&scenario.truth, &outcome.detections);
    assert!(
        score.detection_rate() >= 0.8,
        "rate {:.2} under 25% loss",
        score.detection_rate()
    );
}

#[test]
fn wrong_channel_key_isolates_peers() {
    let good = XorChannel::new(1);
    let bad = XorChannel::new(2);
    let msg = SyncMessage::new(KalisId::new("K1"), vec![]);
    assert!(SyncMessage::open(&msg.seal(&good), &bad).is_err());
    // Sealing arbitrary non-message bytes authenticates, but the payload
    // fails to parse as a sync message — an error, never a panic.
    assert!(SyncMessage::open(&good.seal(b"plain"), &good).is_err());
}
