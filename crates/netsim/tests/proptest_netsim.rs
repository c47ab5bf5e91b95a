//! Property tests for the simulator substrate.

use kalis_netsim::geometry::Position;
use kalis_netsim::mobility::{MobilityModel, MobilityState};
use kalis_netsim::radio::RadioConfig;
use kalis_netsim::trace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Mean RSSI strictly decreases with distance for any sane config.
    #[test]
    fn rssi_monotone(
        tx_power in -10.0f64..20.0,
        exponent in 2.0f64..4.0,
        d1 in 0.5f64..100.0,
        delta in 0.5f64..100.0,
    ) {
        let mut radio = RadioConfig::default();
        radio.tx_power_dbm = tx_power;
        radio.path_loss_exponent = exponent;
        radio.shadowing_std_db = 0.0;
        prop_assert!(radio.mean_rssi_dbm(d1) > radio.mean_rssi_dbm(d1 + delta));
    }

    /// Random-waypoint movement never leaves its box and never moves
    /// faster than its speed allows.
    #[test]
    fn waypoint_bounded_speed_and_area(
        seed in any::<u64>(),
        speed in 0.1f64..10.0,
        start_x in 0.0f64..10.0,
        start_y in 0.0f64..10.0,
    ) {
        let model = MobilityModel::RandomWaypoint {
            speed,
            min: (0.0, 0.0),
            max: (10.0, 10.0),
        };
        let mut state = MobilityState::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos = Position::new(start_x, start_y);
        let dt = 0.5;
        for _ in 0..200 {
            let next = state.step(model, pos, dt, &mut rng);
            let moved = next.distance_to(pos);
            prop_assert!(moved <= speed * dt + 1e-9, "moved {moved} at speed {speed}");
            prop_assert!((-1e-9..=10.0 + 1e-9).contains(&next.x));
            prop_assert!((-1e-9..=10.0 + 1e-9).contains(&next.y));
            pos = next;
        }
    }

    /// Trace lines round-trip arbitrary raw frames and metadata.
    #[test]
    fn trace_line_roundtrip(
        micros in any::<u64>(),
        rssi in proptest::option::of(-120.0f64..0.0),
        iface in "[a-z0-9-]{1,12}",
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        medium_idx in 0usize..4,
    ) {
        use kalis_packets::{CapturedPacket, Medium, Timestamp};
        let medium = [Medium::Ieee802154, Medium::Wifi, Medium::Ethernet, Medium::Ble][medium_idx];
        let cap = CapturedPacket::capture(
            Timestamp::from_micros(micros),
            medium,
            rssi,
            iface,
            bytes::Bytes::from(raw),
        );
        let line = trace::format_line(&cap);
        let back = trace::parse_line(&line, 1).unwrap();
        prop_assert_eq!(back.timestamp, cap.timestamp);
        prop_assert_eq!(back.medium, cap.medium);
        prop_assert_eq!(back.raw, cap.raw);
        prop_assert_eq!(back.interface, cap.interface);
        match (back.rssi_dbm, cap.rssi_dbm) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 0.01),
            (None, None) => {}
            other => prop_assert!(false, "rssi mismatch {other:?}"),
        }
    }

    /// Malformed trace lines error out; they never panic.
    #[test]
    fn trace_parse_never_panics(line in "[ -~]{0,80}") {
        let _ = trace::parse_line(&line, 1);
    }
}
