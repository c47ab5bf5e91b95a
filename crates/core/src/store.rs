//! The Data Store (paper §IV-B2): a sliding window of recent traffic that
//! modules can query, with optional persistent logging and replay.

use std::collections::VecDeque;
use std::io::Write;

use kalis_packets::{CapturedPacket, Timestamp, TrafficClass};

/// Retention policy for the in-memory window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Maximum number of packets kept ("only a sliding window of
    /// configurable size of the most recent packets is kept in memory").
    pub max_packets: usize,
    /// Maximum packet age relative to the newest packet.
    pub max_age: core::time::Duration,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            max_packets: 4096,
            max_age: core::time::Duration::from_secs(30),
        }
    }
}

/// The Data Store: recent-traffic window + optional disk log.
///
/// # Examples
///
/// ```
/// use kalis_core::store::DataStore;
/// use kalis_packets::{CapturedPacket, Medium, Timestamp};
/// use bytes::Bytes;
///
/// let mut store = DataStore::new();
/// store.push(CapturedPacket::capture(
///     Timestamp::from_secs(1), Medium::Wifi, Some(-50.0), "w0", Bytes::new(),
/// ));
/// assert_eq!(store.len(), 1);
/// ```
pub struct DataStore {
    config: WindowConfig,
    window: VecDeque<CapturedPacket>,
    /// Σ [`footprint`] over the window, kept current by `push`/`evict`.
    window_bytes: usize,
    log: Option<Box<dyn Write + Send>>,
    logged: u64,
}

/// Rough live-memory footprint of one windowed packet.
fn footprint(packet: &CapturedPacket) -> usize {
    packet.raw.len() + packet.interface.len() + 96
}

impl DataStore {
    /// A store with the default window configuration and no disk log.
    pub fn new() -> Self {
        Self::with_config(WindowConfig::default())
    }

    /// A store with an explicit window configuration.
    pub fn with_config(config: WindowConfig) -> Self {
        DataStore {
            config,
            window: VecDeque::new(),
            window_bytes: 0,
            log: None,
            logged: 0,
        }
    }

    /// Attach a persistent log; every pushed packet is appended as a
    /// `kalis-netsim`-compatible trace line.
    pub fn set_log(&mut self, log: impl Write + Send + 'static) {
        self.log = Some(Box::new(log));
    }

    /// Ingest one packet, evicting per the window policy.
    pub fn push(&mut self, packet: CapturedPacket) {
        if let Some(log) = &mut self.log {
            // Same line format as kalis-netsim traces, inlined to keep the
            // dependency direction core ← netsim.
            let rssi = packet
                .rssi_dbm
                .map_or_else(|| "-".to_owned(), |r| format!("{r:.2}"));
            let mut hex = String::with_capacity(packet.raw.len() * 2);
            for b in &packet.raw {
                use std::fmt::Write as _;
                let _ = write!(hex, "{b:02x}");
            }
            let _ = writeln!(
                log,
                "{}|{}|{}|{}|{}",
                packet.timestamp.as_micros(),
                match packet.medium {
                    kalis_packets::Medium::Ieee802154 => "154",
                    kalis_packets::Medium::Wifi => "wifi",
                    kalis_packets::Medium::Ethernet => "eth",
                    kalis_packets::Medium::Ble => "ble",
                },
                rssi,
                packet.interface,
                hex
            );
            self.logged += 1;
        }
        self.window_bytes += footprint(&packet);
        self.window.push_back(packet);
        self.evict();
    }

    fn evict(&mut self) {
        let Some(newest) = self.window.back().map(|p| p.timestamp) else {
            return;
        };
        while let Some(front) = self.window.front() {
            if self.window.len() > self.config.max_packets
                || newest.saturating_since(front.timestamp) > self.config.max_age
            {
                self.window_bytes -= footprint(front);
                self.window.pop_front();
            } else {
                break;
            }
        }
    }

    /// The packet pushed last, if the window still holds it.
    pub fn newest(&self) -> Option<&CapturedPacket> {
        self.window.back()
    }

    /// Packets currently in the window, oldest first.
    pub fn window(&self) -> impl Iterator<Item = &CapturedPacket> {
        self.window.iter()
    }

    /// Packets in the window newer than `since`.
    pub fn since(&self, since: Timestamp) -> impl Iterator<Item = &CapturedPacket> {
        self.window.iter().filter(move |p| p.timestamp >= since)
    }

    /// Count window packets of `class` newer than `since`.
    pub fn count_class_since(&self, class: TrafficClass, since: Timestamp) -> usize {
        self.since(since)
            .filter(|p| p.traffic_class() == class)
            .count()
    }

    /// Number of packets in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Number of packets written to the disk log.
    pub fn logged(&self) -> u64 {
        self.logged
    }

    /// Rough live-memory footprint of the window (RAM proxy): a running
    /// total, so reading it costs nothing however deep the window is.
    pub fn state_bytes(&self) -> usize {
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.window_bytes, self.recount_state_bytes());
        self.window_bytes
    }

    /// `state_bytes()` recomputed by walking the window.
    #[cfg(any(test, debug_assertions))]
    fn recount_state_bytes(&self) -> usize {
        self.window.iter().map(footprint).sum()
    }
}

impl Default for DataStore {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for DataStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DataStore")
            .field("window_len", &self.window.len())
            .field("config", &self.config)
            .field("logged", &self.logged)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use kalis_packets::Medium;
    use std::sync::{Arc, Mutex};

    fn cap(secs: u64) -> CapturedPacket {
        CapturedPacket::capture(
            Timestamp::from_secs(secs),
            Medium::Wifi,
            Some(-40.0),
            "w0",
            Bytes::from_static(&[1, 2, 3]),
        )
    }

    #[test]
    fn size_bound_evicts_oldest() {
        let mut store = DataStore::with_config(WindowConfig {
            max_packets: 3,
            max_age: core::time::Duration::from_secs(1000),
        });
        for i in 0..5 {
            store.push(cap(i));
        }
        assert_eq!(store.len(), 3);
        assert_eq!(
            store.window().next().unwrap().timestamp,
            Timestamp::from_secs(2)
        );
    }

    #[test]
    fn age_bound_evicts_stale() {
        let mut store = DataStore::with_config(WindowConfig {
            max_packets: 100,
            max_age: core::time::Duration::from_secs(10),
        });
        store.push(cap(0));
        store.push(cap(5));
        store.push(cap(20));
        // Both t=0 and t=5 are >10s older than the newest packet (t=20).
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn since_filters_by_time() {
        let mut store = DataStore::new();
        for i in 0..5 {
            store.push(cap(i));
        }
        assert_eq!(store.since(Timestamp::from_secs(3)).count(), 2);
    }

    #[test]
    fn log_receives_trace_lines() {
        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut store = DataStore::new();
        store.set_log(buf.clone());
        store.push(cap(1));
        store.push(cap(2));
        assert_eq!(store.logged(), 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("1000000|wifi|-40.00|w0|010203"));
    }

    proptest::proptest! {
        /// The running total equals the recomputed walk after every
        /// push, whichever eviction rule (`max_packets`, `max_age`) fires.
        #[test]
        fn running_state_bytes_equal_the_walk(
            pushes in proptest::collection::vec((0u64..40, 0usize..64, 0usize..3), 1..300),
            max_packets in 1usize..40,
            max_age_secs in 1u64..30,
        ) {
            let mut store = DataStore::with_config(WindowConfig {
                max_packets,
                max_age: core::time::Duration::from_secs(max_age_secs),
            });
            let mut now = 0u64;
            for (advance, raw_len, interface) in pushes {
                // Mostly small steps; a long one now and then ages out
                // most of the window at once.
                now += if advance > 36 { advance } else { advance / 12 };
                store.push(CapturedPacket::capture(
                    Timestamp::from_secs(now),
                    Medium::Wifi,
                    None,
                    ["w0", "wlan-mon1", ""][interface],
                    Bytes::from(vec![0u8; raw_len]),
                ));
                proptest::prop_assert_eq!(store.state_bytes(), store.recount_state_bytes());
                proptest::prop_assert!(store.len() <= max_packets);
            }
        }
    }

    #[test]
    fn state_bytes_tracks_window() {
        let mut store = DataStore::new();
        assert_eq!(store.state_bytes(), 0);
        store.push(cap(1));
        let one = store.state_bytes();
        store.push(cap(2));
        assert!(store.state_bytes() > one);
    }
}
