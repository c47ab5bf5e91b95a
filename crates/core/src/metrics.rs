//! Resource accounting: the CPU/RAM proxies used by the evaluation.
//!
//! The paper reports CPU% and RAM KB measured on an Odroid XU3. Absolute
//! numbers are hardware-specific, so this reproduction uses deterministic
//! proxies whose *ordering* matches the paper's claim (Kalis < traditional
//! IDS < Snort): **work units** (one per module/rule invocation per
//! packet) for CPU, and **state bytes** (live window + Knowledge Base +
//! module state) for RAM.

/// Accumulated resource usage for one IDS instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceMeter {
    /// Packets ingested.
    pub packets: u64,
    /// Module/rule invocations (the CPU proxy).
    pub work_units: u64,
    /// Peak observed state bytes (the RAM proxy).
    pub peak_state_bytes: usize,
}

impl ResourceMeter {
    /// A zeroed meter.
    pub fn new() -> Self {
        ResourceMeter::default()
    }

    /// Record one ingested packet.
    pub fn count_packet(&mut self) {
        self.packets += 1;
    }

    /// Record `n` units of detection work.
    pub fn add_work(&mut self, n: u64) {
        self.work_units += n;
    }

    /// Update the peak state-bytes watermark.
    pub fn observe_state_bytes(&mut self, bytes: usize) {
        self.peak_state_bytes = self.peak_state_bytes.max(bytes);
    }

    /// Average work units per packet — the per-packet CPU proxy.
    pub fn work_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.work_units as f64 / self.packets as f64
        }
    }

    /// Fold another meter into this one (for averaging across scenarios).
    pub fn merge(&mut self, other: &ResourceMeter) {
        self.packets += other.packets;
        self.work_units += other.work_units;
        self.peak_state_bytes = self.peak_state_bytes.max(other.peak_state_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_per_packet_handles_zero() {
        assert_eq!(ResourceMeter::new().work_per_packet(), 0.0);
    }

    #[test]
    fn accounting_accumulates() {
        let mut m = ResourceMeter::new();
        m.count_packet();
        m.count_packet();
        m.add_work(6);
        m.observe_state_bytes(100);
        m.observe_state_bytes(50);
        assert_eq!(m.packets, 2);
        assert_eq!(m.work_per_packet(), 3.0);
        assert_eq!(m.peak_state_bytes, 100, "watermark keeps the max");
    }

    #[test]
    fn merge_combines() {
        let mut a = ResourceMeter {
            packets: 1,
            work_units: 2,
            peak_state_bytes: 10,
        };
        let b = ResourceMeter {
            packets: 3,
            work_units: 4,
            peak_state_bytes: 5,
        };
        a.merge(&b);
        assert_eq!(a.packets, 4);
        assert_eq!(a.work_units, 6);
        assert_eq!(a.peak_state_bytes, 10);
    }
}
