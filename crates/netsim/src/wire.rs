//! A virtual out-of-band control link for collective-sync traffic.
//!
//! Kalis nodes exchange beacons, sync frames, and acks over a management
//! channel that is separate from the sniffed data plane. [`Wire`] models
//! that channel as a seeded, faultable delivery queue: every frame is
//! judged by a [`FaultPlan`] (drop / duplicate / corrupt / reorder /
//! partition), surviving copies are held for the link delay, and
//! [`Wire::due`] hands them back in delivery order.
//!
//! The payload is opaque bytes — whatever the frame carries (including
//! the per-knowgget trace headers of the causal-tracing layer) rides the
//! simulated delivery unchanged, so cross-node provenance can be
//! exercised under the exact fault schedules of the chaos experiments.

use std::time::Duration;

use kalis_packets::Timestamp;

use crate::fault::FaultPlan;

/// A control frame queued on the virtual wire.
#[derive(Debug, Clone, PartialEq, Eq)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Wire::due`
pub struct InFlight {
    /// Delivery instant (send time + link delay + fault jitter).
    pub at: Timestamp,
    /// Destination endpoint.
    pub to: u32,
    /// Frame payload (corrupted copies arrive corrupted).
    pub bytes: Vec<u8>,
}

/// A faultable point-to-point control link.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use kalis_netsim::fault::FaultPlan;
/// use kalis_netsim::wire::Wire;
/// use kalis_packets::Timestamp;
///
/// let mut wire = Wire::new(FaultPlan::new(7), Duration::from_micros(500));
/// wire.send(0, 1, b"sync-frame", Timestamp::ZERO);
/// assert!(wire.due(Timestamp::ZERO).is_empty(), "still in flight");
/// let arrived = wire.due(Timestamp::from_millis(1));
/// assert_eq!(arrived.len(), 1);
/// assert_eq!(arrived[0].bytes, b"sync-frame");
/// ```
#[derive(Debug)]
pub struct Wire {
    plan: FaultPlan,
    queue: Vec<InFlight>,
    link_delay: Duration,
}

impl Wire {
    /// A wire routing every frame through `plan` with a base one-way
    /// `link_delay`.
    pub fn new(plan: FaultPlan, link_delay: Duration) -> Self {
        Wire {
            plan,
            queue: Vec::new(),
            link_delay,
        }
    }

    /// Send `bytes` from `from` to `to` at `now`. The fault plan decides
    /// how many copies survive (0 = dropped, 2 = duplicated) and whether
    /// a copy is corrupted in flight.
    pub fn send(&mut self, from: u32, to: u32, bytes: &[u8], now: Timestamp) {
        for copy in self.plan.judge(from, to, now) {
            let mut bytes = bytes.to_vec();
            if copy.corrupt {
                self.plan.corrupt_payload(&mut bytes);
            }
            self.queue.push(InFlight {
                at: now + self.link_delay + copy.extra_delay,
                to,
                bytes,
            });
        }
    }

    /// Drain every frame due by `now`, oldest first. Frames still in
    /// flight stay queued.
    pub fn due(&mut self, now: Timestamp) -> Vec<InFlight> {
        self.queue.sort_by_key(|m| m.at);
        self.queue
            .drain(..self.queue.partition_point(|m| m.at <= now))
            .collect()
    }

    /// The earliest delivery instant of a frame still in flight.
    pub fn next_due(&self) -> Option<Timestamp> {
        self.queue.iter().map(|m| m.at).min()
    }

    /// The fault plan, with its injection counters.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultWindow, LinkFaults};

    #[test]
    fn frames_arrive_after_the_link_delay_in_order() {
        let mut wire = Wire::new(FaultPlan::new(1), Duration::from_micros(500));
        wire.send(0, 1, b"first", Timestamp::from_micros(0));
        wire.send(1, 0, b"second", Timestamp::from_micros(100));
        assert!(wire.due(Timestamp::from_micros(400)).is_empty());
        assert_eq!(wire.next_due(), Some(Timestamp::from_micros(500)));
        let arrived = wire.due(Timestamp::from_micros(700));
        assert_eq!(
            arrived
                .iter()
                .map(|m| m.bytes.as_slice())
                .collect::<Vec<_>>(),
            vec![b"first".as_slice(), b"second".as_slice()]
        );
        assert_eq!(arrived[0].to, 1);
        assert_eq!(arrived[1].to, 0);
        assert_eq!(wire.next_due(), None);
    }

    #[test]
    fn total_loss_drops_everything_and_counts() {
        let plan = FaultPlan::new(2).with_faults(LinkFaults {
            drop: 1.0,
            ..LinkFaults::default()
        });
        let mut wire = Wire::new(plan, Duration::ZERO);
        for i in 0..10u64 {
            wire.send(0, 1, b"frame", Timestamp::from_micros(i));
        }
        assert_eq!(wire.next_due(), None);
        assert_eq!(wire.plan().stats().dropped, 10);
    }

    #[test]
    fn duplication_delivers_extra_copies_with_identical_payload() {
        let plan = FaultPlan::new(3).with_faults(LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::default()
        });
        let mut wire = Wire::new(plan, Duration::ZERO);
        wire.send(0, 1, b"once", Timestamp::ZERO);
        let arrived = wire.due(Timestamp::from_secs(1));
        assert_eq!(arrived.len(), 2, "one duplicate copy");
        assert!(arrived.iter().all(|m| m.bytes == b"once"));
        assert_eq!(wire.plan().stats().duplicated, 1);
    }

    #[test]
    fn partitions_silence_the_link_only_while_active() {
        let plan = FaultPlan::new(4).with_partition(
            vec![vec![0], vec![1]],
            FaultWindow::new(Timestamp::from_secs(1), Timestamp::from_secs(2)),
        );
        let mut wire = Wire::new(plan, Duration::ZERO);
        wire.send(0, 1, b"before", Timestamp::ZERO);
        wire.send(0, 1, b"during", Timestamp::from_millis(1500));
        wire.send(0, 1, b"after", Timestamp::from_secs(3));
        let arrived = wire.due(Timestamp::from_secs(10));
        assert_eq!(
            arrived
                .iter()
                .map(|m| m.bytes.as_slice())
                .collect::<Vec<_>>(),
            vec![b"before".as_slice(), b"after".as_slice()]
        );
    }

    /// Frames sent on one link at one instant draw their fates apart: at
    /// `drop = 0.5`, exactly one of two arrives at about half the
    /// instants, not at none (which is what one shared draw per
    /// `(link, instant)` gives).
    #[test]
    fn frames_sent_at_one_instant_are_dropped_independently() {
        let plan = FaultPlan::new(42).with_faults(LinkFaults {
            drop: 0.5,
            ..LinkFaults::default()
        });
        let mut wire = Wire::new(plan, Duration::ZERO);
        let instants = 1_000;
        let exactly_one = (0..instants)
            .filter(|&i| {
                let now = Timestamp::from_millis(i);
                wire.send(0, 1, b"beacon", now);
                wire.send(0, 1, b"frame", now);
                wire.due(now).len() == 1
            })
            .count();
        let share = exactly_one as f64 / instants as f64;
        assert!(
            (0.4..0.6).contains(&share),
            "exactly one of two arrived at {share:.3} of the instants"
        );
    }
}
