//! The event bus (paper §V, "Event-driven Architecture"): "when a
//! detection module detects a potential attack, it raises a detection
//! event that is then routed to all the subscribed parties. This also
//! allows Kalis to interoperate with cloud-based monitoring dashboards,
//! automated response systems, and real-time user notification
//! mechanisms."
//!
//! Subscribers receive events over unbounded `std::sync::mpsc`
//! channels, so consumers may live on other threads (a dashboard
//! uploader, a notifier) without blocking the detection path.

use std::sync::mpsc::{channel, Receiver, Sender};

use kalis_packets::Timestamp;

use crate::alert::Alert;
use crate::knowledge::{KnowKey, KnowValue};

/// An event published by a Kalis node.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KalisEvent {
    /// A detection module raised an alert.
    AlertRaised(Alert),
    /// A knowgget changed (inserted, updated, or removed).
    KnowledgeChanged {
        /// The affected key.
        key: KnowKey,
        /// The new value (last value when removed).
        value: KnowValue,
        /// Whether the knowgget was removed.
        removed: bool,
        /// Causal trace the write belongs to (0 = untraced), so
        /// subscribers can correlate knowledge churn with the packet
        /// that caused it.
        trace_id: u64,
    },
    /// The Module Manager changed the active module set.
    ModulesReconfigured {
        /// When the reconfiguration happened.
        time: Timestamp,
        /// Modules activated in this pass.
        activated: usize,
        /// Modules deactivated in this pass.
        deactivated: usize,
    },
}

/// A fan-out publisher of [`KalisEvent`]s.
///
/// # Examples
///
/// ```
/// use kalis_core::bus::{EventBus, KalisEvent};
/// use kalis_core::{Alert, AttackKind};
/// use kalis_packets::Timestamp;
///
/// let mut bus = EventBus::new();
/// let rx = bus.subscribe();
/// bus.publish(KalisEvent::AlertRaised(Alert::new(
///     Timestamp::ZERO,
///     AttackKind::Sybil,
///     "SybilModule",
/// )));
/// assert!(matches!(rx.try_recv(), Ok(KalisEvent::AlertRaised(_))));
/// ```
#[derive(Debug, Default)]
pub struct EventBus {
    subscribers: Vec<Sender<KalisEvent>>,
}

impl EventBus {
    /// A bus with no subscribers.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Subscribe; the returned receiver gets every event published after
    /// this call. Dropped receivers are pruned automatically.
    pub fn subscribe(&mut self) -> Receiver<KalisEvent> {
        let (tx, rx) = channel();
        self.subscribers.push(tx);
        rx
    }

    /// Publish an event to every live subscriber.
    pub fn publish(&mut self, event: KalisEvent) {
        // An unbounded send fails only once the receiver is gone.
        (self.subscribers).retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Number of live subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AttackKind;
    use crate::id::KalisId;

    fn alert() -> Alert {
        Alert::new(Timestamp::from_secs(1), AttackKind::IcmpFlood, "m")
    }

    #[test]
    fn all_subscribers_receive_every_event() {
        let mut bus = EventBus::new();
        let rx1 = bus.subscribe();
        let rx2 = bus.subscribe();
        bus.publish(KalisEvent::AlertRaised(alert()));
        bus.publish(KalisEvent::ModulesReconfigured {
            time: Timestamp::ZERO,
            activated: 2,
            deactivated: 0,
        });
        assert_eq!(rx1.try_iter().count(), 2);
        assert_eq!(rx2.try_iter().count(), 2);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let mut bus = EventBus::new();
        let rx = bus.subscribe();
        drop(rx);
        let live = bus.subscribe();
        bus.publish(KalisEvent::AlertRaised(alert()));
        assert_eq!(bus.subscriber_count(), 1);
        assert_eq!(live.try_iter().count(), 1);
    }

    #[test]
    fn events_cross_threads() {
        let mut bus = EventBus::new();
        let rx = bus.subscribe();
        let handle = std::thread::spawn(move || rx.recv().unwrap());
        bus.publish(KalisEvent::KnowledgeChanged {
            key: KnowKey::new(KalisId::new("K1"), "Multihop"),
            value: KnowValue::Bool(true),
            removed: false,
            trace_id: 7,
        });
        let got = handle.join().unwrap();
        assert!(matches!(got, KalisEvent::KnowledgeChanged { .. }));
    }
}
