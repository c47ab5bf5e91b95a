//! The node-programming interface: a [`Behavior`] reacts to start-up,
//! timers, and received frames, and issues actions through a [`Ctx`].

use core::time::Duration;

use bytes::Bytes;
use kalis_packets::{Medium, Packet, Timestamp};
use rand::RngCore;

use crate::geometry::Position;
use crate::node::NodeId;

/// A frame as received by a node's radio (or wired port).
#[derive(Debug, Clone)]
pub struct ReceivedFrame {
    /// Medium the frame arrived on.
    pub medium: Medium,
    /// Raw frame bytes.
    pub raw: Bytes,
    /// Received signal strength (None for wired reception).
    pub rssi_dbm: Option<f64>,
    /// Ground-truth transmitter. Available to behaviors for bookkeeping;
    /// the IDS observes only what a tap reports.
    pub from: NodeId,
    /// The decoded stack, when the link layer parsed.
    pub packet: Option<Packet>,
}

impl ReceivedFrame {
    /// The decoded stack, when available.
    pub fn decoded(&self) -> Option<&Packet> {
        self.packet.as_ref()
    }
}

/// An action a behavior asks the simulator to perform.
#[derive(Debug)]
pub(crate) enum Action {
    Transmit { medium: Medium, raw: Bytes },
    Wired { to: NodeId, raw: Bytes },
    Timer { delay: Duration, token: u64 },
}

/// The execution context handed to a [`Behavior`] callback.
///
/// All side effects — transmitting, wired sends, timers — are queued on
/// the context and applied by the simulator after the callback returns,
/// keeping dispatch deterministic.
pub struct Ctx<'a> {
    pub(crate) now: Timestamp,
    pub(crate) node: NodeId,
    pub(crate) position: Position,
    pub(crate) actions: Vec<Action>,
    pub(crate) rng: &'a mut dyn RngCore,
}

impl<'a> Ctx<'a> {
    /// The current simulation time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The node this behavior is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's current position.
    pub fn position(&self) -> Position {
        self.position
    }

    /// The simulation's seeded random source.
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }

    /// Broadcast a raw frame on `medium`. Every node and tap within radio
    /// range overhears it.
    pub fn transmit(&mut self, medium: Medium, raw: impl Into<Bytes>) {
        self.actions.push(Action::Transmit {
            medium,
            raw: raw.into(),
        });
    }

    /// Send a raw frame over a wired (Ethernet) link to `to`.
    pub fn send_wired(&mut self, to: NodeId, raw: impl Into<Bytes>) {
        self.actions.push(Action::Wired {
            to,
            raw: raw.into(),
        });
    }

    /// Arm a one-shot timer; [`Behavior::on_timer`] fires with `token`
    /// after `delay`.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }
}

impl core::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("node", &self.node)
            .field("position", &self.position)
            .field("pending_actions", &self.actions.len())
            .finish()
    }
}

/// Node application logic: traffic generators, forwarders, responders, and
/// (in `kalis-attacks`) attackers all implement this trait.
///
/// # Examples
///
/// ```
/// use kalis_netsim::behavior::{Behavior, Ctx, ReceivedFrame};
/// use std::time::Duration;
///
/// /// Transmits one beacon per second.
/// struct Beeper;
///
/// impl Behavior for Beeper {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         ctx.set_timer(Duration::from_secs(1), 0);
///     }
///     fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
///         ctx.transmit(kalis_packets::Medium::Ble, &b"beacon"[..]);
///         ctx.set_timer(Duration::from_secs(1), 0);
///     }
/// }
/// ```
pub trait Behavior: Send {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when a timer armed with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when a frame is received (radio broadcast in range, or a
    /// wired delivery addressed to this node).
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &ReceivedFrame) {
        let _ = (ctx, frame);
    }
}

impl<B: Behavior + ?Sized> Behavior for Box<B> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        (**self).on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        (**self).on_timer(ctx, token);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &ReceivedFrame) {
        (**self).on_frame(ctx, frame);
    }
}
