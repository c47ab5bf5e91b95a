//! # kalis-netsim
//!
//! A deterministic discrete-event network simulator for heterogeneous IoT
//! deployments — the substrate on which the Kalis IDS reproduction runs.
//!
//! The paper evaluates Kalis against a physical testbed (a six-mote TelosB
//! WSN speaking CTP over IEEE 802.15.4, plus commodity WiFi devices) by
//! recording real traces and replaying them enhanced with attack symptoms.
//! This crate provides the equivalent synthetic substrate:
//!
//! * a virtual clock and event queue ([`sim::Simulator`]),
//! * nodes with positions, radios, and pluggable [`behavior::Behavior`]s,
//! * a log-distance path-loss model producing per-reception RSSI
//!   ([`radio`]),
//! * mobility models ([`mobility`]),
//! * ready-made traffic behaviors for the paper's testbed devices
//!   ([`behaviors`], [`devices`]),
//! * promiscuous observer taps — the Kalis vantage point ([`tap`]),
//! * seeded fault injection — link loss, duplication, corruption,
//!   crashes, and partitions ([`fault`]), plus a faultable out-of-band
//!   control link for collective-sync frames ([`wire`]),
//! * seeded stress traces — ingest bursts and crafted poison packets for
//!   supervisor experiments ([`stress`]),
//! * and trace recording/replay ([`trace`]).
//!
//! Everything is seeded: the same build of a scenario produces the same
//! packet stream, which is what makes the paper's experiments reproducible
//! as tests.
//!
//! # Examples
//!
//! ```
//! use kalis_netsim::prelude::*;
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node(NodeSpec::new("a").with_position(0.0, 0.0));
//! let b = sim.add_node(NodeSpec::new("b").with_position(10.0, 0.0));
//! sim.set_behavior(a, CtpSensorBehavior::leaf(ShortAddr(1), ShortAddr(2)));
//! sim.set_behavior(b, CtpSinkBehavior::new(ShortAddr(2)));
//! let tap = sim.add_tap("kalis0", Position::new(5.0, 0.0), &[Medium::Ieee802154]);
//! sim.run_for(std::time::Duration::from_secs(10));
//! assert!(!tap.drain().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod behaviors;
pub mod craft;
pub mod devices;
pub mod fault;
pub mod geometry;
pub mod mobility;
pub mod node;
pub mod radio;
pub mod sim;
pub mod stress;
pub mod tap;
pub mod trace;
pub mod wire;

/// Convenient glob-import surface for scenario builders.
pub mod prelude {
    pub use crate::behavior::{Behavior, Ctx, ReceivedFrame};
    pub use crate::behaviors::{
        CtpForwarderBehavior, CtpSensorBehavior, CtpSinkBehavior, PingBehavior,
        PingResponderBehavior, TcpServerBehavior, ZigbeeHubBehavior, ZigbeeSubBehavior,
    };
    pub use crate::devices::DeviceProfile;
    pub use crate::fault::{FaultPlan, FaultStats, FaultWindow, LinkFaults};
    pub use crate::geometry::Position;
    pub use crate::mobility::MobilityModel;
    pub use crate::node::{NodeId, NodeSpec};
    pub use crate::radio::RadioConfig;
    pub use crate::sim::Simulator;
    pub use crate::tap::Tap;
    pub use kalis_packets::{Medium, ShortAddr, Timestamp};
}

pub use fault::{FaultPlan, FaultStats, FaultWindow, LinkFaults};
pub use geometry::Position;
pub use node::{NodeId, NodeSpec};
pub use sim::Simulator;
pub use tap::Tap;
