//! Detection modules (paper §IV-B4): each module specializes in one
//! attack, analyzes captured traffic together with the available
//! knowggets, and raises [`crate::Alert`]s.
//!
//! The knowledge-driven activation conditions (each module's
//! [`crate::modules::Module::required`]) encode the paper's Fig. 3
//! feature/attack relationships — e.g. Smurf detection requires a
//! multi-hop network, the two replication detectors split on the
//! network's mobility.

mod deauth;
mod flood;
mod fragment;
mod replication;
mod scan;
mod sinkhole;
mod sybil;
mod util;
mod watchdog;
mod wormhole;

pub(crate) use deauth::DeauthModule;
pub use flood::IcmpFloodModule;
pub(crate) use flood::{SmurfModule, SynFloodModule, UdpFloodModule};
pub(crate) use fragment::FragmentFloodModule;
pub(crate) use replication::{ReplicationMobileModule, ReplicationStaticModule};
pub(crate) use scan::ScanModule;
pub(crate) use sinkhole::SinkholeModule;
pub use sybil::SybilModule;
pub use util::SlidingCounter;
pub(crate) use watchdog::{BlackholeModule, SelectiveForwardingModule};
pub(crate) use wormhole::WormholeModule;

/// The label of the wormhole-confirmation knowgget
/// ([`WormholeModule`] writes it; the blackhole detector consults it).
pub(crate) fn wormhole_confirmed_label() -> &'static str {
    wormhole::WORMHOLE_CONFIRMED
}

/// Knowgget labels written by detection modules for collective
/// correlation.
pub mod labels {
    /// Per-entity text: sorted origins whose traffic this forwarder
    /// dropped (written by the blackhole detector, marked collective).
    pub(crate) const DROPPED_ORIGINS: &str = "DroppedOrigins";
    /// Per-entity text: sorted origins this node sources without having
    /// overheard them locally (written by the wormhole detector, marked
    /// collective).
    pub(crate) const EXOTIC_ORIGINS: &str = "ExoticOrigins";
}
