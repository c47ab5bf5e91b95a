//! Simulated nodes: identity, addressing, radio, and mobility.

use std::net::Ipv4Addr;

use kalis_packets::MacAddr;

use crate::geometry::Position;
use crate::mobility::MobilityModel;
use crate::radio::RadioConfig;

/// Identifier of a node inside one simulator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Declarative specification for a node, consumed by
/// [`crate::sim::Simulator::add_node`].
///
/// # Examples
///
/// ```
/// use kalis_netsim::node::NodeSpec;
/// use kalis_netsim::mobility::MobilityModel;
///
/// let spec = NodeSpec::new("mote-3")
///     .with_position(12.0, 7.0)
///     .with_mobility(MobilityModel::Static);
/// assert_eq!(spec.name(), "mote-3");
/// ```
#[derive(Debug, Clone)]
pub struct NodeSpec {
    name: String,
    position: Position,
    radio: RadioConfig,
    mobility: MobilityModel,
    mac: Option<MacAddr>,
    ip: Option<Ipv4Addr>,
}

impl NodeSpec {
    /// Start a spec with defaults: origin position, default radio, static
    /// mobility.
    pub fn new(name: impl Into<String>) -> Self {
        NodeSpec {
            name: name.into(),
            position: Position::ORIGIN,
            radio: RadioConfig::default(),
            mobility: MobilityModel::Static,
            mac: None,
            ip: None,
        }
    }

    /// Set the initial position.
    pub fn with_position(mut self, x: f64, y: f64) -> Self {
        self.position = Position::new(x, y);
        self
    }

    /// Set the radio configuration.
    pub fn with_radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    /// Set the mobility model.
    pub fn with_mobility(mut self, mobility: MobilityModel) -> Self {
        self.mobility = mobility;
        self
    }

    /// Assign a MAC address.
    pub fn with_mac(mut self, mac: MacAddr) -> Self {
        self.mac = Some(mac);
        self
    }

    /// Assign an IPv4 address.
    pub fn with_ip(mut self, ip: Ipv4Addr) -> Self {
        self.ip = Some(ip);
        self
    }

    /// The node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn build(self, id: NodeId) -> Node {
        Node {
            id,
            name: self.name,
            position: self.position,
            radio: self.radio,
            mobility: self.mobility,
            mac: self.mac.unwrap_or_else(|| MacAddr::from_index(id.0)),
            ip: self.ip,
        }
    }
}

/// Runtime state of a simulated node.
#[derive(Debug, Clone)]
// kalis-lint: allow(KL306): named by the `pub` signature of `Simulator::node`
pub struct Node {
    /// Node identifier.
    pub id: NodeId,
    /// Human-readable name.
    pub name: String,
    /// Current position (updated by mobility).
    pub position: Position,
    /// Radio parameters.
    pub radio: RadioConfig,
    /// Mobility model.
    pub mobility: MobilityModel,
    /// MAC address (auto-assigned when not specified).
    pub mac: MacAddr,
    /// IPv4 address, if assigned.
    pub ip: Option<Ipv4Addr>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_sets_fields() {
        let spec = NodeSpec::new("x")
            .with_position(1.0, 2.0)
            .with_ip(Ipv4Addr::new(10, 0, 0, 1));
        let node = spec.build(NodeId(4));
        assert_eq!(node.position, Position::new(1.0, 2.0));
        assert_eq!(node.ip, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(node.id, NodeId(4));
    }

    #[test]
    fn default_mac_is_derived_from_id() {
        let a = NodeSpec::new("a").build(NodeId(1));
        let b = NodeSpec::new("b").build(NodeId(2));
        assert_ne!(a.mac, b.mac);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }
}
