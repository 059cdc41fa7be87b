//! Identifier newtypes for fabric entities.
//!
//! Small integer newtypes (`u16`/`u8`) keep hot structures compact (see the
//! type-size guidance in the perf book) while making it impossible to mix up
//! a host index with a switch index at compile time.

use std::fmt;

/// A host (equivalently: the NIC plugged into that host). Hosts have exactly
/// one network port in this model, as on the paper's Myrinet testbed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

/// A crossbar switch. Myrinet switches have no identity visible on the wire —
/// this ID exists only inside the simulator and for full-map baselines; the
/// on-demand mapper must discover switch identity by probing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u16);

/// A port number on a switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u8);

/// An undirected link between two endpoints.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// One side of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A host's single network port.
    Host(NodeId),
    /// A specific port of a switch.
    Switch(SwitchId, PortId),
}

impl NodeId {
    /// Index form for vector addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl SwitchId {
    /// Index form for vector addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl PortId {
    /// Index form for vector addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Index form for vector addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl Endpoint {
    /// The host behind this endpoint, if it is one.
    pub fn host(self) -> Option<NodeId> {
        match self {
            Endpoint::Host(n) => Some(n),
            Endpoint::Switch(..) => None,
        }
    }

    /// The switch behind this endpoint, if it is one.
    pub fn switch(self) -> Option<(SwitchId, PortId)> {
        match self {
            Endpoint::Host(_) => None,
            Endpoint::Switch(s, p) => Some((s, p)),
        }
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}
impl fmt::Debug for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}
impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}
impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}
impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Host(n) => write!(f, "{n:?}"),
            Endpoint::Switch(s, p) => write!(f, "{s:?}.{p:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_accessors() {
        let h = Endpoint::Host(NodeId(3));
        let s = Endpoint::Switch(SwitchId(1), PortId(4));
        assert_eq!(h.host(), Some(NodeId(3)));
        assert_eq!(h.switch(), None);
        assert_eq!(s.host(), None);
        assert_eq!(s.switch(), Some((SwitchId(1), PortId(4))));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", NodeId(2)), "h2");
        assert_eq!(
            format!("{:?}", Endpoint::Switch(SwitchId(0), PortId(7))),
            "s0.p7"
        );
    }
}
