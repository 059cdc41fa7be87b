//! Source routes.
//!
//! Myrinet routes are a byte per hop: the output port to take at each switch
//! the packet passes through. The entire route travels in the packet header
//! (§3.1). Routes are short (network diameters of a few hops), so we store
//! them inline — no heap traffic on the per-packet hot path.

use std::fmt;

/// Maximum number of switch hops a route can describe. The paper's testbed
/// has 4 switches; 16 leaves generous room for the random topologies used in
/// property tests.
pub const MAX_HOPS: usize = 16;

/// An inline source route: `ports[i]` is the output port at the i-th switch.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    ports: [u8; MAX_HOPS],
    len: u8,
}

impl Route {
    /// The empty route (a packet that never enters a switch — host-to-host
    /// direct links do not exist in this model, so an empty route is only
    /// valid in unit tests and as a placeholder).
    pub const fn empty() -> Self {
        Route {
            ports: [0; MAX_HOPS],
            len: 0,
        }
    }

    /// Build from a slice of output ports.
    ///
    /// # Panics
    /// Panics if more than [`MAX_HOPS`] ports are given.
    pub fn from_ports(ports: &[u8]) -> Self {
        assert!(ports.len() <= MAX_HOPS, "route too long: {}", ports.len());
        let mut r = Route::empty();
        r.ports[..ports.len()].copy_from_slice(ports);
        r.len = ports.len() as u8;
        r
    }

    /// Number of hops.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no hops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The output port for hop `i`.
    #[inline]
    pub fn hop(&self, i: usize) -> u8 {
        debug_assert!(i < self.len());
        self.ports[i]
    }

    /// Ports as a slice.
    #[inline]
    pub fn ports(&self) -> &[u8] {
        &self.ports[..self.len()]
    }

    /// Append one hop, returning the extended route.
    ///
    /// # Panics
    /// Panics when the route is already [`MAX_HOPS`] long.
    pub fn then(mut self, port: u8) -> Self {
        assert!((self.len as usize) < MAX_HOPS, "route overflow");
        self.ports[self.len as usize] = port;
        self.len += 1;
        self
    }

    /// Concatenate two routes.
    pub fn join(self, tail: &Route) -> Self {
        let mut r = self;
        for &p in tail.ports() {
            r = r.then(p);
        }
        r
    }

    /// Reversed hop order. Note: a *usable* return route generally consists
    /// of the reversed **input** ports, which the fabric records during
    /// traversal ([`crate::packet::Packet::reverse_route`]); plain reversal
    /// of output ports is only correct for symmetric two-port paths, so this
    /// is a building block, not a routing oracle.
    pub fn reversed(&self) -> Self {
        let mut r = Route::empty();
        for &p in self.ports().iter().rev() {
            r = r.then(p);
        }
        r
    }
}

impl fmt::Debug for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Route[")?;
        for (i, p) in self.ports().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

impl Default for Route {
    fn default() -> Self {
        Route::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let r = Route::from_ports(&[3, 1, 4]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.hop(0), 3);
        assert_eq!(r.hop(2), 4);
        assert_eq!(r.ports(), &[3, 1, 4]);
        assert!(!r.is_empty());
        assert!(Route::empty().is_empty());
    }

    #[test]
    fn then_and_join() {
        let r = Route::empty().then(7).then(2);
        assert_eq!(r.ports(), &[7, 2]);
        let j = r.join(&Route::from_ports(&[9]));
        assert_eq!(j.ports(), &[7, 2, 9]);
    }

    #[test]
    fn reversed_reverses() {
        let r = Route::from_ports(&[1, 2, 3]).reversed();
        assert_eq!(r.ports(), &[3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "route overflow")]
    fn overflow_panics() {
        let mut r = Route::empty();
        for i in 0..=MAX_HOPS {
            r = r.then(i as u8);
        }
    }

    #[test]
    fn equality_ignores_slack() {
        let a = Route::from_ports(&[1, 2]);
        let mut b = Route::from_ports(&[1, 2, 9]);
        // Shrink b by rebuilding — slack bytes beyond len must not matter.
        b = Route::from_ports(&b.ports()[..2]);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn from_ports_roundtrip(ports in proptest::collection::vec(any::<u8>(), 0..MAX_HOPS)) {
            let r = Route::from_ports(&ports);
            prop_assert_eq!(r.ports(), &ports[..]);
            prop_assert_eq!(r.reversed().reversed(), r);
        }

        #[test]
        fn join_length_adds(
            a in proptest::collection::vec(any::<u8>(), 0..8),
            b in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let j = Route::from_ports(&a).join(&Route::from_ports(&b));
            prop_assert_eq!(j.len(), a.len() + b.len());
        }
    }
}
