//! Wiring fingerprints.
//!
//! A fingerprint is an order-independent FNV-1a digest of the *entire*
//! wiring: host count, per-switch port counts, and every live link's id and
//! endpoints. Two topologies with the same fingerprint route identically.
//! The digest lives here (rather than in `san-topo`, where it was born)
//! because live reconfiguration makes the fabric engine itself a
//! fingerprint producer: every mutation records the new fingerprint in its
//! `Reconfig` trace event and reports the fingerprints on both sides of
//! the change in a `FabricEvent::Reconfigured` notification.

use crate::ids::SwitchId;
use crate::topology::Topology;

/// FNV-1a over the full wiring of a topology. Removed (tombstoned) links do
/// not contribute; a link re-wired under its old id with its old endpoints
/// restores the old digest exactly, which is what lets a reverse mutation
/// reproduce the pre-mutation fingerprint.
pub fn fingerprint_topology(topo: &Topology) -> u64 {
    let mut h = Fnv::new();
    h.u64(topo.num_hosts() as u64);
    h.u64(topo.num_switches() as u64);
    for s in 0..topo.num_switches() {
        h.u64(topo.switch_ports(SwitchId(s as u16)) as u64);
    }
    for (id, link) in topo.links() {
        h.u64(id.idx() as u64);
        for ep in [link.a, link.b] {
            match ep.host() {
                Some(n) => {
                    h.u64(1);
                    h.u64(n.idx() as u64);
                }
                None => {
                    let (s, p) = ep.switch().expect("endpoint is host or switch");
                    h.u64(2);
                    h.u64(s.idx() as u64);
                    h.u64(p.idx() as u64);
                }
            }
        }
    }
    h.finish()
}

/// Minimal FNV-1a 64-bit accumulator (no external hashing deps).
pub struct Fnv(u64);

impl Fnv {
    /// Start with the FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in one u64, byte by byte.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Endpoint;

    #[test]
    fn fingerprint_is_wiring_sensitive() {
        let (a, _, _) = crate::topology::pair_via_switch();
        let (b, _, _) = crate::topology::pair_via_switch();
        assert_eq!(fingerprint_topology(&a), fingerprint_topology(&b));
        let mut c = a.clone();
        let h = c.add_host();
        let _ = h;
        assert_ne!(fingerprint_topology(&a), fingerprint_topology(&c));
    }

    #[test]
    fn reverse_mutation_restores_fingerprint() {
        let (mut t, a, _) = crate::topology::pair_via_switch();
        let before = fingerprint_topology(&t);
        let id = t.link_at(Endpoint::Host(a)).unwrap();
        let link = t.disconnect(id);
        assert_ne!(fingerprint_topology(&t), before, "removal changes the fp");
        let id2 = t.try_connect(link.a, link.b).unwrap();
        assert_eq!(id2, id, "freed id is reused LIFO");
        assert_eq!(
            fingerprint_topology(&t),
            before,
            "reverse mutation restores"
        );
    }
}
