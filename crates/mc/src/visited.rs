//! The checker's visited set, collapse-compressed.
//!
//! A canonical key ([`crate::model::encode_into`]) is a run of sections:
//! one per ordered node pair, one per node residue and one for the
//! adversary budget. Sections repeat across states far more than whole
//! keys do (bidir2's 260,276 states are built from 1,405 distinct
//! sections), so each distinct section is stored once, in one byte
//! arena, and numbered, and a state is stored as its tuple of `k`
//! section numbers in one `u32` arena. This is SPIN's COLLAPSE mode
//! (Holzmann 1997), the one-level form of LTSmin's tree compression
//! (Laarman et al. 2011).
//!
//! The set is exact. The key encoding is self-delimiting, so equal keys
//! are cut at the same places and give equal tuples, and unequal keys
//! differ in some section and so in some id. Membership compares section
//! bytes and tuple ids; the hash only picks where a probe starts.

use std::mem::size_of;

/// A free table slot; never handed out as an id.
const EMPTY: u32 = u32::MAX;

/// The multiplier of rustc's `FxHasher`.
const FX: u64 = 0x517c_c1b7_2722_0a95;

/// Fold one word into an Fx-style hash: rotate, xor, multiply. The hash
/// only chooses where a probe starts, so it needs to spread keys, not to
/// resist chosen collisions: every key comes from the model itself.
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FX)
}

/// Hash a section: its length, then its bytes as zero-padded
/// little-endian words.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = fold(0, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w: [u8; 8] = w.try_into().expect("an 8-byte chunk");
        h = fold(h, u64::from_le_bytes(w));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        h = fold(h, u64::from_le_bytes(w));
    }
    h
}

/// Hash a tuple of section ids.
fn hash_ids(ids: &[u32]) -> u64 {
    ids.iter().fold(0, |h, &id| fold(h, u64::from(id)))
}

/// The first slot probed for hash `h`: the multiply leaves its best-mixed
/// bits at the top, and the rotation brings them down to the mask.
fn slot(h: u64, mask: usize) -> usize {
    h.rotate_left(26) as usize & mask
}

/// Section `id` of an interner's arena.
fn section<'a>(arena: &'a [u8], bounds: &[usize], id: u32) -> &'a [u8] {
    &arena[bounds[id as usize]..bounds[id as usize + 1]]
}

/// State `id`'s tuple of `k` section ids.
fn tuple(tuples: &[u32], k: usize, id: u32) -> &[u32] {
    &tuples[id as usize * k..][..k]
}

/// The id after `taken` ones. Panics rather than wrap, or hand out
/// [`EMPTY`].
fn next_id(taken: usize) -> u32 {
    u32::try_from(taken)
        .ok()
        .filter(|&id| id != EMPTY)
        .expect("visited set: more than u32::MAX - 1 distinct entries")
}

/// An open-addressing table of ids, probed linearly and doubled once
/// more than half full. It holds no hashes: a caller compares the entry
/// an id names, and rehashes it when the table grows.
struct Table {
    slots: Vec<u32>,
    len: usize,
}

impl Table {
    fn new() -> Self {
        Self {
            slots: vec![EMPTY; 16],
            len: 0,
        }
    }

    /// The id on `h`'s probe sequence that `is` accepts, or else the
    /// empty slot that ends the sequence.
    fn find(&self, h: u64, is: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = slot(h, mask);
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                id if is(id) => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Put `id` into the empty slot `at` that [`Table::find`] returned;
    /// `hash` gives the hash of any id already held, for regrowth.
    fn insert_at(&mut self, at: usize, id: u32, hash: impl Fn(u32) -> u64) {
        self.slots[at] = id;
        self.len += 1;
        if 2 * self.len <= self.slots.len() {
            return;
        }
        let grown = vec![EMPTY; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for id in old.into_iter().filter(|&id| id != EMPTY) {
            let mut i = slot(hash(id), mask);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = id;
        }
    }

    fn bytes(&self) -> usize {
        self.slots.len() * size_of::<u32>()
    }
}

/// Distinct byte strings, each stored once and numbered in order of
/// first sight.
struct Interner {
    arena: Vec<u8>,
    /// Section `id` is `arena[bounds[id]..bounds[id + 1]]`.
    bounds: Vec<usize>,
    table: Table,
}

impl Interner {
    fn new() -> Self {
        Self {
            arena: Vec::new(),
            bounds: vec![0],
            table: Table::new(),
        }
    }

    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    fn intern(&mut self, bytes: &[u8]) -> u32 {
        let (arena, bounds) = (&self.arena, &self.bounds);
        let is = |id| section(arena, bounds, id) == bytes;
        match self.table.find(hash_bytes(bytes), is) {
            Ok(id) => id,
            Err(at) => {
                let id = next_id(self.len());
                self.arena.extend_from_slice(bytes);
                self.bounds.push(self.arena.len());
                let (arena, bounds) = (&self.arena, &self.bounds);
                let hash = |id| hash_bytes(section(arena, bounds, id));
                self.table.insert_at(at, id, hash);
                id
            }
        }
    }

    fn bytes(&self) -> usize {
        self.arena.len() + self.bounds.len() * size_of::<usize>() + self.table.bytes()
    }
}

/// The set of visited states, numbered in order of first sight.
pub(crate) struct Visited {
    sections: Interner,
    /// Sections per state.
    k: usize,
    /// State `id` is `tuples[id * k..(id + 1) * k]`.
    tuples: Vec<u32>,
    table: Table,
    /// The section ids of the key being inserted.
    ids: Vec<u32>,
}

impl Visited {
    /// An empty set of states whose keys have `k` sections each.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0, "a state key has at least one section");
        Self {
            sections: Interner::new(),
            k,
            tuples: Vec::new(),
            table: Table::new(),
            ids: Vec::with_capacity(k),
        }
    }

    /// Record the state whose canonical key is `key`, with its sections
    /// ending at `cuts`. True when the state had not been seen before;
    /// its id is then the number of states seen before it.
    pub(crate) fn insert(&mut self, key: &[u8], cuts: &[usize]) -> bool {
        assert_eq!(cuts.len(), self.k, "a state key has {} sections", self.k);
        self.ids.clear();
        let mut start = 0;
        for &end in cuts {
            self.ids.push(self.sections.intern(&key[start..end]));
            start = end;
        }
        assert_eq!(start, key.len(), "the last section ends the key");
        let (k, tuples, ids) = (self.k, &self.tuples, &self.ids);
        let is = |id| tuple(tuples, k, id) == ids.as_slice();
        match self.table.find(hash_ids(ids), is) {
            Ok(_) => false,
            Err(at) => {
                let id = next_id(self.len());
                self.tuples.extend_from_slice(&self.ids);
                let tuples = &self.tuples;
                self.table
                    .insert_at(at, id, |id| hash_ids(tuple(tuples, k, id)));
                true
            }
        }
    }

    /// Distinct states held.
    pub(crate) fn len(&self) -> usize {
        self.tuples.len() / self.k
    }

    /// Bytes the set holds: both arenas' contents, the section bounds and
    /// both tables. Capacity a growing arena has reserved but not yet
    /// written is left out; untouched, it is not resident either.
    pub(crate) fn bytes(&self) -> usize {
        self.sections.bytes() + self.tuples.len() * size_of::<u32>() + self.table.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two distinct one-byte-pair sections whose probes start in the same
    /// slot of a fresh 16-slot table.
    fn colliding_sections() -> ([u8; 2], [u8; 2]) {
        let mask = Table::new().slots.len() - 1;
        let mut first_at = [None; 16];
        for i in 0u16.. {
            let bytes = i.to_le_bytes();
            let at = slot(hash_bytes(&bytes), mask);
            match first_at[at] {
                Some(prev) => return (prev, bytes),
                None => first_at[at] = Some(bytes),
            }
        }
        unreachable!("17 sections fill 16 slots")
    }

    #[test]
    fn sections_that_share_a_slot_stay_distinct() {
        let (a, b) = colliding_sections();
        let mut v = Visited::new(1);
        assert!(v.insert(&a, &[2]));
        assert!(v.insert(&b, &[2]));
        assert_eq!((v.len(), v.sections.len()), (2, 2));
        assert!(!v.insert(&a, &[2]));
        assert!(!v.insert(&b, &[2]));
        assert_eq!(v.tuples, [0, 1]);
    }

    #[test]
    fn a_permuted_tuple_is_a_different_state() {
        let mut v = Visited::new(2);
        assert!(v.insert(b"xy", &[1, 2]));
        assert!(v.insert(b"yx", &[1, 2]));
        assert_eq!(v.tuples, [0, 1, 1, 0]);
        assert!(!v.insert(b"xy", &[1, 2]));
        assert!(!v.insert(b"yx", &[1, 2]));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn one_section_at_two_positions_has_one_id() {
        let mut v = Visited::new(2);
        assert!(v.insert(b"aa", &[1, 2]));
        assert_eq!(v.sections.len(), 1);
        assert!(v.insert(b"ab", &[1, 2]));
        assert!(v.insert(b"ba", &[1, 2]));
        assert_eq!(v.sections.len(), 2);
        assert_eq!(v.tuples, [0, 0, 0, 1, 1, 0]);
        for key in [b"aa", b"ab", b"ba"] {
            assert!(!v.insert(key, &[1, 2]));
        }
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn growth_keeps_every_earlier_state() {
        let key = |i: usize| {
            let (a, b) = ((i % 50).to_string(), (i / 50).to_string());
            let cut = a.len();
            (format!("{a}{b}"), [cut, cut + b.len()])
        };
        let mut v = Visited::new(2);
        for i in 0..10_000 {
            let (k, cuts) = key(i);
            assert!(v.insert(k.as_bytes(), &cuts), "state {i} is new");
        }
        // 10,000 states doubled the state table from 16 slots to 32,768.
        assert_eq!(v.table.slots.len(), 32_768);
        for i in 0..10_000 {
            let (k, cuts) = key(i);
            assert!(!v.insert(k.as_bytes(), &cuts), "state {i} is held");
        }
        assert_eq!(v.len(), 10_000);
        // "0" to "49" are also among "0" to "199": 200 sections in all.
        assert_eq!(v.sections.len(), 200);
    }

    #[test]
    fn the_last_id_is_one_below_the_empty_marker() {
        assert_eq!(next_id(u32::MAX as usize - 1), u32::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX - 1 distinct entries")]
    fn an_id_that_would_overflow_panics() {
        next_id(u32::MAX as usize);
    }
}
