//! Arena allocators for hot simulation state.
//!
//! * [`Slab`] — stable `u32` indices with generation tags. Matches the
//!   semantics the fabric engine previously hand-rolled for in-flight
//!   packets (`Vec<Option<Flight>>` + epoch vector + LIFO free list), so
//!   porting onto it changes no slot-reuse order and therefore no trace.
//!   A flight keeps its held channels and recorded ports inline, so the
//!   slab slot is all the storage it needs.
//! * [`Pool`] — recycles `Box<T>` allocations on the NIC packet hot path:
//!   every wire, receive and host-delivery event's packet box.
//!
//! With these and the timing wheel's node arena, a steady-state run
//! allocates nothing per event; the root crate's `alloc_free_run` test
//! pins that.

/// Slab with stable indices, LIFO slot reuse, and per-slot generation tags.
///
/// Generations start at 0 and bump on removal, so a live handle is
/// `(index, generation)` and a stale handle can be detected by equality —
/// the same discipline the fabric engine uses for its flight epochs.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Insert, returning `(index, generation)` of the slot used.
    pub fn insert(&mut self, value: T) -> (u32, u32) {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            debug_assert!(self.slots[idx as usize].is_none());
            self.slots[idx as usize] = Some(value);
            (idx, self.gens[idx as usize])
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Some(value));
            self.gens.push(0);
            (idx, 0)
        }
    }

    /// Remove the value at `idx`, bumping its generation and recycling the
    /// slot (LIFO). Returns `None` if the slot is already vacant.
    pub fn remove(&mut self, idx: u32) -> Option<T> {
        let v = self.slots.get_mut(idx as usize)?.take()?;
        self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
        self.free.push(idx);
        self.len -= 1;
        Some(v)
    }

    #[inline]
    pub fn get(&self, idx: u32) -> Option<&T> {
        self.slots.get(idx as usize)?.as_ref()
    }

    #[inline]
    pub fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        self.slots.get_mut(idx as usize)?.as_mut()
    }

    /// Current generation of slot `idx` (0 for never-used indices in range).
    #[inline]
    pub fn generation(&self, idx: u32) -> u32 {
        self.gens.get(idx as usize).copied().unwrap_or(0)
    }

    /// True iff `(idx, generation)` names a live value.
    #[inline]
    pub fn contains(&self, idx: u32, generation: u32) -> bool {
        self.generation(idx) == generation && self.get(idx).is_some()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate `(index, &value)` over occupied slots in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Bounded recycler for `Box<T>` allocations.
///
/// The NIC layer boxes every packet it schedules through the event queue;
/// recycling the boxes turns that steady malloc/free churn into a pointer
/// swap. Contents of recycled boxes are overwritten by the caller.
#[derive(Debug)]
pub struct Pool<T> {
    free: Vec<Box<T>>,
    cap: usize,
}

impl<T> Pool<T> {
    pub fn new(cap: usize) -> Self {
        Self {
            free: Vec::new(),
            cap,
        }
    }

    /// Take a box, filling it with `make()`. Reuses a pooled allocation when
    /// one is available.
    pub fn take_with(&mut self, make: impl FnOnce() -> T) -> Box<T> {
        if let Some(mut b) = self.free.pop() {
            *b = make();
            b
        } else {
            Box::new(make())
        }
    }

    /// Return a box to the pool (dropped if the pool is full).
    pub fn put(&mut self, b: Box<T>) {
        if self.free.len() < self.cap {
            self.free.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_reuses_slots_lifo_and_bumps_generation() {
        let mut s = Slab::new();
        let (a, ga) = s.insert("a");
        let (b, gb) = s.insert("b");
        assert_eq!((a, ga, b, gb), (0, 0, 1, 0));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(b), Some("b"));
        assert_eq!(s.remove(b), None);
        // LIFO: last freed slot is reused first.
        let (c, gc) = s.insert("c");
        assert_eq!((c, gc), (b, 1));
        let (d, gd) = s.insert("d");
        assert_eq!((d, gd), (a, 1));
        assert!(s.contains(c, 1));
        assert!(!s.contains(c, 0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().map(|(i, _)| i).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn pool_recycles_boxes() {
        let mut p: Pool<u64> = Pool::new(4);
        let a = p.take_with(|| 1);
        let addr: *const u64 = &*a;
        p.put(a);
        let b = p.take_with(|| 2);
        assert!(std::ptr::eq(&*b, addr), "the pooled box is reused");
        assert_eq!(*b, 2);
    }
}
