//! Slab arena for in-flight message payloads.
//!
//! The event queue used to carry every `N::Msg` inline, so each heap
//! sift-up moved whole protocol messages (blocks, signatures, payload
//! bytes) around memory, and every push/pop churned the allocator at
//! large n. Instead, the engine now parks the payload in an [`Arena`] and
//! queues a 4-byte [`MsgRef`]; events become small PODs whatever the
//! protocol's message type, and freed slots are recycled so steady-state
//! traffic allocates nothing.
//!
//! A slot is *counted*: it is parked once with the number of deliveries
//! that will claim it — `n` for a broadcast, 1 for a unicast — and every
//! delivery event of that send carries the same [`MsgRef`]. Each claim is
//! settled exactly once, by [`Arena::take`] when the event is dispatched
//! or by [`Arena::release`] when it is discarded for a crashed receiver;
//! the last one frees the slot. [`Arena::len`] counts outstanding
//! *claims*, so occupancy equals the number of in-flight deliveries
//! however many slots hold them.

/// Handle to a parked message (index into the arena's slot table).
///
/// `u32` bounds *live* slots at ~4 billion; the slot table is as deep as
/// the number of sends in flight (~n, one per broadcast), so even the
/// largest committees stay far below that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRef(u32);

/// A slab of counted `M` slots with free-list recycling.
///
/// `Clone` (for `M: Clone`) copies slots, claim counts *and* free-list
/// verbatim, so a cloned arena honours every outstanding [`MsgRef`] and
/// hands out the same slot indices for future inserts — required for
/// checkpoint/fork equivalence.
#[derive(Debug, Clone)]
pub struct Arena<M> {
    /// A live slot holds its payload and the deliveries still to claim
    /// it (at least one); a free slot holds nothing.
    slots: Vec<Option<(M, u32)>>,
    free: Vec<u32>,
    /// Outstanding claims across all slots.
    claims: usize,
}

impl<M> Arena<M> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            claims: 0,
        }
    }

    /// Parks `msg` for `claims` deliveries, returning the handle they
    /// share. Reuses a freed slot when one exists; only grows when the
    /// number of live slots hits a new high-water mark.
    ///
    /// # Panics
    /// Panics if `claims` is zero: a slot nobody claims would never be
    /// freed.
    pub fn insert(&mut self, msg: M, claims: u32) -> MsgRef {
        assert!(claims > 0, "a parked message needs at least one claim");
        self.claims += claims as usize;
        let slot = Some((msg, claims));
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none(), "free slot occupied");
                self.slots[idx as usize] = slot;
                MsgRef(idx)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena capacity exceeded u32");
                self.slots.push(slot);
                MsgRef(idx)
            }
        }
    }

    /// Settles one claim with the payload: a clone while other claims
    /// remain, the parked original (freeing the slot) for the last.
    ///
    /// # Panics
    /// Panics if every claim was already settled.
    pub fn take(&mut self, r: MsgRef) -> M
    where
        M: Clone,
    {
        self.settle(r).unwrap_or_else(|| {
            let (msg, _) = self.slots[r.0 as usize]
                .as_ref()
                .expect("a slot with claims left holds its message");
            msg.clone()
        })
    }

    /// Settles one claim without the payload (the receiver crashed): no
    /// clone; the last claim drops the message and frees the slot.
    ///
    /// # Panics
    /// Panics if every claim was already settled.
    pub fn release(&mut self, r: MsgRef) {
        self.settle(r);
    }

    /// Settles one claim on a slot. The last one frees the slot and gets
    /// the parked original; `None` while other claims remain.
    fn settle(&mut self, r: MsgRef) -> Option<M> {
        let slot = &mut self.slots[r.0 as usize];
        let (_, claims) = slot
            .as_mut()
            .expect("message claimed more often than parked");
        self.claims -= 1;
        if *claims > 1 {
            *claims -= 1;
            return None;
        }
        self.free.push(r.0);
        slot.take().map(|(msg, _)| msg)
    }

    /// Number of outstanding claims — deliveries in flight, not slots.
    pub fn len(&self) -> usize {
        self.claims
    }

    /// Whether no message is parked.
    pub fn is_empty(&self) -> bool {
        self.claims == 0
    }

    /// High-water mark: the most slots the arena has ever needed at once.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<M> Default for Arena<M> {
    fn default() -> Self {
        Arena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_round_trips() {
        let mut a = Arena::new();
        let x = a.insert("x", 1);
        let y = a.insert("y", 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a.take(x), "x");
        assert_eq!(a.take(y), "y");
        assert!(a.is_empty());
    }

    #[test]
    fn slots_are_recycled() {
        let mut a = Arena::new();
        let x = a.insert(1u32, 1);
        a.take(x);
        let y = a.insert(2, 1);
        // The freed slot was reused: no capacity growth.
        assert_eq!(a.capacity(), 1);
        assert_eq!(a.take(y), 2);
    }

    #[test]
    #[should_panic(expected = "claimed more often")]
    fn double_take_panics() {
        let mut a = Arena::new();
        let x = a.insert(7u8, 1);
        a.take(x);
        a.take(x);
    }

    /// A payload that counts its clones, so the tests can tell a copy
    /// from the parked original.
    #[derive(Debug)]
    struct Counted(std::rc::Rc<std::cell::Cell<u32>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(self.0.clone())
        }
    }

    #[test]
    fn a_counted_slot_serves_n_takes_and_the_last_frees_it() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut a = Arena::new();
        let r = a.insert(Counted(clones.clone()), 4);
        assert_eq!((a.len(), a.capacity()), (4, 1));
        for left in (0..4).rev() {
            a.take(r);
            assert_eq!(a.len(), left, "len counts claims, not slots");
        }
        // Three copies, then the original: the fourth take did not clone.
        assert_eq!(clones.get(), 3);
        assert!(a.is_empty());
        // The slot is free again: the next insert reuses it.
        let s = a.insert(Counted(clones.clone()), 1);
        assert_eq!((s, a.capacity()), (r, 1));
    }

    #[test]
    fn release_settles_a_claim_without_cloning() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut a = Arena::new();
        let r = a.insert(Counted(clones.clone()), 3);
        a.release(r);
        assert_eq!(a.len(), 2);
        a.take(r);
        // The last claim released drops the original and frees the slot.
        a.release(r);
        assert_eq!(clones.get(), 1, "only the one non-final take cloned");
        assert!(a.is_empty());
        assert_eq!(a.insert(Counted(clones), 1), r);
    }

    #[test]
    #[should_panic(expected = "claimed more often")]
    fn take_after_exhaustion_panics() {
        let mut a = Arena::new();
        let r = a.insert(7u8, 2);
        a.take(r);
        a.take(r);
        a.take(r);
    }

    #[test]
    #[should_panic(expected = "claimed more often")]
    fn release_after_exhaustion_panics() {
        let mut a = Arena::new();
        let r = a.insert(7u8, 1);
        a.release(r);
        a.release(r);
    }

    #[test]
    #[should_panic(expected = "at least one claim")]
    fn a_slot_needs_a_claim() {
        Arena::new().insert(7u8, 0);
    }
}
