//! The censor's TCB table: a dense slab of TCBs with free-list reuse,
//! indexed by a compact `FourTuple → slot` map.
//!
//! A TCB is 128 bytes. Stored inline in a hash map, it is paid for in
//! every bucket, and a map that grew to hold 65,536 TCBs spans 131,072
//! buckets (19 MB). Here the map holds only 4-byte slot numbers, and the
//! TCBs sit contiguously in a slab that grows only when no freed slot is
//! left, so its size follows the peak number of live TCBs. No TCB is
//! boxed: an insertion costs no allocation once the slab is warm.

use crate::tcb::CensorTcb;
use intang_packet::{FourTuple, FxHashMap};

/// Censor TCBs keyed by canonical four-tuple. Slot numbers stay valid
/// until their TCB is removed.
#[derive(Default)]
pub(crate) struct TcbTable {
    index: FxHashMap<FourTuple, u32>,
    /// `None` marks a free slot (its number is on `free`).
    slots: Vec<Option<CensorTcb>>,
    free: Vec<u32>,
}

impl TcbTable {
    /// Live TCBs.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The slot holding `key`'s TCB.
    #[inline]
    pub(crate) fn slot(&self, key: &FourTuple) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// The TCB in a live slot (from [`TcbTable::slot`]).
    #[inline]
    pub(crate) fn at(&self, slot: u32) -> &CensorTcb {
        self.slots[slot as usize].as_ref().expect("slot is live")
    }

    /// The TCB in a live slot, mutably.
    #[inline]
    pub(crate) fn at_mut(&mut self, slot: u32) -> &mut CensorTcb {
        self.slots[slot as usize].as_mut().expect("slot is live")
    }

    pub(crate) fn contains_key(&self, key: &FourTuple) -> bool {
        self.index.contains_key(key)
    }

    pub(crate) fn get(&self, key: &FourTuple) -> Option<&CensorTcb> {
        self.slot(key).map(|s| self.at(s))
    }

    /// Store `tcb` under `key`, which must have no TCB, in the most
    /// recently freed slot or a new one; returns the slot.
    pub(crate) fn insert(&mut self, key: FourTuple, tcb: CensorTcb) -> u32 {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(tcb);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("TCB slab exceeds u32 slots");
                self.slots.push(Some(tcb));
                s
            }
        };
        let prev = self.index.insert(key, slot);
        debug_assert!(prev.is_none(), "key already had a TCB");
        slot
    }

    /// Remove and return `key`'s TCB; its slot is reused by a later
    /// insertion.
    pub(crate) fn remove(&mut self, key: &FourTuple) -> Option<CensorTcb> {
        let slot = self.index.remove(key)?;
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    /// Slots the slab holds, live or free.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcb::CensorTcb;
    use intang_tcpstack::reasm::SegmentOverlapPolicy;
    use std::net::Ipv4Addr;

    fn key(i: u16) -> FourTuple {
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_000 + i, Ipv4Addr::new(203, 0, 113, 1), 80).canonical()
    }

    fn tcb(isn: u32) -> CensorTcb {
        CensorTcb::from_syn(
            (Ipv4Addr::new(10, 0, 0, 1), 1),
            (Ipv4Addr::new(203, 0, 113, 1), 80),
            isn,
            SegmentOverlapPolicy::FirstWins,
        )
    }

    #[test]
    fn option_slot_costs_no_space_over_a_tcb() {
        assert_eq!(std::mem::size_of::<Option<CensorTcb>>(), std::mem::size_of::<CensorTcb>());
    }

    #[test]
    fn freed_slots_are_reused_before_the_slab_grows() {
        let mut t = TcbTable::default();
        for i in 0..8 {
            t.insert(key(i), tcb(u32::from(i)));
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.remove(&key(3)).map(|x| x.client_isn), Some(3));
        assert!(t.remove(&key(3)).is_none());
        assert!(!t.contains_key(&key(3)));
        let s = t.insert(key(100), tcb(100));
        assert_eq!(s, 3, "the freed slot is taken first");
        assert_eq!(t.slab_len(), 8);
        assert_eq!(t.get(&key(100)).map(|x| x.client_isn), Some(100));
        assert_eq!(t.get(&key(4)).map(|x| x.client_isn), Some(4));
        let s4 = t.slot(&key(4)).expect("live");
        t.at_mut(s4).detected = true;
        assert!(t.get(&key(4)).expect("live").detected);
    }
}
