//! Per-device memory manager with pluggable eviction.
//!
//! Tracks which tensors are resident on one device, enforces the capacity
//! limit, and selects eviction victims under pressure. The operands of the
//! in-flight contraction are never evicted (a kernel's operands must stay
//! mapped): the caller names them as the allocation's pinned slots, so a
//! device whose capacity cannot hold a single task's working set reports
//! [`AllocError::WontFit`].
//!
//! Internally the resident set is a struct-of-arrays: parallel vectors of
//! per-tensor fields, one *slot* per resident tensor. A slot keeps its
//! index for as long as its tensor stays resident, and a freed slot is
//! reused by a later allocation, so the caller can keep each tensor's slot
//! in its own index: the memory keeps no id→slot map and every operation
//! after the allocation takes the slot. An intrusive doubly-linked list
//! threads the resident slots in victim order — `last_use` order under
//! LRU, `allocated_at` order otherwise — so LRU and FIFO victims are the
//! first unpinned slot from its head, in O(1) per victim. LargestFirst and
//! Clairvoyant scan the slots for their extremum. The scan's keys end in
//! the tensor id, so its victim is unique, independent of slot order and
//! bit-identical to the original map-based implementation; in debug builds
//! it checks every list victim too.

use micco_workload::{TensorDesc, TensorId, TensorSym};

/// Where a resident tensor's bits came from — decides eviction cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Staged from host memory; a clean copy exists there, eviction is a
    /// cheap unmap.
    HostBacked,
    /// Produced on the device by a contraction; eviction must write the
    /// data back to the host.
    DeviceCreated,
}

/// Victim-selection policy (ablation target — the paper does not pin one
/// down; LRU matches unified-memory behaviour and is the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    /// Evict the least recently used unpinned tensor.
    Lru,
    /// Evict the oldest-allocated unpinned tensor.
    Fifo,
    /// Evict the largest unpinned tensor first (fewest evictions).
    LargestFirst,
    /// Belady's clairvoyant policy: evict the unpinned tensor whose next
    /// use lies furthest in the future (never-used-again first). Requires
    /// next-use oracle feeds ([`DeviceMemory::set_next_use`], wired up by
    /// `SimMachine::with_oracle`); an offline upper bound for the eviction
    /// ablation, not something real hardware can do.
    Clairvoyant,
}

/// A tensor evicted by [`DeviceMemory::allocate_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Which tensor was displaced.
    pub id: TensorId,
    /// Its symbol, as given to the allocation.
    pub sym: TensorSym,
    /// Its footprint.
    pub bytes: u64,
    /// Whether the eviction pays a write-back (device-created data).
    pub writeback: bool,
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Even after evicting everything unpinned the allocation cannot fit.
    WontFit {
        /// Requested bytes.
        requested: u64,
        /// Device capacity.
        capacity: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::WontFit { requested, capacity } => write!(
                f,
                "allocation of {requested} B cannot fit device capacity {capacity} B even after evicting all unpinned tensors"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// End of a slot list (no slot).
const NIL: u32 = u32::MAX;

/// The symbol of a free slot (interners never hand out `u32::MAX`).
const VACANT: TensorSym = TensorSym(u32::MAX);

/// Memory state of one simulated device.
///
/// Resident-tensor state lives in parallel vectors, one slot per resident
/// tensor. [`DeviceMemory::allocate_into`] returns the new tensor's slot,
/// which stays its slot until it is evicted or discarded; free slots are
/// chained through `next` and reused first.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    capacity: u64,
    used: u64,
    policy: EvictionPolicy,
    /// Resident tensors.
    resident: usize,
    ids: Vec<TensorId>,
    /// Symbol per slot; [`VACANT`] marks a free slot.
    syms: Vec<TensorSym>,
    bytes: Vec<u64>,
    last_use: Vec<u64>,
    allocated_at: Vec<u64>,
    /// Global task index of the next use (Clairvoyant only; `u64::MAX`
    /// means never used again).
    next_use: Vec<u64>,
    provenance: Vec<Provenance>,
    /// Victim list links, one per slot. Every touch and allocation takes a
    /// fresh clock tick, so appending at `tail` (or moving a slot there on
    /// an LRU touch) keeps the list sorted by the scan's key. A free slot
    /// is off the list, and its `next` chains the free slots instead.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Oldest slot (first victim candidate), or [`NIL`] when empty.
    head: u32,
    /// Newest slot, or [`NIL`] when empty.
    tail: u32,
    /// First free slot, or [`NIL`] when every slot is resident.
    free_slot: u32,
    clock: u64,
}

impl DeviceMemory {
    /// Empty device of the given capacity.
    pub fn new(capacity: u64, policy: EvictionPolicy) -> Self {
        DeviceMemory {
            capacity,
            used: 0,
            policy,
            resident: 0,
            ids: Vec::new(),
            syms: Vec::new(),
            bytes: Vec::new(),
            last_use: Vec::new(),
            allocated_at: Vec::new(),
            next_use: Vec::new(),
            provenance: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            free_slot: NIL,
            clock: 0,
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of resident tensors.
    pub fn resident_count(&self) -> usize {
        self.resident
    }

    /// Iterate over resident tensor ids (arbitrary order).
    pub fn resident_ids(&self) -> impl Iterator<Item = TensorId> + '_ {
        self.ids
            .iter()
            .zip(&self.syms)
            .filter(|&(_, &s)| s != VACANT)
            .map(|(&id, _)| id)
    }

    /// Record a use of the tensor in `slot` (refreshes its LRU position).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `slot` is not resident.
    pub fn touch(&mut self, slot: u32) {
        debug_assert!(self.is_resident(slot), "touch of free slot {slot}");
        self.clock += 1;
        self.last_use[slot as usize] = self.clock;
        if self.policy == EvictionPolicy::Lru && slot != self.tail {
            self.unlink(slot);
            self.link_tail(slot);
        }
    }

    /// Feed the clairvoyant policy the next-use position of the tensor in
    /// `slot` (`u64::MAX` = never again).
    pub fn set_next_use(&mut self, slot: u32, next_use: u64) {
        debug_assert!(self.is_resident(slot), "next use of free slot {slot}");
        self.next_use[slot as usize] = next_use;
    }

    /// Allocate room for `tensor` (with symbol `sym`, which the caller
    /// knows is not resident here), evicting victims if needed, and return
    /// its slot. Victims are appended to `evicted`; the slots in `pinned`
    /// — the in-flight task's operands — are never chosen.
    pub fn allocate_into(
        &mut self,
        tensor: TensorDesc,
        sym: TensorSym,
        provenance: Provenance,
        pinned: &[u32],
        evicted: &mut Vec<Evicted>,
    ) -> Result<u32, AllocError> {
        debug_assert!(
            sym != VACANT && !self.syms.contains(&sym),
            "{sym:?} already resident"
        );
        let bytes = tensor.bytes;
        let evictable = self.used - self.pinned_bytes(pinned);
        if bytes > self.free() + evictable || bytes > self.capacity {
            return Err(AllocError::WontFit {
                requested: bytes,
                capacity: self.capacity,
            });
        }
        while self.free() < bytes {
            let victim = self
                .pick_victim(pinned)
                .expect("evictable bytes were sufficient");
            evicted.push(self.remove_slot(victim));
        }
        self.clock += 1;
        let slot = match self.free_slot {
            NIL => {
                let slot = u32::try_from(self.syms.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("resident set exceeds u32 slots");
                self.ids.push(tensor.id);
                self.syms.push(sym);
                self.bytes.push(bytes);
                self.last_use.push(self.clock);
                self.allocated_at.push(self.clock);
                self.next_use.push(u64::MAX);
                self.provenance.push(provenance);
                self.prev.push(NIL);
                self.next.push(NIL);
                slot
            }
            slot => {
                let s = slot as usize;
                self.free_slot = self.next[s];
                self.ids[s] = tensor.id;
                self.syms[s] = sym;
                self.bytes[s] = bytes;
                self.last_use[s] = self.clock;
                self.allocated_at[s] = self.clock;
                self.next_use[s] = u64::MAX;
                self.provenance[s] = provenance;
                slot
            }
        };
        self.link_tail(slot);
        self.used += bytes;
        self.resident += 1;
        Ok(slot)
    }

    /// Drop the tensor in `slot` without cost accounting; false when the
    /// slot holds nothing.
    pub fn discard(&mut self, slot: u32) -> bool {
        if !self.is_resident(slot) {
            return false;
        }
        self.remove_slot(slot as usize);
        true
    }

    fn is_resident(&self, slot: u32) -> bool {
        self.syms.get(slot as usize).is_some_and(|&s| s != VACANT)
    }

    /// Bytes held by the distinct slots in `pinned`.
    fn pinned_bytes(&self, pinned: &[u32]) -> u64 {
        let mut total = 0;
        for (i, &p) in pinned.iter().enumerate() {
            debug_assert!(self.is_resident(p), "pinned free slot {p}");
            if !pinned[..i].contains(&p) {
                total += self.bytes[p as usize];
            }
        }
        total
    }

    /// Free `slot`, taking it off the victim list and onto the free list.
    fn remove_slot(&mut self, slot: usize) -> Evicted {
        let out = Evicted {
            id: self.ids[slot],
            sym: self.syms[slot],
            bytes: self.bytes[slot],
            writeback: self.provenance[slot] == Provenance::DeviceCreated,
        };
        self.used -= self.bytes[slot];
        self.resident -= 1;
        self.unlink(slot as u32);
        self.syms[slot] = VACANT;
        self.next[slot] = self.free_slot;
        self.free_slot = slot as u32;
        out
    }

    /// Append `slot` at the list tail (it must be unlinked).
    fn link_tail(&mut self, slot: u32) {
        let s = slot as usize;
        self.prev[s] = self.tail;
        self.next[s] = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.next[t as usize] = slot,
        }
        self.tail = slot;
    }

    /// Take `slot` out of the list, joining its neighbours.
    fn unlink(&mut self, slot: u32) {
        let s = slot as usize;
        let (p, n) = (self.prev[s], self.next[s]);
        match p {
            NIL => self.head = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n as usize] = p,
        }
    }

    /// Slot of the eviction victim under the active policy: the first
    /// unpinned slot of the victim list for LRU and FIFO, the scan's
    /// extremum otherwise.
    fn pick_victim(&self, pinned: &[u32]) -> Option<usize> {
        match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => {
                let mut s = self.head;
                while s != NIL && pinned.contains(&s) {
                    s = self.next[s as usize];
                }
                let victim = (s != NIL).then_some(s as usize);
                debug_assert_eq!(
                    victim,
                    self.scan_victim(pinned),
                    "victim list diverged from the scan"
                );
                victim
            }
            EvictionPolicy::LargestFirst | EvictionPolicy::Clairvoyant => self.scan_victim(pinned),
        }
    }

    /// The victim by a full scan of the resident slots.
    ///
    /// Every policy's key ends in the tensor id (or its complement), so the
    /// extremum is unique and the scan order over slots cannot change the
    /// outcome — this must match the original `HashMap`-iteration
    /// implementation victim-for-victim.
    fn scan_victim(&self, pinned: &[u32]) -> Option<usize> {
        let candidates = (0..self.syms.len())
            .filter(|&s| self.syms[s] != VACANT && !pinned.contains(&(s as u32)));

        match self.policy {
            EvictionPolicy::Lru => candidates.min_by_key(|&s| (self.last_use[s], self.ids[s].0)),
            EvictionPolicy::Fifo => {
                candidates.min_by_key(|&s| (self.allocated_at[s], self.ids[s].0))
            }
            EvictionPolicy::LargestFirst => {
                candidates.max_by_key(|&s| (self.bytes[s], u64::MAX - self.ids[s].0))
            }
            EvictionPolicy::Clairvoyant => candidates.max_by_key(|&s| {
                (
                    self.next_use[s],
                    u64::MAX - self.last_use[s],
                    u64::MAX - self.ids[s].0,
                )
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A device addressed by id: the test keeps the id→slot index the
    /// machine would keep, with each tensor's symbol equal to its id.
    struct Dev {
        m: DeviceMemory,
        slots: HashMap<u64, u32>,
    }

    fn mem(cap: u64, policy: EvictionPolicy) -> Dev {
        Dev {
            m: DeviceMemory::new(cap, policy),
            slots: HashMap::new(),
        }
    }

    fn ev(id: u64, bytes: u64, writeback: bool) -> Evicted {
        Evicted {
            id: TensorId(id),
            sym: TensorSym(id as u32),
            bytes,
            writeback,
        }
    }

    impl Dev {
        /// Allocate `id` with the resident tensors `pinned` held in place.
        fn alloc(
            &mut self,
            id: u64,
            bytes: u64,
            provenance: Provenance,
            pinned: &[u64],
        ) -> Result<Vec<Evicted>, AllocError> {
            assert!(!self.holds(id), "test allocates resident {id}");
            let pins: Vec<u32> = pinned.iter().map(|p| self.slots[p]).collect();
            let mut evicted = Vec::new();
            let desc = TensorDesc {
                id: TensorId(id),
                bytes,
            };
            let slot = self.m.allocate_into(
                desc,
                TensorSym(id as u32),
                provenance,
                &pins,
                &mut evicted,
            )?;
            for e in &evicted {
                self.slots.remove(&e.id.0).expect("victim was indexed");
            }
            self.slots.insert(id, slot);
            Ok(evicted)
        }

        fn alloc_host(&mut self, id: u64, bytes: u64) -> Vec<Evicted> {
            self.alloc(id, bytes, Provenance::HostBacked, &[]).unwrap()
        }

        fn holds(&self, id: u64) -> bool {
            self.slots.contains_key(&id)
        }

        fn touch(&mut self, id: u64) {
            self.m.touch(self.slots[&id]);
        }

        fn set_next_use(&mut self, id: u64, next_use: u64) {
            self.m.set_next_use(self.slots[&id], next_use);
        }

        fn discard(&mut self, id: u64) -> bool {
            match self.slots.remove(&id) {
                Some(slot) => self.m.discard(slot),
                None => false,
            }
        }

        /// Ids in victim-list order, head first, after checking the list:
        /// every resident slot once, links mutually consistent, keys
        /// strictly increasing (`last_use` under LRU, `allocated_at`
        /// otherwise), and the index pointing at each id's slot.
        fn victim_order(&self) -> Vec<u64> {
            let m = &self.m;
            let key = |s: usize| match m.policy {
                EvictionPolicy::Lru => m.last_use[s],
                _ => m.allocated_at[s],
            };
            let mut order = Vec::new();
            let (mut prev, mut s) = (NIL, m.head);
            while s != NIL {
                assert!(order.len() < m.resident, "cycle in the victim list");
                assert_eq!(m.prev[s as usize], prev, "broken back link");
                if prev != NIL {
                    assert!(key(prev as usize) < key(s as usize), "list out of order");
                }
                let id = m.ids[s as usize].0;
                assert_eq!(self.slots.get(&id), Some(&s), "slot of {id} moved");
                order.push(id);
                (prev, s) = (s, m.next[s as usize]);
            }
            assert_eq!(m.tail, prev);
            assert_eq!(order.len(), m.resident, "slots missing from the list");
            assert_eq!(order.len(), self.slots.len());
            order
        }
    }

    #[test]
    fn basic_accounting() {
        let mut d = mem(100, EvictionPolicy::Lru);
        assert_eq!(d.m.free(), 100);
        d.alloc_host(1, 40);
        assert_eq!(d.m.used(), 40);
        assert_eq!(d.m.resident_count(), 1);
        assert!(d.discard(1));
        assert_eq!(d.m.used(), 0);
        assert!(!d.discard(1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut d = mem(100, EvictionPolicy::Lru);
        d.alloc_host(1, 40);
        d.alloc_host(2, 40);
        d.touch(1); // tensor 2 is now LRU
        let evicted = d.alloc_host(3, 40);
        assert_eq!(evicted, [ev(2, 40, false)]);
        assert!(d.holds(1) && d.holds(3) && !d.holds(2));
    }

    #[test]
    fn fifo_evicts_oldest_allocation() {
        let mut d = mem(100, EvictionPolicy::Fifo);
        d.alloc_host(1, 40);
        d.alloc_host(2, 40);
        d.touch(1); // FIFO ignores use recency
        assert_eq!(d.alloc_host(3, 40)[0].id, TensorId(1));
    }

    #[test]
    fn largest_first_minimises_victim_count() {
        let mut d = mem(100, EvictionPolicy::LargestFirst);
        d.alloc_host(1, 60);
        d.alloc_host(2, 10);
        d.alloc_host(3, 10);
        // evicting the single 60 B tensor frees enough; smaller-first LRU
        // would have needed two victims
        assert_eq!(d.alloc_host(4, 80), [ev(1, 60, false)]);
    }

    #[test]
    fn pinned_tensors_survive_pressure() {
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
            EvictionPolicy::LargestFirst,
            EvictionPolicy::Clairvoyant,
        ] {
            let mut d = mem(100, policy);
            d.alloc_host(1, 50);
            d.alloc_host(2, 40);
            let evicted = d.alloc(3, 40, Provenance::HostBacked, &[1]).unwrap();
            assert_eq!(
                evicted[0].id,
                TensorId(2),
                "{policy:?}: pinned tensor 1 must not be evicted"
            );
            assert!(d.holds(1));
            // the pinned head stays linked; victims skip it
            assert_eq!(d.victim_order(), [1, 3], "{policy:?}");
        }
    }

    #[test]
    fn wont_fit_when_pinned_blocks() {
        let mut d = mem(100, EvictionPolicy::Lru);
        d.alloc_host(1, 80);
        assert_eq!(
            d.alloc(2, 40, Provenance::HostBacked, &[1]),
            Err(AllocError::WontFit {
                requested: 40,
                capacity: 100
            })
        );
        // the same request evicts tensor 1 once nothing pins it
        assert_eq!(d.alloc_host(2, 40), [ev(1, 80, false)]);
    }

    #[test]
    fn wont_fit_when_larger_than_capacity() {
        let mut d = mem(100, EvictionPolicy::Lru);
        assert!(d.alloc(1, 101, Provenance::HostBacked, &[]).is_err());
    }

    #[test]
    fn writeback_flag_tracks_provenance() {
        let mut d = mem(100, EvictionPolicy::Lru);
        d.alloc(1, 50, Provenance::DeviceCreated, &[]).unwrap();
        d.alloc_host(2, 50);
        assert_eq!(d.alloc_host(3, 100), [ev(1, 50, true), ev(2, 50, false)]);
    }

    #[test]
    fn multiple_evictions_until_fit() {
        let mut d = mem(100, EvictionPolicy::Lru);
        for i in 0..10 {
            d.alloc_host(i, 10);
        }
        assert_eq!(d.alloc_host(99, 35).len(), 4); // 4 × 10 B victims to free 35 B
        assert_eq!(d.m.used(), 60 + 35);
    }

    #[test]
    fn exact_fit_no_eviction() {
        let mut d = mem(100, EvictionPolicy::Lru);
        d.alloc_host(1, 60);
        assert!(d.alloc_host(2, 40).is_empty());
        assert_eq!(d.m.free(), 0);
    }

    #[test]
    fn capacity_invariant_holds_under_churn() {
        let mut d = mem(1000, EvictionPolicy::Lru);
        for i in 0..200u64 {
            let bytes = 37 + (i * 13) % 113;
            d.alloc_host(i, bytes);
            assert!(d.m.used() <= d.m.capacity(), "iteration {i}");
            if i % 3 == 0 && d.holds(i / 2) {
                d.touch(i / 2);
            }
        }
        d.victim_order();
    }

    #[test]
    fn resident_ids_iterates_all() {
        let mut d = mem(100, EvictionPolicy::Lru);
        d.alloc_host(1, 10);
        d.alloc_host(2, 10);
        d.alloc_host(3, 10);
        assert!(d.discard(2));
        let mut ids: Vec<u64> = d.m.resident_ids().map(|t| t.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn all_pinned_device_rejects_any_allocation() {
        let mut d = mem(100, EvictionPolicy::Lru);
        d.alloc_host(1, 60);
        d.alloc(2, 40, Provenance::DeviceCreated, &[1]).unwrap();
        // fully pinned and fully occupied: nothing can be evicted
        assert_eq!(
            d.alloc(3, 1, Provenance::HostBacked, &[1, 2]),
            Err(AllocError::WontFit {
                requested: 1,
                capacity: 100
            })
        );
        assert_eq!(d.m.resident_count(), 2, "failed alloc must not evict");
        assert_eq!(d.m.used(), 100);
        // pinning only one makes the same request succeed
        let evicted = d.alloc(3, 1, Provenance::HostBacked, &[1]).unwrap();
        assert_eq!(
            evicted,
            [ev(2, 40, true)],
            "device-created victim pays a write-back"
        );
    }

    #[test]
    fn a_slot_pinned_twice_counts_once() {
        // a task whose operands are one tensor pins its slot twice: the
        // evictable bytes are still everything but that one tensor
        let mut d = mem(100, EvictionPolicy::Lru);
        d.alloc_host(1, 30);
        d.alloc_host(2, 30);
        assert!(d.alloc(3, 71, Provenance::HostBacked, &[1, 1]).is_err());
        assert_eq!(
            d.alloc(3, 70, Provenance::HostBacked, &[1, 1]).unwrap(),
            [ev(2, 30, false)]
        );
    }

    #[test]
    fn zero_capacity_device_rejects_everything_but_stays_consistent() {
        let mut d = mem(0, EvictionPolicy::Lru);
        assert_eq!((d.m.capacity(), d.m.free(), d.m.used()), (0, 0, 0));
        for bytes in [1u64, 100] {
            assert_eq!(
                d.alloc(1, bytes, Provenance::HostBacked, &[]),
                Err(AllocError::WontFit {
                    requested: bytes,
                    capacity: 0
                })
            );
        }
        assert_eq!(d.m.resident_count(), 0);
        assert!(!d.m.discard(0), "no slot exists yet");
        // zero-byte allocations are degenerate but must not corrupt state
        assert!(d.alloc(2, 0, Provenance::HostBacked, &[]).is_ok());
        assert!(d.holds(2));
        assert_eq!(d.m.used(), 0);
    }

    #[test]
    fn clairvoyant_prefers_furthest_next_use() {
        let mut d = mem(100, EvictionPolicy::Clairvoyant);
        d.alloc_host(1, 40);
        d.alloc_host(2, 40);
        d.set_next_use(1, 5);
        d.set_next_use(2, 50); // used furthest in the future
        assert_eq!(d.alloc_host(3, 40)[0].id, TensorId(2));
        // a never-again tensor (the default MAX) loses to any finite use
        d.set_next_use(1, 5);
        assert_eq!(
            d.alloc_host(4, 40)[0].id,
            TensorId(3),
            "tensor 3 has next_use = MAX"
        );
    }

    #[test]
    fn set_next_use_is_policy_neutral_for_non_clairvoyant() {
        // feeding oracle positions must not perturb LRU/FIFO ordering
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Fifo] {
            let mut d = mem(100, policy);
            d.alloc_host(1, 40);
            d.alloc_host(2, 40);
            d.touch(1); // tensor 2 is LRU; tensor 1 is FIFO-oldest
            d.set_next_use(1, 1000);
            d.set_next_use(2, 1);
            let expected = match policy {
                EvictionPolicy::Lru => TensorId(2),
                _ => TensorId(1),
            };
            assert_eq!(d.alloc_host(3, 40)[0].id, expected, "{policy:?}");
        }
    }

    #[test]
    fn discard_of_a_free_slot_is_a_clean_no_op() {
        let mut d = mem(100, EvictionPolicy::Lru);
        d.alloc_host(1, 40);
        let slot = d.slots[&1];
        assert!(!d.m.discard(slot + 1), "slot past the end");
        assert_eq!((d.m.used(), d.m.resident_count()), (40, 1));
        assert!(d.m.discard(slot));
        assert!(!d.m.discard(slot), "double discard");
        assert_eq!((d.m.used(), d.m.resident_count()), (0, 0));
    }

    #[test]
    fn slots_stay_put_and_free_slots_are_reused() {
        // interleaved discards + allocations: every resident tensor keeps
        // its slot, and new tensors fill the freed slots before growing
        let mut d = mem(1_000, EvictionPolicy::Lru);
        for i in 0..20 {
            d.alloc_host(i, 10);
        }
        let before: Vec<u32> = (0..20).map(|i| d.slots[&i]).collect();
        for i in (0..20).step_by(2) {
            assert!(d.discard(i));
        }
        assert_eq!(d.m.resident_count(), 10);
        for i in (1..20).step_by(2) {
            assert_eq!(d.slots[&i], before[i as usize], "tensor {i} moved");
        }
        for i in 20..30 {
            d.alloc_host(i, 10);
        }
        assert_eq!(d.m.syms.len(), 20, "freed slots were reused");
        d.victim_order();
        // odd tensors must still be touchable at their slots, and pinning
        // one keeps it through heavy pressure
        d.touch(19);
        for i in 30..39 {
            d.alloc(i, 100, Provenance::HostBacked, &[19]).unwrap();
        }
        assert!(d.holds(19), "pinned tensor survives heavy pressure");
        assert!(d.m.used() <= d.m.capacity());
        d.victim_order();
    }

    #[test]
    fn victim_list_survives_removing_head_tail_middle_and_only_slot() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Fifo] {
            let mut d = mem(1_000, policy);
            for i in 1..=5 {
                d.alloc_host(i, 10);
            }
            d.touch(2);
            let mut expect = match policy {
                EvictionPolicy::Lru => vec![1, 3, 4, 5, 2],
                _ => vec![1, 2, 3, 4, 5],
            };
            assert_eq!(d.victim_order(), expect, "{policy:?}");
            // the head, then the tail, then a middle slot
            for at in [0, 3, 1] {
                let id = expect.remove(at);
                assert!(d.discard(id));
                assert_eq!(d.victim_order(), expect, "{policy:?} without {id}");
            }
            // an eviction takes the head
            let evicted = d.alloc_host(6, 985);
            assert_eq!(
                evicted.iter().map(|e| e.id.0).collect::<Vec<_>>(),
                [expect[0]]
            );
            expect = vec![expect[1], 6];
            assert_eq!(d.victim_order(), expect, "{policy:?}");
            // down to the only slot, then empty, then refilled
            assert!(d.discard(expect[0]));
            assert_eq!(d.victim_order(), [6]);
            assert!(d.discard(6));
            assert_eq!((d.m.head, d.m.tail), (NIL, NIL));
            assert!(d.victim_order().is_empty());
            d.alloc_host(7, 10);
            assert_eq!(d.victim_order(), [7]);
        }
    }

    #[test]
    fn alloc_error_display() {
        let e = AllocError::WontFit {
            requested: 5,
            capacity: 3,
        };
        assert!(e.to_string().contains("cannot fit"));
    }
}
