//! Per-device memory manager with pluggable eviction.
//!
//! Tracks which tensors are resident on one device, enforces the capacity
//! limit, and selects eviction victims under pressure. Tensors pinned by the
//! in-flight contraction are never evicted (a kernel's operands must stay
//! mapped), so a device whose capacity cannot hold a single task's working
//! set reports [`AllocError::WontFit`].
//!
//! Internally the resident set is a struct-of-arrays: parallel vectors of
//! per-tensor fields kept dense by swap-removal, plus a fast-hash id→slot
//! index. An intrusive doubly-linked list threads the slots in victim
//! order — `last_use` order under LRU, `allocated_at` order otherwise —
//! so LRU and FIFO victims are the first unpinned slot from its head, in
//! O(1) per victim while at most a few tensors are pinned. LargestFirst
//! and Clairvoyant scan the dense arrays for their extremum. The scan's
//! keys end in the tensor id, so its victim is unique, independent of slot
//! order and bit-identical to the original map-based implementation; in
//! debug builds it checks every list victim too.

use micco_workload::{FastIdMap, TensorId};

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

/// A tensor evicted by [`DeviceMemory::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Which tensor was displaced.
    pub id: TensorId,
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

/// End of the victim list (no slot).
const NIL: u32 = u32::MAX;

/// Memory state of one simulated device.
///
/// Resident-tensor state lives in parallel dense vectors (one slot per
/// resident tensor); `slot_of` maps id → slot and slots stay dense via
/// swap-removal on eviction/discard.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    capacity: u64,
    used: u64,
    policy: EvictionPolicy,
    slot_of: FastIdMap<TensorId, u32>,
    ids: Vec<TensorId>,
    bytes: Vec<u64>,
    last_use: Vec<u64>,
    allocated_at: Vec<u64>,
    /// Global task index of the next use (Clairvoyant only; `u64::MAX`
    /// means never used again).
    next_use: Vec<u64>,
    pinned: Vec<bool>,
    provenance: Vec<Provenance>,
    /// Bytes of currently pinned tensors, maintained incrementally so the
    /// per-allocation evictable-capacity check (`used - pinned_bytes`) is
    /// O(1) instead of a scan over every resident tensor.
    pinned_bytes: u64,
    /// Victim list links, one per slot. Every touch and allocation takes a
    /// fresh clock tick, so appending at `tail` (or moving a slot there on
    /// an LRU touch) keeps the list sorted by the scan's key.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Oldest slot (first victim candidate), or [`NIL`] when empty.
    head: u32,
    /// Newest slot, or [`NIL`] when empty.
    tail: u32,
    clock: u64,
}

impl DeviceMemory {
    /// Empty device of the given capacity.
    pub fn new(capacity: u64, policy: EvictionPolicy) -> Self {
        DeviceMemory {
            capacity,
            used: 0,
            policy,
            slot_of: FastIdMap::default(),
            ids: Vec::new(),
            bytes: Vec::new(),
            last_use: Vec::new(),
            allocated_at: Vec::new(),
            next_use: Vec::new(),
            pinned: Vec::new(),
            provenance: Vec::new(),
            pinned_bytes: 0,
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
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
        self.ids.len()
    }

    /// Whether `id` is resident.
    #[inline]
    pub fn holds(&self, id: TensorId) -> bool {
        self.slot_of.contains_key(&id)
    }

    /// Iterate over resident tensor ids (arbitrary order).
    pub fn resident_ids(&self) -> impl Iterator<Item = TensorId> + '_ {
        self.ids.iter().copied()
    }

    /// Record a use of a resident tensor (refreshes LRU position). For an
    /// absent id it only ticks the device clock, as the seed's did.
    pub fn touch(&mut self, id: TensorId) {
        self.clock += 1;
        if let Some(&s) = self.slot_of.get(&id) {
            self.last_use[s as usize] = self.clock;
            if self.policy == EvictionPolicy::Lru && s != self.tail {
                self.unlink(s);
                self.link_tail(s);
            }
        }
    }

    /// Pin/unpin a resident tensor (pinned tensors are never victims).
    pub fn set_pinned(&mut self, id: TensorId, pinned: bool) {
        if let Some(&s) = self.slot_of.get(&id) {
            let slot = s as usize;
            if self.pinned[slot] != pinned {
                if pinned {
                    self.pinned_bytes += self.bytes[slot];
                } else {
                    self.pinned_bytes -= self.bytes[slot];
                }
                self.pinned[slot] = pinned;
            }
        }
    }

    /// Feed the clairvoyant policy a tensor's next-use position
    /// (`u64::MAX` = never again). No-op for absent tensors.
    pub fn set_next_use(&mut self, id: TensorId, next_use: u64) {
        if let Some(&s) = self.slot_of.get(&id) {
            self.next_use[s as usize] = next_use;
        }
    }

    /// Allocate `bytes` for tensor `id`, evicting victims if needed.
    /// Returns the evicted tensors (possibly empty). The new tensor is
    /// pinned on arrival; the caller unpins after the task completes.
    ///
    /// Allocating an already-resident tensor is a logic error upstream and
    /// panics in debug builds; in release it is treated as a touch.
    pub fn allocate(
        &mut self,
        id: TensorId,
        bytes: u64,
        provenance: Provenance,
    ) -> Result<Vec<Evicted>, AllocError> {
        let mut evicted = Vec::new();
        self.allocate_into(id, bytes, provenance, &mut evicted)?;
        Ok(evicted)
    }

    /// [`DeviceMemory::allocate`], but appending victims to a caller-owned
    /// buffer instead of returning a fresh `Vec` — the allocation-free form
    /// the planner hot loop uses.
    pub fn allocate_into(
        &mut self,
        id: TensorId,
        bytes: u64,
        provenance: Provenance,
        evicted: &mut Vec<Evicted>,
    ) -> Result<(), AllocError> {
        debug_assert!(
            !self.holds(id),
            "allocate called for resident tensor {id:?}"
        );
        if self.holds(id) {
            self.touch(id);
            return Ok(());
        }
        let evictable = self.used - self.pinned_bytes;
        if bytes > self.free() + evictable || bytes > self.capacity {
            return Err(AllocError::WontFit {
                requested: bytes,
                capacity: self.capacity,
            });
        }
        while self.free() < bytes {
            let victim = self.pick_victim().expect("evictable bytes were sufficient");
            evicted.push(self.remove_slot(victim));
        }
        self.clock += 1;
        let slot = u32::try_from(self.ids.len()).expect("resident set exceeds u32 slots");
        self.slot_of.insert(id, slot);
        self.ids.push(id);
        self.bytes.push(bytes);
        self.last_use.push(self.clock);
        self.allocated_at.push(self.clock);
        self.next_use.push(u64::MAX);
        self.pinned.push(true);
        self.provenance.push(provenance);
        self.prev.push(NIL);
        self.next.push(NIL);
        self.link_tail(slot);
        self.used += bytes;
        self.pinned_bytes += bytes;
        Ok(())
    }

    /// Drop a resident tensor without cost accounting (used by tests and by
    /// the machine when invalidating stale copies).
    pub fn discard(&mut self, id: TensorId) -> bool {
        if let Some(&s) = self.slot_of.get(&id) {
            self.remove_slot(s as usize);
            true
        } else {
            false
        }
    }

    /// Swap-remove the tensor in `slot`, keeping slots dense and the
    /// id→slot index consistent.
    fn remove_slot(&mut self, slot: usize) -> Evicted {
        let id = self.ids[slot];
        let out = Evicted {
            id,
            bytes: self.bytes[slot],
            writeback: self.provenance[slot] == Provenance::DeviceCreated,
        };
        self.used -= self.bytes[slot];
        if self.pinned[slot] {
            // only `discard` can remove a pinned tensor; victims are
            // filtered to unpinned slots
            self.pinned_bytes -= self.bytes[slot];
        }
        self.unlink(slot as u32);
        self.slot_of.remove(&id);
        self.ids.swap_remove(slot);
        self.bytes.swap_remove(slot);
        self.last_use.swap_remove(slot);
        self.allocated_at.swap_remove(slot);
        self.next_use.swap_remove(slot);
        self.pinned.swap_remove(slot);
        self.provenance.swap_remove(slot);
        self.prev.swap_remove(slot);
        self.next.swap_remove(slot);
        if slot < self.ids.len() {
            // the former last slot's tensor now lives in `slot`: repoint
            // its index entry and its list neighbours (none of which is
            // the unlinked victim)
            let s = slot as u32;
            self.slot_of.insert(self.ids[slot], s);
            match self.prev[slot] {
                NIL => self.head = s,
                p => self.next[p as usize] = s,
            }
            match self.next[slot] {
                NIL => self.tail = s,
                n => self.prev[n as usize] = s,
            }
        }
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
    fn pick_victim(&self) -> Option<usize> {
        match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => {
                let mut s = self.head;
                while s != NIL && self.pinned[s as usize] {
                    s = self.next[s as usize];
                }
                let victim = (s != NIL).then_some(s as usize);
                debug_assert_eq!(
                    victim,
                    self.scan_victim(),
                    "victim list diverged from the scan"
                );
                victim
            }
            EvictionPolicy::LargestFirst | EvictionPolicy::Clairvoyant => self.scan_victim(),
        }
    }

    /// The victim by a full scan of the resident slots.
    ///
    /// Every policy's key ends in the tensor id (or its complement), so the
    /// extremum is unique and the scan order over slots cannot change the
    /// outcome — this must match the original `HashMap`-iteration
    /// implementation victim-for-victim.
    fn scan_victim(&self) -> Option<usize> {
        let candidates = (0..self.ids.len()).filter(|&s| !self.pinned[s]);

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

    fn tid(n: u64) -> TensorId {
        TensorId(n)
    }

    fn mem(cap: u64, policy: EvictionPolicy) -> DeviceMemory {
        DeviceMemory::new(cap, policy)
    }

    /// Allocate and immediately unpin (most tests want evictable tensors).
    fn alloc_unpinned(m: &mut DeviceMemory, id: u64, bytes: u64) -> Vec<Evicted> {
        let ev = m.allocate(tid(id), bytes, Provenance::HostBacked).unwrap();
        m.set_pinned(tid(id), false);
        ev
    }

    #[test]
    fn basic_accounting() {
        let mut m = mem(100, EvictionPolicy::Lru);
        assert_eq!(m.free(), 100);
        alloc_unpinned(&mut m, 1, 40);
        assert_eq!(m.used(), 40);
        assert!(m.holds(tid(1)));
        assert_eq!(m.resident_count(), 1);
        assert!(m.discard(tid(1)));
        assert_eq!(m.used(), 0);
        assert!(!m.discard(tid(1)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut m = mem(100, EvictionPolicy::Lru);
        alloc_unpinned(&mut m, 1, 40);
        alloc_unpinned(&mut m, 2, 40);
        m.touch(tid(1)); // tensor 2 is now LRU
        let ev = alloc_unpinned(&mut m, 3, 40);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].id, tid(2));
        assert!(m.holds(tid(1)) && m.holds(tid(3)) && !m.holds(tid(2)));
    }

    #[test]
    fn fifo_evicts_oldest_allocation() {
        let mut m = mem(100, EvictionPolicy::Fifo);
        alloc_unpinned(&mut m, 1, 40);
        alloc_unpinned(&mut m, 2, 40);
        m.touch(tid(1)); // FIFO ignores use recency
        let ev = alloc_unpinned(&mut m, 3, 40);
        assert_eq!(ev[0].id, tid(1));
    }

    #[test]
    fn largest_first_minimises_victim_count() {
        let mut m = mem(100, EvictionPolicy::LargestFirst);
        alloc_unpinned(&mut m, 1, 60);
        alloc_unpinned(&mut m, 2, 10);
        alloc_unpinned(&mut m, 3, 10);
        let ev = alloc_unpinned(&mut m, 4, 80);
        // evicting the single 60 B tensor frees enough; smaller-first LRU
        // would have needed two victims
        assert_eq!(
            ev,
            vec![Evicted {
                id: tid(1),
                bytes: 60,
                writeback: false
            }]
        );
    }

    #[test]
    fn pinned_tensors_survive_pressure() {
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
            EvictionPolicy::LargestFirst,
            EvictionPolicy::Clairvoyant,
        ] {
            let mut m = mem(100, policy);
            m.allocate(tid(1), 50, Provenance::HostBacked).unwrap(); // stays pinned
            alloc_unpinned(&mut m, 2, 40);
            let ev = alloc_unpinned(&mut m, 3, 40);
            assert_eq!(
                ev[0].id,
                tid(2),
                "{policy:?}: pinned tensor 1 must not be evicted"
            );
            assert!(m.holds(tid(1)));
            // the pinned head stays linked; victims skip it
            assert_eq!(victim_order(&m), [1, 3], "{policy:?}");
        }
    }

    #[test]
    fn wont_fit_when_pinned_blocks() {
        let mut m = mem(100, EvictionPolicy::Lru);
        m.allocate(tid(1), 80, Provenance::HostBacked).unwrap(); // pinned
        let err = m.allocate(tid(2), 40, Provenance::HostBacked).unwrap_err();
        assert_eq!(
            err,
            AllocError::WontFit {
                requested: 40,
                capacity: 100
            }
        );
    }

    #[test]
    fn wont_fit_when_larger_than_capacity() {
        let mut m = mem(100, EvictionPolicy::Lru);
        assert!(m.allocate(tid(1), 101, Provenance::HostBacked).is_err());
    }

    #[test]
    fn writeback_flag_tracks_provenance() {
        let mut m = mem(100, EvictionPolicy::Lru);
        m.allocate(tid(1), 50, Provenance::DeviceCreated).unwrap();
        m.set_pinned(tid(1), false);
        m.allocate(tid(2), 50, Provenance::HostBacked).unwrap();
        m.set_pinned(tid(2), false);
        let ev = alloc_unpinned(&mut m, 3, 100);
        assert_eq!(ev.len(), 2);
        let by_id: std::collections::HashMap<_, _> =
            ev.iter().map(|e| (e.id, e.writeback)).collect();
        assert!(by_id[&tid(1)]);
        assert!(!by_id[&tid(2)]);
    }

    #[test]
    fn multiple_evictions_until_fit() {
        let mut m = mem(100, EvictionPolicy::Lru);
        for i in 0..10 {
            alloc_unpinned(&mut m, i, 10);
        }
        let ev = alloc_unpinned(&mut m, 99, 35);
        assert_eq!(ev.len(), 4); // 4 × 10 B victims to free 35 B
        assert_eq!(m.used(), 60 + 35);
    }

    #[test]
    fn exact_fit_no_eviction() {
        let mut m = mem(100, EvictionPolicy::Lru);
        alloc_unpinned(&mut m, 1, 60);
        let ev = alloc_unpinned(&mut m, 2, 40);
        assert!(ev.is_empty());
        assert_eq!(m.free(), 0);
    }

    #[test]
    fn capacity_invariant_holds_under_churn() {
        let mut m = mem(1000, EvictionPolicy::Lru);
        for i in 0..200u64 {
            let bytes = 37 + (i * 13) % 113;
            alloc_unpinned(&mut m, i, bytes);
            assert!(m.used() <= m.capacity(), "iteration {i}");
            if i % 3 == 0 {
                m.touch(tid(i / 2));
            }
        }
    }

    #[test]
    fn resident_ids_iterates_all() {
        let mut m = mem(100, EvictionPolicy::Lru);
        alloc_unpinned(&mut m, 1, 10);
        alloc_unpinned(&mut m, 2, 10);
        let mut ids: Vec<u64> = m.resident_ids().map(|t| t.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn all_pinned_device_rejects_any_allocation() {
        let mut m = mem(100, EvictionPolicy::Lru);
        m.allocate(tid(1), 60, Provenance::HostBacked).unwrap(); // pinned
        m.allocate(tid(2), 40, Provenance::DeviceCreated).unwrap(); // pinned
                                                                    // fully pinned and fully occupied: nothing can be evicted
        let err = m.allocate(tid(3), 1, Provenance::HostBacked).unwrap_err();
        assert_eq!(
            err,
            AllocError::WontFit {
                requested: 1,
                capacity: 100
            }
        );
        assert_eq!(m.resident_count(), 2, "failed alloc must not evict");
        assert_eq!(m.used(), 100);
        // unpinning one makes the same request succeed
        m.set_pinned(tid(2), false);
        let ev = m.allocate(tid(3), 1, Provenance::HostBacked).unwrap();
        assert_eq!(ev[0].id, tid(2));
        assert!(ev[0].writeback, "device-created victim pays a write-back");
    }

    #[test]
    fn zero_capacity_device_rejects_everything_but_stays_consistent() {
        let mut m = mem(0, EvictionPolicy::Lru);
        assert_eq!((m.capacity(), m.free(), m.used()), (0, 0, 0));
        for bytes in [1u64, 100] {
            assert_eq!(
                m.allocate(tid(1), bytes, Provenance::HostBacked),
                Err(AllocError::WontFit {
                    requested: bytes,
                    capacity: 0
                })
            );
        }
        assert_eq!(m.resident_count(), 0);
        assert!(!m.discard(tid(1)));
        // zero-byte allocations are degenerate but must not corrupt state
        assert!(m.allocate(tid(2), 0, Provenance::HostBacked).is_ok());
        assert!(m.holds(tid(2)));
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn clairvoyant_prefers_furthest_next_use() {
        let mut m = mem(100, EvictionPolicy::Clairvoyant);
        alloc_unpinned(&mut m, 1, 40);
        alloc_unpinned(&mut m, 2, 40);
        m.set_next_use(tid(1), 5);
        m.set_next_use(tid(2), 50); // used furthest in the future
        let ev = alloc_unpinned(&mut m, 3, 40);
        assert_eq!(ev[0].id, tid(2));
        // a never-again tensor (the default MAX) loses to any finite use
        m.set_next_use(tid(1), 5);
        let ev = alloc_unpinned(&mut m, 4, 40);
        assert_eq!(ev[0].id, tid(3), "tensor 3 has next_use = MAX");
    }

    #[test]
    fn set_next_use_is_policy_neutral_for_non_clairvoyant() {
        // feeding oracle positions must not perturb LRU/FIFO ordering
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Fifo] {
            let mut m = mem(100, policy);
            alloc_unpinned(&mut m, 1, 40);
            alloc_unpinned(&mut m, 2, 40);
            m.touch(tid(1)); // tensor 2 is LRU; tensor 1 is FIFO-oldest
            m.set_next_use(tid(1), 1000);
            m.set_next_use(tid(2), 1);
            let ev = alloc_unpinned(&mut m, 3, 40);
            let expected = match policy {
                EvictionPolicy::Lru => tid(2),
                _ => tid(1),
            };
            assert_eq!(ev[0].id, expected, "{policy:?}");
        }
        // no-op on absent tensors
        let mut m = mem(10, EvictionPolicy::Clairvoyant);
        m.set_next_use(tid(9), 3);
        assert_eq!(m.resident_count(), 0);
    }

    #[test]
    fn discard_non_resident_is_a_clean_no_op() {
        let mut m = mem(100, EvictionPolicy::Lru);
        alloc_unpinned(&mut m, 1, 40);
        assert!(!m.discard(tid(2)), "absent id");
        assert_eq!((m.used(), m.resident_count()), (40, 1));
        assert!(m.discard(tid(1)));
        assert!(!m.discard(tid(1)), "double discard");
        assert_eq!((m.used(), m.resident_count()), (0, 0));
    }

    #[test]
    fn slot_index_survives_swap_removal_churn() {
        // interleaved discards + allocations exercise the moved-tail fixup
        let mut m = mem(1_000, EvictionPolicy::Lru);
        for i in 0..20 {
            alloc_unpinned(&mut m, i, 10);
        }
        for i in (0..20).step_by(2) {
            assert!(m.discard(tid(i)));
        }
        assert_eq!(m.resident_count(), 10);
        for i in 0..20u64 {
            assert_eq!(m.holds(tid(i)), i % 2 == 1, "tensor {i}");
        }
        // odd tensors must still be touchable / pinnable at their new slots
        m.touch(tid(19));
        m.set_pinned(tid(19), true);
        for i in 20..29 {
            alloc_unpinned(&mut m, i, 100);
        }
        assert!(m.holds(tid(19)), "pinned tensor survives heavy pressure");
        assert!(m.used() <= m.capacity());
    }

    #[test]
    fn pinned_accounting_survives_pin_unpin_discard_churn() {
        // the evictable capacity check is `used - pinned_bytes`; drive the
        // counter through every mutation path and confirm WontFit behaviour
        // still matches a from-scratch recount
        let mut m = mem(100, EvictionPolicy::Lru);
        alloc_unpinned(&mut m, 1, 30);
        m.allocate(tid(2), 30, Provenance::DeviceCreated).unwrap(); // pinned
        m.set_pinned(tid(2), true); // redundant pin: must not double-count
        m.set_pinned(tid(1), false); // redundant unpin
                                     // 30 B evictable + 40 B free: a 70 B request fits, 71 B does not
        assert!(m.allocate(tid(3), 71, Provenance::HostBacked).is_err());
        let ev = m.allocate(tid(3), 70, Provenance::HostBacked).unwrap();
        assert_eq!(
            ev,
            vec![Evicted {
                id: tid(1),
                bytes: 30,
                writeback: false
            }]
        );
        // discarding a *pinned* tensor must release its pinned bytes
        assert!(m.discard(tid(2)));
        m.set_pinned(tid(3), false);
        assert!(m.allocate(tid(4), 100, Provenance::HostBacked).is_ok());
        assert_eq!(m.used(), 100);
    }

    /// Ids in victim-list order, head first, after checking the list:
    /// every slot once, links mutually consistent, and keys strictly
    /// increasing (`last_use` under LRU, `allocated_at` otherwise).
    fn victim_order(m: &DeviceMemory) -> Vec<u64> {
        let key = |s: usize| match m.policy {
            EvictionPolicy::Lru => m.last_use[s],
            _ => m.allocated_at[s],
        };
        let mut order = Vec::new();
        let (mut prev, mut s) = (NIL, m.head);
        while s != NIL {
            assert!(order.len() < m.ids.len(), "cycle in the victim list");
            assert_eq!(m.prev[s as usize], prev, "broken back link");
            if prev != NIL {
                assert!(key(prev as usize) < key(s as usize), "list out of order");
            }
            order.push(m.ids[s as usize].0);
            (prev, s) = (s, m.next[s as usize]);
        }
        assert_eq!(m.tail, prev);
        assert_eq!(order.len(), m.ids.len(), "slots missing from the list");
        order
    }

    #[test]
    fn victim_list_survives_removing_head_tail_middle_and_only_slot() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Fifo] {
            let mut m = mem(1_000, policy);
            for i in 1..=5 {
                alloc_unpinned(&mut m, i, 10);
            }
            m.touch(tid(2));
            m.touch(tid(42)); // absent: ticks the clock, links nothing
            let mut expect = match policy {
                EvictionPolicy::Lru => vec![1, 3, 4, 5, 2],
                _ => vec![1, 2, 3, 4, 5],
            };
            assert_eq!(victim_order(&m), expect, "{policy:?}");
            // the head, then the tail, then a middle slot; each removal
            // swap-moves the last slot into the hole
            for at in [0, 3, 1] {
                let id = expect.remove(at);
                assert!(m.discard(tid(id)));
                assert_eq!(victim_order(&m), expect, "{policy:?} without {id}");
            }
            // an eviction takes the head
            let ev = alloc_unpinned(&mut m, 6, 985);
            assert_eq!(ev.iter().map(|e| e.id.0).collect::<Vec<_>>(), [expect[0]]);
            expect = vec![expect[1], 6];
            assert_eq!(victim_order(&m), expect, "{policy:?}");
            // down to the only slot, then empty, then refilled
            assert!(m.discard(tid(expect[0])));
            assert_eq!(victim_order(&m), [6]);
            assert!(m.discard(tid(6)));
            assert_eq!((m.head, m.tail), (NIL, NIL));
            assert!(victim_order(&m).is_empty());
            alloc_unpinned(&mut m, 7, 10);
            assert_eq!(victim_order(&m), [7]);
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
