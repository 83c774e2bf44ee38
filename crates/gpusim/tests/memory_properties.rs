//! Property-based tests of the device memory manager and the machine's
//! conservation laws under random task sequences.

use std::collections::HashMap;

use proptest::prelude::*;

use micco_gpusim::{
    AllocError, DeviceMemory, Evicted, EvictionPolicy, GpuId, MachineConfig, MachineView,
    Provenance, SimMachine,
};
use micco_workload::{ContractionTask, TaskId, TensorDesc, TensorId, TensorSym};

#[derive(Debug, Clone)]
enum MemOp {
    /// Allocate `id` unless it is resident (then touch it), holding the
    /// resident ones of `pins` in place.
    Alloc {
        id: u64,
        bytes: u64,
        device_created: bool,
        pins: [u64; 2],
    },
    Touch {
        id: u64,
    },
    Discard {
        id: u64,
    },
    SetNextUse {
        id: u64,
        next_use: u64,
    },
}

fn alloc_op() -> impl Strategy<Value = MemOp> {
    (0u64..40, 1u64..50, any::<bool>(), 0u64..40, 0u64..40).prop_map(
        |(id, bytes, device_created, p, q)| MemOp::Alloc {
            id,
            bytes,
            device_created,
            pins: [p, q],
        },
    )
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    // allocations are half the ops, so pressure builds up
    prop_oneof![
        alloc_op(),
        alloc_op(),
        alloc_op(),
        (0u64..40).prop_map(|id| MemOp::Touch { id }),
        (0u64..40).prop_map(|id| MemOp::Discard { id }),
        (0u64..40, prop_oneof![0u64..64, Just(u64::MAX)])
            .prop_map(|(id, next_use)| MemOp::SetNextUse { id, next_use }),
    ]
}

fn policy() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![
        Just(EvictionPolicy::Lru),
        Just(EvictionPolicy::Fifo),
        Just(EvictionPolicy::LargestFirst),
        Just(EvictionPolicy::Clairvoyant),
    ]
}

/// A [`DeviceMemory`] addressed by id: the harness keeps the id → slot
/// index a machine keeps, with each tensor's symbol equal to its id, and
/// checks that slots never move while their tensor is resident.
struct Indexed {
    m: DeviceMemory,
    slots: HashMap<u64, u32>,
}

impl Indexed {
    fn new(capacity: u64, policy: EvictionPolicy) -> Self {
        Indexed {
            m: DeviceMemory::new(capacity, policy),
            slots: HashMap::new(),
        }
    }

    fn holds(&self, id: u64) -> bool {
        self.slots.contains_key(&id)
    }

    fn allocate(
        &mut self,
        id: u64,
        bytes: u64,
        device_created: bool,
        pins: &[u64],
    ) -> Result<Vec<Evicted>, AllocError> {
        let provenance = if device_created {
            Provenance::DeviceCreated
        } else {
            Provenance::HostBacked
        };
        let pinned: Vec<u32> = pins.iter().map(|p| self.slots[p]).collect();
        let mut evicted = Vec::new();
        let desc = TensorDesc {
            id: TensorId(id),
            bytes,
        };
        let slot = self.m.allocate_into(
            desc,
            TensorSym(id as u32),
            provenance,
            &pinned,
            &mut evicted,
        )?;
        for e in &evicted {
            assert_eq!(e.sym, TensorSym(e.id.0 as u32), "victim carries its symbol");
            self.slots.remove(&e.id.0).expect("victim was resident");
        }
        assert!(
            !self.slots.values().any(|&s| s == slot),
            "slot {slot} handed out twice"
        );
        self.slots.insert(id, slot);
        Ok(evicted)
    }

    fn touch(&mut self, id: u64) {
        if let Some(&slot) = self.slots.get(&id) {
            self.m.touch(slot);
        }
    }

    fn discard(&mut self, id: u64) -> bool {
        match self.slots.remove(&id) {
            Some(slot) => {
                assert!(self.m.discard(slot));
                true
            }
            None => false,
        }
    }

    fn set_next_use(&mut self, id: u64, next_use: u64) {
        if let Some(&slot) = self.slots.get(&id) {
            self.m.set_next_use(slot, next_use);
        }
    }

    /// The resident ids among `pins`.
    fn resident_pins(&self, pins: [u64; 2]) -> Vec<u64> {
        pins.into_iter().filter(|p| self.holds(*p)).collect()
    }
}

/// One resident tensor of [`RefMemory`].
struct RefEntry {
    bytes: u64,
    last_use: u64,
    allocated_at: u64,
    next_use: u64,
    device_created: bool,
}

/// An independent model of [`DeviceMemory`]: residency in a map, and each
/// victim found by a full scan with the policy's key tuple, ending in the
/// tensor id so the extremum is unique.
struct RefMemory {
    capacity: u64,
    used: u64,
    policy: EvictionPolicy,
    resident: HashMap<u64, RefEntry>,
    clock: u64,
}

impl RefMemory {
    fn new(capacity: u64, policy: EvictionPolicy) -> Self {
        RefMemory {
            capacity,
            used: 0,
            policy,
            resident: HashMap::new(),
            clock: 0,
        }
    }

    fn touch(&mut self, id: u64) {
        if let Some(e) = self.resident.get_mut(&id) {
            self.clock += 1;
            e.last_use = self.clock;
        }
    }

    fn discard(&mut self, id: u64) -> bool {
        match self.resident.remove(&id) {
            Some(e) => {
                self.used -= e.bytes;
                true
            }
            None => false,
        }
    }

    /// The evicted `(id, bytes, writeback)` triples, or `None` when the
    /// tensor cannot fit even after evicting every tensor not in `pinned`.
    fn allocate(
        &mut self,
        id: u64,
        bytes: u64,
        device_created: bool,
        pinned: &[u64],
    ) -> Option<Vec<(u64, u64, bool)>> {
        let evictable: u64 = self
            .resident
            .iter()
            .filter(|(id, _)| !pinned.contains(id))
            .map(|(_, e)| e.bytes)
            .sum();
        let free = self.capacity - self.used;
        if bytes > free + evictable || bytes > self.capacity {
            return None;
        }
        let mut evicted = Vec::new();
        while self.capacity - self.used < bytes {
            let victim = self
                .victim(pinned)
                .expect("evictable bytes were sufficient");
            let e = self.resident.remove(&victim).expect("victim is resident");
            self.used -= e.bytes;
            evicted.push((victim, e.bytes, e.device_created));
        }
        self.clock += 1;
        self.resident.insert(
            id,
            RefEntry {
                bytes,
                last_use: self.clock,
                allocated_at: self.clock,
                next_use: u64::MAX,
                device_created,
            },
        );
        self.used += bytes;
        Some(evicted)
    }

    fn victim(&self, pinned: &[u64]) -> Option<u64> {
        let unpinned = self.resident.iter().filter(|(id, _)| !pinned.contains(id));
        let victim = match self.policy {
            EvictionPolicy::Lru => unpinned.min_by_key(|&(&id, e)| (e.last_use, id)),
            EvictionPolicy::Fifo => unpinned.min_by_key(|&(&id, e)| (e.allocated_at, id)),
            EvictionPolicy::LargestFirst => {
                unpinned.max_by_key(|&(&id, e)| (e.bytes, u64::MAX - id))
            }
            EvictionPolicy::Clairvoyant => {
                unpinned.max_by_key(|&(&id, e)| (e.next_use, u64::MAX - e.last_use, u64::MAX - id))
            }
        };
        victim.map(|(&id, _)| id)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any op sequence and any policy: used ≤ capacity, used equals
    /// the sum of resident bytes, and alloc never reports success while
    /// violating capacity.
    #[test]
    fn device_memory_invariants(
        ops in proptest::collection::vec(mem_op(), 1..120),
        policy in policy(),
        capacity in 50u64..200,
    ) {
        let mut m = Indexed::new(capacity, policy);
        let mut resident_bytes: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                MemOp::Alloc { id, bytes, device_created, pins } => {
                    if m.holds(id) {
                        m.touch(id);
                        continue;
                    }
                    let pins = m.resident_pins(pins);
                    if let Ok(evicted) = m.allocate(id, bytes, device_created, &pins) {
                        for ev in &evicted {
                            prop_assert!(!pins.contains(&ev.id.0), "evicted a pinned tensor");
                            let removed = resident_bytes.remove(&ev.id.0);
                            prop_assert_eq!(removed, Some(ev.bytes), "evicted ghost tensor");
                        }
                        resident_bytes.insert(id, bytes);
                    }
                }
                MemOp::Touch { id } => m.touch(id),
                MemOp::Discard { id } => {
                    let did = m.discard(id);
                    prop_assert_eq!(did, resident_bytes.remove(&id).is_some());
                }
                MemOp::SetNextUse { id, next_use } => m.set_next_use(id, next_use),
            }
            prop_assert!(m.m.used() <= m.m.capacity(), "over capacity");
            let expect: u64 = resident_bytes.values().sum();
            prop_assert_eq!(m.m.used(), expect, "byte accounting drifted");
            prop_assert_eq!(m.m.resident_count(), resident_bytes.len());
            let mut ids: Vec<u64> = m.m.resident_ids().map(|t| t.0).collect();
            ids.sort_unstable();
            let mut want: Vec<u64> = resident_bytes.keys().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(ids, want);
        }
    }

    /// Every allocation evicts exactly the victims, in order, that the
    /// reference model's full scan picks, under pins of zero, one or two
    /// (possibly equal) tensors, discards and free-slot reuse.
    #[test]
    fn allocate_evicts_the_reference_victims(
        ops in proptest::collection::vec(mem_op(), 1..200),
        policy in policy(),
        capacity in 50u64..200,
    ) {
        let mut m = Indexed::new(capacity, policy);
        let mut r = RefMemory::new(capacity, policy);
        for op in ops {
            match op {
                MemOp::Alloc { id, bytes, device_created, pins } => {
                    if m.holds(id) {
                        m.touch(id);
                        r.touch(id);
                        continue;
                    }
                    let pins = m.resident_pins(pins);
                    let got = m.allocate(id, bytes, device_created, &pins).ok().map(|ev| {
                        ev.iter().map(|e| (e.id.0, e.bytes, e.writeback)).collect::<Vec<_>>()
                    });
                    prop_assert_eq!(
                        got,
                        r.allocate(id, bytes, device_created, &pins),
                        "allocate {}",
                        id
                    );
                }
                MemOp::Touch { id } => {
                    m.touch(id);
                    r.touch(id);
                }
                MemOp::Discard { id } => {
                    prop_assert_eq!(m.discard(id), r.discard(id));
                }
                MemOp::SetNextUse { id, next_use } => {
                    m.set_next_use(id, next_use);
                    if let Some(e) = r.resident.get_mut(&id) {
                        e.next_use = next_use;
                    }
                }
            }
            prop_assert_eq!(m.m.used(), r.used);
            prop_assert_eq!(m.m.resident_count(), r.resident.len());
        }
    }

    /// The machine's clocks are monotone, memory bounded, and stats
    /// consistent for arbitrary random placements.
    #[test]
    fn machine_conservation(
        placements in proptest::collection::vec((0u64..30, 0u64..30, 0usize..4, any::<bool>()), 1..80),
        policy in policy(),
    ) {
        const MB: u64 = 1 << 20;
        let cfg = MachineConfig {
            num_gpus: 4,
            mem_bytes: 8 * MB,
            cost: Default::default(),
            eviction: policy,
        };
        let mut machine = SimMachine::new(cfg);
        let mut prev_elapsed = 0.0f64;
        let mut executed = 0u64;
        for (i, (a, b, gpu, barrier)) in placements.into_iter().enumerate() {
            let t = ContractionTask {
                id: TaskId(i as u64),
                a: TensorDesc { id: TensorId(a), bytes: MB },
                b: TensorDesc { id: TensorId(b), bytes: MB },
                out: TensorDesc { id: TensorId(10_000 + i as u64), bytes: MB },
                flops: 1_000_000,
            };
            machine.execute(&t, GpuId(gpu)).expect("8 MB fits any 3 MB task");
            executed += 1;
            for g in 0..4 {
                prop_assert!(machine.mem_used(GpuId(g)) <= cfg.mem_bytes);
                prop_assert!(machine.device_time(GpuId(g)) >= 0.0);
                prop_assert!(machine.stage_busy_secs(GpuId(g)) >= 0.0);
            }
            if barrier {
                machine.barrier();
                let elapsed = machine.stats().elapsed_secs;
                prop_assert!(elapsed >= prev_elapsed, "clock went backwards");
                prev_elapsed = elapsed;
                // after a barrier all devices agree
                let t0 = machine.device_time(GpuId(0));
                for g in 1..4 {
                    prop_assert!((machine.device_time(GpuId(g)) - t0).abs() < 1e-12);
                }
            }
        }
        machine.barrier();
        let stats = machine.stats();
        prop_assert_eq!(stats.total_tasks(), executed);
        prop_assert_eq!(
            stats.total_h2d() + stats.total_d2d() + stats.total_reuse_hits(),
            2 * executed,
            "operand sourcing identity"
        );
        // busy time of any device never exceeds total elapsed
        for g in &stats.per_gpu {
            prop_assert!(g.busy_secs() <= stats.elapsed_secs + 1e-9);
        }
    }

    /// `bytes_needed`/`would_evict` agree with what execution then does:
    /// if `would_evict` is false, executing must not evict.
    #[test]
    fn would_evict_is_sound(
        placements in proptest::collection::vec((0u64..20, 0u64..20), 1..40),
    ) {
        const MB: u64 = 1 << 20;
        let cfg = MachineConfig::mi100_like(2).with_mem_bytes(10 * MB);
        let mut machine = SimMachine::new(cfg);
        for (i, (a, b)) in placements.into_iter().enumerate() {
            let t = ContractionTask {
                id: TaskId(i as u64),
                a: TensorDesc { id: TensorId(a), bytes: MB },
                b: TensorDesc { id: TensorId(b), bytes: MB },
                out: TensorDesc { id: TensorId(30_000 + i as u64), bytes: MB },
                flops: 1,
            };
            let predicted = machine.would_evict(GpuId(0), &t);
            let before = machine.stats().total_evictions();
            machine.execute(&t, GpuId(0)).unwrap();
            let evicted = machine.stats().total_evictions() - before;
            if !predicted {
                prop_assert_eq!(evicted, 0, "predicted no eviction but evicted");
            } else {
                prop_assert!(evicted > 0, "predicted eviction but none happened");
            }
        }
    }
}
