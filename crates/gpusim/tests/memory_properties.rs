//! Property-based tests of the device memory manager and the machine's
//! conservation laws under random task sequences.

use std::collections::HashMap;

use proptest::prelude::*;

use micco_gpusim::{
    DeviceMemory, EvictionPolicy, GpuId, MachineConfig, MachineView, Provenance, SimMachine,
};
use micco_workload::{ContractionTask, TaskId, TensorDesc, TensorId};

#[derive(Debug, Clone)]
enum MemOp {
    Alloc {
        id: u64,
        bytes: u64,
        device_created: bool,
    },
    Touch {
        id: u64,
    },
    Discard {
        id: u64,
    },
    Unpin {
        id: u64,
    },
    Pin {
        id: u64,
    },
    SetNextUse {
        id: u64,
        next_use: u64,
    },
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (0u64..40, 1u64..50, any::<bool>()).prop_map(|(id, bytes, device_created)| MemOp::Alloc {
            id,
            bytes,
            device_created
        }),
        (0u64..40).prop_map(|id| MemOp::Touch { id }),
        (0u64..40).prop_map(|id| MemOp::Discard { id }),
        (0u64..40).prop_map(|id| MemOp::Unpin { id }),
        (0u64..40).prop_map(|id| MemOp::Pin { id }),
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

/// One resident tensor of [`RefMemory`].
struct RefEntry {
    bytes: u64,
    last_use: u64,
    allocated_at: u64,
    next_use: u64,
    pinned: bool,
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
        self.clock += 1;
        if let Some(e) = self.resident.get_mut(&id) {
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
    /// tensor cannot fit even after evicting every unpinned tensor.
    fn allocate(
        &mut self,
        id: u64,
        bytes: u64,
        device_created: bool,
    ) -> Option<Vec<(u64, u64, bool)>> {
        let evictable: u64 = self
            .resident
            .values()
            .filter(|e| !e.pinned)
            .map(|e| e.bytes)
            .sum();
        let free = self.capacity - self.used;
        if bytes > free + evictable || bytes > self.capacity {
            return None;
        }
        let mut evicted = Vec::new();
        while self.capacity - self.used < bytes {
            let victim = self.victim().expect("evictable bytes were sufficient");
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
                pinned: true,
                device_created,
            },
        );
        self.used += bytes;
        Some(evicted)
    }

    fn victim(&self) -> Option<u64> {
        let unpinned = self.resident.iter().filter(|(_, e)| !e.pinned);
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
        let mut m = DeviceMemory::new(capacity, policy);
        let mut resident_bytes: std::collections::HashMap<TensorId, u64> =
            std::collections::HashMap::new();
        for op in ops {
            match op {
                MemOp::Alloc { id, bytes, device_created } => {
                    let id = TensorId(id);
                    if m.holds(id) {
                        m.touch(id);
                        continue;
                    }
                    let prov = if device_created {
                        Provenance::DeviceCreated
                    } else {
                        Provenance::HostBacked
                    };
                    if let Ok(evicted) = m.allocate(id, bytes, prov) {
                        for ev in &evicted {
                            let removed = resident_bytes.remove(&ev.id);
                            prop_assert_eq!(removed, Some(ev.bytes), "evicted ghost tensor");
                        }
                        resident_bytes.insert(id, bytes);
                        // allocations arrive pinned; unpin later via op
                    }
                }
                MemOp::Touch { id } => m.touch(TensorId(id)),
                MemOp::Discard { id } => {
                    let id = TensorId(id);
                    let did = m.discard(id);
                    prop_assert_eq!(did, resident_bytes.remove(&id).is_some());
                }
                MemOp::Unpin { id } => m.set_pinned(TensorId(id), false),
                MemOp::Pin { id } => m.set_pinned(TensorId(id), true),
                MemOp::SetNextUse { id, next_use } => m.set_next_use(TensorId(id), next_use),
            }
            prop_assert!(m.used() <= m.capacity(), "over capacity");
            let expect: u64 = resident_bytes.values().sum();
            prop_assert_eq!(m.used(), expect, "byte accounting drifted");
            prop_assert_eq!(m.resident_count(), resident_bytes.len());
        }
    }

    /// Every allocation evicts exactly the victims, in order, that the
    /// reference model's full scan picks, under touches of absent ids,
    /// pin churn, discards of pinned tensors and swap-removal.
    #[test]
    fn allocate_evicts_the_reference_victims(
        ops in proptest::collection::vec(mem_op(), 1..200),
        policy in policy(),
        capacity in 50u64..200,
    ) {
        let mut m = DeviceMemory::new(capacity, policy);
        let mut r = RefMemory::new(capacity, policy);
        for op in ops {
            match op {
                MemOp::Alloc { id, bytes, device_created } => {
                    if m.holds(TensorId(id)) {
                        m.touch(TensorId(id));
                        r.touch(id);
                        continue;
                    }
                    let prov = if device_created {
                        Provenance::DeviceCreated
                    } else {
                        Provenance::HostBacked
                    };
                    let got = m.allocate(TensorId(id), bytes, prov).ok().map(|ev| {
                        ev.iter().map(|e| (e.id.0, e.bytes, e.writeback)).collect::<Vec<_>>()
                    });
                    prop_assert_eq!(got, r.allocate(id, bytes, device_created), "allocate {}", id);
                }
                MemOp::Touch { id } => {
                    m.touch(TensorId(id));
                    r.touch(id);
                }
                MemOp::Discard { id } => {
                    prop_assert_eq!(m.discard(TensorId(id)), r.discard(id));
                }
                MemOp::Unpin { id } | MemOp::Pin { id } => {
                    let pinned = matches!(op, MemOp::Pin { .. });
                    m.set_pinned(TensorId(id), pinned);
                    if let Some(e) = r.resident.get_mut(&id) {
                        e.pinned = pinned;
                    }
                }
                MemOp::SetNextUse { id, next_use } => {
                    m.set_next_use(TensorId(id), next_use);
                    if let Some(e) = r.resident.get_mut(&id) {
                        e.next_use = next_use;
                    }
                }
            }
            prop_assert_eq!(m.used(), r.used);
            prop_assert_eq!(m.resident_count(), r.resident.len());
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
        machine.enable_trace();
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
