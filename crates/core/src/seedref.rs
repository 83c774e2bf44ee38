//! The retained *reference* planner: a frozen, map-based copy of the
//! original decide-phase machine.
//!
//! The optimized planner ([`crate::Session::plan`]) interns tensor
//! ids, keeps residency in SoA vectors indexed by symbol, and reuses scratch
//! buffers across tasks. Every one of those transformations is claimed to
//! be *decision-equivalent*: the same scheduler over the same stream must
//! produce the same plan, bit for bit. This module keeps the claim
//! testable forever by retaining the seed implementation it replaced —
//! a `HashMap`-residency device memory and a straight-line transition
//! function with the exact arithmetic of the original — behind
//! [`plan_schedule_seed`].
//!
//! The reference path is deliberately *slow and simple*: it allocates per
//! lookup, scans maps per victim selection, and shares no code with the
//! fast machine beyond the [`MachineView`] trait and the cost model. It
//! supports exactly what planning exercises — no fault injection, no
//! clairvoyant-oracle feeds (the planner never arms either; with no
//! oracle, `next_use` stays `u64::MAX` on both paths, so even
//! `Clairvoyant` eviction decides identically).
//!
//! `tests/planner_equivalence.rs` drives both planners over randomized
//! streams and asserts byte-identical serialized plans; `micco-bench`'s
//! `bench_planner` binary uses the same pair to report the speedup while
//! proving the outputs equal.

use std::collections::{HashMap, HashSet};

use micco_gpusim::{
    AllocError, EvictionPolicy, ExecError, GpuId, MachineConfig, MachineView, Provenance,
};
use micco_workload::{ContractionTask, TensorId, TensorPairStream};

use crate::driver::{Assignment, ScheduleError, Scheduler};
use crate::plan::{PlanStage, SchedulePlan};

#[derive(Clone, Copy)]
struct RefEntry {
    bytes: u64,
    provenance: Provenance,
    last_use: u64,
    allocated_at: u64,
    pinned: bool,
    next_use: u64,
}

struct RefEvicted {
    id: TensorId,
    bytes: u64,
    writeback: bool,
}

/// The seed `DeviceMemory`: residency in a `HashMap`, victims picked by a
/// full scan. Tie-break keys include the tensor id, so the extremum is
/// unique and the pick is independent of map iteration order — the
/// property the SoA rewrite relies on.
struct RefMemory {
    capacity: u64,
    used: u64,
    policy: EvictionPolicy,
    resident: HashMap<TensorId, RefEntry>,
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

    fn free(&self) -> u64 {
        self.capacity - self.used
    }

    fn holds(&self, id: TensorId) -> bool {
        self.resident.contains_key(&id)
    }

    fn touch(&mut self, id: TensorId) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.resident.get_mut(&id) {
            e.last_use = clock;
        }
    }

    fn set_pinned(&mut self, id: TensorId, pinned: bool) {
        if let Some(e) = self.resident.get_mut(&id) {
            e.pinned = pinned;
        }
    }

    fn allocate(
        &mut self,
        id: TensorId,
        bytes: u64,
        provenance: Provenance,
    ) -> Result<Vec<RefEvicted>, AllocError> {
        let evictable: u64 = self
            .resident
            .values()
            .filter(|e| !e.pinned)
            .map(|e| e.bytes)
            .sum();
        if bytes > self.free() + evictable || bytes > self.capacity {
            return Err(AllocError::WontFit {
                requested: bytes,
                capacity: self.capacity,
            });
        }
        let mut evicted = Vec::new();
        while self.free() < bytes {
            let victim = self.pick_victim().expect("evictable bytes were sufficient");
            let e = self.resident.remove(&victim).expect("victim resident");
            self.used -= e.bytes;
            evicted.push(RefEvicted {
                id: victim,
                bytes: e.bytes,
                writeback: e.provenance == Provenance::DeviceCreated,
            });
        }
        self.clock += 1;
        self.resident.insert(
            id,
            RefEntry {
                bytes,
                provenance,
                last_use: self.clock,
                allocated_at: self.clock,
                pinned: true,
                next_use: u64::MAX,
            },
        );
        self.used += bytes;
        Ok(evicted)
    }

    fn pick_victim(&self) -> Option<TensorId> {
        let candidates = self.resident.iter().filter(|(_, e)| !e.pinned);
        match self.policy {
            EvictionPolicy::Lru => candidates
                .min_by_key(|(id, e)| (e.last_use, id.0))
                .map(|(id, _)| *id),
            EvictionPolicy::Fifo => candidates
                .min_by_key(|(id, e)| (e.allocated_at, id.0))
                .map(|(id, _)| *id),
            EvictionPolicy::LargestFirst => candidates
                .max_by_key(|(id, e)| (e.bytes, u64::MAX - id.0))
                .map(|(id, _)| *id),
            EvictionPolicy::Clairvoyant => candidates
                .max_by_key(|(id, e)| (e.next_use, u64::MAX - e.last_use, u64::MAX - id.0))
                .map(|(id, _)| *id),
        }
    }
}

/// One device of the reference machine: the seed's engine-clock and
/// interval bookkeeping, verbatim.
struct RefGpu {
    mem: RefMemory,
    compute_time: f64,
    dma_time: f64,
    stage_start: f64,
    stage_flops: u64,
    copy_intervals: Vec<(f64, f64)>,
    kernel_intervals: Vec<(f64, f64)>,
}

impl RefGpu {
    fn time(&self) -> f64 {
        self.compute_time.max(self.dma_time)
    }

    fn push_copy(&mut self, secs: f64, prefetch: usize) -> (f64, f64) {
        if secs <= 0.0 {
            return (self.dma_time, self.dma_time);
        }
        let mut start = self.dma_time;
        if prefetch > 0 {
            let done = self.kernel_intervals.len();
            if done >= prefetch {
                start = start.max(self.kernel_intervals[done - prefetch].1);
            }
        }
        let end = start + secs;
        self.copy_intervals.push((start, end));
        self.dma_time = end;
        (start, end)
    }
}

/// The frozen decide-phase machine (seed semantics, planning subset).
struct RefShadow {
    config: MachineConfig,
    gpus: Vec<RefGpu>,
    host_copies: HashSet<TensorId>,
    host_link_free: f64,
}

impl RefShadow {
    fn new(config: MachineConfig) -> Self {
        let gpus = (0..config.num_gpus)
            .map(|_| RefGpu {
                mem: RefMemory::new(config.mem_bytes, config.eviction),
                compute_time: 0.0,
                dma_time: 0.0,
                stage_start: 0.0,
                stage_flops: 0,
                copy_intervals: Vec::new(),
                kernel_intervals: Vec::new(),
            })
            .collect();
        RefShadow {
            config,
            gpus,
            host_copies: HashSet::new(),
            host_link_free: 0.0,
        }
    }

    fn execute(&mut self, task: &ContractionTask, gpu: GpuId) -> Result<(), ExecError> {
        if gpu.0 >= self.gpus.len() {
            return Err(ExecError::BadGpu {
                gpu,
                num_gpus: self.gpus.len(),
            });
        }
        let mut mem_secs = 0.0;

        // Stage both inputs, pinning them for the duration of the task.
        for d in [task.a, task.b] {
            if self.gpus[gpu.0].mem.holds(d.id) {
                self.gpus[gpu.0].mem.touch(d.id);
                self.gpus[gpu.0].mem.set_pinned(d.id, true);
                continue;
            }
            let peer = self.holders(d.id).into_iter().find(|g| *g != gpu);
            mem_secs += self.config.cost.alloc_secs(d.bytes);
            let evicted = self.gpus[gpu.0]
                .mem
                .allocate(d.id, d.bytes, Provenance::HostBacked)
                .map_err(|source| ExecError::OutOfMemory { gpu, source })?;
            mem_secs += self.charge_evictions(&evicted);
            match peer {
                Some(src) => {
                    let secs = self.config.cost.d2d_secs(d.bytes);
                    mem_secs += secs;
                    if self.config.cost.d2d_charges_source {
                        self.gpus[src.0].push_copy(secs, 0);
                        if !self.config.cost.async_copy {
                            self.gpus[src.0].compute_time =
                                self.gpus[src.0].compute_time.max(self.gpus[src.0].dma_time);
                        }
                    }
                }
                None => {
                    let secs = self.config.cost.h2d_secs(d.bytes);
                    mem_secs += secs;
                    if self.config.cost.shared_h2d_link {
                        let start = self
                            .host_link_free
                            .max(self.gpus[gpu.0].time() + mem_secs - secs);
                        let wait = start - (self.gpus[gpu.0].time() + mem_secs - secs);
                        mem_secs += wait;
                        self.host_link_free = start + secs;
                    }
                }
            }
        }

        // Allocate the output (overwrite in place when still resident).
        if self.gpus[gpu.0].mem.holds(task.out.id) {
            self.gpus[gpu.0].mem.touch(task.out.id);
            self.gpus[gpu.0].mem.set_pinned(task.out.id, true);
        } else {
            mem_secs += self.config.cost.alloc_secs(task.out.bytes);
            let evicted = self.gpus[gpu.0]
                .mem
                .allocate(task.out.id, task.out.bytes, Provenance::DeviceCreated)
                .map_err(|source| ExecError::OutOfMemory { gpu, source })?;
            mem_secs += self.charge_evictions(&evicted);
        }

        let compute_secs = self.config.cost.compute_secs(task.flops);

        // Unpin the working set.
        for id in [task.a.id, task.b.id, task.out.id] {
            self.gpus[gpu.0].mem.set_pinned(id, false);
        }

        let g = &mut self.gpus[gpu.0];
        if self.config.cost.async_copy {
            g.push_copy(mem_secs, self.config.cost.prefetch_tasks);
            let start = g.compute_time.max(g.dma_time);
            let finish = start + compute_secs;
            g.kernel_intervals.push((start, finish));
            g.compute_time = finish;
        } else {
            let start = g.compute_time.max(g.dma_time);
            if mem_secs > 0.0 {
                g.copy_intervals.push((start, start + mem_secs));
            }
            let finish = start + mem_secs + compute_secs;
            g.kernel_intervals.push((start + mem_secs, finish));
            g.compute_time = finish;
            g.dma_time = finish;
        }
        g.stage_flops += task.flops;
        Ok(())
    }

    fn charge_evictions(&mut self, evicted: &[RefEvicted]) -> f64 {
        let mut secs = 0.0;
        for ev in evicted {
            let writeback = ev.writeback && !self.host_copies.contains(&ev.id);
            if ev.writeback {
                self.host_copies.insert(ev.id);
            }
            secs += self.config.cost.evict_secs(ev.bytes, writeback);
        }
        secs
    }

    fn barrier(&mut self) {
        let end = self.gpus.iter().map(|g| g.time()).fold(0.0, f64::max);
        for g in &mut self.gpus {
            g.compute_time = end;
            g.dma_time = end;
            g.stage_start = end;
            g.stage_flops = 0;
            g.copy_intervals.clear();
            g.kernel_intervals.clear();
        }
    }
}

impl MachineView for RefShadow {
    fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    fn mem_capacity(&self) -> u64 {
        self.config.mem_bytes
    }

    fn mem_used(&self, g: GpuId) -> u64 {
        self.gpus[g.0].mem.used
    }

    fn holds(&self, g: GpuId, t: TensorId) -> bool {
        self.gpus[g.0].mem.holds(t)
    }

    fn holders(&self, t: TensorId) -> Vec<GpuId> {
        (0..self.gpus.len())
            .filter(|i| self.gpus[*i].mem.holds(t))
            .map(GpuId)
            .collect()
    }

    fn stage_flops(&self, g: GpuId) -> u64 {
        self.gpus[g.0].stage_flops
    }

    fn stage_busy_secs(&self, g: GpuId) -> f64 {
        self.gpus[g.0].time() - self.gpus[g.0].stage_start
    }

    fn bytes_needed(&self, g: GpuId, task: &ContractionTask) -> u64 {
        let mut need = task.out.bytes;
        if !self.holds(g, task.a.id) {
            need += task.a.bytes;
        }
        if !self.holds(g, task.b.id) && task.b.id != task.a.id {
            need += task.b.bytes;
        }
        need
    }
}

/// Plan `stream` with `scheduler` against the *frozen seed machine* —
/// the reference the optimized [`crate::Session::plan`] must match byte
/// for byte.
///
/// Always reports `overhead_secs: 0.0` (it never measures; compare plans
/// produced without [`crate::DriverOptions::measure_overhead`], as the
/// equivalence tests do).
pub fn plan_schedule_seed(
    scheduler: &mut dyn Scheduler,
    stream: &TensorPairStream,
    config: &MachineConfig,
) -> Result<SchedulePlan, ScheduleError> {
    let mut shadow = RefShadow::new(*config);
    let mut stages = Vec::with_capacity(stream.vectors().len());
    for vector in stream.vectors() {
        scheduler.begin_vector(vector, &shadow);
        let bounds = scheduler.stage_bounds();
        let mut assignments = Vec::with_capacity(vector.tasks.len());
        for task in &vector.tasks {
            let gpu = scheduler.assign(task, &shadow);
            shadow
                .execute(task, gpu)
                .map_err(|source| ScheduleError::Exec {
                    task: task.id,
                    source,
                })?;
            assignments.push(Assignment { task: task.id, gpu });
        }
        shadow.barrier();
        stages.push(PlanStage {
            bounds,
            assignments,
        });
    }
    Ok(SchedulePlan {
        scheduler: scheduler.name(),
        num_gpus: config.num_gpus,
        fingerprint: stream.fingerprint(),
        overhead_secs: 0.0,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RoundRobinScheduler;
    use crate::session::Session;
    use micco_workload::WorkloadSpec;

    #[test]
    fn reference_machine_matches_fast_machine_on_a_simple_stream() {
        let stream = WorkloadSpec::new(16, 96)
            .with_repeat_rate(0.6)
            .with_vectors(3)
            .with_seed(7)
            .generate();
        let cfg = MachineConfig::mi100_like(3);
        let fast = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let slow = plan_schedule_seed(&mut RoundRobinScheduler::new(), &stream, &cfg).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.to_text(), slow.to_text());
    }

    #[test]
    fn reference_surfaces_oom_like_the_fast_path() {
        let stream = WorkloadSpec::new(4, 512).with_vectors(1).generate();
        let cfg = MachineConfig::mi100_like(1).with_mem_bytes(1024);
        let err = plan_schedule_seed(&mut RoundRobinScheduler::new(), &stream, &cfg).unwrap_err();
        assert!(matches!(err, ScheduleError::Exec { .. }));
    }
}
