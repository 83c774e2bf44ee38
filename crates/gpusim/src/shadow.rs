//! The decide-phase machine: scheduler-visible state without observation.
//!
//! [`ShadowMachine`] advances exactly the state a scheduler can query
//! through [`MachineView`] — per-device residency (with evictions), memory
//! occupancy, stage load, and the dual compute/DMA clocks — but keeps no
//! statistics and no per-stage attribution. It is the substrate the plan
//! linter and certifier replay placements on, and the state under every
//! [`crate::SimMachine`] — the machine `micco_core::Session::plan` decides
//! against, so the planning pass also yields the run's statistics.
//!
//! [`crate::SimMachine`] is a thin observing wrapper over this type: it
//! delegates every state transition here and layers statistics (and any
//! attached observer) on top through the [`ExecObserver`] hooks. Sharing
//! the transition function (rather than duplicating it) is what makes the
//! planned and the interleaved paths agree bit-for-bit. The same hooks are
//! public so offline tools (the `micco-analysis` plan linter) can replay
//! placements and watch transfers/evictions without any stats machinery.
//!
//! ## Interned residency index
//!
//! Cross-device queries (`holds`, `holders`, peer selection) dominate
//! planning cost at high GPU counts. The machine therefore interns every
//! tensor id it touches into a dense [`TensorSym`] and mirrors residency in
//! a bit-packed symbol × device matrix: `holds` is one bit test and
//! `holders` walks set bits in ascending device order — the same order the
//! original per-device `HashMap` scan produced, so consumers (including
//! peer-preference tie-breaking) see identical answers. [`DeviceMemory`]
//! remains the source of truth for occupancy, pinning and victim metadata;
//! the bit index is updated at the only places residency changes
//! (allocation and eviction inside [`ShadowMachine::execute_observed`]).

use std::collections::{HashMap, VecDeque};

use micco_workload::{
    ContractionTask, TaskId, TensorId, TensorInterner, TensorPairStream, TensorSym,
};

use crate::cost::MachineConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::machine::{ExecError, GpuId, MachineView};
use crate::memory::{DeviceMemory, Evicted, Provenance};
use crate::topology::LinkTopology;

/// Observation hooks called by [`ShadowMachine::execute_observed`] at the
/// exact points the simulator counts its statistics. All methods default
/// to no-ops, so the pure decide path costs nothing.
///
/// This trait is public so pure consumers — the statistics layer inside
/// this crate, but also offline tools like the `micco-analysis` plan
/// linter — can replay placements through the one shared state-transition
/// function and watch every transfer and eviction without any stats
/// machinery.
pub trait ExecObserver {
    /// An operand of the task was already resident on the executing device.
    fn reuse_hit(&mut self, _gpu: GpuId, _tensor: TensorId) {}
    /// A buffer was allocated on `gpu` (operand staging or output).
    fn alloc(&mut self, _gpu: GpuId) {}
    /// `bytes` of `tensor` were copied host → `gpu`.
    fn h2d(&mut self, _gpu: GpuId, _tensor: TensorId, _bytes: u64) {}
    /// `bytes` of `tensor` were copied peer `src` → `dst`.
    fn d2d(&mut self, _src: GpuId, _dst: GpuId, _tensor: TensorId, _bytes: u64) {}
    /// A peer copy occupied `src`'s memory controller for `secs`.
    fn source_charge(&mut self, _src: GpuId, _secs: f64) {}
    /// One hop of a routed peer copy occupied physical link `link`
    /// (endpoints `a`–`b`, class `"nv"`/`"pcie"`/`"ib"`) over
    /// `[start, end)` in absolute simulated seconds. Only fired on
    /// machines carrying a [`crate::LinkTopology`]; flat machines never
    /// call it.
    #[allow(clippy::too_many_arguments)]
    fn link_hop(
        &mut self,
        _link: usize,
        _class: &'static str,
        _a: usize,
        _b: usize,
        _bytes: u64,
        _start: f64,
        _end: f64,
    ) {
    }
    /// `tensor` was evicted from `gpu` (`writeback` when device-created
    /// data had to be written back to the host).
    fn evict(&mut self, _gpu: GpuId, _tensor: TensorId, _writeback: bool, _bytes: u64) {}
    /// The contraction kernel of `task` ran for `secs` on `gpu`.
    fn kernel(&mut self, _gpu: GpuId, _task: TaskId, _secs: f64) {}
    /// The task finished; totals for the whole execute call.
    fn task_done(&mut self, _gpu: GpuId, _flops: u64, _compute_secs: f64, _mem_secs: f64) {}
    /// An injected fault from the machine's [`FaultPlan`] fired on `task`.
    fn fault(&mut self, _gpu: GpuId, _task: TaskId, _kind: FaultKind) {}
    /// Attempt `attempt` (1-based) of `task` re-ran after a transient fault.
    fn retry(&mut self, _gpu: GpuId, _task: TaskId, _attempt: u32) {}
    /// Device `gpu` was found lost at `stage` (`permanent` when it never
    /// comes back).
    fn device_lost(&mut self, _gpu: GpuId, _stage: usize, _permanent: bool) {}
    /// A copy-engine busy interval `[start, end)` landed on `gpu`, in
    /// absolute simulated seconds since run start. Fired for operand
    /// staging, and for the source side of a charged peer copy. Intervals
    /// on one device are emitted in nondecreasing order and are pairwise
    /// disjoint (mirroring the shadow device's copy-interval ledger), so timeline
    /// consumers can lay them out on a per-device copy track directly.
    fn copy_timed(&mut self, _gpu: GpuId, _start: f64, _end: f64) {}
    /// The kernel of `task` occupied `gpu`'s compute engine over
    /// `[start, end)` in absolute simulated seconds (zero-length for
    /// zero-flop tasks). Emitted once per executed task, after
    /// [`Self::kernel`], with the resolved engine timing.
    fn kernel_timed(&mut self, _gpu: GpuId, _task: TaskId, _start: f64, _end: f64) {}
    /// Stage `stage` closed, spanning `[start, end)` on the shared clock.
    /// Fired by observing wrappers at their barrier, not by
    /// [`ShadowMachine::execute_observed`] itself.
    fn stage_done(&mut self, _stage: usize, _start: f64, _end: f64) {}
}

/// The no-op observer used by the pure decide path.
pub struct NullObserver;

impl ExecObserver for NullObserver {}

/// Per-device shadow state: memory, the two engine clocks, and the busy
/// intervals of the current stage.
pub(crate) struct ShadowGpu {
    pub(crate) mem: DeviceMemory,
    /// When the compute engine finishes its queued kernels.
    pub(crate) compute_time: f64,
    /// When the DMA engine finishes its queued memory operations. In
    /// synchronous mode this is kept fused with `compute_time`; with
    /// `async_copy` the two engines run concurrently and a kernel only
    /// waits for its own operands.
    pub(crate) dma_time: f64,
    /// Start of the current stage on the shared clock.
    pub(crate) stage_start: f64,
    /// Flops assigned this stage.
    pub(crate) stage_flops: u64,
    /// Copy-engine busy intervals of the current stage, in absolute time.
    /// Appended in nondecreasing order and pairwise disjoint (each copy
    /// starts at or after the previous one's end), which lets the barrier
    /// intersect them against `kernel_intervals` with one linear pass.
    pub(crate) copy_intervals: Vec<(f64, f64)>,
    /// Compute-engine busy intervals of the current stage, one per task
    /// (zero-length for zero-flop tasks), in absolute time. Also sorted
    /// and disjoint. Doubles as the kernel-completion history that bounds
    /// the DMA engine's lookahead under `prefetch_tasks`.
    pub(crate) kernel_intervals: Vec<(f64, f64)>,
}

impl ShadowGpu {
    /// When this device finishes all queued work.
    pub(crate) fn time(&self) -> f64 {
        self.compute_time.max(self.dma_time)
    }

    /// Record `secs` of copy-engine work starting no earlier than the
    /// engine's current position, returning the `(start, end)` interval it
    /// occupied (zero-length at the current position when `secs <= 0`).
    /// With a bounded staging window (`prefetch ≥ 1`) the transfer
    /// additionally waits until the kernel `prefetch` tasks back has freed
    /// its buffer.
    pub(crate) fn push_copy(&mut self, secs: f64, prefetch: usize) -> (f64, f64) {
        if secs <= 0.0 {
            // no transfer: the staging window must not advance the engine
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

/// Total length of the intersection of two sorted, pairwise-disjoint
/// interval lists (the time both engines were busy at once).
pub(crate) fn intersect_secs(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Next-use oracle in compressed-sparse-row form: one flat array of use
/// positions, sliced per symbol, with a per-symbol cursor that only moves
/// forward. Equivalent to the per-tensor `VecDeque` queues of
/// [`build_oracle`] (pop-front ⇔ cursor advance) without per-tensor
/// allocations.
struct OracleCsr {
    /// Prefix offsets into `uses`, one per symbol plus a trailing end.
    starts: Vec<u32>,
    /// Current read position per symbol (starts at `starts[s]`).
    cursor: Vec<u32>,
    /// Global task indices of operand uses, grouped by symbol, ascending
    /// within each group.
    uses: Vec<u64>,
}

impl OracleCsr {
    /// Build from a stream whose tensors are already interned.
    fn build(stream: &TensorPairStream, interner: &TensorInterner) -> Self {
        let n = interner.len();
        let mut counts = vec![0u32; n + 1];
        for v in stream.vectors() {
            for t in &v.tasks {
                for id in [t.a.id, t.b.id] {
                    let s = interner.get(id).expect("stream tensor interned");
                    counts[s.index() + 1] += 1;
                }
            }
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let starts = counts;
        let mut fill = starts.clone();
        let mut uses = vec![0u64; starts[n] as usize];
        let mut idx = 0u64;
        for v in stream.vectors() {
            for t in &v.tasks {
                for id in [t.a.id, t.b.id] {
                    let s = interner.get(id).expect("stream tensor interned").index();
                    uses[fill[s] as usize] = idx;
                    fill[s] += 1;
                }
                idx += 1;
            }
        }
        let cursor = starts[..n].to_vec();
        OracleCsr {
            starts,
            cursor,
            uses,
        }
    }

    /// Advance symbol `s` past position `now` and return its next use
    /// (`u64::MAX` = never again). Symbols outside the oracle's stream
    /// have no uses.
    #[inline]
    fn advance(&mut self, s: TensorSym, now: u64) -> u64 {
        let i = s.index();
        if i + 1 >= self.starts.len() {
            return u64::MAX;
        }
        let end = self.starts[i + 1];
        let mut c = self.cursor[i];
        while c < end && self.uses[c as usize] <= now {
            c += 1;
        }
        self.cursor[i] = c;
        if c < end {
            self.uses[c as usize]
        } else {
            u64::MAX
        }
    }
}

/// The lightweight decide-phase machine.
///
/// Tracks residency, occupancy and timing exactly as [`crate::SimMachine`]
/// does — schedulers cannot tell the two apart through [`MachineView`] —
/// but records no statistics and no trace.
///
/// # Examples
///
/// ```
/// use micco_gpusim::{GpuId, MachineConfig, MachineView, ShadowMachine};
/// use micco_workload::{ContractionTask, TaskId, TensorDesc, TensorId};
///
/// let mut shadow = ShadowMachine::new(MachineConfig::mi100_like(2));
/// let task = ContractionTask {
///     id: TaskId(0),
///     a: TensorDesc { id: TensorId(1), bytes: 1 << 20 },
///     b: TensorDesc { id: TensorId(2), bytes: 1 << 20 },
///     out: TensorDesc { id: TensorId(3), bytes: 1 << 20 },
///     flops: 1_000_000,
/// };
/// shadow.execute(&task, GpuId(0)).unwrap();
/// shadow.barrier();
/// // residency and clocks advance just like on the full simulator
/// assert!(shadow.holds(GpuId(0), TensorId(1)));
/// assert!(shadow.max_device_time() > 0.0);
/// ```
pub struct ShadowMachine {
    config: MachineConfig,
    pub(crate) gpus: Vec<ShadowGpu>,
    /// Tensor id ↔ dense symbol table, grown on first touch.
    interner: TensorInterner,
    /// Bit-packed residency matrix: `stride` words per symbol, bit `g` of
    /// word `g / 64` set when device `g` holds the tensor.
    holder_words: Vec<u64>,
    /// Words per symbol row (`num_gpus.div_ceil(64)`).
    stride: usize,
    /// Provenance override, symbol-indexed: tensors that have been written
    /// back to the host keep a host copy, so later evictions of re-fetched
    /// copies are cheap.
    host_copies: Vec<bool>,
    /// Next-use oracle for the clairvoyant eviction policy.
    oracle: Option<OracleCsr>,
    /// Global task counter (drives the oracle).
    task_counter: u64,
    /// When the shared host link is next free (`shared_h2d_link` only).
    host_link_free: f64,
    /// Injected failures ([`FaultPlan::none`] by default: no behavioural
    /// change whatsoever).
    faults: FaultPlan,
    /// Current stage index (counts `barrier` calls) — what device-loss
    /// faults key on.
    stage_index: usize,
    /// Reused victim buffer for `allocate_into` (cleared per task).
    evicted_scratch: Vec<Evicted>,
    /// The link model, when configured. `None` (the default) keeps the
    /// seed's flat uniform-link cost path bit-for-bit.
    topology: Option<LinkTopology>,
    /// Per-link busy seconds (indexed like `topology.links()`).
    link_secs: Vec<f64>,
    /// Per-link bytes moved.
    link_bytes: Vec<u64>,
    /// Peer copies whose route crossed an island boundary.
    cross_island_transfers: u64,
    /// Bytes of those cross-island copies.
    cross_island_bytes: u64,
    /// Peer copies whose route crossed a node boundary.
    cross_node_transfers: u64,
    /// Bytes of those cross-node copies.
    cross_node_bytes: u64,
}

impl ShadowMachine {
    /// Build an idle shadow machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let gpus = (0..config.num_gpus)
            .map(|_| ShadowGpu {
                mem: DeviceMemory::new(config.mem_bytes, config.eviction),
                compute_time: 0.0,
                dma_time: 0.0,
                stage_start: 0.0,
                stage_flops: 0,
                copy_intervals: Vec::new(),
                kernel_intervals: Vec::new(),
            })
            .collect();
        ShadowMachine {
            stride: config.num_gpus.div_ceil(64).max(1),
            config,
            gpus,
            interner: TensorInterner::new(),
            holder_words: Vec::new(),
            host_copies: Vec::new(),
            oracle: None,
            task_counter: 0,
            host_link_free: 0.0,
            faults: FaultPlan::none(),
            stage_index: 0,
            evicted_scratch: Vec::new(),
            topology: None,
            link_secs: Vec::new(),
            link_bytes: Vec::new(),
            cross_island_transfers: 0,
            cross_island_bytes: 0,
            cross_node_transfers: 0,
            cross_node_bytes: 0,
        }
    }

    /// Carry an explicit link topology: peer copies are routed over it and
    /// charged per-hop link time instead of the flat uniform
    /// [`crate::CostModel::d2d_secs`]. Planned and executed paths stay
    /// bit-identical because both read the same route table.
    ///
    /// # Panics
    ///
    /// Panics when the topology covers a different device count than the
    /// machine.
    pub fn with_topology(mut self, topo: LinkTopology) -> Self {
        self.set_topology(Some(topo));
        self
    }

    /// Install (or clear) the link topology in place.
    ///
    /// # Panics
    ///
    /// Panics when the topology covers a different device count than the
    /// machine.
    pub fn set_topology(&mut self, topo: Option<LinkTopology>) {
        if let Some(t) = &topo {
            assert_eq!(
                t.num_gpus(),
                self.gpus.len(),
                "topology device count must match the machine"
            );
            self.link_secs = vec![0.0; t.links().len()];
            self.link_bytes = vec![0; t.links().len()];
        } else {
            self.link_secs.clear();
            self.link_bytes.clear();
        }
        self.cross_island_transfers = 0;
        self.cross_island_bytes = 0;
        self.cross_node_transfers = 0;
        self.cross_node_bytes = 0;
        self.topology = topo;
    }

    /// Per-link busy seconds, indexed like
    /// [`LinkTopology::links`] (empty without a topology).
    pub fn link_busy_secs(&self) -> &[f64] {
        &self.link_secs
    }

    /// Per-link bytes moved, indexed like [`LinkTopology::links`].
    pub fn link_bytes_moved(&self) -> &[u64] {
        &self.link_bytes
    }

    /// Peer copies whose route crossed an island boundary, with their
    /// bytes. Always zero on flat machines.
    pub fn cross_island_traffic(&self) -> (u64, u64) {
        (self.cross_island_transfers, self.cross_island_bytes)
    }

    /// Peer copies whose route crossed a node boundary, with their bytes.
    pub fn cross_node_traffic(&self) -> (u64, u64) {
        (self.cross_node_transfers, self.cross_node_bytes)
    }

    /// Arm the machine with a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.set_faults(faults);
        self
    }

    /// Arm the fault plan in place (used by wrappers that own a shadow).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The fault plan currently armed.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The current stage index (number of barriers crossed so far) — the
    /// coordinate device-loss faults fire on.
    pub fn stage_index(&self) -> usize {
        self.stage_index
    }

    /// Arm the clairvoyant eviction oracle with the full stream the machine
    /// is about to execute (tasks must then be executed in stream order).
    /// Only meaningful with [`crate::memory::EvictionPolicy::Clairvoyant`].
    pub fn with_oracle(mut self, stream: &TensorPairStream) -> Self {
        self.set_oracle(stream);
        self
    }

    /// Arm the oracle in place (used by wrappers that own a shadow).
    pub fn set_oracle(&mut self, stream: &TensorPairStream) {
        self.reserve_stream(stream);
        self.oracle = Some(OracleCsr::build(stream, &self.interner));
    }

    /// Pre-intern every tensor of `stream` and size the residency index for
    /// it, so planning a known stream never grows tables mid-flight. Purely
    /// an allocation hint — symbols are internal and first-touch interning
    /// would produce identical behaviour.
    pub fn reserve_stream(&mut self, stream: &TensorPairStream) {
        self.interner.intern_stream(stream);
        self.grow_tables();
    }

    /// The machine's id ↔ symbol table (grows as tensors are touched).
    pub fn interner(&self) -> &TensorInterner {
        &self.interner
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Intern `id` and make sure the per-symbol tables cover it.
    #[inline]
    fn sym_for(&mut self, id: TensorId) -> TensorSym {
        let s = self.interner.intern(id);
        if self.host_copies.len() <= s.index() {
            self.grow_tables();
        }
        s
    }

    fn grow_tables(&mut self) {
        let n = self.interner.len();
        self.holder_words.resize(n * self.stride, 0);
        self.host_copies.resize(n, false);
    }

    #[inline]
    fn holds_sym(&self, g: usize, s: TensorSym) -> bool {
        self.holder_words[s.index() * self.stride + g / 64] & (1u64 << (g % 64)) != 0
    }

    #[inline]
    fn set_holder(&mut self, g: usize, s: TensorSym) {
        self.holder_words[s.index() * self.stride + g / 64] |= 1u64 << (g % 64);
    }

    #[inline]
    fn clear_holder(&mut self, g: usize, s: TensorSym) {
        self.holder_words[s.index() * self.stride + g / 64] &= !(1u64 << (g % 64));
    }

    /// Lowest-numbered device holding `s` other than `exclude` — the same
    /// peer the original `holders().find(|g| g != gpu)` scan chose.
    #[inline]
    fn first_holder_excluding(&self, s: TensorSym, exclude: usize) -> Option<GpuId> {
        let base = s.index() * self.stride;
        for w in 0..self.stride {
            let mut word = self.holder_words[base + w];
            while word != 0 {
                let g = w * 64 + word.trailing_zeros() as usize;
                if g != exclude {
                    return Some(GpuId(g));
                }
                word &= word - 1;
            }
        }
        None
    }

    /// Execute `task` on device `gpu`, advancing its clock (no observation).
    pub fn execute(&mut self, task: &ContractionTask, gpu: GpuId) -> Result<(), ExecError> {
        self.execute_observed(task, gpu, &mut NullObserver)
    }

    /// The shared state-transition function: execute `task` on `gpu`,
    /// reporting every observable effect (transfers, evictions, kernel,
    /// totals) to `obs` at the same points the original interleaved
    /// simulator recorded them.
    pub fn execute_observed(
        &mut self,
        task: &ContractionTask,
        gpu: GpuId,
        obs: &mut dyn ExecObserver,
    ) -> Result<(), ExecError> {
        let mut evicted = std::mem::take(&mut self.evicted_scratch);
        evicted.clear();
        let result = self.execute_inner(task, gpu, obs, &mut evicted);
        evicted.clear();
        self.evicted_scratch = evicted;
        result
    }

    fn execute_inner(
        &mut self,
        task: &ContractionTask,
        gpu: GpuId,
        obs: &mut dyn ExecObserver,
        evicted: &mut Vec<Evicted>,
    ) -> Result<(), ExecError> {
        if gpu.0 >= self.gpus.len() {
            return Err(ExecError::BadGpu {
                gpu,
                num_gpus: self.gpus.len(),
            });
        }
        if self.faults.is_lost(gpu.0, self.stage_index) {
            let permanent = self.faults.loss_of(gpu.0).is_some_and(|(_, p)| p);
            let stage = self.stage_index;
            obs.device_lost(gpu, stage, permanent);
            return Err(ExecError::DeviceLost {
                gpu,
                stage,
                permanent,
            });
        }
        let sa = self.sym_for(task.a.id);
        let sb = self.sym_for(task.b.id);
        let sout = self.sym_for(task.out.id);
        let mut mem_secs = 0.0;

        // Stage both inputs, pinning them for the duration of the task.
        for (d, s) in [(task.a, sa), (task.b, sb)] {
            if self.holds_sym(gpu.0, s) {
                self.gpus[gpu.0].mem.touch(d.id);
                self.gpus[gpu.0].mem.set_pinned(d.id, true);
                obs.reuse_hit(gpu, d.id);
                continue;
            }
            // Source selection: prefer a peer copy (faster link) else host.
            let peer = self.first_holder_excluding(s, gpu.0);
            mem_secs += self.config.cost.alloc_secs(d.bytes);
            obs.alloc(gpu);
            let base = evicted.len();
            self.gpus[gpu.0]
                .mem
                .allocate_into(d.id, d.bytes, Provenance::HostBacked, evicted)
                .map_err(|source| ExecError::OutOfMemory { gpu, source })?;
            self.set_holder(gpu.0, s);
            mem_secs += self.charge_evictions(gpu, &evicted[base..], obs);
            match peer {
                Some(src) => {
                    // Routed machines charge the sum of per-hop link times
                    // along the topology's route table; flat machines keep
                    // the seed's uniform-link expression bit-for-bit.
                    let secs = match &self.topology {
                        Some(topo) => topo.transfer_secs(src.0, gpu.0, d.bytes),
                        None => self.config.cost.d2d_secs(d.bytes),
                    };
                    mem_secs += secs;
                    if let Some(topo) = &self.topology {
                        // Per-hop accounting: link utilization lanes and
                        // the cross-island/cross-node counters the lints
                        // and the topology sweep read. The hop spans are
                        // anchored at the destination's queued DMA
                        // position, laid out sequentially along the route.
                        let mut at = self.gpus[gpu.0].time() + (mem_secs - secs);
                        for &id in topo.route(src.0, gpu.0) {
                            let link = &topo.links()[id as usize];
                            let hop = link.spec.transfer_secs(d.bytes);
                            self.link_secs[id as usize] += hop;
                            self.link_bytes[id as usize] += d.bytes;
                            obs.link_hop(
                                id as usize,
                                link.class.as_str(),
                                link.a,
                                link.b,
                                d.bytes,
                                at,
                                at + hop,
                            );
                            at += hop;
                        }
                        if topo.crosses_island(src.0, gpu.0) {
                            self.cross_island_transfers += 1;
                            self.cross_island_bytes += d.bytes;
                        }
                        if topo.crosses_node(src.0, gpu.0) {
                            self.cross_node_transfers += 1;
                            self.cross_node_bytes += d.bytes;
                        }
                    }
                    // Peer copies occupy the source's memory controller too;
                    // charging the source throttles hot-tensor fan-out from
                    // a single holder (and is what real peer DMA does).
                    if self.config.cost.d2d_charges_source {
                        // the peer's outgoing copy is not gated by its own
                        // staging buffers, so no prefetch bound here
                        let (cs, ce) = self.gpus[src.0].push_copy(secs, 0);
                        if !self.config.cost.async_copy {
                            // serialised device: DMA work delays compute too
                            self.gpus[src.0].compute_time =
                                self.gpus[src.0].compute_time.max(self.gpus[src.0].dma_time);
                        }
                        obs.source_charge(src, secs);
                        if ce > cs {
                            obs.copy_timed(src, cs, ce);
                        }
                    }
                    obs.d2d(src, gpu, d.id, d.bytes);
                }
                None => {
                    let secs = self.config.cost.h2d_secs(d.bytes);
                    mem_secs += secs;
                    if self.config.cost.shared_h2d_link {
                        // all devices share the PCIe root: this transfer can
                        // only start once the link is free, and it occupies
                        // the link for its duration. Approximate the start
                        // as the device's current DMA position plus the mem
                        // time already queued for this task.
                        let start = self
                            .host_link_free
                            .max(self.gpus[gpu.0].time() + mem_secs - secs);
                        let wait = start - (self.gpus[gpu.0].time() + mem_secs - secs);
                        mem_secs += wait;
                        self.host_link_free = start + secs;
                    }
                    obs.h2d(gpu, d.id, d.bytes);
                }
            }
        }

        // Injected transfer timeouts: each timed-out attempt re-pays the
        // full staging cost of this task's operands (residency itself is
        // unaffected — retries change timing, never values).
        let transfer_retries = self.faults.transfer_retries(task.id.0);
        if transfer_retries > 0 && mem_secs > 0.0 {
            obs.fault(gpu, task.id, FaultKind::TransferTimeout);
            for attempt in 1..=transfer_retries {
                obs.retry(gpu, task.id, attempt);
            }
            mem_secs *= 1.0 + f64::from(transfer_retries);
        }

        // Allocate the output. A recompute of an intermediate that is still
        // resident (e.g. replaying a stream on a warm machine) overwrites
        // in place — no new allocation.
        if self.holds_sym(gpu.0, sout) {
            self.gpus[gpu.0].mem.touch(task.out.id);
            self.gpus[gpu.0].mem.set_pinned(task.out.id, true);
        } else {
            mem_secs += self.config.cost.alloc_secs(task.out.bytes);
            obs.alloc(gpu);
            let base = evicted.len();
            self.gpus[gpu.0]
                .mem
                .allocate_into(
                    task.out.id,
                    task.out.bytes,
                    Provenance::DeviceCreated,
                    evicted,
                )
                .map_err(|source| ExecError::OutOfMemory { gpu, source })?;
            self.set_holder(gpu.0, sout);
            mem_secs += self.charge_evictions(gpu, &evicted[base..], obs);
        }

        // Kernel. Injected transient kernel faults charge one full extra
        // launch per failed attempt before the successful one.
        let mut compute_secs = self.config.cost.compute_secs(task.flops);
        let kernel_failures = self.faults.kernel_failures(task.id.0);
        if kernel_failures > 0 {
            obs.fault(gpu, task.id, FaultKind::TransientKernel);
            for attempt in 1..=kernel_failures {
                obs.retry(gpu, task.id, attempt);
            }
            compute_secs *= 1.0 + f64::from(kernel_failures);
        }
        obs.kernel(gpu, task.id, compute_secs);

        // Unpin the working set.
        for id in [task.a.id, task.b.id, task.out.id] {
            self.gpus[gpu.0].mem.set_pinned(id, false);
        }

        // Clairvoyant oracle: advance each touched tensor's use cursor past
        // the current position and feed the next use to every device
        // holding a copy (`set_next_use` was a no-op on non-holders, so
        // walking the holder bits is decision-equivalent to the original
        // feed-every-device loop).
        if self.oracle.is_some() {
            let now = self.task_counter;
            for (id, s) in [(task.a.id, sa), (task.b.id, sb), (task.out.id, sout)] {
                let next = match self.oracle.as_mut() {
                    Some(o) => o.advance(s, now),
                    None => u64::MAX,
                };
                let row = s.index() * self.stride;
                for w in 0..self.stride {
                    let mut word = self.holder_words[row + w];
                    while word != 0 {
                        let g = w * 64 + word.trailing_zeros() as usize;
                        self.gpus[g].mem.set_next_use(id, next);
                        word &= word - 1;
                    }
                }
            }
            self.task_counter += 1;
        }

        let g = &mut self.gpus[gpu.0];
        let (kernel_start, kernel_end);
        if self.config.cost.async_copy {
            // DMA engine runs its queue independently (bounded by the
            // staging window when `prefetch_tasks` is set); the kernel
            // starts once both the compute engine is free and the
            // operands landed.
            let (cs, ce) = g.push_copy(mem_secs, self.config.cost.prefetch_tasks);
            if ce > cs {
                obs.copy_timed(gpu, cs, ce);
            }
            let start = g.compute_time.max(g.dma_time);
            let finish = start + compute_secs;
            g.kernel_intervals.push((start, finish));
            g.compute_time = finish;
            (kernel_start, kernel_end) = (start, finish);
        } else {
            // fully serialised device: memory ops then kernel
            let start = g.compute_time.max(g.dma_time);
            if mem_secs > 0.0 {
                g.copy_intervals.push((start, start + mem_secs));
                obs.copy_timed(gpu, start, start + mem_secs);
            }
            let finish = start + mem_secs + compute_secs;
            g.kernel_intervals.push((start + mem_secs, finish));
            g.compute_time = finish;
            g.dma_time = finish;
            (kernel_start, kernel_end) = (start + mem_secs, finish);
        }
        g.stage_flops += task.flops;
        obs.kernel_timed(gpu, task.id, kernel_start, kernel_end);
        obs.task_done(gpu, task.flops, compute_secs, mem_secs);
        Ok(())
    }

    fn charge_evictions(
        &mut self,
        gpu: GpuId,
        evicted: &[Evicted],
        obs: &mut dyn ExecObserver,
    ) -> f64 {
        let mut secs = 0.0;
        for ev in evicted {
            let s = self.interner.get(ev.id).expect("evicted tensor interned");
            self.clear_holder(gpu.0, s);
            // A write-back is only paid the first time device-created data
            // leaves a device; afterwards the host holds a copy.
            let writeback = ev.writeback && !self.host_copies[s.index()];
            if ev.writeback {
                self.host_copies[s.index()] = true;
            }
            secs += self.config.cost.evict_secs(ev.bytes, writeback);
            obs.evict(gpu, ev.id, writeback, ev.bytes);
        }
        secs
    }

    /// End the current stage: all device clocks advance to the stage
    /// makespan, per-stage state resets. Returns `(stage_start, end)` on
    /// the shared clock so observing wrappers can attribute the span.
    pub fn barrier(&mut self) -> (f64, f64) {
        let end = self.gpus.iter().map(|g| g.time()).fold(0.0, f64::max);
        let start = self.gpus.first().map(|g| g.stage_start).unwrap_or(0.0);
        for g in &mut self.gpus {
            g.compute_time = end;
            g.dma_time = end;
            g.stage_start = end;
            g.stage_flops = 0;
            g.copy_intervals.clear();
            g.kernel_intervals.clear();
        }
        self.stage_index += 1;
        (start, end)
    }

    /// Absolute clock of device `g` (seconds since run start): when both
    /// its compute and DMA engines are done.
    pub fn device_time(&self, g: GpuId) -> f64 {
        self.gpus[g.0].time()
    }

    /// Latest clock over all devices.
    pub fn max_device_time(&self) -> f64 {
        self.gpus.iter().map(|g| g.time()).fold(0.0, f64::max)
    }

    /// Charge extra memory-operation time to device `g`'s DMA engine —
    /// used by the cluster layer to account inter-node transfers that
    /// happen outside this node. Returns the `(start, end)` copy-engine
    /// interval the delay occupied (zero-length when `secs == 0`).
    pub fn add_memory_delay(&mut self, g: GpuId, secs: f64) -> (f64, f64) {
        assert!(secs >= 0.0, "negative delay");
        let gpu = &mut self.gpus[g.0];
        let span = gpu.push_copy(secs, 0);
        if !self.config.cost.async_copy {
            gpu.compute_time = gpu.compute_time.max(gpu.dma_time);
        }
        span
    }

    /// Advance every device clock to at least `t` (a cross-machine barrier
    /// helper for the cluster layer). Clocks never move backwards.
    pub fn advance_to(&mut self, t: f64) {
        for g in &mut self.gpus {
            g.compute_time = g.compute_time.max(t);
            g.dma_time = g.dma_time.max(t);
        }
    }

    /// Number of tensors resident on device `g`.
    pub fn resident_count(&self, g: GpuId) -> usize {
        self.gpus[g.0].mem.resident_count()
    }

    /// Read-only access to device `g`'s memory map (residency, occupancy,
    /// pinning). Offline analyzers use this to inspect the residency state
    /// the replay produced.
    ///
    /// # Panics
    ///
    /// Panics when `g` is out of range; guard with
    /// [`MachineView::num_gpus`].
    pub fn memory(&self, g: GpuId) -> &DeviceMemory {
        &self.gpus[g.0].mem
    }

    /// Mutable access to device `g`'s memory map. An analyzer that keeps
    /// replaying after an [`ExecError::OutOfMemory`] uses this to unpin the
    /// operands the failed task left staged, restoring the pre-task
    /// eviction surface.
    ///
    /// Pinning, touching and next-use feeds are fair game; do **not** add
    /// or remove residency through this handle — the machine mirrors
    /// residency in its interned holder index, which only
    /// [`ShadowMachine::execute_observed`] keeps in sync.
    ///
    /// # Panics
    ///
    /// Panics when `g` is out of range; guard with
    /// [`MachineView::num_gpus`].
    pub fn memory_mut(&mut self, g: GpuId) -> &mut DeviceMemory {
        &mut self.gpus[g.0].mem
    }
}

impl MachineView for ShadowMachine {
    fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    fn topology(&self) -> Option<&LinkTopology> {
        self.topology.as_ref()
    }

    fn mem_capacity(&self) -> u64 {
        self.config.mem_bytes
    }

    fn mem_used(&self, g: GpuId) -> u64 {
        self.gpus[g.0].mem.used()
    }

    fn holds(&self, g: GpuId, t: TensorId) -> bool {
        match self.interner.get(t) {
            Some(s) => self.holds_sym(g.0, s),
            None => false,
        }
    }

    fn holders(&self, t: TensorId) -> Vec<GpuId> {
        let mut out = Vec::new();
        self.holders_into(t, &mut out);
        out
    }

    fn holders_into(&self, t: TensorId, out: &mut Vec<GpuId>) {
        out.clear();
        let Some(s) = self.interner.get(t) else {
            return;
        };
        let base = s.index() * self.stride;
        for w in 0..self.stride {
            let mut word = self.holder_words[base + w];
            while word != 0 {
                out.push(GpuId(w * 64 + word.trailing_zeros() as usize));
                word &= word - 1;
            }
        }
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

/// Build the next-use oracle for a stream: per tensor, the global task
/// indices (execution order) at which it appears as an operand.
///
/// The machine itself now keeps this information in CSR form internally;
/// this map-of-queues builder remains for external consumers and as the
/// reference the CSR is tested against.
pub fn build_oracle(stream: &TensorPairStream) -> HashMap<TensorId, VecDeque<u64>> {
    let mut oracle: HashMap<TensorId, VecDeque<u64>> = HashMap::new();
    let mut idx = 0u64;
    for v in stream.vectors() {
        for t in &v.tasks {
            oracle.entry(t.a.id).or_default().push_back(idx);
            oracle.entry(t.b.id).or_default().push_back(idx);
            idx += 1;
        }
    }
    oracle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SimMachine;
    use micco_workload::{TaskId, TensorDesc, Vector, WorkloadSpec};

    fn task(id: u64, a: u64, b: u64, out: u64, bytes: u64, flops: u64) -> ContractionTask {
        ContractionTask {
            id: TaskId(id),
            a: TensorDesc {
                id: TensorId(a),
                bytes,
            },
            b: TensorDesc {
                id: TensorId(b),
                bytes,
            },
            out: TensorDesc {
                id: TensorId(out),
                bytes,
            },
            flops,
        }
    }

    /// The shadow and the full simulator expose indistinguishable views at
    /// every step of an arbitrary placement sequence.
    #[test]
    fn shadow_view_matches_sim_view_step_by_step() {
        let stream = WorkloadSpec::new(12, 96)
            .with_repeat_rate(0.7)
            .with_vectors(3)
            .with_seed(11)
            .generate();
        for cfg in [
            MachineConfig::mi100_like(3),
            MachineConfig::mi100_like(3)
                .with_cost(crate::CostModel::mi100_like().with_async_copy()),
        ] {
            let mut sim = SimMachine::new(cfg);
            let mut shadow = ShadowMachine::new(cfg);
            let mut i = 0usize;
            for v in stream.vectors() {
                for t in &v.tasks {
                    let gpu = GpuId(i % 3);
                    i += 1;
                    sim.execute(t, gpu).unwrap();
                    shadow.execute(t, gpu).unwrap();
                    for g in (0..3).map(GpuId) {
                        assert_eq!(sim.mem_used(g), shadow.mem_used(g));
                        assert_eq!(sim.stage_flops(g), shadow.stage_flops(g));
                        assert!((sim.stage_busy_secs(g) - shadow.stage_busy_secs(g)).abs() == 0.0);
                        assert_eq!(sim.holds(g, t.a.id), shadow.holds(g, t.a.id));
                    }
                    assert_eq!(sim.holders(t.out.id), shadow.holders(t.out.id));
                }
                sim.barrier();
                shadow.barrier();
                assert_eq!(sim.max_device_time(), shadow.max_device_time());
            }
        }
    }

    /// The bit-packed holder index agrees with the per-device memory maps
    /// after heavy eviction churn, and `holders` stays ascending.
    #[test]
    fn holder_index_matches_memory_under_eviction_churn() {
        let cfg = MachineConfig {
            num_gpus: 4,
            mem_bytes: 3 * (1 << 20) + (1 << 16),
            cost: crate::CostModel::mi100_like(),
            eviction: crate::memory::EvictionPolicy::Lru,
        };
        let mut m = ShadowMachine::new(cfg);
        for i in 0..200u64 {
            let t = task(i, i % 17, (i * 7) % 23, 1000 + i, 1 << 20, 0);
            m.execute(&t, GpuId((i % 4) as usize)).unwrap();
            if i % 10 == 9 {
                m.barrier();
            }
        }
        for id in (0..17).chain(1000..1200).map(TensorId) {
            let holders = m.holders(id);
            let expected: Vec<GpuId> = (0..4)
                .filter(|&g| m.memory(GpuId(g)).holds(id))
                .map(GpuId)
                .collect();
            assert_eq!(holders, expected, "tensor {id:?}");
            for g in (0..4).map(GpuId) {
                assert_eq!(m.holds(g, id), m.memory(g).holds(id));
            }
            let mut sorted = holders.clone();
            sorted.sort_unstable();
            assert_eq!(holders, sorted, "holders must come out ascending");
        }
    }

    #[test]
    fn barrier_returns_stage_span() {
        let mut m = ShadowMachine::new(MachineConfig::mi100_like(2));
        m.execute(&task(0, 1, 2, 100, 1 << 30, 1_000_000_000), GpuId(0))
            .unwrap();
        let (start, end) = m.barrier();
        assert_eq!(start, 0.0);
        assert!(end > 0.0);
        let (s2, e2) = m.barrier();
        assert_eq!(s2, e2, "empty stage has zero span");
    }

    #[test]
    fn oracle_paths_match_sim() {
        let mut tasks = Vec::new();
        for i in 0..30u64 {
            tasks.push(task(i, i % 5, (i + 1) % 5, 1000 + i, 1 << 28, 0));
        }
        let stream = micco_workload::TensorPairStream::new(vec![Vector::new(tasks)]);
        let cfg = MachineConfig {
            num_gpus: 1,
            mem_bytes: 4 * (1 << 28) + (1 << 20),
            cost: crate::CostModel::mi100_like(),
            eviction: crate::memory::EvictionPolicy::Clairvoyant,
        };
        let mut sim = SimMachine::new(cfg).with_oracle(&stream);
        let mut shadow = ShadowMachine::new(cfg).with_oracle(&stream);
        for t in &stream.vectors()[0].tasks {
            sim.execute(t, GpuId(0)).unwrap();
            shadow.execute(t, GpuId(0)).unwrap();
            assert_eq!(sim.mem_used(GpuId(0)), shadow.mem_used(GpuId(0)));
        }
        assert_eq!(sim.max_device_time(), shadow.max_device_time());
    }

    /// The CSR oracle advances exactly like the reference map of queues.
    #[test]
    fn csr_oracle_matches_reference_queues() {
        let stream = WorkloadSpec::new(16, 64)
            .with_repeat_rate(0.8)
            .with_vectors(4)
            .with_seed(5)
            .generate();
        let mut interner = TensorInterner::new();
        interner.intern_stream(&stream);
        let mut csr = OracleCsr::build(&stream, &interner);
        let mut reference = build_oracle(&stream);
        let mut now = 0u64;
        for v in stream.vectors() {
            for t in &v.tasks {
                for id in [t.a.id, t.b.id, t.out.id] {
                    let queue = reference.entry(id).or_default();
                    while queue.front().is_some_and(|&u| u <= now) {
                        queue.pop_front();
                    }
                    let expected = queue.front().copied().unwrap_or(u64::MAX);
                    let s = interner.intern(id);
                    assert_eq!(csr.advance(s, now), expected, "tensor {id:?} at {now}");
                }
                now += 1;
            }
        }
    }

    #[test]
    fn bad_gpu_still_reported() {
        let mut m = ShadowMachine::new(MachineConfig::mi100_like(1));
        let err = m.execute(&task(0, 1, 2, 3, 1, 0), GpuId(4)).unwrap_err();
        assert!(matches!(err, ExecError::BadGpu { .. }));
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let stream = WorkloadSpec::new(10, 64)
            .with_repeat_rate(0.5)
            .with_vectors(2)
            .with_seed(3)
            .generate();
        let cfg = MachineConfig::mi100_like(2);
        let run = |faults: crate::fault::FaultPlan| {
            let mut m = ShadowMachine::new(cfg).with_faults(faults);
            let mut i = 0usize;
            for v in stream.vectors() {
                for t in &v.tasks {
                    m.execute(t, GpuId(i % 2)).unwrap();
                    i += 1;
                }
                m.barrier();
            }
            m.max_device_time()
        };
        assert_eq!(
            run(crate::fault::FaultPlan::none()),
            run(crate::fault::FaultPlan::default())
        );
    }

    #[test]
    fn lost_device_rejects_tasks_and_recovers_if_transient() {
        let faults = crate::fault::FaultPlan::none().with_device_loss(0, 0, false);
        let mut m = ShadowMachine::new(MachineConfig::mi100_like(2)).with_faults(faults);
        let err = m
            .execute(&task(0, 1, 2, 100, 1 << 20, 0), GpuId(0))
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::DeviceLost {
                gpu: GpuId(0),
                stage: 0,
                permanent: false
            }
        );
        // the peer is fine
        m.execute(&task(0, 1, 2, 100, 1 << 20, 0), GpuId(1))
            .unwrap();
        m.barrier();
        // transient loss: gpu0 is back in stage 1
        m.execute(&task(1, 3, 4, 101, 1 << 20, 0), GpuId(0))
            .unwrap();
    }

    #[test]
    fn permanent_loss_persists_across_stages() {
        let faults = crate::fault::FaultPlan::none().with_device_loss(1, 1, true);
        let mut m = ShadowMachine::new(MachineConfig::mi100_like(2)).with_faults(faults);
        m.execute(&task(0, 1, 2, 100, 1 << 20, 0), GpuId(1))
            .unwrap();
        m.barrier();
        for _ in 0..3 {
            let err = m
                .execute(&task(1, 3, 4, 101, 1 << 20, 0), GpuId(1))
                .unwrap_err();
            assert!(matches!(
                err,
                ExecError::DeviceLost {
                    permanent: true,
                    ..
                }
            ));
            m.barrier();
        }
    }

    #[test]
    fn injected_kernel_fault_charges_extra_compute() {
        let t = task(0, 1, 2, 100, 1 << 20, 1_000_000_000);
        let clean = {
            let mut m = ShadowMachine::new(MachineConfig::mi100_like(1));
            m.execute(&t, GpuId(0)).unwrap();
            m.max_device_time()
        };
        let faulty = {
            let faults = crate::fault::FaultPlan::none().with_kernel_fault(0, 2);
            let mut m = ShadowMachine::new(MachineConfig::mi100_like(1)).with_faults(faults);
            m.execute(&t, GpuId(0)).unwrap();
            m.max_device_time()
        };
        assert!(
            faulty > clean,
            "retries must cost time: {faulty} vs {clean}"
        );
    }

    #[test]
    fn injected_timeout_charges_extra_transfer_time() {
        let t = task(0, 1, 2, 100, 1 << 28, 0);
        let run = |faults: crate::fault::FaultPlan| {
            let mut m = ShadowMachine::new(MachineConfig::mi100_like(1)).with_faults(faults);
            m.execute(&t, GpuId(0)).unwrap();
            m.max_device_time()
        };
        let clean = run(crate::fault::FaultPlan::none());
        let faulty = run(crate::fault::FaultPlan::none().with_transfer_timeout(0, 1));
        assert!(
            faulty > clean,
            "one timeout re-pays the staging cost: {faulty} vs {clean}"
        );
    }

    /// A single-island topology whose NVLink spec copies the flat D2D
    /// numbers reproduces the flat simulation bit-for-bit — the identity
    /// the default-off topology path rests on.
    #[test]
    fn single_island_topology_matches_flat_bit_for_bit() {
        use crate::topology::{LinkSpec, LinkTopology};
        let cfg = MachineConfig::mi100_like(4);
        let topo = LinkTopology::nvlink(4, 4).with_nvlink(LinkSpec::new(
            cfg.cost.d2d_gib_s,
            cfg.cost.transfer_latency_us,
        ));
        let stream = WorkloadSpec::new(16, 128)
            .with_repeat_rate(0.7)
            .with_vectors(3)
            .with_seed(42)
            .generate();
        let run = |topo: Option<LinkTopology>| {
            let mut m = ShadowMachine::new(cfg);
            m.set_topology(topo);
            let mut i = 0usize;
            let mut times = Vec::new();
            for v in stream.vectors() {
                for t in &v.tasks {
                    m.execute(t, GpuId(i % 4)).unwrap();
                    i += 1;
                }
                m.barrier();
                times.extend((0..4).map(|g| m.device_time(GpuId(g)).to_bits()));
            }
            times
        };
        assert_eq!(run(None), run(Some(topo)));
    }

    /// Cross-island peer copies are routed, charged per hop, and counted.
    #[test]
    fn topology_routes_charge_links_and_count_crossings() {
        use crate::topology::{LinkSpec, LinkTopology};
        let cfg = MachineConfig::mi100_like(4);
        // 2 islands of 2; PCIe much slower than the flat d2d charge
        let topo = LinkTopology::nvlink(4, 2)
            .with_nvlink(LinkSpec::new(
                cfg.cost.d2d_gib_s,
                cfg.cost.transfer_latency_us,
            ))
            .with_pcie(LinkSpec::new(4.0, 10.0));
        let bytes = 1u64 << 28;
        let run = |topo: Option<LinkTopology>, dst: usize| {
            let mut m = ShadowMachine::new(cfg);
            m.set_topology(topo);
            m.execute(&task(0, 1, 2, 100, bytes, 0), GpuId(0)).unwrap();
            // dst pulls tensor 1 from gpu0 over d2d
            m.execute(&task(1, 1, 3, 101, bytes, 0), GpuId(dst))
                .unwrap();
            m
        };
        // same island: identical to flat, no crossings
        let m = run(Some(topo.clone()), 1);
        assert_eq!(m.cross_island_traffic(), (0, 0));
        let flat = run(None, 1);
        assert_eq!(
            m.device_time(GpuId(1)).to_bits(),
            flat.device_time(GpuId(1)).to_bits()
        );
        // cross island: slower, counted, and the PCIe link shows busy time
        let m = run(Some(topo.clone()), 2);
        assert_eq!(m.cross_island_traffic(), (1, bytes));
        assert_eq!(m.cross_node_traffic(), (0, 0));
        assert!(m.device_time(GpuId(2)) > flat.device_time(GpuId(1)));
        let busy: f64 = m.link_busy_secs().iter().sum();
        assert!(busy > 0.0);
        let moved: u64 = m.link_bytes_moved().iter().sum();
        assert!(moved >= bytes, "route moved {moved} bytes");
    }

    /// The `link_hop` observer hook fires once per hop with consistent
    /// intervals, and only on topology-carrying machines.
    #[test]
    fn link_hop_hook_reports_route_hops() {
        use crate::topology::LinkTopology;
        #[derive(Default)]
        struct Hops(Vec<(usize, &'static str, usize, usize, u64, f64, f64)>);
        impl ExecObserver for Hops {
            fn link_hop(
                &mut self,
                link: usize,
                class: &'static str,
                a: usize,
                b: usize,
                bytes: u64,
                start: f64,
                end: f64,
            ) {
                self.0.push((link, class, a, b, bytes, start, end));
            }
        }
        let cfg = MachineConfig::mi100_like(4);
        let bytes = 1u64 << 26;
        let mut m = ShadowMachine::new(cfg);
        m.set_topology(Some(LinkTopology::nvlink(4, 2)));
        let mut obs = Hops::default();
        m.execute_observed(&task(0, 1, 2, 100, bytes, 0), GpuId(0), &mut obs)
            .unwrap();
        m.execute_observed(&task(1, 1, 3, 101, bytes, 0), GpuId(3), &mut obs)
            .unwrap();
        assert!(!obs.0.is_empty(), "cross-island pull must report hops");
        for w in obs.0.windows(2) {
            assert!(w[0].6 <= w[1].5 + 1e-12, "hops are sequential");
        }
        for (_, class, _, _, b, start, end) in &obs.0 {
            assert!(["nv", "pcie", "ib"].contains(class));
            assert_eq!(*b, bytes);
            assert!(end > start);
        }
        // flat machine: the hook never fires
        let mut m = ShadowMachine::new(cfg);
        let mut obs = Hops::default();
        m.execute_observed(&task(0, 1, 2, 100, bytes, 0), GpuId(0), &mut obs)
            .unwrap();
        m.execute_observed(&task(1, 1, 3, 101, bytes, 0), GpuId(3), &mut obs)
            .unwrap();
        assert!(obs.0.is_empty());
    }
}
