//! The simulated multi-GPU machine.
//!
//! [`SimMachine`] executes contraction tasks on per-device serial timelines.
//! It is the crate's one machine: `micco_core::Session` plans against it —
//! asking the scheduler for each device given the current [`MachineView`],
//! so one pass yields both the plan and its statistics — replays external
//! plans on it, and the `micco-analysis` linter and certifier replay
//! placements on it. [`SimMachine::execute`] applies each placement —
//! staging missing operands (host→device, or device→device when a peer
//! holds a copy), allocating the output, evicting under pressure, and
//! advancing that device's clock by the memory-operation and kernel times —
//! and counts [`ExecStats`] as it goes.
//!
//! Stage vectors are separated by [`SimMachine::barrier`], which aligns all
//! device clocks to the stage makespan (stages are sequential in the
//! application).
//!
//! ## Observation
//!
//! Every observable effect — transfers, evictions, kernels, faults and the
//! timed copy/compute spans — is reported through the [`ExecObserver`]
//! hooks at the point the statistics count it. [`SimMachine::execute`]
//! hands the hooks to the observer attached with
//! [`SimMachine::set_observer`] (telemetry);
//! [`SimMachine::execute_observed`] hands them to a caller-held one (the
//! plan linter's and certifier's collectors). Either way the statistics are
//! counted by the same transition function, so the planned, replayed and
//! analysed paths cannot drift apart.
//!
//! ## Interned residency index
//!
//! Residency queries (`holds`, `holders`, peer selection, and each step's
//! touch and allocation) dominate planning cost. The machine therefore
//! interns every tensor id it touches into a dense [`TensorSym`] — by array
//! index for ids in the generator's and graph lowering's dense runs — and
//! keeps one residency record per symbol: the (device, slot) of up to two
//! copies inline, later copies in a small overflow map. `holds` reads one
//! record, a step finds each operand's slot in its device's
//! [`DeviceMemory`] without hashing, and `holders` comes out in ascending
//! device order — the order a per-device map scan produces, so consumers
//! (including peer-preference tie-breaking) see identical answers. The
//! record grows with symbols plus resident copies, not with symbols ×
//! devices. [`DeviceMemory`] remains the source of truth for occupancy and
//! victim metadata; the record is updated at the only places residency
//! changes (allocation and eviction inside the transition function).

use micco_workload::{
    ContractionTask, TaskId, TensorId, TensorInterner, TensorPairStream, TensorSym,
};

use crate::cost::MachineConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::memory::{AllocError, DeviceMemory, Evicted, Provenance};
use crate::residency::Residency;
use crate::stats::ExecStats;
use crate::topology::LinkTopology;

/// Index of a simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuId(pub usize);

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The target device id is out of range.
    BadGpu {
        /// Offending id.
        gpu: GpuId,
        /// Number of devices.
        num_gpus: usize,
    },
    /// The device cannot hold the task's working set even after evicting
    /// everything unpinned.
    OutOfMemory {
        /// Target device.
        gpu: GpuId,
        /// Underlying allocator error.
        source: AllocError,
    },
    /// The device is down at this stage, per the machine's injected
    /// [`crate::FaultPlan`].
    DeviceLost {
        /// The lost device.
        gpu: GpuId,
        /// Stage the loss was observed at.
        stage: usize,
        /// Whether the device never comes back.
        permanent: bool,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BadGpu { gpu, num_gpus } => {
                write!(f, "{gpu} out of range (machine has {num_gpus} devices)")
            }
            ExecError::OutOfMemory { gpu, source } => write!(f, "{gpu} out of memory: {source}"),
            ExecError::DeviceLost {
                gpu,
                stage,
                permanent,
            } => write!(
                f,
                "{gpu} lost at stage {stage} ({})",
                if *permanent { "permanent" } else { "transient" }
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Read-only view of the machine offered to schedulers — the paper's
/// `mapGPUTensor` / `mapGPUCom` / `mapGPUMem` in trait form.
pub trait MachineView {
    /// Number of devices.
    fn num_gpus(&self) -> usize;
    /// Per-device memory capacity in bytes.
    fn mem_capacity(&self) -> u64;
    /// Bytes resident on device `g`.
    fn mem_used(&self, g: GpuId) -> u64;
    /// Whether tensor `t` is resident on device `g`.
    fn holds(&self, g: GpuId, t: TensorId) -> bool;
    /// All devices holding a copy of tensor `t` (ascending id order).
    fn holders(&self, t: TensorId) -> Vec<GpuId>;
    /// [`MachineView::holders`] into a caller-owned buffer (cleared first),
    /// so hot loops can reuse one allocation per query site. Same ascending
    /// order as `holders`.
    fn holders_into(&self, t: TensorId, out: &mut Vec<GpuId>) {
        out.clear();
        out.extend(self.holders(t));
    }
    /// Kernel flops assigned to device `g` in the current stage
    /// (`mapGPUCom`).
    fn stage_flops(&self, g: GpuId) -> u64;
    /// Busy seconds of device `g` in the current stage (compute + memory
    /// ops) — what "earliest available device" baselines rank by.
    fn stage_busy_secs(&self, g: GpuId) -> f64;
    /// Bytes the task would still need to allocate on `g` (non-resident
    /// inputs + output).
    fn bytes_needed(&self, g: GpuId, task: &ContractionTask) -> u64;
    /// Whether placing `task` on `g` would trigger eviction.
    fn would_evict(&self, g: GpuId, task: &ContractionTask) -> bool {
        self.bytes_needed(g, task) > self.mem_capacity().saturating_sub(self.mem_used(g))
    }
    /// The interconnect topology the machine routes transfers over, if one
    /// is configured. `None` means the flat uniform-D2D model.
    fn topology(&self) -> Option<&crate::topology::LinkTopology> {
        None
    }
}

/// Observation hooks called by the machine's transition function at the
/// exact points it counts its statistics. All methods default to no-ops.
///
/// Telemetry attaches one to a machine ([`SimMachine::set_observer`]);
/// offline tools like the `micco-analysis` plan linter pass their own to
/// [`SimMachine::execute_observed`] and watch every transfer and eviction
/// of a replay.
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
    /// disjoint (mirroring the device's copy-interval ledger), so timeline
    /// consumers can lay them out on a per-device copy track directly.
    fn copy_timed(&mut self, _gpu: GpuId, _start: f64, _end: f64) {}
    /// The kernel of `task` occupied `gpu`'s compute engine over
    /// `[start, end)` in absolute simulated seconds (zero-length for
    /// zero-flop tasks). Emitted once per executed task, after
    /// [`Self::kernel`], with the resolved engine timing.
    fn kernel_timed(&mut self, _gpu: GpuId, _task: TaskId, _start: f64, _end: f64) {}
    /// Stage `stage` closed, spanning `[start, end)` on the shared clock.
    /// Fired by [`SimMachine::barrier`] to the attached observer.
    fn stage_done(&mut self, _stage: usize, _start: f64, _end: f64) {}
}

/// The no-op observer: what [`SimMachine::execute`] reports to when no
/// observer is attached.
pub struct NullObserver;

impl ExecObserver for NullObserver {}

/// Per-device state: memory, the two engine clocks, and the busy intervals
/// of the current stage.
struct Device {
    mem: DeviceMemory,
    /// When the compute engine finishes its queued kernels.
    compute_time: f64,
    /// When the DMA engine finishes its queued memory operations. In
    /// synchronous mode this is kept fused with `compute_time`; with
    /// `async_copy` the two engines run concurrently and a kernel only
    /// waits for its own operands.
    dma_time: f64,
    /// Start of the current stage on the shared clock.
    stage_start: f64,
    /// Flops assigned this stage.
    stage_flops: u64,
    /// Copy-engine busy intervals of the current stage, in absolute time.
    /// Appended in nondecreasing order and pairwise disjoint (each copy
    /// starts at or after the previous one's end), which lets the barrier
    /// intersect them against `kernel_intervals` with one linear pass.
    copy_intervals: Vec<(f64, f64)>,
    /// Compute-engine busy intervals of the current stage, one per task
    /// (zero-length for zero-flop tasks), in absolute time. Also sorted
    /// and disjoint. Doubles as the kernel-completion history that bounds
    /// the DMA engine's lookahead under `prefetch_tasks`.
    kernel_intervals: Vec<(f64, f64)>,
}

impl Device {
    /// When this device finishes all queued work.
    fn time(&self) -> f64 {
        self.compute_time.max(self.dma_time)
    }

    /// Record `secs` of copy-engine work starting no earlier than the
    /// engine's current position, returning the `(start, end)` interval it
    /// occupied (zero-length at the current position when `secs <= 0`).
    /// With a bounded staging window (`prefetch ≥ 1`) the transfer
    /// additionally waits until the kernel `prefetch` tasks back has freed
    /// its buffer.
    fn push_copy(&mut self, secs: f64, prefetch: usize) -> (f64, f64) {
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
fn intersect_secs(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
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
/// forward. Equivalent to a per-tensor queue of use positions (pop-front ⇔
/// cursor advance; the test module keeps that map of queues as the
/// reference) without per-tensor allocations.
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

/// The simulated node.
///
/// # Examples
///
/// ```
/// use micco_gpusim::{GpuId, MachineConfig, MachineView, SimMachine};
/// use micco_workload::{ContractionTask, TaskId, TensorDesc, TensorId};
///
/// let mut machine = SimMachine::new(MachineConfig::mi100_like(2));
/// let task = ContractionTask {
///     id: TaskId(0),
///     a: TensorDesc { id: TensorId(1), bytes: 1 << 20 },
///     b: TensorDesc { id: TensorId(2), bytes: 1 << 20 },
///     out: TensorDesc { id: TensorId(3), bytes: 1 << 20 },
///     flops: 1_000_000,
/// };
/// machine.execute(&task, GpuId(0)).unwrap();
/// machine.barrier();
/// // both operands were staged from the host and are now resident
/// assert_eq!(machine.stats().total_h2d(), 2);
/// assert!(machine.holds(GpuId(0), TensorId(1)));
/// assert!(machine.stats().elapsed_secs > 0.0);
/// ```
pub struct SimMachine {
    config: MachineConfig,
    gpus: Vec<Device>,
    /// Statistics so far, counted by the transition function.
    stats: ExecStats,
    /// The observer [`SimMachine::execute`] and the barrier report to.
    observer: Option<Box<dyn ExecObserver + Send>>,
    /// Tensor id ↔ dense symbol table, grown on first touch.
    interner: TensorInterner,
    /// Symbol → (device, slot) of every resident copy.
    residency: Residency,
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
    /// faults key on and what `stage_done` reports.
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

impl SimMachine {
    /// Build an idle machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let gpus = (0..config.num_gpus)
            .map(|_| Device {
                mem: DeviceMemory::new(config.mem_bytes, config.eviction),
                compute_time: 0.0,
                dma_time: 0.0,
                stage_start: 0.0,
                stage_flops: 0,
                copy_intervals: Vec::new(),
                kernel_intervals: Vec::new(),
            })
            .collect();
        SimMachine {
            stats: ExecStats::new(config.num_gpus),
            observer: None,
            config,
            gpus,
            interner: TensorInterner::new(),
            residency: Residency::default(),
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

    /// Route device→device transfers over an explicit [`LinkTopology`]:
    /// peer copies are charged per-hop link time instead of the flat
    /// uniform [`crate::CostModel::d2d_secs`].
    ///
    /// # Panics
    ///
    /// Panics when the topology covers a different device count than the
    /// machine.
    pub fn with_topology(mut self, topo: LinkTopology) -> Self {
        self.set_topology(Some(topo));
        self
    }

    /// Install (or clear) the link topology in place, resetting the link
    /// and crossing counters.
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

    /// Per-link busy seconds accumulated so far, indexed like
    /// [`LinkTopology::links`] (empty without a topology).
    pub fn link_busy_secs(&self) -> &[f64] {
        &self.link_secs
    }

    /// Per-link bytes moved so far, indexed like [`LinkTopology::links`]
    /// (empty without a topology).
    pub fn link_bytes_moved(&self) -> &[u64] {
        &self.link_bytes
    }

    /// `(count, bytes)` of peer copies whose route crossed an island
    /// boundary. Always zero on flat machines.
    pub fn cross_island_traffic(&self) -> (u64, u64) {
        (self.cross_island_transfers, self.cross_island_bytes)
    }

    /// `(count, bytes)` of peer copies whose route crossed a node boundary.
    pub fn cross_node_traffic(&self) -> (u64, u64) {
        (self.cross_node_transfers, self.cross_node_bytes)
    }

    /// Arm the machine with a fault-injection plan (empty by default).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Arm the clairvoyant eviction oracle with the full stream the machine
    /// is about to execute (tasks must then be executed in stream order).
    /// Only meaningful with [`crate::memory::EvictionPolicy::Clairvoyant`].
    pub fn with_oracle(mut self, stream: &TensorPairStream) -> Self {
        self.reserve_stream(stream);
        self.oracle = Some(OracleCsr::build(stream, &self.interner));
        self
    }

    /// Pre-intern every tensor of `stream` and size the residency index for
    /// it, so planning a known stream never grows tables mid-flight. Purely
    /// an allocation hint — symbols are internal and first-touch interning
    /// would produce identical behaviour.
    pub fn reserve_stream(&mut self, stream: &TensorPairStream) {
        self.interner.intern_stream(stream);
        self.grow_tables();
    }

    /// Attach an external [`ExecObserver`] (e.g. a telemetry span
    /// recorder). It sees every hook [`Self::execute`] reports — including
    /// the timed `copy_timed`/`kernel_timed` hooks and the barrier's
    /// `stage_done` — without perturbing the statistics themselves.
    /// Replaces any previously attached observer.
    pub fn set_observer(&mut self, observer: Box<dyn ExecObserver + Send>) {
        self.observer = Some(observer);
    }

    /// Builder form of [`Self::set_observer`].
    pub fn with_observer(mut self, observer: Box<dyn ExecObserver + Send>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Statistics so far. `elapsed_secs` is complete only after the final
    /// [`Self::barrier`].
    pub fn stats(&self) -> &ExecStats {
        &self.stats
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
        self.residency.grow(n);
        self.host_copies.resize(n, false);
    }

    /// Execute `task` on device `gpu`, advancing its clock and counting
    /// statistics, and report every hook to the attached observer, if any.
    pub fn execute(&mut self, task: &ContractionTask, gpu: GpuId) -> Result<(), ExecError> {
        let mut attached = self.observer.take();
        let result = match attached.as_deref_mut() {
            Some(obs) => self.execute_observed(task, gpu, obs),
            None => self.execute_observed(task, gpu, &mut NullObserver),
        };
        self.observer = attached;
        result
    }

    /// [`Self::execute`], but every hook goes to the caller-held `obs`
    /// instead of the attached observer — how offline tools (the plan
    /// linter and certifier) replay placements with their own collectors.
    pub fn execute_observed(
        &mut self,
        task: &ContractionTask,
        gpu: GpuId,
        obs: &mut dyn ExecObserver,
    ) -> Result<(), ExecError> {
        let mut evicted = std::mem::take(&mut self.evicted_scratch);
        evicted.clear();
        let result = self.step(task, gpu, obs, &mut evicted);
        evicted.clear();
        self.evicted_scratch = evicted;
        result
    }

    /// The transition function: reports each observable effect to `obs`
    /// at the point it counts it in the statistics.
    fn step(
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

        // Stage both inputs. Each operand's slot pins it for the rest of
        // the task: no later allocation of the task may evict it.
        let mut operand_slots = [0u32; 2];
        for (i, (d, s)) in [(task.a, sa), (task.b, sb)].into_iter().enumerate() {
            if let Some(slot) = self.residency.slot(s, gpu.0) {
                self.gpus[gpu.0].mem.touch(slot);
                operand_slots[i] = slot;
                self.stats.per_gpu[gpu.0].reuse_hits += 1;
                obs.reuse_hit(gpu, d.id);
                continue;
            }
            // Source selection: prefer a peer copy (faster link) else host.
            let peer = self.residency.first_holder_excluding(s, gpu.0);
            mem_secs += self.config.cost.alloc_secs(d.bytes);
            self.stats.per_gpu[gpu.0].allocs += 1;
            obs.alloc(gpu);
            let base = evicted.len();
            let slot = self.gpus[gpu.0]
                .mem
                .allocate_into(d, s, Provenance::HostBacked, &operand_slots[..i], evicted)
                .map_err(|source| ExecError::OutOfMemory { gpu, source })?;
            operand_slots[i] = slot;
            mem_secs += self.charge_evictions(gpu, &evicted[base..], obs);
            self.residency.insert(s, gpu.0, slot);
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
                        self.stats.per_gpu[src.0].memory_secs += secs;
                        obs.source_charge(src, secs);
                        if ce > cs {
                            obs.copy_timed(src, cs, ce);
                        }
                    }
                    let s = &mut self.stats.per_gpu[gpu.0];
                    s.d2d_count += 1;
                    s.d2d_bytes += d.bytes;
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
                    let s = &mut self.stats.per_gpu[gpu.0];
                    s.h2d_count += 1;
                    s.h2d_bytes += d.bytes;
                    obs.h2d(gpu, d.id, d.bytes);
                }
            }
        }

        // Injected transfer timeouts: each timed-out attempt re-pays the
        // full staging cost of this task's operands (residency itself is
        // unaffected — retries change timing, never values).
        let transfer_retries = self.faults.transfer_retries(task.id.0);
        if transfer_retries > 0 && mem_secs > 0.0 {
            let s = &mut self.stats.per_gpu[gpu.0];
            s.faults += 1;
            obs.fault(gpu, task.id, FaultKind::TransferTimeout);
            for attempt in 1..=transfer_retries {
                s.retries += 1;
                obs.retry(gpu, task.id, attempt);
            }
            mem_secs *= 1.0 + f64::from(transfer_retries);
        }

        // Allocate the output. A recompute of an intermediate that is still
        // resident (e.g. replaying a stream on a warm machine) overwrites
        // in place — no new allocation.
        if let Some(slot) = self.residency.slot(sout, gpu.0) {
            self.gpus[gpu.0].mem.touch(slot);
        } else {
            mem_secs += self.config.cost.alloc_secs(task.out.bytes);
            self.stats.per_gpu[gpu.0].allocs += 1;
            obs.alloc(gpu);
            let base = evicted.len();
            let slot = self.gpus[gpu.0]
                .mem
                .allocate_into(
                    task.out,
                    sout,
                    Provenance::DeviceCreated,
                    &operand_slots,
                    evicted,
                )
                .map_err(|source| ExecError::OutOfMemory { gpu, source })?;
            mem_secs += self.charge_evictions(gpu, &evicted[base..], obs);
            self.residency.insert(sout, gpu.0, slot);
        }

        // Kernel. Injected transient kernel faults charge one full extra
        // launch per failed attempt before the successful one.
        let mut compute_secs = self.config.cost.compute_secs(task.flops);
        let kernel_failures = self.faults.kernel_failures(task.id.0);
        if kernel_failures > 0 {
            let s = &mut self.stats.per_gpu[gpu.0];
            s.faults += 1;
            obs.fault(gpu, task.id, FaultKind::TransientKernel);
            for attempt in 1..=kernel_failures {
                s.retries += 1;
                obs.retry(gpu, task.id, attempt);
            }
            compute_secs *= 1.0 + f64::from(kernel_failures);
        }
        obs.kernel(gpu, task.id, compute_secs);

        // Clairvoyant oracle: advance each touched tensor's use cursor past
        // the current position and feed the next use to every device
        // holding a copy (non-holders have nothing to feed).
        if let Some(oracle) = self.oracle.as_mut() {
            let now = self.task_counter;
            for s in [sa, sb, sout] {
                let next = oracle.advance(s, now);
                for (g, slot) in self.residency.copies(s) {
                    self.gpus[g].mem.set_next_use(slot, next);
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
        let s = &mut self.stats.per_gpu[gpu.0];
        s.tasks += 1;
        s.flops += task.flops;
        s.compute_secs += compute_secs;
        s.memory_secs += mem_secs;
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
            let s = ev.sym;
            self.residency.remove(s, gpu.0);
            // A write-back is only paid the first time device-created data
            // leaves a device; afterwards the host holds a copy.
            let writeback = ev.writeback && !self.host_copies[s.index()];
            if ev.writeback {
                self.host_copies[s.index()] = true;
            }
            secs += self.config.cost.evict_secs(ev.bytes, writeback);
            let st = &mut self.stats.per_gpu[gpu.0];
            st.evictions += 1;
            if writeback {
                st.writeback_bytes += ev.bytes;
            }
            obs.evict(gpu, ev.id, writeback, ev.bytes);
        }
        secs
    }

    /// End the current stage: all device clocks advance to the stage
    /// makespan, per-stage state resets, the makespan is recorded, and the
    /// attached observer sees `stage_done`. Returns the stage's
    /// `(start, end)` on the shared clock.
    ///
    /// This is also where the dual-timeline accounting settles: for every
    /// device the copy-engine and compute-engine busy intervals of the
    /// stage are intersected to attribute the span to copy, compute,
    /// overlap (both engines busy), and idle (neither busy — waiting at
    /// this barrier for slower peers, or a kernel stalled on operands).
    /// The per-device invariant `compute + copy − overlap + idle == span`
    /// holds exactly.
    pub fn barrier(&mut self) -> (f64, f64) {
        let end = self.max_device_time();
        let start = self.gpus.first().map(|g| g.stage_start).unwrap_or(0.0);
        let makespan = end - start;
        self.stats.stage_makespans.push(makespan);
        self.stats.elapsed_secs = end;
        for (g, s) in self.gpus.iter_mut().zip(&mut self.stats.per_gpu) {
            let copy_secs: f64 = g.copy_intervals.iter().map(|(a, b)| b - a).sum();
            let compute_secs: f64 = g.kernel_intervals.iter().map(|(a, b)| b - a).sum();
            let overlap_secs = intersect_secs(&g.copy_intervals, &g.kernel_intervals);
            let idle_secs = (makespan - (copy_secs + compute_secs - overlap_secs)).max(0.0);
            s.overlap_secs += overlap_secs;
            s.idle_secs += idle_secs;
            g.compute_time = end;
            g.dma_time = end;
            g.stage_start = end;
            g.stage_flops = 0;
            g.copy_intervals.clear();
            g.kernel_intervals.clear();
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.stage_done(self.stage_index, start, end);
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
    /// used by the cluster layer (`micco-cluster`) to account inter-node
    /// transfers that happen outside this node.
    pub fn add_memory_delay(&mut self, g: GpuId, secs: f64) {
        assert!(secs >= 0.0, "negative delay");
        let gpu = &mut self.gpus[g.0];
        let (start, end) = gpu.push_copy(secs, 0);
        if !self.config.cost.async_copy {
            gpu.compute_time = gpu.compute_time.max(gpu.dma_time);
        }
        self.stats.per_gpu[g.0].memory_secs += secs;
        if let Some(obs) = self.observer.as_deref_mut() {
            if end > start {
                obs.copy_timed(g, start, end);
            }
        }
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

    /// Read-only access to device `g`'s memory map (residency and
    /// occupancy), to inspect the residency state a replay produced.
    ///
    /// # Panics
    ///
    /// Panics when `g` is out of range; guard with
    /// [`MachineView::num_gpus`].
    pub fn memory(&self, g: GpuId) -> &DeviceMemory {
        &self.gpus[g.0].mem
    }
}

impl MachineView for SimMachine {
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
        self.interner
            .get(t)
            .is_some_and(|s| self.residency.slot(s, g.0).is_some())
    }

    fn holders(&self, t: TensorId) -> Vec<GpuId> {
        let mut out = Vec::new();
        self.holders_into(t, &mut out);
        out
    }

    fn holders_into(&self, t: TensorId, out: &mut Vec<GpuId>) {
        match self.interner.get(t) {
            Some(s) => self.residency.holders_into(s, out),
            None => out.clear(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::memory::EvictionPolicy;
    use micco_workload::{TensorDesc, WorkloadSpec, OUTPUT_ID_BASE};
    use std::collections::{HashMap, VecDeque};
    use std::sync::{Arc, Mutex};

    /// Round-number cost model: 1 GFLOPS device, 1 GiB/s links, no latency.
    /// Source charging is off so per-device timings stay easy to hand-check;
    /// `d2d_source_charging_throttles_holder` covers the flag.
    fn unit_cost() -> CostModel {
        CostModel {
            device_gflops: 1.0,
            h2d_gib_s: 1.0,
            d2d_gib_s: 2.0,
            transfer_latency_us: 0.0,
            alloc_latency_us: 0.0,
            evict_latency_us: 0.0,
            d2d_charges_source: false,
            async_copy: false,
            shared_h2d_link: false,
            prefetch_tasks: 0,
        }
    }

    #[test]
    fn d2d_source_charging_throttles_holder() {
        let cfg = MachineConfig {
            num_gpus: 2,
            mem_bytes: 100 * GIB,
            cost: CostModel {
                d2d_charges_source: true,
                ..unit_cost()
            },
            eviction: EvictionPolicy::Lru,
        };
        let mut m = SimMachine::new(cfg);
        m.execute(&task(0, 1, 2, 100, GIB, 0), GpuId(0)).unwrap(); // 2 s on gpu0
                                                                   // gpu1 pulls tensor 1 from gpu0: 0.5 s on gpu1 AND 0.5 s added to gpu0
        m.execute(&task(1, 1, 3, 101, GIB, 0), GpuId(1)).unwrap();
        assert!((m.device_time(GpuId(0)) - 2.5).abs() < 1e-9);
        assert!((m.device_time(GpuId(1)) - 1.5).abs() < 1e-9);
    }

    fn machine(gpus: usize, mem: u64) -> SimMachine {
        let cfg = MachineConfig {
            num_gpus: gpus,
            mem_bytes: mem,
            cost: unit_cost(),
            eviction: EvictionPolicy::Lru,
        };
        SimMachine::new(cfg)
    }

    const GIB: u64 = 1 << 30;

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

    #[test]
    fn first_task_pays_two_h2d_and_kernel() {
        let mut m = machine(2, 100 * GIB);
        let t = task(0, 1, 2, 100, GIB, 1_000_000_000);
        m.execute(&t, GpuId(0)).unwrap();
        m.barrier();
        let s = m.stats();
        assert_eq!(s.per_gpu[0].h2d_count, 2);
        assert_eq!(s.per_gpu[0].d2d_count, 0);
        // 2 GiB over 1 GiB/s + 1 GF over 1 GFLOPS = 3 s
        assert!(
            (s.elapsed_secs - 3.0).abs() < 1e-9,
            "elapsed {}",
            s.elapsed_secs
        );
        assert_eq!(s.total_tasks(), 1);
    }

    #[test]
    fn resident_inputs_are_reused_free() {
        let mut m = machine(1, 100 * GIB);
        let t0 = task(0, 1, 2, 100, GIB, 1_000_000_000);
        let t1 = task(1, 1, 2, 101, GIB, 1_000_000_000);
        m.execute(&t0, GpuId(0)).unwrap();
        m.execute(&t1, GpuId(0)).unwrap();
        m.barrier();
        let s = m.stats();
        assert_eq!(s.per_gpu[0].h2d_count, 2, "second task reuses both inputs");
        assert_eq!(s.per_gpu[0].reuse_hits, 2);
        // 2 s transfers + 2 × 1 s kernels
        assert!((s.elapsed_secs - 4.0).abs() < 1e-9);
    }

    #[test]
    fn peer_copy_uses_d2d() {
        let mut m = machine(2, 100 * GIB);
        m.execute(&task(0, 1, 2, 100, GIB, 0), GpuId(0)).unwrap();
        // tensor 1 resident on gpu0; gpu1 should fetch it over d2d (0.5 s)
        m.execute(&task(1, 1, 3, 101, GIB, 0), GpuId(1)).unwrap();
        m.barrier();
        let s = m.stats();
        assert_eq!(s.per_gpu[1].d2d_count, 1);
        assert_eq!(s.per_gpu[1].h2d_count, 1);
        // gpu1 time: 0.5 (d2d) + 1.0 (h2d) = 1.5; gpu0: 2.0 → makespan 2.0
        assert!((s.elapsed_secs - 2.0).abs() < 1e-9);
        // both devices hold tensor 1 now
        assert_eq!(m.holders(TensorId(1)), vec![GpuId(0), GpuId(1)]);
    }

    #[test]
    fn identical_operands_counted_once_in_bytes_needed() {
        let m = machine(1, 100 * GIB);
        let t = task(0, 7, 7, 100, GIB, 0);
        assert_eq!(m.bytes_needed(GpuId(0), &t), 2 * GIB); // one input + output
    }

    /// Attach an observer that records `(tensor, writeback)` per eviction.
    fn observe_evictions(m: &mut SimMachine) -> Arc<Mutex<Vec<(TensorId, bool)>>> {
        struct Evictions(Arc<Mutex<Vec<(TensorId, bool)>>>);
        impl ExecObserver for Evictions {
            fn evict(&mut self, _gpu: GpuId, tensor: TensorId, writeback: bool, _bytes: u64) {
                self.0.lock().unwrap().push((tensor, writeback));
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        m.set_observer(Box::new(Evictions(seen.clone())));
        seen
    }

    #[test]
    fn eviction_charged_and_observed() {
        // memory for exactly 3 tensors of 1 GiB
        let mut m = machine(1, 3 * GIB);
        let evictions = observe_evictions(&mut m);
        m.execute(&task(0, 1, 2, 100, GIB, 0), GpuId(0)).unwrap();
        // next task needs 2 new tensors + output = 3 GiB, only 0 free →
        // evicts 3 (LRU order: tensors 1, 2, then output 100)
        m.execute(&task(1, 3, 4, 101, GIB, 0), GpuId(0)).unwrap();
        m.barrier();
        let s = m.stats();
        assert_eq!(s.per_gpu[0].evictions, 3);
        let evictions = evictions.lock().unwrap();
        assert_eq!(evictions.len(), 3);
        // the evicted output (tensor 100) pays a write-back
        assert!(evictions.contains(&(TensorId(100), true)));
        assert_eq!(s.per_gpu[0].writeback_bytes, GIB);
    }

    #[test]
    fn writeback_paid_once_per_tensor() {
        let mut m = machine(1, 3 * GIB);
        let evictions = observe_evictions(&mut m);
        m.execute(&task(0, 1, 2, 100, GIB, 0), GpuId(0)).unwrap();
        m.execute(&task(1, 3, 100, 101, GIB, 0), GpuId(0)).unwrap(); // 100 reused
                                                                     // force 100 out, then back in, then out again
        m.execute(&task(2, 4, 5, 102, GIB, 0), GpuId(0)).unwrap();
        m.execute(&task(3, 100, 6, 103, GIB, 0), GpuId(0)).unwrap();
        m.execute(&task(4, 7, 8, 104, GIB, 0), GpuId(0)).unwrap();
        m.barrier();
        let wb = evictions
            .lock()
            .unwrap()
            .iter()
            .filter(|&&e| e == (TensorId(100), true))
            .count();
        assert_eq!(wb, 1, "tensor 100 must pay write-back exactly once");
    }

    #[test]
    fn out_of_memory_is_an_error() {
        let mut m = machine(1, 2 * GIB);
        let t = task(0, 1, 2, 100, GIB, 0); // needs 3 GiB pinned at once
        let err = m.execute(&t, GpuId(0)).unwrap_err();
        assert!(matches!(err, ExecError::OutOfMemory { gpu: GpuId(0), .. }));
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn bad_gpu_is_an_error() {
        let mut m = machine(2, GIB);
        let t = task(0, 1, 2, 100, 1, 0);
        let err = m.execute(&t, GpuId(5)).unwrap_err();
        assert_eq!(
            err,
            ExecError::BadGpu {
                gpu: GpuId(5),
                num_gpus: 2
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn barrier_aligns_clocks_and_resets_stage_counters() {
        let mut m = machine(2, 100 * GIB);
        m.execute(&task(0, 1, 2, 100, GIB, 2_000_000_000), GpuId(0))
            .unwrap();
        assert!(m.stage_busy_secs(GpuId(0)) > 0.0);
        assert_eq!(m.stage_busy_secs(GpuId(1)), 0.0);
        assert_eq!(m.stage_flops(GpuId(0)), 2_000_000_000);
        m.barrier();
        assert_eq!(m.stage_flops(GpuId(0)), 0);
        assert_eq!(m.stage_busy_secs(GpuId(0)), 0.0);
        assert_eq!(m.device_time(GpuId(0)), m.device_time(GpuId(1)));
        assert_eq!(m.stats().stage_makespans.len(), 1);
    }

    #[test]
    fn makespan_is_max_over_devices() {
        let mut m = machine(2, 100 * GIB);
        m.execute(&task(0, 1, 2, 100, GIB, 0), GpuId(0)).unwrap(); // 2 s
        m.execute(&task(1, 3, 4, 101, GIB, 1_000_000_000), GpuId(1))
            .unwrap(); // 3 s
        m.barrier();
        assert!((m.stats().elapsed_secs - 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_stage_elapsed_is_sum_of_makespans() {
        let mut m = machine(2, 100 * GIB);
        m.execute(&task(0, 1, 2, 100, GIB, 0), GpuId(0)).unwrap();
        m.barrier();
        m.execute(&task(1, 3, 4, 101, GIB, 0), GpuId(1)).unwrap();
        m.barrier();
        let s = m.stats();
        assert_eq!(s.stage_makespans.len(), 2);
        let sum: f64 = s.stage_makespans.iter().sum();
        assert!((s.elapsed_secs - sum).abs() < 1e-9);
    }

    #[test]
    fn would_evict_predicts_pressure() {
        let mut m = machine(1, 3 * GIB);
        let t = task(0, 1, 2, 100, GIB, 0);
        assert!(!m.would_evict(GpuId(0), &t));
        m.execute(&t, GpuId(0)).unwrap();
        let t2 = task(1, 3, 4, 101, GIB, 0);
        assert!(m.would_evict(GpuId(0), &t2));
        // a task reusing residents needs only the output
        let t3 = task(2, 1, 2, 102, GIB, 0);
        assert_eq!(m.bytes_needed(GpuId(0), &t3), GIB);
    }

    #[test]
    fn recompute_of_resident_output_overwrites_in_place() {
        let mut m = machine(1, 100 * GIB);
        let t = task(0, 1, 2, 100, GIB, 0);
        m.execute(&t, GpuId(0)).unwrap();
        let allocs_before = m.stats().per_gpu[0].allocs;
        // replay the same task: inputs reuse, output overwrites — no new
        // allocations (and no debug_assert in the allocator)
        m.execute(&t, GpuId(0)).unwrap();
        assert_eq!(m.stats().per_gpu[0].allocs, allocs_before);
        assert_eq!(m.stats().per_gpu[0].reuse_hits, 2);
        assert_eq!(m.resident_count(GpuId(0)), 3);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut m = machine(3, 4 * GIB);
            for i in 0..20u64 {
                let t = task(i, i % 5, (i + 3) % 7, 1000 + i, GIB / 4, 500_000_000);
                m.execute(&t, GpuId((i % 3) as usize)).unwrap();
                if i % 7 == 6 {
                    m.barrier();
                }
            }
            m.barrier();
            m.stats().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_gflops_nonzero_after_work() {
        let mut m = machine(1, 100 * GIB);
        m.execute(&task(0, 1, 2, 100, GIB, 5_000_000_000), GpuId(0))
            .unwrap();
        m.barrier();
        assert!(m.stats().gflops() > 0.0);
    }

    fn async_machine(gpus: usize, mem: u64) -> SimMachine {
        let cfg = MachineConfig {
            num_gpus: gpus,
            mem_bytes: mem,
            cost: CostModel {
                async_copy: true,
                ..unit_cost()
            },
            eviction: EvictionPolicy::Lru,
        };
        SimMachine::new(cfg)
    }

    #[test]
    fn async_copy_overlaps_transfers_with_compute() {
        let mut m = async_machine(1, 100 * GIB);
        // task 0: 2 s transfers + 2 s compute → kernel runs [2, 4)
        m.execute(&task(0, 1, 2, 100, GIB, 2_000_000_000), GpuId(0))
            .unwrap();
        // task 1: its 2 s of transfers run [2, 4) on the DMA engine while
        // task 0 computes; kernel starts at max(4, 4) = 4, ends 6
        m.execute(&task(1, 3, 4, 101, GIB, 2_000_000_000), GpuId(0))
            .unwrap();
        m.barrier();
        assert!(
            (m.stats().elapsed_secs - 6.0).abs() < 1e-9,
            "elapsed {}",
            m.stats().elapsed_secs
        );
    }

    #[test]
    fn sync_mode_serialises_the_same_sequence() {
        let mut m = machine(1, 100 * GIB);
        m.execute(&task(0, 1, 2, 100, GIB, 2_000_000_000), GpuId(0))
            .unwrap();
        m.execute(&task(1, 3, 4, 101, GIB, 2_000_000_000), GpuId(0))
            .unwrap();
        m.barrier();
        // 2+2 transfers + 2+2 compute, fully serial
        assert!((m.stats().elapsed_secs - 8.0).abs() < 1e-9);
    }

    #[test]
    fn async_copy_never_slower_than_sync() {
        let run = |async_copy: bool| {
            let mut m = if async_copy {
                async_machine(2, 100 * GIB)
            } else {
                machine(2, 100 * GIB)
            };
            for i in 0..12u64 {
                let t = task(i, 100 + i, 200 + i, 300 + i, GIB / 4, 400_000_000);
                m.execute(&t, GpuId((i % 2) as usize)).unwrap();
            }
            m.barrier();
            m.stats().elapsed_secs
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn async_kernel_still_waits_for_operands() {
        let mut m = async_machine(1, 100 * GIB);
        // one task: transfers 2 s then compute 1 s — no overlap possible
        m.execute(&task(0, 1, 2, 100, GIB, 1_000_000_000), GpuId(0))
            .unwrap();
        m.barrier();
        assert!((m.stats().elapsed_secs - 3.0).abs() < 1e-9);
    }

    #[test]
    fn clairvoyant_beats_lru_on_a_scan_pattern() {
        // classic Belady-vs-LRU adversary: cyclic scan over k+1 tensors
        // with capacity for k. LRU misses every access; Belady keeps a
        // working set and misses less.
        use micco_workload::{TaskId, TensorDesc, TensorPairStream, Vector};
        let make_stream = || {
            let mut tasks = Vec::new();
            for i in 0..60u64 {
                let a = i % 5; // cyclic over 5 tensors
                tasks.push(ContractionTask {
                    id: TaskId(i),
                    a: TensorDesc {
                        id: TensorId(a),
                        bytes: GIB,
                    },
                    b: TensorDesc {
                        id: TensorId(a),
                        bytes: GIB,
                    },
                    out: TensorDesc {
                        id: TensorId(1000 + i),
                        bytes: 1,
                    },
                    flops: 0,
                });
            }
            TensorPairStream::new(vec![Vector::new(tasks)])
        };
        let run = |policy: EvictionPolicy, oracle: bool| {
            let cfg = MachineConfig {
                num_gpus: 1,
                mem_bytes: 4 * GIB + 60, // 4 tensors + tiny outputs
                cost: unit_cost(),
                eviction: policy,
            };
            let stream = make_stream();
            let mut m = if oracle {
                SimMachine::new(cfg).with_oracle(&stream)
            } else {
                SimMachine::new(cfg)
            };
            for v in stream.vectors() {
                for t in &v.tasks {
                    m.execute(t, GpuId(0)).unwrap();
                }
                m.barrier();
            }
            m.stats().total_evictions()
        };
        let lru = run(EvictionPolicy::Lru, false);
        let belady = run(EvictionPolicy::Clairvoyant, true);
        assert!(
            belady < lru,
            "clairvoyant must beat LRU on the scan pattern: belady {belady}, lru {lru}"
        );
    }

    #[test]
    fn oracle_build_covers_all_operands() {
        use micco_workload::{TaskId, TensorDesc, TensorPairStream, Vector};
        let t = ContractionTask {
            id: TaskId(0),
            a: TensorDesc {
                id: TensorId(1),
                bytes: 1,
            },
            b: TensorDesc {
                id: TensorId(2),
                bytes: 1,
            },
            out: TensorDesc {
                id: TensorId(3),
                bytes: 1,
            },
            flops: 0,
        };
        let mut t2 = t.clone();
        t2.id = TaskId(1);
        t2.a = TensorDesc {
            id: TensorId(3),
            bytes: 1,
        };
        let stream = TensorPairStream::new(vec![Vector::new(vec![t, t2])]);
        let oracle = build_oracle(&stream);
        assert_eq!(
            oracle[&TensorId(1)],
            [0u64]
                .into_iter()
                .collect::<std::collections::VecDeque<_>>()
        );
        assert_eq!(
            oracle[&TensorId(2)],
            [0u64, 1]
                .into_iter()
                .collect::<std::collections::VecDeque<_>>()
        );
        assert_eq!(
            oracle[&TensorId(3)],
            [1u64]
                .into_iter()
                .collect::<std::collections::VecDeque<_>>()
        );
    }

    #[test]
    fn shared_link_serialises_concurrent_h2d() {
        // two devices each fetch 1 GiB from the host "simultaneously":
        // with a shared link the second transfer waits for the first.
        let run = |shared: bool| {
            let cfg = MachineConfig {
                num_gpus: 2,
                mem_bytes: 100 * GIB,
                cost: CostModel {
                    shared_h2d_link: shared,
                    ..unit_cost()
                },
                eviction: EvictionPolicy::Lru,
            };
            let mut m = SimMachine::new(cfg);
            m.execute(&task(0, 1, 1, 100, GIB, 0), GpuId(0)).unwrap();
            m.execute(&task(1, 2, 2, 101, GIB, 0), GpuId(1)).unwrap();
            m.barrier();
            m.stats().elapsed_secs
        };
        // independent links: both 1 s transfers in parallel → makespan 1 s
        assert!((run(false) - 1.0).abs() < 1e-9);
        // shared link: the transfers serialise → makespan 2 s
        assert!((run(true) - 2.0).abs() < 1e-9, "got {}", run(true));
    }

    #[test]
    fn shared_link_is_neutral_for_a_single_device() {
        let run = |shared: bool| {
            let cfg = MachineConfig {
                num_gpus: 1,
                mem_bytes: 100 * GIB,
                cost: CostModel {
                    shared_h2d_link: shared,
                    ..unit_cost()
                },
                eviction: EvictionPolicy::Lru,
            };
            let mut m = SimMachine::new(cfg);
            for i in 0..4u64 {
                m.execute(&task(i, 10 + i, 20 + i, 100 + i, GIB / 2, 0), GpuId(0))
                    .unwrap();
            }
            m.barrier();
            m.stats().elapsed_secs
        };
        assert!(
            (run(false) - run(true)).abs() < 1e-9,
            "one device never contends with itself"
        );
    }

    #[test]
    fn async_elapsed_reflects_dma_tail() {
        let mut m = async_machine(1, 100 * GIB);
        // zero-flop task: all cost is DMA; elapsed must still include it
        m.execute(&task(0, 1, 2, 100, GIB, 0), GpuId(0)).unwrap();
        m.barrier();
        assert!((m.stats().elapsed_secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn async_overlap_is_attributed_exactly() {
        let mut m = async_machine(1, 100 * GIB);
        // task 0: copies [0,2), kernel [2,4); task 1: copies [2,4) (overlap
        // with task 0's kernel), kernel [4,6)
        m.execute(&task(0, 1, 2, 100, GIB, 2_000_000_000), GpuId(0))
            .unwrap();
        m.execute(&task(1, 3, 4, 101, GIB, 2_000_000_000), GpuId(0))
            .unwrap();
        m.barrier();
        let g = &m.stats().per_gpu[0];
        assert!(
            (g.overlap_secs - 2.0).abs() < 1e-9,
            "overlap {}",
            g.overlap_secs
        );
        assert!((g.idle_secs - 0.0).abs() < 1e-9, "idle {}", g.idle_secs);
        assert!((g.occupied_secs() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn sync_mode_never_overlaps() {
        let mut m = machine(1, 100 * GIB);
        m.execute(&task(0, 1, 2, 100, GIB, 2_000_000_000), GpuId(0))
            .unwrap();
        m.execute(&task(1, 3, 4, 101, GIB, 2_000_000_000), GpuId(0))
            .unwrap();
        m.barrier();
        let g = &m.stats().per_gpu[0];
        assert_eq!(g.overlap_secs, 0.0);
        assert_eq!(g.idle_secs, 0.0);
        assert!((g.occupied_secs() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn idle_time_counts_barrier_waits() {
        let mut m = machine(2, 100 * GIB);
        m.execute(&task(0, 1, 2, 100, GIB, 0), GpuId(0)).unwrap(); // 2 s
        m.barrier();
        let s = m.stats();
        // gpu1 did nothing: its whole stage span is idle
        assert!((s.per_gpu[1].idle_secs - 2.0).abs() < 1e-9);
        assert_eq!(s.per_gpu[0].idle_secs, 0.0);
    }

    /// The dual-timeline invariant: per device, compute + copy − overlap +
    /// idle reconstructs the elapsed span exactly, in every mode.
    #[test]
    fn timeline_breakdown_sums_to_elapsed() {
        for (async_copy, charge_source) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let cfg = MachineConfig {
                num_gpus: 3,
                mem_bytes: 4 * GIB,
                cost: CostModel {
                    async_copy,
                    d2d_charges_source: charge_source,
                    ..unit_cost()
                },
                eviction: EvictionPolicy::Lru,
            };
            let mut m = SimMachine::new(cfg);
            for i in 0..24u64 {
                let t = task(i, i % 6, (i + 2) % 9, 1000 + i, GIB / 4, 300_000_000);
                m.execute(&t, GpuId((i % 3) as usize)).unwrap();
                if i % 9 == 8 {
                    m.barrier();
                }
            }
            m.barrier();
            let s = m.stats();
            for (i, g) in s.per_gpu.iter().enumerate() {
                let reconstructed = g.compute_secs + g.memory_secs - g.overlap_secs + g.idle_secs;
                assert!(
                    (reconstructed - s.elapsed_secs).abs() < 1e-9,
                    "async={async_copy} charge={charge_source} gpu{i}: {} vs elapsed {}",
                    reconstructed,
                    s.elapsed_secs
                );
                if !async_copy {
                    assert_eq!(g.overlap_secs, 0.0, "sync mode produced overlap");
                }
            }
        }
    }

    /// Per stage and per device, the `GpuStats` growth across the barrier
    /// satisfies compute + memory − overlap + idle == the stage makespan.
    #[test]
    fn stage_breakdown_stats_reconstruct_makespans() {
        for mut m in [machine(2, 100 * GIB), async_machine(2, 100 * GIB)] {
            let stages = [
                (task(0, 1, 2, 100, GIB, 1_000_000_000), GpuId(0)),
                (task(1, 3, 4, 101, GIB, 0), GpuId(1)),
            ];
            let mut before = m.stats().per_gpu.clone();
            for (stage, (t, gpu)) in stages.iter().enumerate() {
                m.execute(t, *gpu).unwrap();
                m.barrier();
                let makespan = m.stats().stage_makespans[stage];
                for (i, (now, was)) in m.stats().per_gpu.iter().zip(&before).enumerate() {
                    let sum = (now.compute_secs - was.compute_secs)
                        + (now.memory_secs - was.memory_secs)
                        - (now.overlap_secs - was.overlap_secs)
                        + (now.idle_secs - was.idle_secs);
                    assert!(
                        (sum - makespan).abs() < 1e-9,
                        "stage {stage} gpu{i}: {sum} vs {makespan}"
                    );
                }
                before = m.stats().per_gpu.clone();
            }
        }
    }

    #[test]
    fn prefetch_window_bounds_dma_lookahead() {
        // copy-bound stream: 2 s of transfers, 1 s kernel per task
        let run = |prefetch: usize| {
            let cfg = MachineConfig {
                num_gpus: 1,
                mem_bytes: 100 * GIB,
                cost: CostModel {
                    async_copy: true,
                    prefetch_tasks: prefetch,
                    ..unit_cost()
                },
                eviction: EvictionPolicy::Lru,
            };
            let mut m = SimMachine::new(cfg);
            for i in 0..3u64 {
                let t = task(i, 10 + 2 * i, 11 + 2 * i, 100 + i, GIB, 1_000_000_000);
                m.execute(&t, GpuId(0)).unwrap();
            }
            m.barrier();
            m.stats().elapsed_secs
        };
        // unbounded: copies [0,2)[2,4)[4,6), kernels [2,3)[4,5)[6,7) → 7 s
        assert!((run(0) - 7.0).abs() < 1e-9, "unbounded {}", run(0));
        // single buffer: transfer i waits for kernel i−1 → 9 s
        assert!((run(1) - 9.0).abs() < 1e-9, "k=1 {}", run(1));
        // double buffering suffices for this copy-bound stream
        assert!((run(2) - 7.0).abs() < 1e-9, "k=2 {}", run(2));
        // the window only ever delays transfers, never speeds them up
        assert!(run(1) >= run(2) && run(2) >= run(0));
    }

    /// An attached external observer sees the timed hooks, and the spans
    /// it collects reconstruct the per-device copy/compute stats exactly.
    #[test]
    fn external_observer_timed_hooks_match_stats() {
        #[derive(Default, Clone)]
        struct Collected {
            copy: Vec<(usize, f64, f64)>,
            kernel: Vec<(usize, f64, f64)>,
            stages: Vec<(usize, f64, f64)>,
        }
        struct Collector(Arc<Mutex<Collected>>);
        impl ExecObserver for Collector {
            fn copy_timed(&mut self, gpu: GpuId, start: f64, end: f64) {
                self.0.lock().unwrap().copy.push((gpu.0, start, end));
            }
            fn kernel_timed(&mut self, gpu: GpuId, _task: TaskId, start: f64, end: f64) {
                self.0.lock().unwrap().kernel.push((gpu.0, start, end));
            }
            fn stage_done(&mut self, stage: usize, start: f64, end: f64) {
                self.0.lock().unwrap().stages.push((stage, start, end));
            }
        }

        for async_copy in [false, true] {
            let cfg = MachineConfig {
                num_gpus: 2,
                mem_bytes: 100 * GIB,
                cost: CostModel {
                    async_copy,
                    d2d_charges_source: true,
                    ..unit_cost()
                },
                eviction: EvictionPolicy::Lru,
            };
            let shared = Arc::new(Mutex::new(Collected::default()));
            let mut m = SimMachine::new(cfg).with_observer(Box::new(Collector(shared.clone())));
            for i in 0..8u64 {
                let t = task(i, i % 3, (i + 1) % 4, 1000 + i, GIB / 4, 300_000_000);
                m.execute(&t, GpuId((i % 2) as usize)).unwrap();
                if i == 3 {
                    m.barrier();
                }
            }
            m.barrier();
            let got = shared.lock().unwrap().clone();
            assert_eq!(got.stages.len(), 2, "one stage_done per barrier");
            assert_eq!(got.stages[0].0, 0);
            assert_eq!(got.stages[1].0, 1);
            let s = m.stats();
            for g in 0..2usize {
                let copy: f64 = got
                    .copy
                    .iter()
                    .filter(|(i, _, _)| *i == g)
                    .map(|(_, a, b)| b - a)
                    .sum();
                let kernel: f64 = got
                    .kernel
                    .iter()
                    .filter(|(i, _, _)| *i == g)
                    .map(|(_, a, b)| b - a)
                    .sum();
                assert!(
                    (copy - s.per_gpu[g].memory_secs).abs() < 1e-9,
                    "async={async_copy} gpu{g}: copy spans {copy} vs memory_secs {}",
                    s.per_gpu[g].memory_secs
                );
                assert!(
                    (kernel - s.per_gpu[g].compute_secs).abs() < 1e-9,
                    "async={async_copy} gpu{g}: kernel spans {kernel} vs compute_secs {}",
                    s.per_gpu[g].compute_secs
                );
            }
        }
    }

    #[test]
    fn prefetch_window_ignored_in_sync_mode() {
        let run = |prefetch: usize| {
            let cfg = MachineConfig {
                num_gpus: 1,
                mem_bytes: 100 * GIB,
                cost: CostModel {
                    prefetch_tasks: prefetch,
                    ..unit_cost()
                },
                eviction: EvictionPolicy::Lru,
            };
            let mut m = SimMachine::new(cfg);
            for i in 0..3u64 {
                m.execute(
                    &task(i, 10 + i, 20 + i, 100 + i, GIB, 1_000_000_000),
                    GpuId(0),
                )
                .unwrap();
            }
            m.barrier();
            m.stats().elapsed_secs
        };
        assert!(
            (run(0) - run(2)).abs() < 1e-9,
            "sync mode has no DMA lookahead to bound"
        );
    }

    /// Every hook the statistics layer counts reaches an attached observer,
    /// in the same number, and so do the hooks it only forwards.
    #[test]
    fn attached_observer_sees_every_hook_the_stats_count() {
        use crate::fault::{FaultKind, FaultPlan};

        #[derive(Default)]
        struct Counts {
            reuse_hit: u64,
            alloc: u64,
            h2d: u64,
            d2d: u64,
            source_charge: u64,
            link_hop: u64,
            evict: u64,
            writeback_evict: u64,
            kernel: u64,
            kernel_timed: u64,
            copy_timed: u64,
            task_done: u64,
            fault: u64,
            retry: u64,
            device_lost: u64,
        }
        struct Counter(Arc<Mutex<Counts>>);
        impl ExecObserver for Counter {
            fn reuse_hit(&mut self, _gpu: GpuId, _tensor: TensorId) {
                self.0.lock().unwrap().reuse_hit += 1;
            }
            fn alloc(&mut self, _gpu: GpuId) {
                self.0.lock().unwrap().alloc += 1;
            }
            fn h2d(&mut self, _gpu: GpuId, _tensor: TensorId, _bytes: u64) {
                self.0.lock().unwrap().h2d += 1;
            }
            fn d2d(&mut self, _src: GpuId, _dst: GpuId, _tensor: TensorId, _bytes: u64) {
                self.0.lock().unwrap().d2d += 1;
            }
            fn source_charge(&mut self, _src: GpuId, _secs: f64) {
                self.0.lock().unwrap().source_charge += 1;
            }
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
                self.0.lock().unwrap().link_hop += 1;
            }
            fn evict(&mut self, _gpu: GpuId, _tensor: TensorId, writeback: bool, _bytes: u64) {
                let mut c = self.0.lock().unwrap();
                c.evict += 1;
                c.writeback_evict += u64::from(writeback);
            }
            fn kernel(&mut self, _gpu: GpuId, _task: TaskId, _secs: f64) {
                self.0.lock().unwrap().kernel += 1;
            }
            fn kernel_timed(&mut self, _gpu: GpuId, _task: TaskId, _start: f64, _end: f64) {
                self.0.lock().unwrap().kernel_timed += 1;
            }
            fn copy_timed(&mut self, _gpu: GpuId, _start: f64, _end: f64) {
                self.0.lock().unwrap().copy_timed += 1;
            }
            fn task_done(&mut self, _gpu: GpuId, _flops: u64, _compute: f64, _mem: f64) {
                self.0.lock().unwrap().task_done += 1;
            }
            fn fault(&mut self, _gpu: GpuId, _task: TaskId, _kind: FaultKind) {
                self.0.lock().unwrap().fault += 1;
            }
            fn retry(&mut self, _gpu: GpuId, _task: TaskId, _attempt: u32) {
                self.0.lock().unwrap().retry += 1;
            }
            fn device_lost(&mut self, _gpu: GpuId, _stage: usize, _permanent: bool) {
                self.0.lock().unwrap().device_lost += 1;
            }
        }

        let cfg = MachineConfig {
            num_gpus: 4,
            mem_bytes: 3 * GIB,
            cost: CostModel {
                d2d_charges_source: true,
                ..unit_cost()
            },
            eviction: EvictionPolicy::Lru,
        };
        let faults = FaultPlan::none()
            .with_kernel_fault(2, 2)
            .with_transfer_timeout(1, 1)
            .with_device_loss(3, 1, false);
        let counts = Arc::new(Mutex::new(Counts::default()));
        let mut m = SimMachine::new(cfg)
            .with_topology(LinkTopology::nvlink(4, 2))
            .with_faults(faults)
            .with_observer(Box::new(Counter(counts.clone())));
        // stage 0: gpu0 fills up; gpu2 pulls tensor 1 across islands (its
        // staging times out once); gpu0 reuses both operands, evicts output
        // 100 with a write-back, and its kernel fails twice
        m.execute(&task(0, 1, 2, 100, GIB, 1_000_000_000), GpuId(0))
            .unwrap();
        m.execute(&task(1, 1, 3, 101, GIB, 1_000_000_000), GpuId(2))
            .unwrap();
        m.execute(&task(2, 1, 2, 102, GIB, 1_000_000_000), GpuId(0))
            .unwrap();
        m.barrier();
        // stage 1: reuse on gpu2, a full turnover of gpu0, and gpu3 is down
        m.execute(&task(3, 1, 3, 103, GIB, 1_000_000_000), GpuId(2))
            .unwrap();
        m.execute(&task(4, 4, 5, 104, GIB, 1_000_000_000), GpuId(0))
            .unwrap();
        let lost = m.execute(&task(5, 6, 7, 105, GIB, 0), GpuId(3));
        assert!(matches!(lost, Err(ExecError::DeviceLost { .. })));
        m.barrier();

        let s = m.stats();
        let c = counts.lock().unwrap();
        assert_eq!(c.reuse_hit, s.total_reuse_hits());
        assert_eq!(c.alloc, s.per_gpu.iter().map(|g| g.allocs).sum::<u64>());
        assert_eq!(c.h2d, s.total_h2d());
        assert_eq!(c.d2d, s.total_d2d());
        assert_eq!(c.evict, s.total_evictions());
        assert_eq!(c.task_done, s.total_tasks());
        assert_eq!(c.kernel, s.total_tasks());
        assert_eq!(c.kernel_timed, s.total_tasks());
        assert_eq!(c.fault, s.total_faults());
        assert_eq!(c.retry, s.total_retries());
        assert!(c.source_charge > 0, "no source charge reached the observer");
        assert!(c.link_hop > 0, "no link hop reached the observer");
        assert!(c.copy_timed > 0, "no copy span reached the observer");
        assert!(c.writeback_evict > 0, "no write-back eviction was observed");
        assert_eq!((c.fault, c.retry, c.device_lost), (2, 3, 1));
    }

    /// The residency index agrees with the per-device memories after heavy
    /// eviction churn — through third and later holders, sparse ids and
    /// ids in both dense runs — and `holders` stays ascending.
    #[test]
    fn holder_index_matches_memory_under_eviction_churn() {
        let cfg = MachineConfig {
            num_gpus: 4,
            mem_bytes: 24 * (1 << 20) + (1 << 16),
            cost: crate::CostModel::mi100_like(),
            eviction: crate::memory::EvictionPolicy::Lru,
        };
        let mut m = SimMachine::new(cfg);
        // inputs 0..17 and u64::MAX - 0..23; outputs in the output run and
        // far past it
        let input = |n: u64| if n.is_multiple_of(2) { n } else { u64::MAX - n };
        let output = |i: u64| {
            if i.is_multiple_of(3) {
                OUTPUT_ID_BASE + i
            } else {
                OUTPUT_ID_BASE + (1 << 32) + i
            }
        };
        let mut third_holders = 0;
        for i in 0..400u64 {
            let t = task(i, input(i % 17), input((i * 7) % 23), output(i), 1 << 20, 0);
            m.execute(&t, GpuId((i % 4) as usize)).unwrap();
            third_holders += usize::from(m.holders(t.a.id).len() >= 3);
            if i % 10 == 9 {
                m.barrier();
            }
        }
        assert!(third_holders > 0, "no tensor reached a third holder");
        assert!(m.stats().total_evictions() > 100, "too little churn");
        let resident: Vec<std::collections::HashSet<TensorId>> = (0..4)
            .map(|g| m.memory(GpuId(g)).resident_ids().collect())
            .collect();
        let ids = (0..23).map(input).chain((0..400).map(output)).map(TensorId);
        for id in ids {
            let holders = m.holders(id);
            let expected: Vec<GpuId> = (0..4)
                .filter(|&g| resident[g].contains(&id))
                .map(GpuId)
                .collect();
            assert_eq!(holders, expected, "tensor {id:?}");
            for g in (0..4).map(GpuId) {
                assert_eq!(m.holds(g, id), resident[g.0].contains(&id));
            }
        }
    }

    #[test]
    fn barrier_returns_stage_span() {
        let mut m = SimMachine::new(MachineConfig::mi100_like(2));
        m.execute(&task(0, 1, 2, 100, 1 << 30, 1_000_000_000), GpuId(0))
            .unwrap();
        let (start, end) = m.barrier();
        assert_eq!(start, 0.0);
        assert!(end > 0.0);
        let (s2, e2) = m.barrier();
        assert_eq!(s2, e2, "empty stage has zero span");
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
        let mut m = SimMachine::new(MachineConfig::mi100_like(1));
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
            let mut m = SimMachine::new(cfg).with_faults(faults);
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
        let mut m = SimMachine::new(MachineConfig::mi100_like(2)).with_faults(faults);
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
        let mut m = SimMachine::new(MachineConfig::mi100_like(2)).with_faults(faults);
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
            let mut m = SimMachine::new(MachineConfig::mi100_like(1));
            m.execute(&t, GpuId(0)).unwrap();
            m.max_device_time()
        };
        let faulty = {
            let faults = crate::fault::FaultPlan::none().with_kernel_fault(0, 2);
            let mut m = SimMachine::new(MachineConfig::mi100_like(1)).with_faults(faults);
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
            let mut m = SimMachine::new(MachineConfig::mi100_like(1)).with_faults(faults);
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
        use crate::topology::LinkTopology;
        let cfg = MachineConfig::mi100_like(4);
        let (bw, lat) = (cfg.cost.d2d_gib_s, cfg.cost.transfer_latency_us);
        let topo = LinkTopology::parse(&format!("nvlink{{gpus:4, island:4, nv:{bw}@{lat}}}"))
            .expect("valid spec");
        let stream = WorkloadSpec::new(16, 128)
            .with_repeat_rate(0.7)
            .with_vectors(3)
            .with_seed(42)
            .generate();
        let run = |topo: Option<LinkTopology>| {
            let mut m = SimMachine::new(cfg);
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
        use crate::topology::LinkTopology;
        let cfg = MachineConfig::mi100_like(4);
        // 2 islands of 2; PCIe much slower than the flat d2d charge
        let (bw, lat) = (cfg.cost.d2d_gib_s, cfg.cost.transfer_latency_us);
        let topo = LinkTopology::parse(&format!(
            "nvlink{{gpus:4, island:2, nv:{bw}@{lat}, pcie:4@10}}"
        ))
        .expect("valid spec");
        let bytes = 1u64 << 28;
        let run = |topo: Option<LinkTopology>, dst: usize| {
            let mut m = SimMachine::new(cfg);
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
        let mut m = SimMachine::new(cfg);
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
        let mut m = SimMachine::new(cfg);
        let mut obs = Hops::default();
        m.execute_observed(&task(0, 1, 2, 100, bytes, 0), GpuId(0), &mut obs)
            .unwrap();
        m.execute_observed(&task(1, 1, 3, 101, bytes, 0), GpuId(3), &mut obs)
            .unwrap();
        assert!(obs.0.is_empty());
    }

    /// Reference next-use oracle for a stream: per tensor, the global task
    /// indices (execution order) at which it appears as an operand. The
    /// machine keeps the same information in CSR form
    /// (`csr_oracle_matches_reference_queues`).
    fn build_oracle(stream: &TensorPairStream) -> HashMap<TensorId, VecDeque<u64>> {
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

    /// Records every hook as one line of text. `{:?}` of an `f64`
    /// round-trips, so equal lines mean bit-equal arguments.
    #[derive(Clone, Default)]
    struct HookLog(Arc<Mutex<Vec<String>>>);

    impl HookLog {
        fn push(&self, hook: String) {
            self.0.lock().unwrap().push(hook);
        }

        fn take(&self) -> Vec<String> {
            std::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    impl ExecObserver for HookLog {
        fn reuse_hit(&mut self, gpu: GpuId, tensor: TensorId) {
            self.push(format!("reuse_hit {gpu} {tensor:?}"));
        }
        fn alloc(&mut self, gpu: GpuId) {
            self.push(format!("alloc {gpu}"));
        }
        fn h2d(&mut self, gpu: GpuId, tensor: TensorId, bytes: u64) {
            self.push(format!("h2d {gpu} {tensor:?} {bytes}"));
        }
        fn d2d(&mut self, src: GpuId, dst: GpuId, tensor: TensorId, bytes: u64) {
            self.push(format!("d2d {src} {dst} {tensor:?} {bytes}"));
        }
        fn source_charge(&mut self, src: GpuId, secs: f64) {
            self.push(format!("source_charge {src} {secs:?}"));
        }
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
            self.push(format!(
                "link_hop {link} {class} {a} {b} {bytes} {start:?} {end:?}"
            ));
        }
        fn evict(&mut self, gpu: GpuId, tensor: TensorId, writeback: bool, bytes: u64) {
            self.push(format!("evict {gpu} {tensor:?} {writeback} {bytes}"));
        }
        fn kernel(&mut self, gpu: GpuId, task: TaskId, secs: f64) {
            self.push(format!("kernel {gpu} {task:?} {secs:?}"));
        }
        fn task_done(&mut self, gpu: GpuId, flops: u64, compute_secs: f64, mem_secs: f64) {
            self.push(format!(
                "task_done {gpu} {flops} {compute_secs:?} {mem_secs:?}"
            ));
        }
        fn fault(&mut self, gpu: GpuId, task: TaskId, kind: crate::fault::FaultKind) {
            self.push(format!("fault {gpu} {task:?} {kind:?}"));
        }
        fn retry(&mut self, gpu: GpuId, task: TaskId, attempt: u32) {
            self.push(format!("retry {gpu} {task:?} {attempt}"));
        }
        fn device_lost(&mut self, gpu: GpuId, stage: usize, permanent: bool) {
            self.push(format!("device_lost {gpu} {stage} {permanent}"));
        }
        fn copy_timed(&mut self, gpu: GpuId, start: f64, end: f64) {
            self.push(format!("copy_timed {gpu} {start:?} {end:?}"));
        }
        fn kernel_timed(&mut self, gpu: GpuId, task: TaskId, start: f64, end: f64) {
            self.push(format!("kernel_timed {gpu} {task:?} {start:?} {end:?}"));
        }
        fn stage_done(&mut self, stage: usize, start: f64, end: f64) {
            self.push(format!("stage_done {stage} {start:?} {end:?}"));
        }
    }

    /// Every float statistic as raw bits (`ExecStats`' `PartialEq` covers
    /// the rest, but calls `0.0 == -0.0`).
    fn float_bits(s: &ExecStats) -> Vec<u64> {
        let mut bits = vec![s.elapsed_secs.to_bits()];
        bits.extend(s.stage_makespans.iter().map(|x| x.to_bits()));
        for g in &s.per_gpu {
            let floats = [g.compute_secs, g.memory_secs, g.overlap_secs, g.idle_secs];
            bits.extend(floats.map(f64::to_bits));
        }
        bits
    }

    /// Every [`MachineView`] answer a scheduler could ask about `t`.
    fn view_answers(m: &SimMachine, t: &ContractionTask) -> Vec<String> {
        let mut out = vec![format!(
            "{} {} {:?}",
            m.num_gpus(),
            m.mem_capacity(),
            m.topology().map(|t| t.to_spec())
        )];
        for g in (0..m.num_gpus()).map(GpuId) {
            out.push(format!(
                "{g} used={} flops={} busy={:?} need={} evict={} holds={:?}",
                m.mem_used(g),
                m.stage_flops(g),
                m.stage_busy_secs(g),
                m.bytes_needed(g, t),
                m.would_evict(g, t),
                [t.a.id, t.b.id, t.out.id].map(|id| m.holds(g, id)),
            ));
        }
        for id in [t.a.id, t.b.id, t.out.id] {
            let mut into = vec![GpuId(usize::MAX)];
            m.holders_into(id, &mut into);
            assert_eq!(into, m.holders(id));
            out.push(format!("{id:?} {into:?}"));
        }
        out
    }

    /// One stream driven through `execute` with an attached observer and
    /// through `execute_observed` with a caller-held one: oversubscribed
    /// clairvoyant memory, kernel and transfer-timeout faults, and peer
    /// copies routed over two NVLink islands. After every step both
    /// machines answer every view query alike, both observers saw the same
    /// hooks, and the statistics agree bit for bit.
    #[test]
    fn execute_and_execute_observed_agree_step_by_step() {
        use crate::fault::FaultPlan;

        let stream = WorkloadSpec::new(24, 96)
            .with_repeat_rate(0.6)
            .with_vectors(4)
            .with_seed(21)
            .generate();
        let tasks: Vec<&ContractionTask> = stream.vectors().iter().flat_map(|v| &v.tasks).collect();
        let largest = tasks
            .iter()
            .flat_map(|t| [t.a.bytes, t.b.bytes, t.out.bytes])
            .max()
            .unwrap();
        let mut faults = FaultPlan::none();
        for t in tasks.iter().step_by(7) {
            faults = faults.with_kernel_fault(t.id.0, 2);
        }
        for t in tasks.iter().skip(3).step_by(5) {
            faults = faults.with_transfer_timeout(t.id.0, 1);
        }
        for cost in [
            CostModel::mi100_like(),
            CostModel::mi100_like()
                .with_async_copy()
                .with_prefetch_tasks(2),
        ] {
            let cfg = MachineConfig {
                num_gpus: 4,
                mem_bytes: 5 * largest,
                cost,
                eviction: EvictionPolicy::Clairvoyant,
            };
            let topo = LinkTopology::nvlink(4, 2);
            let attached = HookLog::default();
            let mut a = SimMachine::new(cfg)
                .with_topology(topo.clone())
                .with_faults(faults.clone())
                .with_oracle(&stream)
                .with_observer(Box::new(attached.clone()));
            let mut b = SimMachine::new(cfg)
                .with_topology(topo)
                .with_faults(faults.clone())
                .with_oracle(&stream);
            let mut held = HookLog::default();
            let mut seen = Vec::new();
            for v in stream.vectors() {
                for t in &v.tasks {
                    let gpu = GpuId((t.id.0 as usize * 7 + 3) % 4);
                    let ra = a.execute(t, gpu);
                    let rb = b.execute_observed(t, gpu, &mut held);
                    assert_eq!(ra, rb);
                    ra.unwrap();
                    let hooks = attached.take();
                    assert_eq!(hooks, held.take(), "hooks of task {}", t.id.0);
                    assert_eq!(view_answers(&a, t), view_answers(&b, t));
                    assert_eq!(a.stats(), b.stats());
                    assert_eq!(float_bits(a.stats()), float_bits(b.stats()));
                    for g in (0..4).map(GpuId) {
                        assert_eq!(a.device_time(g).to_bits(), b.device_time(g).to_bits());
                    }
                    seen.extend(hooks);
                }
                let (sa, ea) = a.barrier();
                let (sb, eb) = b.barrier();
                assert_eq!((sa.to_bits(), ea.to_bits()), (sb.to_bits(), eb.to_bits()));
                let stage = a.stats().stage_makespans.len() - 1;
                assert_eq!(
                    attached.take(),
                    [format!("stage_done {stage} {sa:?} {ea:?}")]
                );
                assert!(
                    held.take().is_empty(),
                    "barrier reports to the attached observer only"
                );
                assert_eq!(a.stats(), b.stats());
                assert_eq!(float_bits(a.stats()), float_bits(b.stats()));
            }
            // the stream really exercised every path it claims to
            for hook in ["evict", "link_hop", "source_charge", "d2d", "retry"] {
                assert!(
                    seen.iter().any(|h| h.starts_with(hook)),
                    "no {hook} hook fired"
                );
            }
            for kind in ["TransferTimeout", "TransientKernel"] {
                assert!(
                    seen.iter()
                        .any(|h| h.starts_with("fault") && h.ends_with(kind)),
                    "no {kind} fault fired"
                );
            }
            assert!(a.cross_island_traffic().0 > 0);
            assert_eq!(a.cross_island_traffic(), b.cross_island_traffic());
            assert_eq!(a.link_bytes_moved(), b.link_bytes_moved());
        }
    }
}
