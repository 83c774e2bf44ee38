//! The simulated multi-GPU machine.
//!
//! [`SimMachine`] executes contraction tasks on per-device serial timelines.
//! `micco_core::Session` plans against it — asking the scheduler for each
//! device given the current [`MachineView`], so one pass yields both the
//! plan and its statistics — and replays external plans on it.
//! [`SimMachine::execute`] applies each placement — staging missing
//! operands (host→device, or device→device
//! when a peer holds a copy), allocating the output, evicting under
//! pressure, and advancing that device's clock by the memory-operation and
//! kernel times.
//!
//! Stage vectors are separated by [`SimMachine::barrier`], which aligns all
//! device clocks to the stage makespan (stages are sequential in the
//! application).
//!
//! Since the decide/execute split, the actual state-transition function
//! lives in [`crate::shadow::ShadowMachine`]; `SimMachine` composes a
//! shadow with the observational layer: statistics, per-stage attribution,
//! and every hook forwarded to an attached [`ExecObserver`]. Both the
//! planning path and the simulation path therefore share one
//! implementation and cannot drift apart.

use micco_workload::{ContractionTask, TaskId, TensorId, TensorPairStream};

use crate::cost::MachineConfig;
use crate::memory::AllocError;
use crate::shadow::{intersect_secs, ExecObserver, ShadowMachine};
use crate::stats::ExecStats;
use crate::topology::LinkTopology;

pub use crate::shadow::build_oracle;

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

/// The statistics layer: counts every shadow state transition into
/// [`ExecStats`], then forwards the hook to the externally attached
/// observer, if there is one (see [`SimMachine::set_observer`]), so
/// telemetry consumers see the exact hook sequence the stats are computed
/// from. The counting is the entire difference between planning and
/// simulating.
struct StatsObserver<'a> {
    stats: &'a mut ExecStats,
    ext: Option<&'a mut Box<dyn ExecObserver + Send>>,
}

impl ExecObserver for StatsObserver<'_> {
    fn reuse_hit(&mut self, gpu: GpuId, tensor: TensorId) {
        self.stats.per_gpu[gpu.0].reuse_hits += 1;
        if let Some(ext) = &mut self.ext {
            ext.reuse_hit(gpu, tensor);
        }
    }

    fn alloc(&mut self, gpu: GpuId) {
        self.stats.per_gpu[gpu.0].allocs += 1;
        if let Some(ext) = &mut self.ext {
            ext.alloc(gpu);
        }
    }

    fn h2d(&mut self, gpu: GpuId, tensor: TensorId, bytes: u64) {
        self.stats.per_gpu[gpu.0].h2d_count += 1;
        self.stats.per_gpu[gpu.0].h2d_bytes += bytes;
        if let Some(ext) = &mut self.ext {
            ext.h2d(gpu, tensor, bytes);
        }
    }

    fn d2d(&mut self, src: GpuId, dst: GpuId, tensor: TensorId, bytes: u64) {
        self.stats.per_gpu[dst.0].d2d_count += 1;
        self.stats.per_gpu[dst.0].d2d_bytes += bytes;
        if let Some(ext) = &mut self.ext {
            ext.d2d(src, dst, tensor, bytes);
        }
    }

    fn source_charge(&mut self, src: GpuId, secs: f64) {
        self.stats.per_gpu[src.0].memory_secs += secs;
        if let Some(ext) = &mut self.ext {
            ext.source_charge(src, secs);
        }
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
        if let Some(ext) = &mut self.ext {
            ext.link_hop(link, class, a, b, bytes, start, end);
        }
    }

    fn evict(&mut self, gpu: GpuId, tensor: TensorId, writeback: bool, bytes: u64) {
        self.stats.per_gpu[gpu.0].evictions += 1;
        if writeback {
            self.stats.per_gpu[gpu.0].writeback_bytes += bytes;
        }
        if let Some(ext) = &mut self.ext {
            ext.evict(gpu, tensor, writeback, bytes);
        }
    }

    fn kernel(&mut self, gpu: GpuId, task: TaskId, secs: f64) {
        if let Some(ext) = &mut self.ext {
            ext.kernel(gpu, task, secs);
        }
    }

    fn task_done(&mut self, gpu: GpuId, flops: u64, compute_secs: f64, mem_secs: f64) {
        let s = &mut self.stats.per_gpu[gpu.0];
        s.tasks += 1;
        s.flops += flops;
        s.compute_secs += compute_secs;
        s.memory_secs += mem_secs;
        if let Some(ext) = &mut self.ext {
            ext.task_done(gpu, flops, compute_secs, mem_secs);
        }
    }

    fn fault(&mut self, gpu: GpuId, task: TaskId, kind: crate::fault::FaultKind) {
        self.stats.per_gpu[gpu.0].faults += 1;
        if let Some(ext) = &mut self.ext {
            ext.fault(gpu, task, kind);
        }
    }

    fn retry(&mut self, gpu: GpuId, task: TaskId, attempt: u32) {
        self.stats.per_gpu[gpu.0].retries += 1;
        if let Some(ext) = &mut self.ext {
            ext.retry(gpu, task, attempt);
        }
    }

    fn device_lost(&mut self, gpu: GpuId, stage: usize, permanent: bool) {
        if let Some(ext) = &mut self.ext {
            ext.device_lost(gpu, stage, permanent);
        }
    }

    fn copy_timed(&mut self, gpu: GpuId, start: f64, end: f64) {
        if let Some(ext) = &mut self.ext {
            ext.copy_timed(gpu, start, end);
        }
    }

    fn kernel_timed(&mut self, gpu: GpuId, task: TaskId, start: f64, end: f64) {
        if let Some(ext) = &mut self.ext {
            ext.kernel_timed(gpu, task, start, end);
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
    shadow: ShadowMachine,
    stats: ExecStats,
    stage_index: usize,
    observer: Option<Box<dyn ExecObserver + Send>>,
}

impl SimMachine {
    /// Build an idle machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        SimMachine {
            shadow: ShadowMachine::new(config),
            stats: ExecStats::new(config.num_gpus),
            stage_index: 0,
            observer: None,
        }
    }

    /// Arm the clairvoyant eviction oracle with the full stream the machine
    /// is about to execute (tasks must then be executed in stream order).
    /// Only meaningful with [`crate::memory::EvictionPolicy::Clairvoyant`].
    pub fn with_oracle(mut self, stream: &TensorPairStream) -> Self {
        self.shadow.set_oracle(stream);
        self
    }

    /// Pre-intern every tensor of `stream` (see
    /// [`ShadowMachine::reserve_stream`]): an allocation hint that never
    /// changes behaviour.
    pub fn reserve_stream(&mut self, stream: &TensorPairStream) {
        self.shadow.reserve_stream(stream);
    }

    /// Arm the machine with a fault-injection plan (empty by default).
    pub fn with_faults(mut self, faults: crate::fault::FaultPlan) -> Self {
        self.shadow.set_faults(faults);
        self
    }

    /// Route device→device transfers over an explicit [`LinkTopology`]
    /// instead of the flat uniform-D2D charge.
    pub fn with_topology(mut self, topo: LinkTopology) -> Self {
        self.shadow.set_topology(Some(topo));
        self
    }

    /// Set or clear the interconnect topology in place.
    pub fn set_topology(&mut self, topo: Option<LinkTopology>) {
        self.shadow.set_topology(topo);
    }

    /// Per-link busy seconds accumulated so far (empty without a topology).
    pub fn link_busy_secs(&self) -> &[f64] {
        self.shadow.link_busy_secs()
    }

    /// Per-link bytes moved so far (empty without a topology).
    pub fn link_bytes_moved(&self) -> &[u64] {
        self.shadow.link_bytes_moved()
    }

    /// `(count, bytes)` of D2D transfers that crossed an island boundary.
    pub fn cross_island_traffic(&self) -> (u64, u64) {
        self.shadow.cross_island_traffic()
    }

    /// `(count, bytes)` of D2D transfers that crossed a node boundary.
    pub fn cross_node_traffic(&self) -> (u64, u64) {
        self.shadow.cross_node_traffic()
    }

    /// Arm the fault plan in place.
    pub fn set_faults(&mut self, faults: crate::fault::FaultPlan) {
        self.shadow.set_faults(faults);
    }

    /// The fault plan currently armed.
    pub fn faults(&self) -> &crate::fault::FaultPlan {
        self.shadow.faults()
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        self.shadow.config()
    }

    /// Attach an external [`ExecObserver`] (e.g. a telemetry span
    /// recorder). It sees every observation hook the built-in statistics
    /// layer sees — including the timed `copy_timed`/`kernel_timed`/
    /// `stage_done` hooks — without perturbing the statistics themselves.
    /// Replaces any previously attached observer.
    pub fn set_observer(&mut self, observer: Box<dyn ExecObserver + Send>) {
        self.observer = Some(observer);
    }

    /// Builder form of [`Self::set_observer`].
    pub fn with_observer(mut self, observer: Box<dyn ExecObserver + Send>) -> Self {
        self.set_observer(observer);
        self
    }

    /// Statistics so far. `elapsed_secs` is complete only after the final
    /// [`Self::barrier`].
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Execute `task` on device `gpu`, advancing its clock.
    pub fn execute(&mut self, task: &ContractionTask, gpu: GpuId) -> Result<(), ExecError> {
        let mut obs = StatsObserver {
            stats: &mut self.stats,
            ext: self.observer.as_mut(),
        };
        self.shadow.execute_observed(task, gpu, &mut obs)
    }

    /// End the current stage: all device clocks advance to the stage
    /// makespan, per-stage counters reset, and the makespan is recorded.
    ///
    /// This is also where the dual-timeline accounting settles: for every
    /// device the copy-engine and compute-engine busy intervals of the
    /// stage are intersected to attribute the span to copy, compute,
    /// overlap (both engines busy), and idle (neither busy — waiting at
    /// this barrier for slower peers, or a kernel stalled on operands).
    /// The per-device invariant `compute + copy − overlap + idle == span`
    /// holds exactly.
    pub fn barrier(&mut self) {
        let end = self
            .shadow
            .gpus
            .iter()
            .map(|g| g.time())
            .fold(0.0, f64::max);
        let start = self
            .shadow
            .gpus
            .first()
            .map(|g| g.stage_start)
            .unwrap_or(0.0);
        let makespan = end - start;
        self.stats.stage_makespans.push(makespan);
        self.stats.elapsed_secs = end;
        for i in 0..self.shadow.gpus.len() {
            let g = &self.shadow.gpus[i];
            let copy_secs: f64 = g.copy_intervals.iter().map(|(a, b)| b - a).sum();
            let compute_secs: f64 = g.kernel_intervals.iter().map(|(a, b)| b - a).sum();
            let overlap_secs = intersect_secs(&g.copy_intervals, &g.kernel_intervals);
            let idle_secs = (makespan - (copy_secs + compute_secs - overlap_secs)).max(0.0);
            self.stats.per_gpu[i].overlap_secs += overlap_secs;
            self.stats.per_gpu[i].idle_secs += idle_secs;
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.stage_done(self.stage_index, start, end);
        }
        self.stage_index += 1;
        self.shadow.barrier();
    }

    /// Absolute clock of device `g` (seconds since run start): when both
    /// its compute and DMA engines are done.
    pub fn device_time(&self, g: GpuId) -> f64 {
        self.shadow.device_time(g)
    }

    /// Latest clock over all devices.
    pub fn max_device_time(&self) -> f64 {
        self.shadow.max_device_time()
    }

    /// Charge extra memory-operation time to device `g`'s DMA engine —
    /// used by the cluster layer (`micco-cluster`) to account inter-node
    /// transfers that happen outside this node.
    pub fn add_memory_delay(&mut self, g: GpuId, secs: f64) {
        let (start, end) = self.shadow.add_memory_delay(g, secs);
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
        self.shadow.advance_to(t);
    }

    /// Number of tensors resident on device `g`.
    pub fn resident_count(&self, g: GpuId) -> usize {
        self.shadow.resident_count(g)
    }
}

impl MachineView for SimMachine {
    fn num_gpus(&self) -> usize {
        MachineView::num_gpus(&self.shadow)
    }

    fn mem_capacity(&self) -> u64 {
        self.shadow.mem_capacity()
    }

    fn mem_used(&self, g: GpuId) -> u64 {
        self.shadow.mem_used(g)
    }

    fn holds(&self, g: GpuId, t: TensorId) -> bool {
        self.shadow.holds(g, t)
    }

    fn holders(&self, t: TensorId) -> Vec<GpuId> {
        self.shadow.holders(t)
    }

    fn holders_into(&self, t: TensorId, out: &mut Vec<GpuId>) {
        self.shadow.holders_into(t, out);
    }

    fn stage_flops(&self, g: GpuId) -> u64 {
        self.shadow.stage_flops(g)
    }

    fn stage_busy_secs(&self, g: GpuId) -> f64 {
        self.shadow.stage_busy_secs(g)
    }

    fn bytes_needed(&self, g: GpuId, task: &ContractionTask) -> u64 {
        self.shadow.bytes_needed(g, task)
    }

    fn topology(&self) -> Option<&crate::topology::LinkTopology> {
        MachineView::topology(&self.shadow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::memory::EvictionPolicy;
    use micco_workload::{TaskId, TensorDesc};
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
            for v in &stream.vectors {
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
}
