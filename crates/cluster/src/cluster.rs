//! The simulated cluster: nodes of GPUs joined by a network.

use std::collections::HashSet;

use micco_gpusim::{
    ExecError, GpuId, LinkSpec, MachineConfig, MachineView, ShadowMachine, SimMachine,
};
use micco_workload::{ContractionTask, TensorId, TensorPairStream};

/// Index of a node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Cluster configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node machine configuration (GPUs, memory, cost model).
    pub node: MachineConfig,
    /// Inter-node network bandwidth in GiB/s (e.g. HDR InfiniBand ≈ 23).
    pub inter_gib_s: f64,
    /// Inter-node latency per transfer, in microseconds.
    pub inter_latency_us: f64,
}

impl ClusterConfig {
    /// A cluster of `nodes` MI100-like nodes with `gpus_per_node` devices
    /// each, joined by an InfiniBand-like link.
    pub fn mi100_cluster(nodes: usize, gpus_per_node: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        ClusterConfig {
            nodes,
            node: MachineConfig::mi100_like(gpus_per_node),
            inter_gib_s: 23.0,
            inter_latency_us: 30.0,
        }
    }

    /// Replace the inter-node interconnect with a typed link spec — the
    /// same [`LinkSpec`] the single-machine [`micco_gpusim::LinkTopology`]
    /// uses for its IB tier, so a cluster config and a topology spec can
    /// describe the identical network.
    pub fn with_interconnect(mut self, spec: LinkSpec) -> Self {
        self.inter_gib_s = spec.gib_s;
        self.inter_latency_us = spec.latency_us;
        self
    }

    /// The inter-node interconnect as a typed link spec.
    pub fn interconnect(&self) -> LinkSpec {
        LinkSpec::new(self.inter_gib_s, self.inter_latency_us)
    }

    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.node.num_gpus
    }

    /// Seconds for an inter-node transfer of `bytes` (network only; the
    /// local H2D staging is charged by the receiving machine as usual).
    /// Delegates to [`LinkSpec::transfer_secs`], which computes the exact
    /// latency-plus-bandwidth formula this method always used.
    pub fn inter_secs(&self, bytes: u64) -> f64 {
        self.interconnect().transfer_secs(bytes)
    }
}

/// Read-only view cluster schedulers work against.
pub trait ClusterView {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// The node-local machine view.
    fn node(&self, n: NodeId) -> &dyn MachineView;
    /// Nodes holding a resident copy of `t` on some device.
    fn nodes_holding(&self, t: TensorId) -> Vec<NodeId>;
    /// Whether `t` is an intermediate produced by this run (only existing
    /// where it was computed) rather than host-backed original data.
    fn is_intermediate(&self, t: TensorId) -> bool;
    /// Busy seconds of node `n` in the current stage (max over its GPUs).
    fn node_stage_busy(&self, n: NodeId) -> f64;
}

/// Outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Total simulated seconds (sum of global stage makespans).
    pub elapsed_secs: f64,
    /// Total kernel flops.
    pub total_flops: u64,
    /// Inter-node transfers performed.
    pub inter_transfers: u64,
    /// Inter-node bytes moved.
    pub inter_bytes: u64,
    /// Per-node eviction totals.
    pub evictions_per_node: Vec<u64>,
}

impl ClusterReport {
    /// Achieved throughput in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.total_flops as f64 / self.elapsed_secs / 1e9
        }
    }
}

/// Node-machine operations the cluster drives, implemented both for the
/// observing simulator ([`SimMachine`]) and the decide-only shadow
/// ([`ShadowMachine`]). Because [`ClusterSim`] is generic over this trait,
/// the network arithmetic of a planning pass and an execution pass is the
/// *same code* — cluster plans replay bit-for-bit by construction.
pub trait NodeMachine: MachineView {
    /// Fresh idle machine for one node.
    fn fresh(config: MachineConfig) -> Self
    where
        Self: Sized;
    /// Run one contraction on a device of this node.
    fn run(&mut self, task: &ContractionTask, gpu: GpuId) -> Result<(), ExecError>;
    /// Charge extra memory-system seconds to a device (network fetches).
    fn delay(&mut self, gpu: GpuId, secs: f64);
    /// Move every device clock forward to `t`.
    fn advance_clocks_to(&mut self, t: f64);
    /// Stage barrier on this node.
    fn stage_barrier(&mut self);
    /// Latest device clock on this node.
    fn latest_time(&self) -> f64;
}

impl NodeMachine for SimMachine {
    fn fresh(config: MachineConfig) -> Self {
        SimMachine::new(config)
    }
    fn run(&mut self, task: &ContractionTask, gpu: GpuId) -> Result<(), ExecError> {
        self.execute(task, gpu)
    }
    fn delay(&mut self, gpu: GpuId, secs: f64) {
        self.add_memory_delay(gpu, secs);
    }
    fn advance_clocks_to(&mut self, t: f64) {
        self.advance_to(t);
    }
    fn stage_barrier(&mut self) {
        self.barrier();
    }
    fn latest_time(&self) -> f64 {
        self.max_device_time()
    }
}

impl NodeMachine for ShadowMachine {
    fn fresh(config: MachineConfig) -> Self {
        ShadowMachine::new(config)
    }
    fn run(&mut self, task: &ContractionTask, gpu: GpuId) -> Result<(), ExecError> {
        self.execute(task, gpu)
    }
    fn delay(&mut self, gpu: GpuId, secs: f64) {
        self.add_memory_delay(gpu, secs);
    }
    fn advance_clocks_to(&mut self, t: f64) {
        self.advance_to(t);
    }
    fn stage_barrier(&mut self) {
        self.barrier();
    }
    fn latest_time(&self) -> f64 {
        self.max_device_time()
    }
}

/// The simulated cluster, generic over the per-node machine.
///
/// Use the [`SimCluster`] alias to execute (full stats) or the
/// [`ShadowCluster`] alias to decide placements without observation —
/// cluster schedulers only see the [`ClusterView`], which both provide
/// identically.
///
/// # Examples
///
/// ```
/// use micco_cluster::{ClusterConfig, NodeId, SimCluster};
/// use micco_gpusim::GpuId;
/// use micco_workload::{ContractionTask, TaskId, TensorDesc, TensorId};
///
/// let mut cluster = SimCluster::new(ClusterConfig::mi100_cluster(2, 4));
/// let task = ContractionTask {
///     id: TaskId(0),
///     a: TensorDesc { id: TensorId(1), bytes: 1 << 20 },
///     b: TensorDesc { id: TensorId(2), bytes: 1 << 20 },
///     out: TensorDesc { id: TensorId(3), bytes: 1 << 20 },
///     flops: 1_000_000,
/// };
/// cluster.execute(&task, NodeId(0), GpuId(0)).unwrap();
/// cluster.barrier();
/// // original tensors are host-replicated: no network traffic yet
/// assert_eq!(cluster.inter_transfers(), 0);
/// ```
pub struct ClusterSim<M: NodeMachine> {
    config: ClusterConfig,
    machines: Vec<M>,
    intermediates: HashSet<TensorId>,
    inter_transfers: u64,
    inter_bytes: u64,
    elapsed: f64,
}

/// The executing cluster: per-node [`SimMachine`]s with full statistics.
pub type SimCluster = ClusterSim<SimMachine>;

/// The decide-only cluster: per-node [`ShadowMachine`]s, no statistics —
/// what [`crate::plan_cluster_schedule`] drives.
pub type ShadowCluster = ClusterSim<ShadowMachine>;

impl<M: NodeMachine> ClusterSim<M> {
    /// Build an idle cluster.
    pub fn new(config: ClusterConfig) -> Self {
        ClusterSim {
            config,
            machines: (0..config.nodes).map(|_| M::fresh(config.node)).collect(),
            intermediates: HashSet::new(),
            inter_transfers: 0,
            inter_bytes: 0,
            elapsed: 0.0,
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Inter-node transfers so far.
    pub fn inter_transfers(&self) -> u64 {
        self.inter_transfers
    }

    /// Inter-node bytes moved so far.
    pub fn inter_bytes(&self) -> u64 {
        self.inter_bytes
    }

    /// Elapsed seconds up to the last barrier.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed
    }

    /// Execute `task` on `(node, gpu)`.
    ///
    /// Operands that are intermediates not present on the target node are
    /// first pulled over the network (charged to the target device's DMA
    /// engine), then staged locally by the node machine as usual.
    pub fn execute(
        &mut self,
        task: &ContractionTask,
        node: NodeId,
        gpu: GpuId,
    ) -> Result<(), ExecError> {
        assert!(node.0 < self.machines.len(), "node out of range");
        for d in [task.a, task.b] {
            let local = !self.machines[node.0].holders(d.id).is_empty();
            if !local && self.intermediates.contains(&d.id) {
                // The data lives only on some remote node (or the host copy
                // written back there): fetch it over the network first.
                let secs = self.config.inter_secs(d.bytes);
                self.machines[node.0].delay(gpu, secs);
                self.inter_transfers += 1;
                self.inter_bytes += d.bytes;
            }
        }
        self.machines[node.0].run(task, gpu)?;
        self.intermediates.insert(task.out.id);
        Ok(())
    }

    /// Global stage barrier: all nodes synchronise to the slowest one.
    pub fn barrier(&mut self) {
        let end = self.machines.iter().map(M::latest_time).fold(0.0, f64::max);
        for m in &mut self.machines {
            m.advance_clocks_to(end);
            m.stage_barrier();
        }
        self.elapsed = end;
    }

    /// Validate a workload fits the per-node machines.
    pub fn fits(&self, stream: &TensorPairStream) -> bool {
        stream
            .vectors()
            .iter()
            .flat_map(|v| v.tasks.iter())
            .all(|t| t.a.bytes + t.b.bytes + t.out.bytes <= self.config.node.mem_bytes)
    }
}

impl SimCluster {
    /// Build the final report.
    pub fn report(&self, scheduler: String) -> ClusterReport {
        ClusterReport {
            scheduler,
            elapsed_secs: self.elapsed,
            total_flops: self.machines.iter().map(|m| m.stats().total_flops()).sum(),
            inter_transfers: self.inter_transfers,
            inter_bytes: self.inter_bytes,
            evictions_per_node: self
                .machines
                .iter()
                .map(|m| m.stats().total_evictions())
                .collect(),
        }
    }
}

impl<M: NodeMachine> ClusterView for ClusterSim<M> {
    fn num_nodes(&self) -> usize {
        self.machines.len()
    }

    fn node(&self, n: NodeId) -> &dyn MachineView {
        &self.machines[n.0]
    }

    fn nodes_holding(&self, t: TensorId) -> Vec<NodeId> {
        (0..self.machines.len())
            .filter(|&i| !self.machines[i].holders(t).is_empty())
            .map(NodeId)
            .collect()
    }

    fn is_intermediate(&self, t: TensorId) -> bool {
        self.intermediates.contains(&t)
    }

    fn node_stage_busy(&self, n: NodeId) -> f64 {
        let m = &self.machines[n.0];
        (0..m.num_gpus())
            .map(|g| m.stage_busy_secs(GpuId(g)))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micco_workload::{TaskId, TensorDesc};

    const MB: u64 = 1 << 20;

    fn task(id: u64, a: u64, b: u64, out: u64) -> ContractionTask {
        ContractionTask {
            id: TaskId(id),
            a: TensorDesc {
                id: TensorId(a),
                bytes: MB,
            },
            b: TensorDesc {
                id: TensorId(b),
                bytes: MB,
            },
            out: TensorDesc {
                id: TensorId(out),
                bytes: MB,
            },
            flops: 1_000_000_000,
        }
    }

    fn cluster(nodes: usize, gpus: usize) -> SimCluster {
        SimCluster::new(ClusterConfig::mi100_cluster(nodes, gpus))
    }

    #[test]
    fn config_totals() {
        let c = ClusterConfig::mi100_cluster(4, 2);
        assert_eq!(c.total_gpus(), 8);
        assert!(c.inter_secs(1 << 30) > 0.04); // ≥ bytes/bandwidth
    }

    #[test]
    fn originals_do_not_cross_the_network() {
        let mut c = cluster(2, 1);
        c.execute(&task(0, 1, 2, 100), NodeId(0), GpuId(0)).unwrap();
        // node 1 uses the same original tensors: replicated hosts, no net
        c.execute(&task(1, 1, 2, 101), NodeId(1), GpuId(0)).unwrap();
        assert_eq!(c.inter_transfers(), 0);
    }

    #[test]
    fn intermediates_cross_the_network_once_needed() {
        let mut c = cluster(2, 1);
        c.execute(&task(0, 1, 2, 100), NodeId(0), GpuId(0)).unwrap();
        c.barrier();
        // consume the intermediate 100 on the other node
        c.execute(&task(1, 100, 3, 101), NodeId(1), GpuId(0))
            .unwrap();
        assert_eq!(c.inter_transfers(), 1);
        assert_eq!(c.inter_bytes, MB);
        // consuming it again on node 1 is now local
        c.execute(&task(2, 100, 4, 102), NodeId(1), GpuId(0))
            .unwrap();
        assert_eq!(c.inter_transfers(), 1);
    }

    #[test]
    fn consuming_intermediate_locally_is_free_of_network() {
        let mut c = cluster(2, 1);
        c.execute(&task(0, 1, 2, 100), NodeId(0), GpuId(0)).unwrap();
        c.execute(&task(1, 100, 3, 101), NodeId(0), GpuId(0))
            .unwrap();
        assert_eq!(c.inter_transfers(), 0);
    }

    #[test]
    fn barrier_aligns_all_nodes() {
        let mut c = cluster(2, 2);
        c.execute(&task(0, 1, 2, 100), NodeId(0), GpuId(0)).unwrap();
        c.barrier();
        let r = c.report("test".into());
        assert!(r.elapsed_secs > 0.0);
        // all devices on all nodes share the clock now
        for n in 0..2 {
            for g in 0..2 {
                assert_eq!(c.machines[n].device_time(GpuId(g)), r.elapsed_secs);
            }
        }
    }

    #[test]
    fn cluster_view_reports_holders_and_intermediates() {
        let mut c = cluster(2, 1);
        c.execute(&task(0, 1, 2, 100), NodeId(0), GpuId(0)).unwrap();
        assert_eq!(c.nodes_holding(TensorId(1)), vec![NodeId(0)]);
        assert!(c.nodes_holding(TensorId(99)).is_empty());
        assert!(c.is_intermediate(TensorId(100)));
        assert!(!c.is_intermediate(TensorId(1)));
        assert!(c.node_stage_busy(NodeId(0)) > 0.0);
        assert_eq!(c.node_stage_busy(NodeId(1)), 0.0);
    }

    #[test]
    fn report_aggregates() {
        let mut c = cluster(2, 1);
        c.execute(&task(0, 1, 2, 100), NodeId(0), GpuId(0)).unwrap();
        c.execute(&task(1, 3, 4, 101), NodeId(1), GpuId(0)).unwrap();
        c.barrier();
        let r = c.report("agg".into());
        assert_eq!(r.total_flops, 2_000_000_000);
        assert!(r.gflops() > 0.0);
        assert_eq!(r.evictions_per_node, vec![0, 0]);
        assert_eq!(r.scheduler, "agg");
    }

    #[test]
    fn fits_checks_per_node_memory() {
        let small = SimCluster::new(ClusterConfig {
            nodes: 1,
            node: MachineConfig::mi100_like(1).with_mem_bytes(MB),
            inter_gib_s: 10.0,
            inter_latency_us: 1.0,
        });
        let stream = micco_workload::TensorPairStream::new(vec![micco_workload::Vector::new(
            vec![task(0, 1, 2, 100)],
        )]);
        assert!(!small.fits(&stream));
        assert!(cluster(1, 1).fits(&stream));
    }
}
