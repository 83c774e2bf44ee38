//! Cluster schedulers: flat (node-oblivious) and hierarchical (MICCO's
//! data-centric idea applied at node granularity, then within the node).

use micco_core::{MiccoScheduler, ReuseBounds, Scheduler};
use micco_gpusim::{ExecError, GpuId, MachineView};
use micco_workload::{ContractionTask, TensorPairStream, Vector};

use crate::cluster::{ClusterConfig, ClusterReport, NodeId, SimCluster};

/// A scheduler that places tasks onto `(node, gpu)` pairs.
pub trait ClusterScheduler {
    /// Name for reports.
    fn name(&self) -> String;
    /// Called at each stage boundary.
    fn begin_vector(&mut self, vector: &Vector, cluster: &SimCluster);
    /// Place one task.
    fn assign(&mut self, task: &ContractionTask, cluster: &SimCluster) -> (NodeId, GpuId);
}

/// Node-oblivious baseline: earliest-available device across the whole
/// cluster, ignoring node boundaries (what running flat Groute on a
/// multi-node allocation does).
#[derive(Debug, Clone, Default)]
pub struct FlatClusterScheduler;

impl FlatClusterScheduler {
    /// New flat scheduler.
    pub fn new() -> Self {
        FlatClusterScheduler
    }
}

impl ClusterScheduler for FlatClusterScheduler {
    fn name(&self) -> String {
        "flat-groute".to_owned()
    }

    fn begin_vector(&mut self, _vector: &Vector, _cluster: &SimCluster) {}

    fn assign(&mut self, _task: &ContractionTask, cluster: &SimCluster) -> (NodeId, GpuId) {
        let mut best = (NodeId(0), GpuId(0));
        let mut best_busy = f64::MAX;
        for n in 0..cluster.num_nodes() {
            let node = cluster.node(NodeId(n));
            for g in 0..node.num_gpus() {
                let busy = node.stage_busy_secs(GpuId(g));
                if busy < best_busy {
                    best_busy = busy;
                    best = (NodeId(n), GpuId(g));
                }
            }
        }
        best
    }
}

/// Hierarchical MICCO: a node-level data-centric step — prefer nodes that
/// already hold the pair's *intermediates* (originals are replicated, only
/// intermediates cost network traffic), gated by a node-level reuse bound —
/// then the standard intra-node MICCO heuristic on the chosen node.
pub struct HierarchicalScheduler {
    node_bound: usize,
    intra_bounds: ReuseBounds,
    /// One intra-node MICCO per node of the cluster being scheduled,
    /// built at its first vector.
    intra: Vec<MiccoScheduler>,
    /// Tensor slots assigned per node in the current vector.
    node_slots: Vec<usize>,
    node_balance: usize,
}

impl HierarchicalScheduler {
    /// Build with a node-level reuse bound (slots a node may exceed its
    /// balanced share by when chasing intermediate locality) and intra-node
    /// MICCO bounds. The node count comes from the cluster it schedules.
    pub fn new(node_bound: usize, intra_bounds: ReuseBounds) -> Self {
        HierarchicalScheduler {
            node_bound,
            intra_bounds,
            intra: Vec::new(),
            node_slots: Vec::new(),
            node_balance: 1,
        }
    }
}

impl ClusterScheduler for HierarchicalScheduler {
    fn name(&self) -> String {
        format!("hierarchical-micco(node_bound={})", self.node_bound)
    }

    fn begin_vector(&mut self, vector: &Vector, cluster: &SimCluster) {
        let nodes = cluster.num_nodes();
        if self.intra.len() != nodes {
            self.intra = (0..nodes)
                .map(|i| MiccoScheduler::new(self.intra_bounds).with_seed(0xC1_0500 + i as u64))
                .collect();
        }
        for (i, s) in self.intra.iter_mut().enumerate() {
            s.begin_vector(vector, cluster.node(NodeId(i)));
        }
        self.node_slots.clear();
        self.node_slots.resize(nodes, 0);
        self.node_balance = vector.tensor_slots().div_ceil(nodes.max(1)).max(1);
    }

    fn assign(&mut self, task: &ContractionTask, cluster: &SimCluster) -> (NodeId, GpuId) {
        // Node-level data-centric step: candidate nodes holding an
        // intermediate operand, while under the node bound.
        let mut candidates: Vec<NodeId> = Vec::new();
        for d in [task.a.id, task.b.id] {
            if cluster.is_intermediate(d) {
                for n in cluster.nodes_holding(d) {
                    if self.node_slots[n.0] < self.node_bound + self.node_balance
                        && !candidates.contains(&n)
                    {
                        candidates.push(n);
                    }
                }
            }
        }
        // Computation-centric fallback: all nodes under the bound, else the
        // least-loaded node.
        if candidates.is_empty() {
            candidates.extend(
                (0..cluster.num_nodes())
                    .map(NodeId)
                    .filter(|n| self.node_slots[n.0] < self.node_bound + self.node_balance),
            );
        }
        let node = candidates
            .into_iter()
            .min_by(|a, b| {
                cluster
                    .node_stage_busy(*a)
                    .total_cmp(&cluster.node_stage_busy(*b))
                    .then(a.0.cmp(&b.0))
            })
            .unwrap_or_else(|| {
                NodeId(
                    self.node_slots
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, &s)| (s, *i))
                        .map(|(i, _)| i)
                        .unwrap_or(0),
                )
            });
        self.node_slots[node.0] += 2;
        // Intra-node MICCO on the chosen node.
        let gpu = self.intra[node.0].assign(task, cluster.node(node));
        (node, gpu)
    }
}

/// Drive a cluster scheduler over a stream on a fresh cluster: each task
/// runs where the scheduler places it, and every stage ends in a global
/// barrier.
///
/// # Errors
///
/// Propagates [`ExecError`] when a task cannot fit a node machine even
/// with eviction.
pub fn run_cluster_schedule(
    scheduler: &mut dyn ClusterScheduler,
    stream: &TensorPairStream,
    config: &ClusterConfig,
) -> Result<ClusterReport, ExecError> {
    let mut cluster = SimCluster::new(*config);
    for vector in stream.vectors() {
        scheduler.begin_vector(vector, &cluster);
        for task in &vector.tasks {
            let (node, gpu) = scheduler.assign(task, &cluster);
            cluster.execute(task, node, gpu)?;
        }
        cluster.barrier();
    }
    Ok(cluster.report(scheduler.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use micco_workload::{RepeatDistribution, WorkloadSpec};

    /// `spec`'s stream with vectors whose outputs feed later vectors: real
    /// producer-consumer chains so node locality matters.
    fn chained(spec: WorkloadSpec) -> TensorPairStream {
        // rewrite 1/2 of the inputs of vector v>0 to reference outputs of
        // vector v-1 (round-robin), creating cross-stage intermediates
        let mut vectors = spec.generate().into_vectors();
        for v in 1..vectors.len() {
            let prev_outs: Vec<_> = vectors[v - 1].tasks.iter().map(|t| t.out).collect();
            for (i, t) in vectors[v].tasks.iter_mut().enumerate() {
                if i % 2 == 0 {
                    t.a = prev_outs[i % prev_outs.len()];
                }
            }
        }
        TensorPairStream::new(vectors)
    }

    fn chained_stream() -> TensorPairStream {
        chained(
            WorkloadSpec::new(16, 256)
                .with_repeat_rate(0.6)
                .with_distribution(RepeatDistribution::Uniform)
                .with_vectors(4)
                .with_seed(9),
        )
    }

    #[test]
    fn flat_scheduler_completes() {
        let stream = chained_stream();
        let cfg = ClusterConfig::mi100_cluster(2, 4);
        let r = run_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        assert_eq!(r.total_flops, stream.total_flops());
        assert!(r.gflops() > 0.0);
    }

    #[test]
    fn hierarchical_reduces_network_traffic() {
        let stream = chained_stream();
        let cfg = ClusterConfig::mi100_cluster(2, 4);
        let flat = run_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        let mut hier = HierarchicalScheduler::new(8, ReuseBounds::new(0, 2, 0));
        let h = run_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
        assert!(
            h.inter_transfers < flat.inter_transfers,
            "hierarchical {} vs flat {} network transfers",
            h.inter_transfers,
            flat.inter_transfers
        );
        // Makespan is a soft secondary check: the exact figure depends on the
        // scheduler's RNG tie-breaking sequence, so allow a few percent of
        // slack while keeping the transfer reduction (the real claim) strict.
        assert!(
            h.elapsed_secs <= flat.elapsed_secs * 1.05,
            "hierarchical {} vs flat {}",
            h.elapsed_secs,
            flat.elapsed_secs
        );
    }

    #[test]
    fn single_node_cluster_matches_flat_semantics() {
        let stream = chained_stream();
        let cfg = ClusterConfig::mi100_cluster(1, 4);
        let mut hier = HierarchicalScheduler::new(4, ReuseBounds::new(0, 2, 0));
        let r = run_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
        assert_eq!(r.inter_transfers, 0, "one node, no network");
    }

    #[test]
    fn the_node_count_comes_from_the_cluster() {
        // one scheduler value, sized by each cluster it is run on
        let stream = chained_stream();
        let mut hier = HierarchicalScheduler::new(8, ReuseBounds::new(0, 2, 0));
        for nodes in [3, 2] {
            let cfg = ClusterConfig::mi100_cluster(nodes, 2);
            let r = run_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
            assert_eq!(r.total_flops, stream.total_flops(), "{nodes} nodes");
            assert_eq!(r.evictions_per_node.len(), nodes);
        }
    }

    #[test]
    fn run_cluster_schedule_is_pinned_bit_for_bit() {
        let stream = chained(
            WorkloadSpec::new(12, 192)
                .with_repeat_rate(0.6)
                .with_vectors(3)
                .with_seed(5),
        );
        let roomy = ClusterConfig::mi100_cluster(2, 4);
        // room for four tensors per device: every node evicts
        let tensor = stream.vectors()[0].tasks[0].a.bytes;
        let tight = ClusterConfig {
            node: roomy.node.with_mem_bytes(4 * tensor),
            ..roomy
        };
        // (elapsed bits, flops, network transfers, network bytes, evictions)
        let pinned: [(u64, u64, u64, u64, [u64; 2]); 4] = [
            (0x3f63901e05d0cd16, 8153726976, 1, 2359296, [0, 0]),
            (0x3f61d07726d452de, 8153726976, 0, 0, [0, 0]),
            (0x3f69e8dd21ff4a30, 8153726976, 3, 7077888, [40, 27]),
            (0x3f691b9280f1480e, 8153726976, 1, 2359296, [35, 28]),
        ];
        let mut pinned = pinned.into_iter();
        for cfg in [roomy, tight] {
            let mut hier = HierarchicalScheduler::new(8, ReuseBounds::new(0, 2, 0));
            for r in [
                run_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg),
                run_cluster_schedule(&mut hier, &stream, &cfg),
            ] {
                let r = r.unwrap();
                let (bits, flops, transfers, bytes, evictions) = pinned.next().unwrap();
                assert_eq!(
                    (
                        r.elapsed_secs.to_bits(),
                        r.total_flops,
                        r.inter_transfers,
                        r.inter_bytes
                    ),
                    (bits, flops, transfers, bytes),
                    "{}",
                    r.scheduler
                );
                assert_eq!(r.evictions_per_node, evictions, "{}", r.scheduler);
                if cfg == tight {
                    assert!(r.evictions_per_node.iter().all(|&e| e > 0));
                }
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(FlatClusterScheduler::new().name(), "flat-groute");
        let h = HierarchicalScheduler::new(4, ReuseBounds::naive());
        assert!(h.name().contains("hierarchical"));
    }
}
