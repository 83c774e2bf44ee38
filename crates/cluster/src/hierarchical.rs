//! Cluster schedulers: flat (node-oblivious) and hierarchical (MICCO's
//! data-centric idea applied at node granularity, then within the node).

use micco_core::{MiccoScheduler, ReuseBounds, Scheduler};
use micco_gpusim::GpuId;
use micco_workload::{ContractionTask, TensorPairStream, Vector};

use crate::cluster::{ClusterConfig, ClusterReport, ClusterView, NodeId};

/// A scheduler that places tasks onto `(node, gpu)` pairs.
pub trait ClusterScheduler {
    /// Name for reports.
    fn name(&self) -> String;
    /// Called at each stage boundary.
    fn begin_vector(&mut self, vector: &Vector, view: &dyn ClusterView);
    /// Place one task.
    fn assign(&mut self, task: &ContractionTask, view: &dyn ClusterView) -> (NodeId, GpuId);
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

    fn begin_vector(&mut self, _vector: &Vector, _view: &dyn ClusterView) {}

    fn assign(&mut self, _task: &ContractionTask, view: &dyn ClusterView) -> (NodeId, GpuId) {
        let mut best = (NodeId(0), GpuId(0));
        let mut best_busy = f64::MAX;
        for n in 0..view.num_nodes() {
            let node = view.node(NodeId(n));
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
    intra: Vec<MiccoScheduler>,
    /// Tensor slots assigned per node in the current vector.
    node_slots: Vec<usize>,
    node_balance: usize,
}

impl HierarchicalScheduler {
    /// Build with a node-level reuse bound (slots a node may exceed its
    /// balanced share by when chasing intermediate locality) and intra-node
    /// MICCO bounds.
    pub fn new(nodes: usize, node_bound: usize, intra_bounds: ReuseBounds) -> Self {
        HierarchicalScheduler {
            node_bound,
            intra: (0..nodes)
                .map(|i| MiccoScheduler::new(intra_bounds).with_seed(0xC1_0500 + i as u64))
                .collect(),
            node_slots: vec![0; nodes],
            node_balance: 1,
        }
    }
}

impl ClusterScheduler for HierarchicalScheduler {
    fn name(&self) -> String {
        format!("hierarchical-micco(node_bound={})", self.node_bound)
    }

    fn begin_vector(&mut self, vector: &Vector, view: &dyn ClusterView) {
        for (i, s) in self.intra.iter_mut().enumerate() {
            s.begin_vector(vector, view.node(NodeId(i)));
        }
        self.node_slots.iter_mut().for_each(|s| *s = 0);
        self.node_balance = vector
            .tensor_slots()
            .div_ceil(view.num_nodes().max(1))
            .max(1);
    }

    fn assign(&mut self, task: &ContractionTask, view: &dyn ClusterView) -> (NodeId, GpuId) {
        // Node-level data-centric step: candidate nodes holding an
        // intermediate operand, while under the node bound.
        let mut candidates: Vec<NodeId> = Vec::new();
        for d in [task.a.id, task.b.id] {
            if view.is_intermediate(d) {
                for n in view.nodes_holding(d) {
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
                (0..view.num_nodes())
                    .map(NodeId)
                    .filter(|n| self.node_slots[n.0] < self.node_bound + self.node_balance),
            );
        }
        let node = candidates
            .into_iter()
            .min_by(|a, b| {
                view.node_stage_busy(*a)
                    .total_cmp(&view.node_stage_busy(*b))
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
        let gpu = self.intra[node.0].assign(task, view.node(node));
        (node, gpu)
    }
}

/// Drive a cluster scheduler over a stream on a fresh cluster.
///
/// Since the plan-IR split this is a thin composition: decide the whole
/// placement on a [`crate::ShadowCluster`] via
/// [`crate::plan_cluster_schedule`], then replay the resulting
/// [`crate::ClusterPlan`] on a fresh [`crate::SimCluster`] via
/// [`crate::execute_cluster_plan`]. Results are identical to the old
/// interleaved loop because both passes share the cluster's one
/// state-transition function.
pub fn run_cluster_schedule(
    scheduler: &mut dyn ClusterScheduler,
    stream: &TensorPairStream,
    config: &ClusterConfig,
) -> Result<ClusterReport, micco_gpusim::ExecError> {
    let plan = crate::plan::plan_cluster_schedule(scheduler, stream, config)?;
    match crate::plan::execute_cluster_plan(&plan, stream, config) {
        Ok(report) => Ok(report),
        Err(crate::plan::ClusterError::Exec(e)) => Err(e),
        Err(crate::plan::ClusterError::Plan(e)) => {
            unreachable!("freshly decided plan failed validation: {e}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micco_workload::{RepeatDistribution, WorkloadSpec};

    fn chained_stream() -> TensorPairStream {
        // vectors whose outputs feed later vectors: real producer-consumer
        // chains so node locality matters
        let base = WorkloadSpec::new(16, 256)
            .with_repeat_rate(0.6)
            .with_distribution(RepeatDistribution::Uniform)
            .with_vectors(4)
            .with_seed(9)
            .generate();
        // rewrite 1/2 of the inputs of vector v>0 to reference outputs of
        // vector v-1 (round-robin), creating cross-stage intermediates
        let mut vectors = base.into_vectors();
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
        let mut hier = HierarchicalScheduler::new(2, 8, ReuseBounds::new(0, 2, 0));
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
        let mut hier = HierarchicalScheduler::new(1, 4, ReuseBounds::new(0, 2, 0));
        let r = run_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
        assert_eq!(r.inter_transfers, 0, "one node, no network");
    }

    #[test]
    fn names() {
        assert_eq!(FlatClusterScheduler::new().name(), "flat-groute");
        let h = HierarchicalScheduler::new(2, 4, ReuseBounds::naive());
        assert!(h.name().contains("hierarchical"));
    }
}
