//! Projection analysis for [`ClusterPlan`]s: lint a cross-node placement
//! without executing it.
//!
//! The cluster-level pass re-runs the structural checks of
//! [`ClusterPlan::validate_for`] as *diagnostics* (every finding, not just
//! the first error) using the stable `micco-analysis` code registry; a
//! structurally clean plan is then projected per node and each node's
//! placement stream replayed through [`micco_analysis::analyze_placements`]
//! against the node's machine configuration.
//!
//! The per-node replay is a *projection*: tasks routed to other nodes are
//! invisible, and an intermediate produced remotely looks like a
//! host-backed first touch. Capacity and eviction arithmetic are exact
//! (cross-node arrivals materialize the same bytes a local H2D would), but
//! inter-node link traffic is out of scope here — that is the simulator's
//! job, not the linter's. Node projections carry no reuse bounds, so only
//! the memory rules (`E001`, `W201`, `I301`) apply to them.

use micco_analysis::{
    analyze_placements, AnalysisConfig, Code, Diagnostic, PlacedStage, Report, Severity,
};
use micco_gpusim::MachineConfig;
use micco_workload::TensorPairStream;

use crate::cluster::ClusterConfig;
use crate::plan::ClusterPlan;

/// The outcome of [`analyze_cluster_plan`]: cluster-level structural
/// findings plus one semantic report per node projection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterAnalysis {
    /// Structural findings about the plan as a whole (fingerprint, stage
    /// shape, node/device ranges, grid vs. cluster geometry).
    pub cluster: Report,
    /// One semantic report per node, indexed by node id. Empty when the
    /// structural pass found errors (a malformed plan has no meaningful
    /// projection).
    pub nodes: Vec<Report>,
}

impl ClusterAnalysis {
    /// True when neither the cluster pass nor any node pass found anything.
    pub fn is_clean(&self) -> bool {
        self.cluster.is_clean() && self.nodes.iter().all(Report::is_clean)
    }

    /// `--deny`-style gate across every report (see
    /// [`Report::denies`]).
    pub fn denies(&self, threshold: Severity) -> bool {
        self.cluster.denies(threshold) || self.nodes.iter().any(|r| r.denies(threshold))
    }

    /// Flatten into a single [`Report`]: cluster findings first, then each
    /// node's findings tagged with a `node` payload entry so consumers can
    /// still tell the projections apart.
    pub fn merged(&self) -> Report {
        let mut out = self.cluster.clone();
        for (n, node) in self.nodes.iter().enumerate() {
            for d in &node.diagnostics {
                out.push(d.clone().with("node", n));
            }
        }
        out
    }
}

/// [`analyze_cluster_plan_with`] under the default [`AnalysisConfig`].
pub fn analyze_cluster_plan(
    plan: &ClusterPlan,
    stream: &TensorPairStream,
    config: &ClusterConfig,
) -> ClusterAnalysis {
    analyze_cluster_plan_with(plan, stream, config, &AnalysisConfig::default())
}

/// Analyze a cluster plan against the stream and cluster it is meant to
/// run on.
///
/// Structural pass first: fingerprint (`E004`), stage shape (`E003`),
/// node/device ranges (`E002`), plan grid vs. cluster geometry (`E005` —
/// the semantic pass proceeds on the *plan's* geometry, mirroring the
/// single-node analyzer). Only a structurally clean plan is projected and
/// replayed per node.
pub fn analyze_cluster_plan_with(
    plan: &ClusterPlan,
    stream: &TensorPairStream,
    config: &ClusterConfig,
    acfg: &AnalysisConfig,
) -> ClusterAnalysis {
    let mut cluster = Report::new();

    let fp = stream.fingerprint();
    if plan.fingerprint != fp {
        cluster.push(
            Diagnostic::new(
                Code::FingerprintMismatch,
                format!(
                    "cluster plan fingerprint {:#x} does not match stream fingerprint {fp:#x}",
                    plan.fingerprint
                ),
            )
            .with("plan", plan.fingerprint)
            .with("stream", fp),
        );
        return ClusterAnalysis {
            cluster,
            nodes: Vec::new(),
        };
    }
    if plan.stages.len() != stream.vectors().len() {
        cluster.push(
            Diagnostic::new(
                Code::PlanStructureMismatch,
                format!(
                    "cluster plan has {} stages, stream has {} vectors",
                    plan.stages.len(),
                    stream.vectors().len()
                ),
            )
            .with("plan_stages", plan.stages.len())
            .with("stream_vectors", stream.vectors().len()),
        );
        return ClusterAnalysis {
            cluster,
            nodes: Vec::new(),
        };
    }

    let mut structural_ok = true;
    for (s, (stage, vector)) in plan.stages.iter().zip(stream.vectors()).enumerate() {
        if stage.len() != vector.tasks.len() {
            cluster.push(
                Diagnostic::new(
                    Code::PlanStructureMismatch,
                    format!(
                        "stage {s}: plan places {} tasks, vector has {}",
                        stage.len(),
                        vector.tasks.len()
                    ),
                )
                .at_stage(s)
                .with("plan_len", stage.len())
                .with("vector_len", vector.tasks.len()),
            );
            structural_ok = false;
            continue;
        }
        for (i, (a, t)) in stage.iter().zip(&vector.tasks).enumerate() {
            if a.task != t.id {
                cluster.push(
                    Diagnostic::new(
                        Code::PlanStructureMismatch,
                        format!(
                            "stage {s} position {i}: plan names task {}, stream has task {}",
                            a.task.0, t.id.0
                        ),
                    )
                    .at(s, i)
                    .for_task(a.task)
                    .with("plan_task", a.task.0)
                    .with("stream_task", t.id.0),
                );
                structural_ok = false;
            }
            if a.node.0 >= plan.num_nodes {
                cluster.push(
                    Diagnostic::new(
                        Code::AssignmentOutOfRange,
                        format!(
                            "stage {s} position {i}: task {} placed on node {} but the plan targets {} node(s)",
                            a.task.0, a.node.0, plan.num_nodes
                        ),
                    )
                    .at(s, i)
                    .for_task(a.task)
                    .with("node", a.node.0)
                    .with("num_nodes", plan.num_nodes),
                );
                structural_ok = false;
            }
            if a.gpu.0 >= plan.gpus_per_node {
                cluster.push(
                    Diagnostic::new(
                        Code::AssignmentOutOfRange,
                        format!(
                            "stage {s} position {i}: task {} placed on device {} but the plan targets {} device(s) per node",
                            a.task.0, a.gpu.0, plan.gpus_per_node
                        ),
                    )
                    .at(s, i)
                    .for_task(a.task)
                    .on_gpu(a.gpu)
                    .with("gpu", a.gpu.0)
                    .with("gpus_per_node", plan.gpus_per_node),
                );
                structural_ok = false;
            }
        }
    }

    if plan.num_nodes != config.nodes {
        cluster.push(
            Diagnostic::new(
                Code::DeviceCountMismatch,
                format!(
                    "plan targets {} node(s) but the cluster has {} (semantic pass uses the plan's geometry)",
                    plan.num_nodes, config.nodes
                ),
            )
            .with("plan_nodes", plan.num_nodes)
            .with("cluster_nodes", config.nodes),
        );
    }
    if plan.gpus_per_node != config.node.num_gpus {
        cluster.push(
            Diagnostic::new(
                Code::DeviceCountMismatch,
                format!(
                    "plan targets {} device(s) per node but the cluster has {} (semantic pass uses the plan's geometry)",
                    plan.gpus_per_node, config.node.num_gpus
                ),
            )
            .with("plan_gpus", plan.gpus_per_node)
            .with("cluster_gpus", config.node.num_gpus),
        );
    }

    if !structural_ok {
        return ClusterAnalysis {
            cluster,
            nodes: Vec::new(),
        };
    }

    let node_cfg = MachineConfig {
        num_gpus: plan.gpus_per_node,
        ..config.node
    };
    let nodes = (0..plan.num_nodes)
        .map(|n| {
            let stages: Vec<PlacedStage> = plan
                .stages
                .iter()
                .zip(stream.vectors())
                .map(|(stage, vector)| PlacedStage {
                    // Cluster plans record no reuse bounds; the node
                    // projection is linted for memory behaviour alone.
                    bounds: None,
                    placements: vector
                        .tasks
                        .iter()
                        .zip(stage)
                        .filter(|(_, a)| a.node.0 == n)
                        .map(|(t, a)| (t.clone(), a.gpu))
                        .collect(),
                })
                .collect();
            analyze_placements(&stages, &node_cfg, acfg)
        })
        .collect();

    ClusterAnalysis { cluster, nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeId;
    use crate::hierarchical::{FlatClusterScheduler, HierarchicalScheduler};
    use crate::plan::{plan_cluster_schedule, ClusterAssignment};
    use micco_core::ReuseBounds;
    use micco_gpusim::GpuId;
    use micco_workload::{ContractionTask, TaskId, TensorDesc, TensorId, Vector, WorkloadSpec};

    const MB: u64 = 1 << 20;

    fn stream() -> TensorPairStream {
        WorkloadSpec::new(12, 192)
            .with_repeat_rate(0.6)
            .with_vectors(3)
            .with_seed(5)
            .generate()
    }

    fn big_task(bytes: u64) -> ContractionTask {
        ContractionTask {
            id: TaskId(0),
            a: TensorDesc {
                id: TensorId(1),
                bytes,
            },
            b: TensorDesc {
                id: TensorId(2),
                bytes,
            },
            out: TensorDesc {
                id: TensorId(3),
                bytes,
            },
            flops: 1_000_000,
        }
    }

    #[test]
    fn clean_cluster_plans_are_clean() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 4);
        let flat = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        let hier = plan_cluster_schedule(
            &mut HierarchicalScheduler::new(2, 8, ReuseBounds::new(0, 2, 0)),
            &stream,
            &cfg,
        )
        .unwrap();
        for plan in [flat, hier] {
            let a = analyze_cluster_plan(&plan, &stream, &cfg);
            assert_eq!(a.nodes.len(), 2);
            assert!(
                !a.denies(Severity::Warning),
                "valid cluster plan flagged: {}",
                a.merged().render_text()
            );
        }
    }

    #[test]
    fn node_and_gpu_out_of_range_are_e002() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 4);
        let plan = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();

        let mut bad = plan.clone();
        bad.stages[1][2].node = NodeId(9);
        let a = analyze_cluster_plan(&bad, &stream, &cfg);
        let hits = a.cluster.with_code(Code::AssignmentOutOfRange);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].stage, hits[0].index), (Some(1), Some(2)));
        assert!(a.nodes.is_empty(), "projection skipped on structural error");

        let mut bad = plan;
        bad.stages[0][0].gpu = GpuId(17);
        let a = analyze_cluster_plan(&bad, &stream, &cfg);
        let hits = a.cluster.with_code(Code::AssignmentOutOfRange);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].gpu, Some(GpuId(17)));
    }

    #[test]
    fn structural_and_grid_mismatches_are_typed() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 4);
        let plan = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();

        let mut fp = plan.clone();
        fp.fingerprint ^= 1;
        let a = analyze_cluster_plan(&fp, &stream, &cfg);
        assert!(a.cluster.has(Code::FingerprintMismatch));
        assert!(a.nodes.is_empty());

        let mut missing = plan.clone();
        missing.stages.pop();
        assert!(analyze_cluster_plan(&missing, &stream, &cfg)
            .cluster
            .has(Code::PlanStructureMismatch));

        let mut short = plan.clone();
        short.stages[1].pop();
        let a = analyze_cluster_plan(&short, &stream, &cfg);
        let d = &a.cluster.with_code(Code::PlanStructureMismatch)[0];
        assert_eq!(d.stage, Some(1));

        let mut wrong_task = plan.clone();
        wrong_task.stages[0][1].task = TaskId(u64::MAX);
        let a = analyze_cluster_plan(&wrong_task, &stream, &cfg);
        let d = &a.cluster.with_code(Code::PlanStructureMismatch)[0];
        assert_eq!((d.stage, d.index), (Some(0), Some(1)));

        // grid mismatch is E005 but the projections still run (plan geometry)
        let wrong_grid = ClusterConfig::mi100_cluster(3, 4);
        let a = analyze_cluster_plan(&plan, &stream, &wrong_grid);
        assert!(a.cluster.has(Code::DeviceCountMismatch));
        assert_eq!(a.nodes.len(), plan.num_nodes);
    }

    #[test]
    fn node_capacity_violation_surfaces_as_e001_on_that_node() {
        // 2-node cluster whose nodes only have 4 MB of device memory; a
        // task with a 6 MB working set routed to node 1 cannot fit there
        let mut cfg = ClusterConfig::mi100_cluster(2, 1);
        cfg.node = cfg.node.with_mem_bytes(4 * MB);
        let stream = TensorPairStream::new(vec![Vector::new(vec![big_task(2 * MB)])]);
        let plan = ClusterPlan {
            scheduler: "manual".to_string(),
            num_nodes: 2,
            gpus_per_node: 1,
            fingerprint: stream.fingerprint(),
            stages: vec![vec![ClusterAssignment {
                task: TaskId(0),
                node: NodeId(1),
                gpu: GpuId(0),
            }]],
        };
        let a = analyze_cluster_plan(&plan, &stream, &cfg);
        assert!(a.cluster.is_clean(), "{}", a.cluster.render_text());
        assert!(!a.nodes[0].has(Code::CapacityExceeded));
        let hits = a.nodes[1].with_code(Code::CapacityExceeded);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].stage, hits[0].index), (Some(0), Some(0)));
        // the merged view tags the finding with its node
        let merged = a.merged();
        let d = &merged.with_code(Code::CapacityExceeded)[0];
        assert!(d.payload.iter().any(|(k, v)| k == "node" && v == "1"));
        assert!(a.denies(Severity::Error) && !a.is_clean());
    }
}
