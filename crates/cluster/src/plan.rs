//! Cluster-level schedule plans: decide `(node, gpu)` placements by
//! stepping a [`SimCluster`], carry them as a validated artifact, and
//! execute them later on a fresh one — the multi-node face of the plan IR.
//!
//! A [`ClusterPlan`] records the full cross-node placement in stream order
//! (the order the network arithmetic depends on) and can project itself
//! into one [`SchedulePlan`] per node for serialization or inspection.

use std::fmt;

use micco_core::{
    Assignment, DurableError, DurablePlanCache, PlanKey, PlanStage, SchedulePlan, PLAN_VERSION,
};
use micco_gpusim::{ExecError, GpuId};
use micco_workload::{TaskId, TensorPairStream};

use crate::cluster::{ClusterConfig, ClusterReport, NodeId, SimCluster};
use crate::hierarchical::ClusterScheduler;

/// One task placed on a `(node, gpu)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterAssignment {
    /// The task placed.
    pub task: TaskId,
    /// Target node.
    pub node: NodeId,
    /// Device within the node.
    pub gpu: GpuId,
}

/// A decided cluster schedule: every task's `(node, gpu)` placement, per
/// stage, in stream order, plus enough metadata to validate the plan
/// against a stream and a cluster before replaying it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlan {
    /// Name of the cluster scheduler that decided the plan.
    pub scheduler: String,
    /// Number of nodes the plan targets.
    pub num_nodes: usize,
    /// Devices per node the plan targets.
    pub gpus_per_node: usize,
    /// [`TensorPairStream::fingerprint`] of the workload planned for.
    pub fingerprint: u64,
    /// Per-stage placements, one entry per task in stream order.
    pub stages: Vec<Vec<ClusterAssignment>>,
}

impl ClusterPlan {
    /// Total tasks covered by the plan.
    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// Project the cluster plan into one single-node [`SchedulePlan`] per
    /// node: node `n`'s plan keeps every stage (possibly empty) and lists
    /// only the tasks routed to `n`, with their intra-node device.
    ///
    /// Node plans serialize with the ordinary plan text format; note they
    /// cover a *subset* of the stream, so [`SchedulePlan::validate`]
    /// against the full stream is not expected to pass — the covering
    /// artifact is the [`ClusterPlan`] itself.
    pub fn node_plans(&self) -> Vec<SchedulePlan> {
        (0..self.num_nodes)
            .map(|n| SchedulePlan {
                scheduler: format!("{}@node{n}", self.scheduler),
                num_gpus: self.gpus_per_node,
                fingerprint: self.fingerprint,
                overhead_secs: 0.0,
                stages: self
                    .stages
                    .iter()
                    .map(|stage| PlanStage {
                        bounds: None,
                        assignments: stage
                            .iter()
                            .filter(|a| a.node.0 == n)
                            .map(|a| Assignment {
                                task: a.task,
                                gpu: a.gpu,
                            })
                            .collect(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// Check the plan covers `stream` exactly: same fingerprint, same stage
    /// structure, every task matched in order, every placement within the
    /// plan's own node/device grid.
    pub fn validate(&self, stream: &TensorPairStream) -> Result<(), ClusterPlanError> {
        let fp = stream.fingerprint();
        if self.fingerprint != fp {
            return Err(ClusterPlanError::FingerprintMismatch {
                plan: self.fingerprint,
                stream: fp,
            });
        }
        if self.stages.len() != stream.vectors().len() {
            return Err(ClusterPlanError::StageCountMismatch {
                plan: self.stages.len(),
                stream: stream.vectors().len(),
            });
        }
        for (s, (stage, vector)) in self.stages.iter().zip(stream.vectors()).enumerate() {
            if stage.len() != vector.len() {
                return Err(ClusterPlanError::StageLenMismatch {
                    stage: s,
                    plan: stage.len(),
                    stream: vector.len(),
                });
            }
            for (i, (a, t)) in stage.iter().zip(&vector.tasks).enumerate() {
                if a.task != t.id {
                    return Err(ClusterPlanError::TaskMismatch {
                        stage: s,
                        index: i,
                        plan: a.task,
                        stream: t.id,
                    });
                }
                if a.node.0 >= self.num_nodes {
                    return Err(ClusterPlanError::NodeOutOfRange {
                        task: a.task,
                        node: a.node.0,
                        nodes: self.num_nodes,
                    });
                }
                if a.gpu.0 >= self.gpus_per_node {
                    return Err(ClusterPlanError::GpuOutOfRange {
                        task: a.task,
                        gpu: a.gpu.0,
                        gpus: self.gpus_per_node,
                    });
                }
            }
        }
        Ok(())
    }

    /// [`validate`](Self::validate), plus a check that the plan's grid
    /// matches the cluster it is about to run on.
    pub fn validate_for(
        &self,
        stream: &TensorPairStream,
        config: &ClusterConfig,
    ) -> Result<(), ClusterPlanError> {
        if self.num_nodes != config.nodes {
            return Err(ClusterPlanError::NodeCountMismatch {
                plan: self.num_nodes,
                cluster: config.nodes,
            });
        }
        if self.gpus_per_node != config.node.num_gpus {
            return Err(ClusterPlanError::GpuCountMismatch {
                plan: self.gpus_per_node,
                cluster: config.node.num_gpus,
            });
        }
        self.validate(stream)
    }
}

/// Why a [`ClusterPlan`] does not apply to a stream or cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterPlanError {
    /// The plan was decided for a different workload.
    FingerprintMismatch {
        /// Fingerprint recorded in the plan.
        plan: u64,
        /// Fingerprint of the stream offered for execution.
        stream: u64,
    },
    /// Stage counts differ.
    StageCountMismatch {
        /// Stages in the plan.
        plan: usize,
        /// Stages in the stream.
        stream: usize,
    },
    /// One stage covers a different number of tasks.
    StageLenMismatch {
        /// Stage index.
        stage: usize,
        /// Tasks the plan places in this stage.
        plan: usize,
        /// Tasks the stream has in this stage.
        stream: usize,
    },
    /// A placement names a different task than the stream at its position.
    TaskMismatch {
        /// Stage index.
        stage: usize,
        /// Position within the stage.
        index: usize,
        /// Task the plan names.
        plan: TaskId,
        /// Task the stream has.
        stream: TaskId,
    },
    /// A placement names a node outside the plan's grid.
    NodeOutOfRange {
        /// Offending task.
        task: TaskId,
        /// Node index named.
        node: usize,
        /// Nodes in the plan's grid.
        nodes: usize,
    },
    /// A placement names a device outside a node.
    GpuOutOfRange {
        /// Offending task.
        task: TaskId,
        /// Device index named.
        gpu: usize,
        /// Devices per node in the plan's grid.
        gpus: usize,
    },
    /// The plan targets a different node count than the cluster has.
    NodeCountMismatch {
        /// Nodes the plan targets.
        plan: usize,
        /// Nodes the cluster has.
        cluster: usize,
    },
    /// The plan targets a different per-node device count.
    GpuCountMismatch {
        /// Devices per node the plan targets.
        plan: usize,
        /// Devices per node the cluster has.
        cluster: usize,
    },
}

impl fmt::Display for ClusterPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterPlanError::FingerprintMismatch { plan, stream } => write!(
                f,
                "cluster plan fingerprint {plan:#018x} does not match stream {stream:#018x}"
            ),
            ClusterPlanError::StageCountMismatch { plan, stream } => {
                write!(f, "plan has {plan} stages, stream has {stream}")
            }
            ClusterPlanError::StageLenMismatch {
                stage,
                plan,
                stream,
            } => write!(
                f,
                "stage {stage}: plan places {plan} tasks, stream has {stream}"
            ),
            ClusterPlanError::TaskMismatch {
                stage,
                index,
                plan,
                stream,
            } => write!(
                f,
                "stage {stage} position {index}: plan names task {plan:?}, stream has {stream:?}"
            ),
            ClusterPlanError::NodeOutOfRange { task, node, nodes } => {
                write!(f, "task {task:?} placed on node {node} ≥ {nodes}")
            }
            ClusterPlanError::GpuOutOfRange { task, gpu, gpus } => {
                write!(f, "task {task:?} placed on device {gpu} ≥ {gpus} per node")
            }
            ClusterPlanError::NodeCountMismatch { plan, cluster } => {
                write!(f, "plan targets {plan} nodes, cluster has {cluster}")
            }
            ClusterPlanError::GpuCountMismatch { plan, cluster } => write!(
                f,
                "plan targets {plan} devices per node, cluster has {cluster}"
            ),
        }
    }
}

impl std::error::Error for ClusterPlanError {}

/// Failure of a cluster plan-execution: either the plan did not validate,
/// or the replay hit a machine-level error.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The plan failed validation.
    Plan(ClusterPlanError),
    /// A node machine rejected a task during replay.
    Exec(ExecError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Plan(e) => write!(f, "invalid cluster plan: {e}"),
            ClusterError::Exec(e) => write!(f, "cluster execution failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClusterPlanError> for ClusterError {
    fn from(e: ClusterPlanError) -> Self {
        ClusterError::Plan(e)
    }
}

impl From<ExecError> for ClusterError {
    fn from(e: ExecError) -> Self {
        ClusterError::Exec(e)
    }
}

/// Decide a full cluster placement: drive `scheduler` over a fresh
/// [`SimCluster`] and record every `(node, gpu)` choice.
///
/// # Errors
///
/// Propagates [`ExecError`] when the workload cannot fit a node machine
/// even with eviction.
pub fn plan_cluster_schedule(
    scheduler: &mut dyn ClusterScheduler,
    stream: &TensorPairStream,
    config: &ClusterConfig,
) -> Result<ClusterPlan, ExecError> {
    decide(scheduler, stream, config).map(|(plan, _)| plan)
}

/// The planning pass behind [`plan_cluster_schedule`]: the plan, plus the
/// cluster it was decided on, whose [`SimCluster::report`] is the
/// placement's report without a replay.
pub(crate) fn decide(
    scheduler: &mut dyn ClusterScheduler,
    stream: &TensorPairStream,
    config: &ClusterConfig,
) -> Result<(ClusterPlan, SimCluster), ExecError> {
    let mut cluster = SimCluster::new(*config);
    let mut stages = Vec::with_capacity(stream.vectors().len());
    for vector in stream.vectors() {
        scheduler.begin_vector(vector, &cluster);
        let mut stage = Vec::with_capacity(vector.len());
        for task in &vector.tasks {
            let (node, gpu) = scheduler.assign(task, &cluster);
            cluster.execute(task, node, gpu)?;
            stage.push(ClusterAssignment {
                task: task.id,
                node,
                gpu,
            });
        }
        cluster.barrier();
        stages.push(stage);
    }
    let plan = ClusterPlan {
        scheduler: scheduler.name(),
        num_nodes: config.nodes,
        gpus_per_node: config.node.num_gpus,
        fingerprint: stream.fingerprint(),
        stages,
    };
    Ok((plan, cluster))
}

/// Replay a validated [`ClusterPlan`] on a fresh [`SimCluster`], producing
/// the full [`ClusterReport`]. Stage barriers fall exactly where the plan
/// records them.
///
/// # Errors
///
/// [`ClusterError::Plan`] when the plan does not validate against
/// `stream`/`config`; [`ClusterError::Exec`] when a node machine rejects a
/// task.
pub fn execute_cluster_plan(
    plan: &ClusterPlan,
    stream: &TensorPairStream,
    config: &ClusterConfig,
) -> Result<ClusterReport, ClusterError> {
    plan.validate_for(stream, config)?;
    let mut cluster = SimCluster::new(*config);
    for (vector, stage) in stream.vectors().iter().zip(&plan.stages) {
        for (task, a) in vector.tasks.iter().zip(stage) {
            cluster.execute(task, a.node, a.gpu)?;
        }
        cluster.barrier();
    }
    Ok(cluster.report(plan.scheduler.clone()))
}

/// Why a degraded-mode cluster repair could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterRepairError {
    /// No lost nodes were named — nothing to repair.
    NothingLost,
    /// A named node is outside the plan's grid.
    LostNodeOutOfRange {
        /// Offending node index.
        node: usize,
        /// Nodes in the plan's grid.
        nodes: usize,
    },
    /// Every node of the plan was lost.
    NoSurvivors,
}

impl fmt::Display for ClusterRepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterRepairError::NothingLost => {
                write!(f, "no lost nodes named, nothing to repair")
            }
            ClusterRepairError::LostNodeOutOfRange { node, nodes } => {
                write!(f, "lost node {node} is outside the plan's {nodes} nodes")
            }
            ClusterRepairError::NoSurvivors => {
                write!(f, "every node was lost, no survivor to repair onto")
            }
        }
    }
}

impl std::error::Error for ClusterRepairError {}

/// Degraded-mode cluster replan — the multi-node projection of
/// [`micco_core::repair_plan`]: every assignment on a node in `lost` moves
/// to the least-loaded surviving node of its stage (lowest index breaking
/// ties), keeping its intra-node device index, which stays valid because
/// `gpus_per_node` is unchanged. The repaired plan keeps the original
/// grid, fingerprint and stage structure, so it still validates against
/// the stream; the repair is recorded by appending `+repair(lost=node…)`
/// to the scheduler line, and [`ClusterPlan::node_plans`] carries the
/// marker into every node projection.
///
/// # Errors
///
/// [`ClusterRepairError::NothingLost`] for an empty `lost` list,
/// [`ClusterRepairError::LostNodeOutOfRange`] for a node outside the
/// grid, and [`ClusterRepairError::NoSurvivors`] when every node is lost.
pub fn repair_cluster_plan(
    plan: &ClusterPlan,
    lost: &[NodeId],
) -> Result<ClusterPlan, ClusterRepairError> {
    if lost.is_empty() {
        return Err(ClusterRepairError::NothingLost);
    }
    if let Some(n) = lost.iter().find(|n| n.0 >= plan.num_nodes) {
        return Err(ClusterRepairError::LostNodeOutOfRange {
            node: n.0,
            nodes: plan.num_nodes,
        });
    }
    let mut is_lost = vec![false; plan.num_nodes];
    for n in lost {
        is_lost[n.0] = true;
    }
    if is_lost.iter().all(|&l| l) {
        return Err(ClusterRepairError::NoSurvivors);
    }
    let mut repaired = plan.clone();
    for stage in &mut repaired.stages {
        let mut load = vec![0usize; plan.num_nodes];
        for a in stage.iter() {
            if !is_lost[a.node.0] {
                load[a.node.0] += 1;
            }
        }
        for a in stage.iter_mut() {
            if is_lost[a.node.0] {
                if let Some(target) = (0..plan.num_nodes)
                    .filter(|&n| !is_lost[n])
                    .min_by_key(|&n| (load[n], n))
                {
                    a.node = NodeId(target);
                    load[target] += 1;
                }
            }
        }
    }
    let named: Vec<String> = is_lost
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l)
        .map(|(n, _)| format!("node{n}"))
        .collect();
    repaired.scheduler = format!("{}+repair(lost={})", plan.scheduler, named.join(","));
    Ok(repaired)
}

/// The plan format version cluster node plans serialize with (the ordinary
/// single-node plan format).
pub const NODE_PLAN_VERSION: u32 = PLAN_VERSION;

/// Persist every node projection of `plan` into a [`DurablePlanCache`]
/// under node-qualified keys derived from `base` (node `n` persists under
/// `base.with_node("node{n}")`), so one shared store serves a whole
/// cluster without key collisions. Returns the keys, in node order.
///
/// # Errors
///
/// Propagates store write failures.
pub fn persist_node_plans(
    cache: &DurablePlanCache,
    base: PlanKey,
    plan: &ClusterPlan,
) -> Result<Vec<PlanKey>, DurableError> {
    let mut keys = Vec::with_capacity(plan.num_nodes);
    for (n, node_plan) in plan.node_plans().into_iter().enumerate() {
        let key = base.with_node(&format!("node{n}"));
        cache.persist(key, &node_plan)?;
        keys.push(key);
    }
    Ok(keys)
}

/// Load the node projections previously persisted by
/// [`persist_node_plans`] under `base`, in node order. `None` when any
/// node's plan is absent (or was rejected by the cache's byte-equality
/// verification) — a partial cluster plan is not servable.
pub fn load_node_plans(
    cache: &DurablePlanCache,
    base: PlanKey,
    num_nodes: usize,
) -> Option<Vec<SchedulePlan>> {
    let mut plans = Vec::with_capacity(num_nodes);
    for n in 0..num_nodes {
        plans.push(cache.lookup(base.with_node(&format!("node{n}")))?);
    }
    Some(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::{run_cluster_schedule, FlatClusterScheduler, HierarchicalScheduler};
    use micco_core::ReuseBounds;
    use micco_workload::WorkloadSpec;

    fn stream() -> TensorPairStream {
        // producer-consumer chains so intermediates cross stages
        let base = WorkloadSpec::new(12, 192)
            .with_repeat_rate(0.6)
            .with_vectors(3)
            .with_seed(5)
            .generate();
        let mut vectors = base.into_vectors();
        for v in 1..vectors.len() {
            let prev: Vec<_> = vectors[v - 1].tasks.iter().map(|t| t.out).collect();
            for (i, t) in vectors[v].tasks.iter_mut().enumerate() {
                if i % 2 == 0 {
                    t.a = prev[i % prev.len()];
                }
            }
        }
        TensorPairStream::new(vectors)
    }

    #[test]
    fn plan_then_execute_matches_interleaved_run() {
        let stream = stream();
        let roomy = ClusterConfig::mi100_cluster(2, 4);
        // room for four tensors per device: the planning pass evicts
        let tensor = stream.vectors()[0].tasks[0].a.bytes;
        let tight = ClusterConfig {
            node: roomy.node.with_mem_bytes(4 * tensor),
            ..roomy
        };
        for cfg in [roomy, tight] {
            for fresh in 0..2 {
                let (interleaved, planned) = if fresh == 0 {
                    (
                        run_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg)
                            .unwrap(),
                        plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg)
                            .unwrap(),
                    )
                } else {
                    let bounds = ReuseBounds::new(0, 2, 0);
                    (
                        run_cluster_schedule(
                            &mut HierarchicalScheduler::new(2, 8, bounds),
                            &stream,
                            &cfg,
                        )
                        .unwrap(),
                        plan_cluster_schedule(
                            &mut HierarchicalScheduler::new(2, 8, bounds),
                            &stream,
                            &cfg,
                        )
                        .unwrap(),
                    )
                };
                let executed = execute_cluster_plan(&planned, &stream, &cfg).unwrap();
                assert_eq!(executed.scheduler, interleaved.scheduler);
                assert_eq!(executed.elapsed_secs, interleaved.elapsed_secs);
                assert_eq!(executed.total_flops, interleaved.total_flops);
                assert_eq!(executed.inter_transfers, interleaved.inter_transfers);
                assert_eq!(executed.inter_bytes, interleaved.inter_bytes);
                assert_eq!(executed.evictions_per_node, interleaved.evictions_per_node);
                if cfg == tight {
                    assert!(
                        interleaved.evictions_per_node.iter().all(|&e| e > 0),
                        "{:?}",
                        interleaved.evictions_per_node
                    );
                }
            }
        }
    }

    #[test]
    fn node_plans_partition_the_work_and_serialize() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 4);
        let mut hier = HierarchicalScheduler::new(2, 8, ReuseBounds::new(0, 2, 0));
        let plan = plan_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
        let node_plans = plan.node_plans();
        assert_eq!(node_plans.len(), 2);
        // every task appears in exactly one node plan, stage structure kept
        let total: usize = node_plans.iter().map(|p| p.total_tasks()).sum();
        assert_eq!(total, stream.total_tasks());
        for (n, p) in node_plans.iter().enumerate() {
            assert_eq!(p.stages.len(), stream.vectors().len());
            assert_eq!(p.num_gpus, cfg.node.num_gpus);
            assert!(p.scheduler.ends_with(&format!("@node{n}")));
            // the projection round-trips through the plan text format
            let back = SchedulePlan::from_text(&p.to_text()).unwrap();
            assert_eq!(&back, p);
        }
    }

    #[test]
    fn validation_catches_drift_and_grid_mismatches() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 4);
        let plan = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        assert!(plan.validate_for(&stream, &cfg).is_ok());

        let mut vectors = stream.clone().into_vectors();
        vectors[0].tasks[0].flops += 1;
        let drifted = TensorPairStream::new(vectors);
        assert!(matches!(
            execute_cluster_plan(&plan, &drifted, &cfg),
            Err(ClusterError::Plan(
                ClusterPlanError::FingerprintMismatch { .. }
            ))
        ));

        let wrong_nodes = ClusterConfig::mi100_cluster(3, 4);
        assert!(matches!(
            plan.validate_for(&stream, &wrong_nodes),
            Err(ClusterPlanError::NodeCountMismatch {
                plan: 2,
                cluster: 3
            })
        ));
        let wrong_gpus = ClusterConfig::mi100_cluster(2, 2);
        assert!(matches!(
            plan.validate_for(&stream, &wrong_gpus),
            Err(ClusterPlanError::GpuCountMismatch {
                plan: 4,
                cluster: 2
            })
        ));

        let mut bad = plan.clone();
        bad.stages[0][0].node = NodeId(9);
        assert!(matches!(
            bad.validate(&stream),
            Err(ClusterPlanError::NodeOutOfRange { node: 9, .. })
        ));
        let mut bad = plan.clone();
        bad.stages[0][0].gpu = GpuId(17);
        assert!(matches!(
            bad.validate(&stream),
            Err(ClusterPlanError::GpuOutOfRange { gpu: 17, .. })
        ));
        let mut bad = plan.clone();
        bad.stages[0][0].task = TaskId(u64::MAX);
        // fingerprint still matches (same stream) but the task list drifted
        assert!(matches!(
            bad.validate(&stream),
            Err(ClusterPlanError::TaskMismatch {
                stage: 0,
                index: 0,
                ..
            })
        ));
        let mut bad = plan.clone();
        bad.stages.pop();
        assert!(matches!(
            bad.validate(&stream),
            Err(ClusterPlanError::StageCountMismatch { .. })
        ));
        let mut bad = plan;
        bad.stages[0].pop();
        assert!(matches!(
            bad.validate(&stream),
            Err(ClusterPlanError::StageLenMismatch { stage: 0, .. })
        ));
    }

    #[test]
    fn error_displays_are_informative() {
        let e = ClusterPlanError::NodeOutOfRange {
            task: TaskId(3),
            node: 5,
            nodes: 2,
        };
        assert!(e.to_string().contains("node 5"));
        let ce = ClusterError::from(e);
        assert!(ce.to_string().contains("invalid cluster plan"));
        let xe = ClusterError::from(ExecError::BadGpu {
            gpu: GpuId(7),
            num_gpus: 2,
        });
        assert!(xe.to_string().contains("execution failed"));
    }

    #[test]
    fn cluster_repair_moves_every_orphan_onto_survivors() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(3, 2);
        let plan = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        let repaired = repair_cluster_plan(&plan, &[NodeId(1)]).unwrap();
        repaired.validate(&stream).unwrap();
        assert_eq!(repaired.num_nodes, plan.num_nodes);
        assert_eq!(repaired.gpus_per_node, plan.gpus_per_node);
        assert_eq!(repaired.fingerprint, plan.fingerprint);
        assert!(repaired.scheduler.ends_with("+repair(lost=node1)"));
        for stage in &repaired.stages {
            for a in stage {
                assert_ne!(
                    a.node,
                    NodeId(1),
                    "task {:?} still on the lost node",
                    a.task
                );
                assert!(a.gpu.0 < repaired.gpus_per_node);
            }
        }
        // the repaired plan still executes end to end
        let report = execute_cluster_plan(&repaired, &stream, &cfg).unwrap();
        assert_eq!(
            report.evictions_per_node.len(),
            cfg.nodes,
            "per-node accounting keeps the full grid shape"
        );
        assert!(report.total_flops > 0);
    }

    #[test]
    fn cluster_repair_is_deterministic_and_balances_load() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(4, 2);
        let plan = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        let a = repair_cluster_plan(&plan, &[NodeId(0), NodeId(3)]).unwrap();
        let b = repair_cluster_plan(&plan, &[NodeId(3), NodeId(0)]).unwrap();
        assert_eq!(a, b, "repair must not depend on the lost-list order");
        assert!(a.scheduler.ends_with("+repair(lost=node0,node3)"));
        for stage in &a.stages {
            let mut load = vec![0usize; a.num_nodes];
            for asg in stage {
                load[asg.node.0] += 1;
            }
            assert_eq!(load[0], 0);
            assert_eq!(load[3], 0);
            let survivors = [load[1], load[2]];
            let (lo, hi) = (
                *survivors.iter().min().unwrap(),
                *survivors.iter().max().unwrap(),
            );
            assert!(hi - lo <= 1, "survivor loads {survivors:?} diverge");
        }
    }

    #[test]
    fn cluster_repair_marker_reaches_node_projections() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 4);
        let plan = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        let repaired = repair_cluster_plan(&plan, &[NodeId(0)]).unwrap();
        for (n, node_plan) in repaired.node_plans().into_iter().enumerate() {
            assert!(
                node_plan.scheduler.contains("+repair("),
                "node {n} projection lost the repair lineage"
            );
        }
    }

    #[test]
    fn node_plans_persist_and_reload_from_a_shared_store() {
        let dir = std::env::temp_dir().join(format!("micco-cluster-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 4);
        let plan = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        let base = PlanKey::from_raw(stream.fingerprint());
        let originals = plan.node_plans();
        {
            let cache = DurablePlanCache::open(&dir).unwrap();
            let keys = persist_node_plans(&cache, base, &plan).unwrap();
            assert_eq!(keys.len(), cfg.nodes);
            assert_eq!(keys[0], base.with_node("node0"));
            assert_ne!(keys[0], keys[1], "node keys must not collide");
        }
        // warm restart: every projection replays bit-identically
        let cache = DurablePlanCache::open(&dir).unwrap();
        let loaded = load_node_plans(&cache, base, cfg.nodes).unwrap();
        assert_eq!(loaded.len(), originals.len());
        for (l, o) in loaded.iter().zip(&originals) {
            assert_eq!(l, o);
            assert_eq!(l.to_text(), o.to_text());
        }
        assert_eq!(cache.log_hits() as usize, cfg.nodes);
        // a wider grid than was persisted is not servable
        assert!(load_node_plans(&cache, base, cfg.nodes + 1).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cluster_repair_rejects_degenerate_inputs() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 2);
        let plan = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        assert_eq!(
            repair_cluster_plan(&plan, &[]),
            Err(ClusterRepairError::NothingLost)
        );
        assert_eq!(
            repair_cluster_plan(&plan, &[NodeId(9)]),
            Err(ClusterRepairError::LostNodeOutOfRange { node: 9, nodes: 2 })
        );
        assert_eq!(
            repair_cluster_plan(&plan, &[NodeId(0), NodeId(1)]),
            Err(ClusterRepairError::NoSurvivors)
        );
        for e in [
            ClusterRepairError::NothingLost,
            ClusterRepairError::LostNodeOutOfRange { node: 9, nodes: 2 },
            ClusterRepairError::NoSurvivors,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
