//! Per-node telemetry projection of a cluster run: replay a
//! [`ClusterPlan`] node by node on instrumented simulators and merge every
//! node's spans into one shared [`TraceSink`], giving a single Perfetto
//! timeline where node `n`'s devices appear as processes
//! `n × gpus_per_node …` labelled `node{n}/gpu{g}`.
//!
//! The projection shows intra-node device activity (kernels, copies,
//! evictions, D2D flows) exactly as each node's simulator times it;
//! inter-node network charges are a property of the [`crate::SimCluster`]
//! replay and are not drawn on the per-node timelines — run
//! [`crate::execute_cluster_plan`] for the network-inclusive report.

use std::sync::Arc;

use micco_analysis::{certify_placements_with, CertifyConfig, PlacedStage, Report};
use micco_gpusim::{ExecStats, SimMachine};
use micco_obs::{SpanObserver, TraceEvent, TraceSink, Track, CONTROL_PID, SECS_TO_US};
use micco_workload::TensorPairStream;

use crate::cluster::ClusterConfig;
use crate::plan::{ClusterError, ClusterPlan};

/// Replay `plan` one node at a time on fresh per-node simulators, each
/// wearing a [`SpanObserver`] with pid base `node × gpus_per_node` and
/// label prefix `node{n}/`, all writing to `sink`. Cluster-level stage and
/// run spans are emitted once on the control process, using the per-stage
/// maximum across nodes (the cluster barrier semantics).
///
/// Returns each node's [`ExecStats`], in node order — the per-node span
/// totals on the sink reconcile with these exactly.
///
/// # Errors
///
/// [`ClusterError::Plan`] when the plan does not validate against
/// `stream`/`config`; [`ClusterError::Exec`] when a node machine rejects a
/// task during the replay.
pub fn trace_cluster_plan(
    plan: &ClusterPlan,
    stream: &TensorPairStream,
    config: &ClusterConfig,
    sink: Arc<dyn TraceSink>,
) -> Result<Vec<ExecStats>, ClusterError> {
    plan.validate_for(stream, config)?;
    let mut per_node = Vec::with_capacity(plan.num_nodes);
    for n in 0..plan.num_nodes {
        let obs = SpanObserver::new(Arc::clone(&sink))
            .with_pid_base((n * plan.gpus_per_node) as u32, &format!("node{n}/"))
            .without_stage_spans();
        let mut machine = SimMachine::new(config.node).with_observer(Box::new(obs));
        for (vector, stage) in stream.vectors().iter().zip(&plan.stages) {
            for (task, a) in vector.tasks.iter().zip(stage) {
                if a.node.0 == n {
                    machine.execute(task, a.gpu)?;
                }
            }
            machine.barrier();
        }
        per_node.push(machine.stats().clone());
    }

    // Cluster stage spans: stage k runs from the slowest node's cumulative
    // end of stage k-1 to its cumulative end of stage k (nodes advance
    // their own timelines between the cluster-wide barriers).
    let stages = plan.stages.len();
    let mut cum = vec![0.0f64; plan.num_nodes];
    let mut prev_end = 0.0f64;
    for k in 0..stages {
        for (n, c) in cum.iter_mut().enumerate() {
            *c += per_node[n].stage_makespans.get(k).copied().unwrap_or(0.0);
        }
        let end = cum.iter().copied().fold(0.0, f64::max);
        sink.record(TraceEvent::Span {
            pid: CONTROL_PID,
            track: Track::Control,
            name: format!("stage {k}"),
            start_us: prev_end * SECS_TO_US,
            dur_us: (end - prev_end) * SECS_TO_US,
            args: Vec::new(),
        });
        prev_end = end;
    }
    sink.record(TraceEvent::Span {
        pid: CONTROL_PID,
        track: Track::Run,
        name: format!("cluster {}", plan.scheduler),
        start_us: 0.0,
        dur_us: prev_end * SECS_TO_US,
        args: vec![
            ("nodes".to_owned(), plan.num_nodes.to_string()),
            ("gpus_per_node".to_owned(), plan.gpus_per_node.to_string()),
            ("tasks".to_owned(), plan.total_tasks().to_string()),
        ],
    });
    Ok(per_node)
}

/// Certify a merged per-node trace (as produced by [`trace_cluster_plan`])
/// against its [`ClusterPlan`]: each node's slice of the timeline — device
/// pids `n × gpus_per_node …` — is checked as a linearization of that
/// node's projected dependence DAG via
/// [`micco_analysis::certify_placements_with`]. Findings from every node
/// are merged into one [`Report`], each tagged with a `node` payload
/// entry.
///
/// Node projections carry no reuse bounds and no link topology (inter-node
/// traffic is the simulator's concern); the happens-before checks — span
/// presence, device conformance, producer→consumer order, transfer
/// multisets, barrier overlap — all apply per node.
///
/// # Errors
///
/// [`ClusterError::Plan`] when the plan does not validate against
/// `stream`/`config`.
pub fn certify_cluster_trace(
    plan: &ClusterPlan,
    stream: &TensorPairStream,
    config: &ClusterConfig,
    events: &[TraceEvent],
) -> Result<Report, ClusterError> {
    plan.validate_for(stream, config)?;
    let mut merged = Report::new();
    for n in 0..plan.num_nodes {
        let stages: Vec<PlacedStage> = stream
            .vectors()
            .iter()
            .zip(&plan.stages)
            .map(|(vector, stage)| PlacedStage {
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
        let ccfg = CertifyConfig {
            pid_base: (n * plan.gpus_per_node) as u32,
            ..CertifyConfig::default()
        };
        let report = certify_placements_with(&stages, &config.node, &ccfg, None, events);
        for d in report.diagnostics {
            merged.push(d.with("node", n));
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::{FlatClusterScheduler, HierarchicalScheduler};
    use crate::plan::plan_cluster_schedule;
    use micco_core::ReuseBounds;
    use micco_obs::{reconcile_with_stats, Recorder};
    use micco_workload::WorkloadSpec;

    fn stream() -> TensorPairStream {
        WorkloadSpec::new(12, 128)
            .with_repeat_rate(0.6)
            .with_vectors(3)
            .with_seed(5)
            .generate()
    }

    #[test]
    fn node_projections_reconcile_and_share_one_timeline() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 2);
        let mut hier = HierarchicalScheduler::new(2, 8, ReuseBounds::new(0, 2, 0));
        let plan = plan_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
        let recorder = Recorder::shared();
        let per_node = trace_cluster_plan(&plan, &stream, &cfg, recorder.clone()).unwrap();
        assert_eq!(per_node.len(), 2);

        let events = recorder.events();
        // every node's spans reconcile with its own stats, at its pid base
        for (n, stats) in per_node.iter().enumerate() {
            reconcile_with_stats(&events, stats, (n * cfg.node.num_gpus) as u32, 1e-9)
                .unwrap_or_else(|e| panic!("node {n}: {e}"));
        }
        // processes are labelled per node
        for n in 0..2 {
            let prefix = format!("node{n}/");
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    TraceEvent::ProcessLabel { label, .. } if label.starts_with(&prefix)
                )),
                "no process label for node {n}"
            );
        }
        // one control span per stage and one run span for the cluster
        let stage_spans = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Span {
                        pid: CONTROL_PID,
                        track: Track::Control,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(stage_spans, stream.vectors().len());
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Span { pid: CONTROL_PID, track: Track::Run, name, .. }
                if name.starts_with("cluster ")
        )));
        // the merged timeline exports cleanly
        assert!(recorder.to_perfetto_json().contains("traceEvents"));
    }

    #[test]
    fn cluster_trace_certifies_clean_and_catches_mutation() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 2);
        let mut hier = HierarchicalScheduler::new(2, 8, ReuseBounds::new(0, 2, 0));
        let plan = plan_cluster_schedule(&mut hier, &stream, &cfg).unwrap();
        let recorder = Recorder::shared();
        trace_cluster_plan(&plan, &stream, &cfg, recorder.clone()).unwrap();
        let events = recorder.events();

        let report = certify_cluster_trace(&plan, &stream, &cfg, &events).unwrap();
        assert_eq!(
            report.errors() + report.warnings(),
            0,
            "clean cluster trace flagged:\n{}",
            report.render_text()
        );

        // drop one compute span from node 1's slice of the timeline
        let base = cfg.node.num_gpus as u32;
        let mut mutated = events.clone();
        let idx = mutated
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::Span { pid, track: Track::Compute, name, .. }
                        if *pid >= base && name.starts_with("task ")
                )
            })
            .expect("node 1 ran tasks");
        mutated.remove(idx);
        let report = certify_cluster_trace(&plan, &stream, &cfg, &mutated).unwrap();
        let hits = report.with_code(micco_analysis::Code::TracePlanDivergence);
        assert!(!hits.is_empty(), "{}", report.render_text());
        assert!(
            hits.iter()
                .all(|d| d.payload.iter().any(|(k, v)| k == "node" && v == "1")),
            "finding must be tagged with the offending node:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn tracing_rejects_mismatched_inputs() {
        let stream = stream();
        let cfg = ClusterConfig::mi100_cluster(2, 2);
        let plan = plan_cluster_schedule(&mut FlatClusterScheduler::new(), &stream, &cfg).unwrap();
        let other = WorkloadSpec::new(12, 128)
            .with_vectors(3)
            .with_seed(99)
            .generate();
        let recorder = Recorder::shared();
        assert!(matches!(
            trace_cluster_plan(&plan, &other, &cfg, recorder.clone()),
            Err(ClusterError::Plan(_))
        ));
        assert!(
            recorder.events().is_empty(),
            "failed validation must not emit"
        );
    }
}
