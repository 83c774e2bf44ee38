//! The happens-before certifier: prove an executed trace is a
//! linearization of its plan.
//!
//! [`crate::analyze_plan`] checks a plan *before* execution; this module
//! closes the loop *after*: it derives a dependence DAG from the plan by
//! symbolic replay through the same [`micco_gpusim::SimMachine`]
//! transition function the schedulers decide against (producer→consumer
//! edges for every fetch, WAR edges from evictions, stage-barrier edges,
//! and routed hop ordering under a [`LinkTopology`]), ingests an executed
//! `micco-obs` event stream into a typed order, and checks that every
//! observed event respects the DAG. A buggy executor — or a racy steal
//! path — cannot produce a clean certificate.
//!
//! Violations surface as stable diagnostics through the ordinary
//! [`Report`] pipeline:
//!
//! * `MICCO-E006 trace-plan-divergence` — missing/duplicated/forged
//!   compute spans, a task on a device the plan (or a recorded steal)
//!   does not explain, transfers the replay never issued, planned
//!   transfers missing under strict mode, a consumer starting before its
//!   producer finished, overlapping kernels on one device, or broken hop
//!   ordering on a routed transfer;
//! * `MICCO-W205 unordered-conflicting-access` — a task's compute span
//!   starts before its own input-transfer span ends;
//! * `MICCO-W206 barrier-overlap` — spans from different stages overlap
//!   on one device, i.e. work leaked across a barrier;
//! * `MICCO-I302 steal-provenance` — informational chain of custody for
//!   every task that ran off its planned device via a recorded steal.
//!
//! Checks are *evidence-based*: they only fire on events present in the
//! trace, so the same certifier accepts simulator traces (timed spans,
//! D2D flow arrows, link lanes) and real-backend traces (wall-clock
//! spans, steal arrows, no transfer flows) without false positives.

use std::collections::{BTreeMap, HashMap};

use micco_core::SchedulePlan;
use micco_gpusim::{ExecObserver, GpuId, LinkTopology, MachineConfig};
use micco_obs::{TraceEvent, Track};
use micco_workload::{TensorId, TensorPairStream};

use crate::diag::{Code, Diagnostic, Report};
use crate::engine::{placed_stages, PlacedStage};

/// How the certifier treats planned D2D transfers that never appear in
/// the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferStrictness {
    /// Strict when the trace contains at least one D2D flow arrow (a
    /// simulator trace), lenient otherwise (the real backend records no
    /// transfer flows).
    #[default]
    Auto,
    /// Every planned transfer must appear — a missing one is `E006`.
    Strict,
    /// Missing transfers are never reported; observed ones are still
    /// checked against the replay.
    Lenient,
}

/// Tunables of the certification pass.
#[derive(Debug, Clone, Copy)]
pub struct CertifyConfig {
    /// Slop (µs) tolerated on every timestamp comparison. Simulator
    /// traces are exact; wall-clock traces need a hair of float slack.
    pub eps_us: f64,
    /// Missing-transfer policy (see [`TransferStrictness`]).
    pub transfers: TransferStrictness,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        CertifyConfig {
            eps_us: 1e-3,
            transfers: TransferStrictness::Auto,
        }
    }
}

/// One task node of the dependence DAG.
#[derive(Debug, Clone, Copy)]
struct TaskNode {
    stage: usize,
    index: usize,
    gpu: usize,
    flops: u64,
    operands: [u64; 2],
}

/// The dependence DAG derived from a plan by symbolic replay: task nodes,
/// producer→consumer edges, and the transfers the replay performed.
/// [`certify_placements`] checks a trace against it.
struct PlanDag {
    tasks: BTreeMap<u64, TaskNode>,
    /// Device-to-device transfers as `(src, dst, tensor)`, in replay order.
    transfers: Vec<(usize, usize, u64)>,
    /// tensor → producers as `(task, stage)`, in replay order.
    producers: HashMap<u64, Vec<(u64, usize)>>,
    num_gpus: usize,
}

impl PlanDag {
    /// The most recent producer of `tensor` in a stage before `stage`.
    fn producer_before(&self, tensor: u64, stage: usize) -> Option<u64> {
        self.producers
            .get(&tensor)?
            .iter()
            .filter(|&&(_, s)| s < stage)
            .max_by_key(|&&(_, s)| s)
            .map(|&(t, _)| t)
    }
}

/// Replay observer recording the peer copies the DAG needs (evictions
/// are read from the replay's statistics).
#[derive(Default)]
struct DagCollector {
    d2d: Vec<(usize, usize, u64)>,
}

impl ExecObserver for DagCollector {
    fn d2d(&mut self, src: GpuId, dst: GpuId, tensor: TensorId, _bytes: u64) {
        self.d2d.push((src.0, dst.0, tensor.0));
    }
}

/// Derive the dependence DAG for `stages` by replaying them through a
/// fresh [`micco_gpusim::SimMachine`] built from `cfg` — the same
/// transition function the schedulers decided against, so the transfers
/// recorded here are exactly the ones a faithful execution must perform.
/// A `topology` for `cfg`'s device count routes the replay's transfers.
fn plan_dag(
    stages: &[PlacedStage],
    cfg: &MachineConfig,
    topology: Option<&LinkTopology>,
) -> PlanDag {
    let mut dag = PlanDag {
        tasks: BTreeMap::new(),
        transfers: Vec::new(),
        producers: HashMap::new(),
        num_gpus: cfg.num_gpus,
    };

    let mut machine = crate::engine::replay_machine(stages, cfg);
    if let Some(t) = topology.filter(|t| t.num_gpus() == cfg.num_gpus) {
        machine.set_topology(Some(t.clone()));
    }

    for (s, stage) in stages.iter().enumerate() {
        for (i, (task, gpu)) in stage.placements.iter().enumerate() {
            dag.tasks.insert(
                task.id.0,
                TaskNode {
                    stage: s,
                    index: i,
                    gpu: gpu.0,
                    flops: task.flops,
                    operands: [task.a.id.0, task.b.id.0],
                },
            );
            let mut collector = DagCollector::default();
            // An unexecutable placement is the static verifier's E001; the
            // DAG keeps what was staged and moves on.
            let _ = machine.execute_observed(task, *gpu, &mut collector);
            dag.transfers.extend(collector.d2d);
            dag.producers
                .entry(task.out.id.0)
                .or_default()
                .push((task.id.0, s));
        }
        machine.barrier();
    }
    dag
}

/// One timed span lifted out of the trace.
#[derive(Debug, Clone, Copy)]
struct TSpan {
    gpu: usize,
    start: f64,
    end: f64,
}

/// The trace projected onto the certifier's typed event order.
#[derive(Default)]
struct TraceView {
    /// task → compute spans observed for it.
    compute: BTreeMap<u64, Vec<TSpan>>,
    /// `(task, span)` for every input-transfer span annotated with its
    /// owning task.
    copies: Vec<(u64, TSpan)>,
    /// Observed D2D flows as `(flow id, src, dst, tensor)`.
    flows: Vec<(u64, usize, usize, u64)>,
    /// task → recorded steals as `(victim, thief)`, in record order.
    steals: BTreeMap<u64, Vec<(usize, usize)>>,
    /// flow id → link-lane hop spans annotated with that flow.
    link_hops: HashMap<u64, Vec<(f64, f64)>>,
}

fn arg<'a>(args: &'a [(String, String)], key: &str) -> Option<&'a str> {
    args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn ingest(events: &[TraceEvent], num_gpus: usize) -> TraceView {
    let mut view = TraceView::default();
    let in_range = |pid: u32| (pid as usize) < num_gpus;
    for e in events {
        match e {
            TraceEvent::Span {
                pid,
                track,
                name,
                start_us,
                dur_us,
                args,
            } => {
                if *track == Track::Link {
                    if let Some(id) = arg(args, "flow").and_then(|v| v.parse::<u64>().ok()) {
                        view.link_hops
                            .entry(id)
                            .or_default()
                            .push((*start_us, *start_us + *dur_us));
                    }
                    continue;
                }
                if !in_range(*pid) {
                    continue;
                }
                let span = TSpan {
                    gpu: *pid as usize,
                    start: *start_us,
                    end: *start_us + *dur_us,
                };
                match track {
                    Track::Compute => {
                        if let Some(task) = name.strip_prefix("task ").and_then(|t| t.parse().ok())
                        {
                            view.compute.entry(task).or_default().push(span);
                        }
                    }
                    Track::Copy => {
                        if let Some(task) = arg(args, "task").and_then(|v| v.parse().ok()) {
                            view.copies.push((task, span));
                        }
                    }
                    _ => {}
                }
            }
            TraceEvent::Flow { id, name, from, to } => {
                if !in_range(from.pid) || !in_range(to.pid) {
                    continue;
                }
                let (src, dst) = (from.pid as usize, to.pid as usize);
                if let Some(tensor) = name.strip_prefix("d2d t").and_then(|t| t.parse().ok()) {
                    view.flows.push((*id, src, dst, tensor));
                } else if let Some(task) = name
                    .strip_prefix("steal task ")
                    .and_then(|t| t.parse().ok())
                {
                    view.steals.entry(task).or_default().push((src, dst));
                }
            }
            TraceEvent::Instant { .. } | TraceEvent::ProcessLabel { .. } => {}
        }
    }
    view
}

fn divergence(msg: String) -> Diagnostic {
    Diagnostic::new(Code::TracePlanDivergence, msg)
}

/// Certify `events` against the dependence DAG of placements that passed
/// the structural gate — the linearization check behind
/// [`certify_trace_with`].
fn certify_placements(
    stages: &[PlacedStage],
    cfg: &MachineConfig,
    ccfg: &CertifyConfig,
    topology: Option<&LinkTopology>,
    events: &[TraceEvent],
) -> Report {
    let mut report = Report::new();
    let dag = plan_dag(stages, cfg, topology);
    let view = ingest(events, dag.num_gpus);
    let eps = ccfg.eps_us;

    // I302: chain of custody for every recorded steal.
    for (&task, chain) in &view.steals {
        let planned = dag.tasks.get(&task).map(|n| n.gpu);
        for &(victim, thief) in chain {
            let mut d = Diagnostic::new(
                Code::StealProvenance,
                format!("task {task} stolen from device {victim} and run by device {thief}"),
            )
            .for_task(micco_workload::TaskId(task))
            .on_gpu(GpuId(thief))
            .with("victim", victim)
            .with("thief", thief);
            if let Some(node) = dag.tasks.get(&task) {
                d = d.at(node.stage, node.index).with("planned", node.gpu);
            }
            report.push(d);
        }
        // The chain must start where the plan put the task.
        if let (Some(planned), Some(&(first_victim, _))) = (planned, chain.first()) {
            if first_victim != planned {
                report.push(
                    divergence(format!(
                        "task {task} recorded as stolen from device {first_victim} but the plan placed it on device {planned}"
                    ))
                    .for_task(micco_workload::TaskId(task))
                    .with("victim", first_victim)
                    .with("planned", planned),
                );
            }
        }
    }

    // Per-task compute-span conformance.
    for (&task, node) in &dag.tasks {
        let spans = view.compute.get(&task).map(Vec::as_slice).unwrap_or(&[]);
        if spans.is_empty() {
            if node.flops > 0 {
                report.push(
                    divergence(format!(
                        "task {task} (stage {}, device {}) has no compute span in the trace",
                        node.stage, node.gpu
                    ))
                    .at(node.stage, node.index)
                    .for_task(micco_workload::TaskId(task))
                    .on_gpu(GpuId(node.gpu)),
                );
            }
            continue;
        }
        if spans.len() > 1 {
            report.push(
                divergence(format!(
                    "task {task} has {} compute spans in the trace (expected one)",
                    spans.len()
                ))
                .at(node.stage, node.index)
                .for_task(micco_workload::TaskId(task))
                .with("spans", spans.len()),
            );
        }
        let expected = view
            .steals
            .get(&task)
            .and_then(|chain| chain.last())
            .map_or(node.gpu, |&(_, thief)| thief);
        for s in spans {
            if s.gpu != expected {
                report.push(
                    divergence(format!(
                        "task {task} ran on device {} but the plan{} places it on device {expected}",
                        s.gpu,
                        if expected == node.gpu {
                            ""
                        } else {
                            " (after its recorded steal)"
                        }
                    ))
                    .at(node.stage, node.index)
                    .for_task(micco_workload::TaskId(task))
                    .on_gpu(GpuId(s.gpu))
                    .with("expected", expected)
                    .with("observed", s.gpu),
                );
            }
        }
    }

    // Forged compute spans: tasks the plan never scheduled.
    for (&task, spans) in &view.compute {
        if !dag.tasks.contains_key(&task) {
            report.push(
                divergence(format!(
                    "trace contains a compute span for task {task}, which the plan never schedules"
                ))
                .for_task(micco_workload::TaskId(task))
                .on_gpu(GpuId(spans[0].gpu)),
            );
        }
    }

    // Producer→consumer edges (cross-stage; intra-stage device clocks are
    // not causally comparable in the simulator's timing model).
    for (&task, node) in &dag.tasks {
        let Some(consumer) = view.compute.get(&task) else {
            continue;
        };
        let c_start = consumer.iter().fold(f64::INFINITY, |m, s| m.min(s.start));
        for &operand in &node.operands {
            let Some(producer) = dag.producer_before(operand, node.stage) else {
                continue;
            };
            let Some(p_spans) = view.compute.get(&producer) else {
                continue;
            };
            let p_end = p_spans.iter().fold(f64::NEG_INFINITY, |m, s| m.max(s.end));
            if c_start < p_end - eps {
                report.push(
                    divergence(format!(
                        "task {task} starts at {c_start:.3} µs, before task {producer} (producer of its operand tensor {operand}) finishes at {p_end:.3} µs"
                    ))
                    .at(node.stage, node.index)
                    .for_task(micco_workload::TaskId(task))
                    .with("producer", producer)
                    .with("tensor", operand)
                    .with("consumer_start_us", format!("{c_start}"))
                    .with("producer_end_us", format!("{p_end}")),
                );
            }
        }
    }

    // Device serialism (the trace-level face of the WAR edges): a device
    // runs one kernel at a time, so its compute spans must not overlap.
    let mut per_gpu: BTreeMap<usize, Vec<(f64, f64, u64)>> = BTreeMap::new();
    for (&task, spans) in &view.compute {
        if !dag.tasks.contains_key(&task) {
            continue;
        }
        for s in spans {
            per_gpu
                .entry(s.gpu)
                .or_default()
                .push((s.start, s.end, task));
        }
    }
    for (gpu, spans) in &mut per_gpu {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        for w in spans.windows(2) {
            let (prev, next) = (w[0], w[1]);
            if next.0 < prev.1 - eps {
                report.push(
                    divergence(format!(
                        "tasks {} and {} overlap on device {gpu} ([{:.3}, {:.3}] vs [{:.3}, {:.3}] µs) — a device runs one kernel at a time",
                        prev.2, next.2, prev.0, prev.1, next.0, next.1
                    ))
                    .for_task(micco_workload::TaskId(next.2))
                    .on_gpu(GpuId(*gpu))
                    .with("other", prev.2),
                );
            }
        }
    }

    // Transfer conformance: observed flows must be explained by the
    // replay; under strict mode, the replay's transfers must all appear.
    let strict = match ccfg.transfers {
        TransferStrictness::Strict => true,
        TransferStrictness::Lenient => false,
        TransferStrictness::Auto => !view.flows.is_empty(),
    };
    let mut planned: HashMap<(usize, usize, u64), usize> = HashMap::new();
    for &t in &dag.transfers {
        *planned.entry(t).or_default() += 1;
    }
    for &(_, src, dst, tensor) in &view.flows {
        match planned.get_mut(&(src, dst, tensor)) {
            Some(n) if *n > 0 => *n -= 1,
            _ => report.push(
                divergence(format!(
                    "trace records a d2d transfer of tensor {tensor} from device {src} to device {dst} that the plan replay never issues"
                ))
                .on_gpu(GpuId(dst))
                .with("tensor", tensor)
                .with("src", src)
                .with("dst", dst),
            ),
        }
    }
    if strict {
        let mut missing: Vec<_> = planned.iter().filter(|(_, &n)| n > 0).collect();
        missing.sort();
        for (&(src, dst, tensor), &n) in missing {
            report.push(
                divergence(format!(
                    "plan replay issues {n} d2d transfer(s) of tensor {tensor} from device {src} to device {dst} that the trace does not record"
                ))
                .on_gpu(GpuId(dst))
                .with("tensor", tensor)
                .with("src", src)
                .with("dst", dst)
                .with("missing", n),
            );
        }
    }

    // Routed hop ordering: hop spans carrying a flow id must be
    // sequential and match the route length of their transfer.
    if let Some(topo) = topology.filter(|t| t.num_gpus() == dag.num_gpus) {
        for &(id, src, dst, _tensor) in &view.flows {
            let Some(hops) = view.link_hops.get(&id) else {
                continue;
            };
            let route_len = topo.route(src, dst).len();
            if hops.len() != route_len {
                report.push(
                    divergence(format!(
                        "transfer flow {id} from device {src} to device {dst} shows {} hop span(s) but the topology routes it over {route_len} link(s)",
                        hops.len()
                    ))
                    .on_gpu(GpuId(dst))
                    .with("flow", id)
                    .with("hops", hops.len())
                    .with("route", route_len),
                );
            }
            let mut sorted = hops.clone();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in sorted.windows(2) {
                if w[1].0 < w[0].1 - eps {
                    report.push(
                        divergence(format!(
                            "transfer flow {id} hops overlap ([{:.3}, {:.3}] vs [{:.3}, {:.3}] µs) — a routed transfer occupies its links in path order",
                            w[0].0, w[0].1, w[1].0, w[1].1
                        ))
                        .on_gpu(GpuId(dst))
                        .with("flow", id),
                    );
                }
            }
        }
    }

    // W205: a task's compute must not start before its own input
    // transfer completes.
    for (task, copy) in &view.copies {
        let Some(node) = dag.tasks.get(task) else {
            continue;
        };
        let Some(spans) = view.compute.get(task) else {
            continue;
        };
        let c_start = spans.iter().fold(f64::INFINITY, |m, s| m.min(s.start));
        if c_start < copy.end - eps {
            report.push(
                Diagnostic::new(
                    Code::UnorderedConflictingAccess,
                    format!(
                        "task {task} compute starts at {c_start:.3} µs, before its input transfer ends at {:.3} µs",
                        copy.end
                    ),
                )
                .at(node.stage, node.index)
                .for_task(micco_workload::TaskId(*task))
                .on_gpu(GpuId(copy.gpu))
                .with("compute_start_us", format!("{c_start}"))
                .with("copy_end_us", format!("{}", copy.end)),
            );
        }
    }

    // W206: spans from different stages must not overlap on one device —
    // the barrier between stages is a happens-before edge.
    let mut stage_windows: BTreeMap<usize, BTreeMap<usize, (f64, f64)>> = BTreeMap::new();
    let mut widen = |gpu: usize, stage: usize, start: f64, end: f64| {
        let w = stage_windows
            .entry(gpu)
            .or_default()
            .entry(stage)
            .or_insert((f64::INFINITY, f64::NEG_INFINITY));
        w.0 = w.0.min(start);
        w.1 = w.1.max(end);
    };
    for (&task, spans) in &view.compute {
        if let Some(node) = dag.tasks.get(&task) {
            for s in spans {
                widen(s.gpu, node.stage, s.start, s.end);
            }
        }
    }
    for (task, copy) in &view.copies {
        if let Some(node) = dag.tasks.get(task) {
            widen(copy.gpu, node.stage, copy.start, copy.end);
        }
    }
    for (gpu, windows) in &stage_windows {
        let stages_present: Vec<_> = windows.iter().collect();
        for i in 0..stages_present.len() {
            for j in (i + 1)..stages_present.len() {
                let (&s1, &(_, end1)) = stages_present[i];
                let (&s2, &(start2, _)) = stages_present[j];
                if start2 < end1 - eps {
                    report.push(
                        Diagnostic::new(
                            Code::BarrierOverlap,
                            format!(
                                "device {gpu}: stage {s2} work starts at {start2:.3} µs, before stage {s1} work ends at {end1:.3} µs"
                            ),
                        )
                        .at_stage(s2)
                        .on_gpu(GpuId(*gpu))
                        .with("earlier_stage", s1)
                        .with("earlier_end_us", format!("{end1}"))
                        .with("later_start_us", format!("{start2}")),
                    );
                }
            }
        }
    }

    report
}

/// Certify an executed trace against a [`SchedulePlan`] with default
/// [`CertifyConfig`] and no topology.
pub fn certify_trace(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    cfg: &MachineConfig,
    events: &[TraceEvent],
) -> Report {
    certify_trace_with(plan, stream, cfg, &CertifyConfig::default(), None, events)
}

/// [`certify_trace`] with explicit tunables and an optional topology.
///
/// Runs the structural gate [`crate::analyze_plan`] runs first
/// (`E004` fingerprint, `E003` stage/task alignment, `E002` devices
/// outside the plan's geometry) — a trace cannot be certified against a
/// plan that does not describe the stream — then derives the DAG and
/// checks the linearization. Like the static verifier, the semantic pass
/// uses the plan's device geometry when it disagrees with the machine's.
pub fn certify_trace_with(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    cfg: &MachineConfig,
    ccfg: &CertifyConfig,
    topology: Option<&LinkTopology>,
    events: &[TraceEvent],
) -> Report {
    let mut report = Report::new();
    let Ok(stages) = placed_stages(plan, stream, &mut report) else {
        return report;
    };
    let mut machine_cfg = *cfg;
    machine_cfg.num_gpus = plan.num_gpus;
    report.extend(certify_placements(
        &stages,
        &machine_cfg,
        ccfg,
        topology,
        events,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use micco_core::{MiccoScheduler, RoundRobinScheduler, Session};
    use micco_gpusim::SimMachine;
    use micco_obs::{Recorder, SpanObserver};
    use micco_workload::WorkloadSpec;
    use std::sync::Arc;

    fn stream(seed: u64) -> TensorPairStream {
        WorkloadSpec::new(12, 64)
            .with_repeat_rate(0.6)
            .with_vectors(3)
            .with_seed(seed)
            .generate()
    }

    /// Execute a plan on the simulator with telemetry attached, exactly
    /// as a `Session` run would.
    fn run_sim(
        plan: &SchedulePlan,
        stream: &TensorPairStream,
        cfg: &MachineConfig,
        topology: Option<&LinkTopology>,
    ) -> Vec<TraceEvent> {
        let recorder = Recorder::shared();
        let obs = SpanObserver::new(recorder.clone() as Arc<_>);
        let mut machine = SimMachine::new(*cfg).with_observer(Box::new(obs));
        if let Some(t) = topology {
            machine.set_topology(Some(t.clone()));
        }
        for (stage, vector) in plan.stages.iter().zip(stream.vectors()) {
            for (a, t) in stage.assignments.iter().zip(&vector.tasks) {
                machine.execute(t, a.gpu).expect("placement executes");
            }
            machine.barrier();
        }
        recorder.events()
    }

    #[test]
    fn clean_sim_run_certifies_clean() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(3);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let events = run_sim(&plan, &stream, &cfg, None);
        let ccfg = CertifyConfig {
            transfers: TransferStrictness::Strict,
            ..CertifyConfig::default()
        };
        let r = certify_trace_with(&plan, &stream, &cfg, &ccfg, None, &events);
        assert!(
            r.errors() == 0 && r.warnings() == 0,
            "clean run flagged:\n{}",
            r.render_text()
        );
    }

    #[test]
    fn topology_run_certifies_hops_clean() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(4);
        let topo = LinkTopology::nvlink(4, 2);
        let plan = Session::new(cfg)
            .plan(
                &mut MiccoScheduler::new(micco_core::ReuseBounds::new(0, 2, 0)),
                &stream,
            )
            .unwrap()
            .into_plan();
        let events = run_sim(&plan, &stream, &cfg, Some(&topo));
        let ccfg = CertifyConfig {
            transfers: TransferStrictness::Strict,
            ..CertifyConfig::default()
        };
        let r = certify_trace_with(&plan, &stream, &cfg, &ccfg, Some(&topo), &events);
        assert!(
            r.errors() == 0 && r.warnings() == 0,
            "topology run flagged:\n{}",
            r.render_text()
        );
        // the trace really exercised the hop check
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Span {
                track: Track::Link,
                ..
            }
        )));
    }

    #[test]
    fn out_of_range_device_is_e002_not_a_divergence() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(2);
        let mut plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let events = run_sim(&plan, &stream, &cfg, None);
        plan.stages[1].assignments[0].gpu = GpuId(7);
        let r = certify_trace(&plan, &stream, &cfg, &events);
        let hits = r.with_code(Code::AssignmentOutOfRange);
        assert_eq!(hits.len(), 1, "{}", r.render_text());
        assert_eq!((hits[0].stage, hits[0].index), (Some(1), Some(0)));
        assert_eq!(hits[0].gpu, Some(GpuId(7)));
        assert!(!r.has(Code::TracePlanDivergence), "{}", r.render_text());
    }

    #[test]
    fn every_misaligned_task_is_e003() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(2);
        let mut plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        plan.stages[0].assignments[0].task = micco_workload::TaskId(u64::MAX);
        plan.stages[2].assignments[1].task = micco_workload::TaskId(u64::MAX - 1);
        let r = certify_trace(&plan, &stream, &cfg, &[]);
        let hits = r.with_code(Code::PlanStructureMismatch);
        let at: Vec<_> = hits.iter().map(|d| (d.stage, d.index)).collect();
        assert_eq!(at, [(Some(0), Some(0)), (Some(2), Some(1))]);
        assert!(!r.has(Code::TracePlanDivergence));
    }

    #[test]
    fn dropped_compute_span_is_e006() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(3);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let mut events = run_sim(&plan, &stream, &cfg, None);
        let idx = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Span { track: Track::Compute, name, .. } if name.starts_with("task ")))
            .expect("has compute spans");
        events.remove(idx);
        let r = certify_trace(&plan, &stream, &cfg, &events);
        assert!(r.has(Code::TracePlanDivergence), "{}", r.render_text());
    }

    #[test]
    fn forged_compute_span_is_e006() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(3);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let mut events = run_sim(&plan, &stream, &cfg, None);
        events.push(TraceEvent::Span {
            pid: 0,
            track: Track::Compute,
            name: "task 99999".into(),
            start_us: 1e9,
            dur_us: 5.0,
            args: Vec::new(),
        });
        let r = certify_trace(&plan, &stream, &cfg, &events);
        let hits = r.with_code(Code::TracePlanDivergence);
        assert!(
            hits.iter().any(|d| d.message.contains("never schedules")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn reordered_compute_span_is_flagged() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(3);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let mut events = run_sim(&plan, &stream, &cfg, None);
        // Drag a late compute span back to time zero: it now overlaps
        // earlier work on its device and leaks across stage barriers.
        let last = events
            .iter()
            .rposition(|e| matches!(e, TraceEvent::Span { track: Track::Compute, name, .. } if name.starts_with("task ")))
            .expect("has compute spans");
        if let TraceEvent::Span { start_us, .. } = &mut events[last] {
            *start_us = 0.0;
        }
        let r = certify_trace(&plan, &stream, &cfg, &events);
        assert!(
            r.has(Code::TracePlanDivergence) || r.has(Code::BarrierOverlap),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn early_compute_before_copy_is_w205() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(3);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let mut events = run_sim(&plan, &stream, &cfg, None);
        // Find an annotated copy span and pull its task's compute start
        // into the middle of the transfer.
        let mut target = None;
        for e in &events {
            if let TraceEvent::Span {
                track: Track::Copy,
                args,
                start_us,
                dur_us,
                ..
            } = e
            {
                if *dur_us > 0.0 {
                    if let Some(t) = arg(args, "task").and_then(|v| v.parse::<u64>().ok()) {
                        target = Some((t, *start_us + *dur_us / 2.0));
                        break;
                    }
                }
            }
        }
        let (task, mid) = target.expect("annotated copy span exists");
        for e in &mut events {
            if let TraceEvent::Span {
                track: Track::Compute,
                name,
                start_us,
                ..
            } = e
            {
                if *name == format!("task {task}") {
                    *start_us = mid - 1e-6;
                }
            }
        }
        let r = certify_trace(&plan, &stream, &cfg, &events);
        assert!(
            r.has(Code::UnorderedConflictingAccess),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn forged_transfer_and_missing_transfer_are_e006() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(3);
        let plan = Session::new(cfg)
            .plan(
                &mut MiccoScheduler::new(micco_core::ReuseBounds::new(0, 2, 0)),
                &stream,
            )
            .unwrap()
            .into_plan();
        let events = run_sim(&plan, &stream, &cfg, None);
        let flow_at = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Flow { name, .. } if name.starts_with("d2d ")))
            .expect("reuse-heavy plan produces d2d flows");

        let mut dropped = events.clone();
        dropped.remove(flow_at);
        let r = certify_trace(&plan, &stream, &cfg, &dropped);
        assert!(
            r.with_code(Code::TracePlanDivergence)
                .iter()
                .any(|d| d.message.contains("does not record")),
            "{}",
            r.render_text()
        );

        let mut forged = events.clone();
        forged.push(TraceEvent::Flow {
            id: 0xdead_beef,
            name: "d2d t424242".into(),
            from: micco_obs::FlowPoint {
                pid: 0,
                track: Track::Copy,
                ts_us: 1.0,
            },
            to: micco_obs::FlowPoint {
                pid: 1,
                track: Track::Copy,
                ts_us: 1.0,
            },
        });
        let r = certify_trace(&plan, &stream, &cfg, &forged);
        assert!(
            r.with_code(Code::TracePlanDivergence)
                .iter()
                .any(|d| d.message.contains("never issues")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn steal_flow_yields_provenance_and_explains_device() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(2);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let mut events = run_sim(&plan, &stream, &cfg, None);
        // Move one task's compute span to the other device, with and
        // without a steal flow explaining the move.
        let (task, victim) = {
            let first = events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::Span {
                        track: Track::Compute,
                        name,
                        pid,
                        ..
                    } => name
                        .strip_prefix("task ")
                        .and_then(|t| t.parse::<u64>().ok())
                        .map(|t| (t, *pid)),
                    _ => None,
                })
                .expect("has compute spans");
            first
        };
        let thief = 1 - victim;
        for e in &mut events {
            if let TraceEvent::Span {
                track: Track::Compute,
                name,
                pid,
                ..
            } = e
            {
                if *name == format!("task {task}") {
                    *pid = thief;
                }
            }
        }
        // Unexplained: E006.
        let r = certify_trace(&plan, &stream, &cfg, &events);
        assert!(r.has(Code::TracePlanDivergence), "{}", r.render_text());
        // Explained by a steal flow: I302, no divergence for this task.
        events.push(TraceEvent::Flow {
            id: 12345,
            name: format!("steal task {task}"),
            from: micco_obs::FlowPoint {
                pid: victim,
                track: Track::Compute,
                ts_us: 0.0,
            },
            to: micco_obs::FlowPoint {
                pid: thief,
                track: Track::Compute,
                ts_us: 0.0,
            },
        });
        let r = certify_trace(&plan, &stream, &cfg, &events);
        assert!(r.has(Code::StealProvenance), "{}", r.render_text());
        assert!(
            !r.with_code(Code::TracePlanDivergence)
                .iter()
                .any(|d| d.task == Some(micco_workload::TaskId(task))
                    && d.message.contains("ran on device")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn fingerprint_gate_blocks_certification() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(2);
        let mut plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        plan.fingerprint ^= 1;
        let r = certify_trace(&plan, &stream, &cfg, &[]);
        assert!(r.has(Code::FingerprintMismatch));
        assert!(!r.has(Code::TracePlanDivergence));
    }

    #[test]
    fn empty_trace_on_lenient_config_reports_missing_compute_only() {
        let stream = stream(7);
        let cfg = MachineConfig::mi100_like(2);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        let r = certify_trace(&plan, &stream, &cfg, &[]);
        let total: usize = stream.vectors().iter().map(|v| v.tasks.len()).sum();
        assert_eq!(r.with_code(Code::TracePlanDivergence).len(), total);
    }
}
