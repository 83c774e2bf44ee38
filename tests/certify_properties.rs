//! Happens-before certifier acceptance suite (ISSUE 8).
//!
//! Golden-path matrix: traces from all four schedulers × {sim, real}
//! backends × {flat, nvlink} topologies certify clean against their
//! plans, and survive a round trip through the Perfetto JSON that
//! `micco certify` reads — as do oversubscribed and fault-injected
//! traces — with the same certification report. Mutation suite: reordering, dropping, or forging events
//! in a clean trace is detected with exactly the expected diagnostic
//! code — `MICCO-E006` for plan divergence, `MICCO-W205` for a kernel
//! overtaking its own input transfer, `MICCO-W206` for spans leaking
//! across a stage barrier — with zero false positives on the unmutated
//! originals.

use std::time::Duration;

use micco::analysis::{
    certify_trace, certify_trace_with, CertifyConfig, Code, Report, Severity, TransferStrictness,
};
use micco::exec::{ExecOptions, FaultPlan, TensorStore};
use micco::gpusim::{LinkTopology, MachineConfig};
use micco::obs::{from_perfetto_json, to_perfetto_json, FlowPoint, Recorder, TraceEvent, Track};
use micco::sched::{
    CodaScheduler, GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler, SchedulePlan,
    Scheduler, Session,
};
use micco::workload::{TensorPairStream, WorkloadSpec};

const BATCH: usize = 2;
const DIM: usize = 16;
const GPUS: usize = 4;

fn stream() -> TensorPairStream {
    WorkloadSpec::new(6, DIM)
        .with_batch(BATCH)
        .with_repeat_rate(0.7)
        .with_vectors(3)
        .with_seed(11)
        .generate()
}

fn schedulers() -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("rr", Box::new(RoundRobinScheduler::new())),
        ("groute", Box::new(GrouteScheduler::new())),
        ("coda", Box::new(CodaScheduler::new())),
        (
            "micco",
            Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
        ),
    ]
}

fn topologies() -> Vec<(&'static str, Option<LinkTopology>)> {
    vec![
        ("flat", None),
        (
            "nvlink",
            Some(LinkTopology::parse("nvlink{gpus:4, island:2}").expect("valid spec")),
        ),
    ]
}

fn plan_for(
    sched: &mut dyn Scheduler,
    stream: &TensorPairStream,
    cfg: &MachineConfig,
    topo: Option<&LinkTopology>,
) -> SchedulePlan {
    let mut session = Session::new(*cfg);
    if let Some(t) = topo {
        session = session.with_topology(t.clone());
    }
    session
        .plan(sched, stream)
        .expect("workload fits")
        .into_plan()
}

/// Replay `plan` on an instrumented simulator, optionally with routed
/// transfers, and return the recorded timeline.
fn sim_trace(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    topo: Option<&LinkTopology>,
) -> Vec<TraceEvent> {
    let mut session = Session::new(MachineConfig::mi100_like(GPUS));
    if let Some(t) = topo {
        session = session.with_topology(t.clone());
    }
    traced_replay(session, plan, stream)
}

/// Replay `plan` through `session` with a recorder attached.
fn traced_replay(
    session: Session,
    plan: &SchedulePlan,
    stream: &TensorPairStream,
) -> Vec<TraceEvent> {
    let recorder = Recorder::shared();
    session
        .trace(recorder.clone())
        .replay(plan, stream)
        .expect("replay succeeds");
    recorder.events()
}

/// Execute `plan` with real kernels on worker threads under `opts` and
/// return the wall-clock timeline.
fn real_trace(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    opts: ExecOptions,
) -> Vec<TraceEvent> {
    let recorder = Recorder::shared();
    let opts = opts.with_trace(recorder.clone());
    micco::exec::execute_plan(stream, plan, &TensorStore::new(BATCH, DIM, 11), &opts)
        .expect("execution succeeds");
    recorder.events()
}

/// `events` as a Perfetto round trip gives them back: process labels set
/// aside (the export writes one per used pid, ahead of the rest) and
/// args in key order.
fn canonical(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = events
        .iter()
        .filter(|e| !matches!(e, TraceEvent::ProcessLabel { .. }))
        .cloned()
        .collect();
    for e in &mut out {
        if let TraceEvent::Span { args, .. } | TraceEvent::Instant { args, .. } = e {
            args.sort_by(|a, b| a.0.cmp(&b.0));
        }
    }
    out
}

/// Export `events` as the trace file, read it back, and require the same
/// events and the same certification report under `ccfg`.
fn assert_round_trip(
    what: &str,
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    cfg: &MachineConfig,
    ccfg: &CertifyConfig,
    topo: Option<&LinkTopology>,
    events: &[TraceEvent],
) {
    let read = from_perfetto_json(&to_perfetto_json(events)).expect("the export reads back");
    assert_eq!(canonical(&read), canonical(events), "{what}: round trip");
    let report = |events: &[TraceEvent]| {
        certify_trace_with(plan, stream, cfg, ccfg, topo, events).render_text()
    };
    assert_eq!(report(&read), report(events), "{what}: certification");
}

/// Assert the report carries `code` and nothing else at warning severity
/// or above (collateral findings of the same code are fine — one
/// mutation can break several happens-before edges).
fn assert_only(report: &Report, code: Code, what: &str) {
    assert!(
        report.has(code),
        "{what}: expected {} but got:\n{}",
        code.id(),
        report.render_text()
    );
    for d in &report.diagnostics {
        if d.severity() >= Severity::Warning {
            assert_eq!(
                d.code,
                code,
                "{what}: collateral finding:\n{}",
                report.render_text()
            );
        }
    }
}

/// The stage each task id belongs to (stage k holds vector k's tasks).
fn stage_of(stream: &TensorPairStream, task: u64) -> Option<usize> {
    stream
        .vectors()
        .iter()
        .position(|v| v.tasks.iter().any(|t| t.id.0 == task))
}

fn task_arg(args: &[(String, String)]) -> Option<u64> {
    args.iter()
        .find(|(k, _)| k == "task")
        .and_then(|(_, v)| v.parse().ok())
}

#[test]
fn all_schedulers_backends_and_topologies_certify_clean() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(GPUS);
    for (topo_name, topo) in topologies() {
        for (sched_name, mut sched) in schedulers() {
            let plan = plan_for(sched.as_mut(), &stream, &cfg, topo.as_ref());

            // simulator traces are exact: certify under strict transfers
            let events = sim_trace(&plan, &stream, topo.as_ref());
            let ccfg = CertifyConfig {
                transfers: TransferStrictness::Strict,
                ..CertifyConfig::default()
            };
            let report = certify_trace_with(&plan, &stream, &cfg, &ccfg, topo.as_ref(), &events);
            assert!(
                report.is_clean(),
                "{sched_name}/sim/{topo_name} flagged:\n{}",
                report.render_text()
            );

            // the trace file gives the events back, and the re-imported
            // trace certifies identically
            let what = format!("{sched_name}/sim/{topo_name}");
            assert_round_trip(&what, &plan, &stream, &cfg, &ccfg, topo.as_ref(), &events);

            // real backend: wall-clock trace, no transfer flows (auto →
            // lenient); steals may occur but only yield I302 provenance
            for (steal, opts) in [
                (false, ExecOptions::default()),
                (true, ExecOptions::default().with_steal()),
            ] {
                let events = real_trace(&plan, &stream, opts);
                let report = certify_trace(&plan, &stream, &cfg, &events);
                assert_eq!(
                    report.errors() + report.warnings(),
                    0,
                    "{sched_name}/real/{topo_name} (steal={steal}) flagged:\n{}",
                    report.render_text()
                );
                let what = format!("{sched_name}/real/{topo_name} (steal={steal})");
                let auto = CertifyConfig::default();
                assert_round_trip(&what, &plan, &stream, &cfg, &auto, None, &events);
            }
        }
    }
}

/// The trace file carries what the flat matrix does not: eviction
/// instants of an oversubscribed machine, the fault and retry instants of
/// an injected fault plan on both backends, and the steal flows of a
/// faulted real run. Each reads back to its events and certifies alike.
#[test]
fn oversubscribed_and_faulted_traces_round_trip() {
    let stream = stream();
    let auto = CertifyConfig::default();

    // 2× oversubscribed: the working set is twice the machine's memory
    let tight = MachineConfig::mi100_like(GPUS).with_oversubscription(stream.unique_bytes(), 2.0);
    let plan = plan_for(&mut GrouteScheduler::new(), &stream, &tight, None);
    let events = traced_replay(Session::new(tight), &plan, &stream);
    let evictions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Instant { name, .. } if name.starts_with("evict")))
        .count();
    assert!(evictions > 0, "an oversubscribed replay evicts");
    assert_round_trip("sim/oversub", &plan, &stream, &tight, &auto, None, &events);

    // injected kernel faults and transfer timeouts, simulated and real
    let cfg = MachineConfig::mi100_like(GPUS);
    let plan = plan_for(&mut RoundRobinScheduler::new(), &stream, &cfg, None);
    let faults = FaultPlan::parse("kernel:3*2,timeout:5*1").expect("valid spec");
    let events = traced_replay(
        Session::new(cfg).with_faults(faults.clone()),
        &plan,
        &stream,
    );
    let is_fault =
        |e: &TraceEvent| matches!(e, TraceEvent::Instant { name, .. } if name.starts_with("fault"));
    assert!(
        events.iter().any(is_fault),
        "the sim trace shows the faults"
    );
    assert_round_trip("sim/faults", &plan, &stream, &cfg, &auto, None, &events);
    for steal in [false, true] {
        let mut opts = ExecOptions::default()
            .with_faults(faults.clone())
            .retry(3, Duration::ZERO);
        if steal {
            opts = opts.with_steal();
        }
        let events = real_trace(&plan, &stream, opts);
        assert!(
            events.iter().any(is_fault),
            "the real trace shows the faults"
        );
        let what = format!("real/faults (steal={steal})");
        assert_round_trip(&what, &plan, &stream, &cfg, &auto, None, &events);
    }
}

/// The mutation fixture: a round-robin plan on the flat 4-GPU machine
/// (round-robin guarantees every device holds work in every stage, which
/// the barrier-overlap mutation relies on).
fn fixture() -> (
    SchedulePlan,
    TensorPairStream,
    MachineConfig,
    Vec<TraceEvent>,
) {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(GPUS);
    let plan = plan_for(&mut RoundRobinScheduler::new(), &stream, &cfg, None);
    let events = sim_trace(&plan, &stream, None);
    (plan, stream, cfg, events)
}

fn certify_strict(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    cfg: &MachineConfig,
    events: &[TraceEvent],
) -> Report {
    let ccfg = CertifyConfig {
        transfers: TransferStrictness::Strict,
        ..CertifyConfig::default()
    };
    certify_trace_with(plan, stream, cfg, &ccfg, None, events)
}

#[test]
fn unmutated_fixture_has_zero_diagnostics() {
    let (plan, stream, cfg, events) = fixture();
    let report = certify_strict(&plan, &stream, &cfg, &events);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn dropping_a_compute_span_is_e006() {
    let (plan, stream, cfg, mut events) = fixture();
    let idx = events
        .iter()
        .position(|e| {
            matches!(e, TraceEvent::Span { track: Track::Compute, name, .. }
                if name.starts_with("task "))
        })
        .expect("fixture has compute spans");
    events.remove(idx);
    assert_only(
        &certify_strict(&plan, &stream, &cfg, &events),
        Code::TracePlanDivergence,
        "dropped compute span",
    );
}

#[test]
fn forging_a_compute_span_is_e006() {
    let (plan, stream, cfg, mut events) = fixture();
    events.push(TraceEvent::Span {
        pid: 0,
        track: Track::Compute,
        name: "task 424242".to_owned(),
        start_us: 1e9,
        dur_us: 1.0,
        args: Vec::new(),
    });
    assert_only(
        &certify_strict(&plan, &stream, &cfg, &events),
        Code::TracePlanDivergence,
        "forged compute span",
    );
}

#[test]
fn duplicating_a_compute_span_is_e006() {
    let (plan, stream, cfg, mut events) = fixture();
    let dup = events
        .iter()
        .find(|e| {
            matches!(e, TraceEvent::Span { track: Track::Compute, name, .. }
                if name.starts_with("task "))
        })
        .expect("fixture has compute spans")
        .clone();
    events.push(dup);
    assert_only(
        &certify_strict(&plan, &stream, &cfg, &events),
        Code::TracePlanDivergence,
        "duplicated compute span",
    );
}

#[test]
fn moving_a_compute_span_off_its_device_is_e006() {
    let (plan, stream, cfg, mut events) = fixture();
    let ev = events
        .iter_mut()
        .find(|e| {
            matches!(e, TraceEvent::Span { track: Track::Compute, name, .. }
                if name.starts_with("task "))
        })
        .expect("fixture has compute spans");
    if let TraceEvent::Span { pid, .. } = ev {
        *pid = (*pid + 1) % GPUS as u32;
    }
    assert_only(
        &certify_strict(&plan, &stream, &cfg, &events),
        Code::TracePlanDivergence,
        "compute span on unplanned device",
    );
}

#[test]
fn forging_a_transfer_flow_is_e006() {
    let (plan, stream, cfg, mut events) = fixture();
    events.push(TraceEvent::Flow {
        id: u64::MAX,
        name: "d2d t424242".to_owned(),
        from: FlowPoint {
            pid: 1,
            track: Track::Copy,
            ts_us: 1.0,
        },
        to: FlowPoint {
            pid: 0,
            track: Track::Copy,
            ts_us: 2.0,
        },
    });
    assert_only(
        &certify_strict(&plan, &stream, &cfg, &events),
        Code::TracePlanDivergence,
        "forged d2d flow",
    );
}

#[test]
fn dropping_a_planned_transfer_is_e006_under_strict() {
    let (plan, stream, cfg, mut events) = fixture();
    let idx = events
        .iter()
        .position(|e| matches!(e, TraceEvent::Flow { name, .. } if name.starts_with("d2d t")))
        .expect("fixture plan moves at least one tensor between devices");
    events.remove(idx);
    assert_only(
        &certify_strict(&plan, &stream, &cfg, &events),
        Code::TracePlanDivergence,
        "dropped d2d flow",
    );
}

#[test]
fn reordering_a_kernel_before_its_transfer_is_w205() {
    let (plan, stream, cfg, mut events) = fixture();
    // find an annotated input-transfer span whose consumer is the first
    // kernel on its device, so pulling the kernel's start back under the
    // copy cannot collide with an earlier kernel (which would be E006)
    let mut target: Option<(u64, u32, f64)> = None;
    'outer: for e in &events {
        let TraceEvent::Span {
            pid,
            track: Track::Copy,
            start_us,
            args,
            ..
        } = e
        else {
            continue;
        };
        let Some(task) = task_arg(args) else { continue };
        let first_on_device = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span {
                    pid: p,
                    track: Track::Compute,
                    name,
                    start_us,
                    ..
                } if p == pid && name.starts_with("task ") => Some((name.clone(), *start_us)),
                _ => None,
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(name, _)| name == format!("task {task}"))
            .unwrap_or(false);
        if first_on_device {
            target = Some((task, *pid, *start_us));
            break 'outer;
        }
    }
    let (task, gpu, copy_start) = target.expect("a first kernel with a timed input transfer");
    let name = format!("task {task}");
    for e in &mut events {
        if let TraceEvent::Span {
            pid,
            track: Track::Compute,
            name: n,
            start_us,
            dur_us,
            ..
        } = e
        {
            if *pid == gpu && *n == name {
                let end = *start_us + *dur_us;
                *start_us = copy_start;
                *dur_us = end - copy_start;
            }
        }
    }
    assert_only(
        &certify_strict(&plan, &stream, &cfg, &events),
        Code::UnorderedConflictingAccess,
        "kernel reordered before its transfer",
    );
}

#[test]
fn leaking_a_span_across_the_stage_barrier_is_w206() {
    let (plan, stream, cfg, mut events) = fixture();
    // move a later-stage input transfer back to t=0: it now overlaps the
    // device's stage-0 window without touching any compute-serialism or
    // transfer-ordering evidence
    let moved = events.iter_mut().find_map(|e| {
        let TraceEvent::Span {
            track: Track::Copy,
            start_us,
            args,
            ..
        } = e
        else {
            return None;
        };
        let task = task_arg(args)?;
        if stage_of(&stream, task)? >= 1 {
            *start_us = 0.0;
            return Some(task);
        }
        None
    });
    assert!(moved.is_some(), "a later-stage task pays a timed transfer");
    assert_only(
        &certify_strict(&plan, &stream, &cfg, &events),
        Code::BarrierOverlap,
        "transfer leaked across the stage barrier",
    );
}
