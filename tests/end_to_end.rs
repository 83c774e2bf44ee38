//! End-to-end integration: Redstar front end → staging → scheduling →
//! simulated execution, and the numeric placement-invariance guarantee.

use std::sync::{Arc, Mutex};

use micco::gpusim::{ExecObserver, GpuId, MachineConfig, SimMachine};
use micco::redstar::numeric::evaluate_plans;
use micco::redstar::{al_rhopi, build_correlator, f0d2, PresetScale};
use micco::sched::driver::run_schedule_on;
use micco::sched::{
    GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler, Scheduler, Session,
};
use micco::workload::{TaskId, TensorId};

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(GrouteScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
        Box::new(MiccoScheduler::naive()),
        Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
        Box::new(MiccoScheduler::new(ReuseBounds::unbounded())),
    ]
}

#[test]
fn every_scheduler_completes_a_redstar_program() {
    let program = build_correlator(&al_rhopi(PresetScale::Ci));
    let cfg = MachineConfig::mi100_like(4);
    for mut s in schedulers() {
        let r = Session::new(cfg)
            .run(s.as_mut(), &program.stream)
            .unwrap_or_else(|e| panic!("{} failed: {e}", s.name()));
        assert_eq!(
            r.stats.total_tasks() as usize,
            program.stream.total_tasks(),
            "{}",
            s.name()
        );
        assert!(r.gflops() > 0.0, "{}", s.name());
        assert_eq!(
            r.stats.stage_makespans.len(),
            program.stream.vectors().len()
        );
    }
}

#[test]
fn numeric_result_is_placement_invariant() {
    // The correlator value comes from the plans; scheduling only decides
    // placement. Run the same program through every scheduler and verify
    // execution succeeds, then verify the numeric value is unique.
    let program = build_correlator(&al_rhopi(PresetScale::Ci));
    let cfg = MachineConfig::mi100_like(3);
    for mut s in schedulers() {
        Session::new(cfg)
            .run(s.as_mut(), &program.stream)
            .expect("fits");
    }
    let (v1, _) = evaluate_plans(&program.plans, 1234);
    let (v2, _) = evaluate_plans(&program.plans, 1234);
    assert_eq!(v1, v2);
    assert!(v1.is_finite());
}

/// Counts of the operand-sourcing and kernel hooks an attached observer saw.
#[derive(Default)]
struct Sourcing {
    h2d: usize,
    d2d: usize,
    kernels: usize,
}

struct SourcingCounter(Arc<Mutex<Sourcing>>);

impl ExecObserver for SourcingCounter {
    fn h2d(&mut self, _gpu: GpuId, _tensor: TensorId) {
        self.0.lock().expect("counter lock").h2d += 1;
    }
    fn d2d(&mut self, _src: GpuId, _dst: GpuId, _tensor: TensorId) {
        self.0.lock().expect("counter lock").d2d += 1;
    }
    fn kernel(&mut self, _gpu: GpuId, _task: TaskId) {
        self.0.lock().expect("counter lock").kernels += 1;
    }
}

#[test]
fn operand_sourcing_accounts_for_every_input() {
    // Every task has two input operands; each is either a reuse hit, an
    // h2d fetch, or a d2d copy. The observed fetches and the counted
    // reuse hits must account for all of them.
    let program = build_correlator(&al_rhopi(PresetScale::Ci));
    let cfg = MachineConfig::mi100_like(4);
    let seen = Arc::new(Mutex::new(Sourcing::default()));
    let mut machine = SimMachine::new(cfg).with_observer(Box::new(SourcingCounter(seen.clone())));
    let mut sched = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
    let report = run_schedule_on(&mut sched, &program.stream, &mut machine).expect("fits");
    let seen = seen.lock().unwrap();
    let (h2d, d2d) = (seen.h2d, seen.d2d);
    let reuse = report.stats.total_reuse_hits() as usize;
    assert_eq!(
        h2d + d2d + reuse,
        2 * program.stream.total_tasks(),
        "every operand must be sourced exactly once"
    );
    assert_eq!(h2d as u64, report.stats.total_h2d());
    assert_eq!(d2d as u64, report.stats.total_d2d());
    assert_eq!(seen.kernels, program.stream.total_tasks());
}

#[test]
fn micco_beats_groute_on_the_f0_system() {
    let program = build_correlator(&f0d2(PresetScale::Ci));
    let cfg = MachineConfig::mi100_like(8);
    let groute = Session::new(cfg)
        .run(&mut GrouteScheduler::new(), &program.stream)
        .unwrap();
    let micco = Session::new(cfg)
        .run(
            &mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)),
            &program.stream,
        )
        .unwrap();
    assert!(
        micco.elapsed_secs() <= groute.elapsed_secs() * 1.02,
        "micco {} vs groute {}",
        micco.elapsed_secs(),
        groute.elapsed_secs()
    );
    assert!(micco.stats.total_reuse_hits() >= groute.stats.total_reuse_hits());
}

#[test]
fn warm_machine_carries_residency_across_streams() {
    // Run the same stream twice on one machine: the second pass must see
    // far more reuse (tensors still resident from the first pass).
    let program = build_correlator(&al_rhopi(PresetScale::Ci));
    let cfg = MachineConfig::mi100_like(4);
    let mut machine = SimMachine::new(cfg);
    let mut sched = MiccoScheduler::new(ReuseBounds::new(2, 2, 2));
    let first = run_schedule_on(&mut sched, &program.stream, &mut machine).expect("fits");
    let h2d_first = first.stats.total_h2d();
    let second = run_schedule_on(&mut sched, &program.stream, &mut machine).expect("fits");
    let h2d_second = second.stats.total_h2d() - h2d_first;
    assert!(
        h2d_second < h2d_first / 2,
        "second pass should mostly reuse: first {h2d_first}, second {h2d_second}"
    );
}

#[test]
fn cse_savings_reported_consistently() {
    let program = build_correlator(&f0d2(PresetScale::Ci));
    assert_eq!(
        program.stream.total_tasks(),
        program.unique_steps,
        "the stream must contain exactly the deduplicated steps"
    );
    assert!(program.total_steps >= program.unique_steps);
    let expect = 1.0 - program.unique_steps as f64 / program.total_steps as f64;
    assert!((program.cse_savings() - expect).abs() < 1e-12);
}

/// Scale smoke (ignored by default; run with `cargo test -- --ignored`):
/// a 100-stage, 256-pair-per-stage stream — ~25k tasks — must schedule and
/// simulate in seconds with stable invariants.
#[test]
#[ignore = "scale smoke; ~25k tasks, run explicitly"]
fn large_stream_scales() {
    use micco::prelude::*;
    let stream = WorkloadSpec::new(256, 384)
        .with_repeat_rate(0.6)
        .with_vectors(100)
        .with_seed(99)
        .generate();
    let cfg = MachineConfig::mi100_like(8);
    let start = std::time::Instant::now();
    let r = Session::new(cfg)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("fits");
    assert_eq!(r.stats.total_tasks() as usize, stream.total_tasks());
    assert_eq!(
        r.stats.total_h2d() + r.stats.total_d2d() + r.stats.total_reuse_hits(),
        2 * stream.total_tasks() as u64
    );
    assert!(
        start.elapsed().as_secs() < 60,
        "25k tasks took {:?} — scheduler hot path regressed",
        start.elapsed()
    );
}
