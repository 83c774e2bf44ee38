//! Chaos suite for the fault-tolerant execution path (proptest): random
//! deterministic [`FaultPlan`]s — transient kernel faults, transfer
//! timeouts, transient and permanent device losses — thrown at schedules
//! from every scheduler must never corrupt the correlator. As long as at
//! least one GPU survives, the run completes with the fault-free checksum,
//! and the whole recovery (retries, steals, drained queues) is bit-for-bit
//! deterministic given `(seed, FaultPlan)`. Degraded-mode plan repair is
//! held to the same bar: repaired plans still validate and lint with no
//! errors, carrying exactly the `MICCO-W203 degraded-placement` warning.

use std::time::Duration;

use proptest::prelude::*;

use micco::analysis::{analyze_plan, certify_trace, Code};
use micco::exec::{execute_assignments, ExecOptions, FaultPlan, TensorShape, TensorStore};
use micco::gpusim::{GpuId, MachineConfig};
use micco::obs::Recorder;
use micco::sched::{
    repair_plan, CodaScheduler, GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler,
    Scheduler, Session,
};
use micco::workload::{TensorPairStream, WorkloadSpec};

const SHAPE: TensorShape = TensorShape { batch: 2, dim: 8 };

fn scheduler(which: usize) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(RoundRobinScheduler::new()),
        1 => Box::new(GrouteScheduler::new()),
        2 => Box::new(CodaScheduler::new()),
        _ => Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
    }
}

fn stream(seed: u64) -> TensorPairStream {
    WorkloadSpec::new(10, SHAPE.dim)
        .with_batch(SHAPE.batch)
        .with_repeat_rate(0.6)
        .with_vectors(3)
        .with_seed(seed)
        .generate()
}

fn store(seed: u64) -> TensorStore {
    TensorStore::new(SHAPE.batch, SHAPE.dim, seed)
}

/// A retry budget that covers every transient fault `FaultPlan::random`
/// can mint (at most 2 kernel failures per task), with no backoff sleep so
/// the suite stays fast.
fn chaos_opts() -> ExecOptions {
    ExecOptions::default().retry(3, Duration::ZERO)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline guarantee: ANY random fault sequence that leaves at
    /// least one GPU alive completes with the same checksum as the
    /// fault-free run, for every scheduler.
    #[test]
    fn any_fault_sequence_with_survivors_preserves_the_checksum(
        wl_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        workers in 2usize..5,
        which in 0usize..4,
    ) {
        let stream = stream(wl_seed);
        let cfg = MachineConfig::mi100_like(workers);
        let mut sched = scheduler(which);
        let report = Session::new(cfg).run(sched.as_mut(), &stream).expect("fits");

        let clean = execute_assignments(
            &stream, &report.assignments, workers, &store(wl_seed), &ExecOptions::default(),
        ).expect("fault-free run");

        // `random` caps permanent losses at workers-1, so a survivor is
        // guaranteed; transient faults stay within the retry budget.
        let faults = FaultPlan::random(
            fault_seed, workers, stream.vectors().len(), stream.total_tasks() as u64,
        );
        let chaotic = execute_assignments(
            &stream, &report.assignments, workers, &store(wl_seed),
            &chaos_opts().with_faults(faults.clone()),
        ).expect("recovers with >=1 survivor");

        prop_assert_eq!(chaotic.checksum, clean.checksum,
            "faults changed the correlator ({} injected)", faults.fault_count());
        prop_assert_eq!(chaotic.kernels, clean.kernels);
        // `lost_workers` counts every loss (transient or permanent) that
        // fires within the run's stages
        let expected_losses = (0..workers)
            .filter(|&w| faults.loss_of(w).is_some_and(|(s, _)| s < stream.vectors().len()))
            .count();
        prop_assert_eq!(chaotic.lost_workers, expected_losses, "losses must be accounted");
    }

    /// Recovery itself is deterministic: the same `(seed, FaultPlan)` pair
    /// reproduces the result and every fault counter bit-for-bit. (Which
    /// survivor executes a drained task is thread-timing-dependent, so
    /// per-worker executed totals are exempt — the checksum is
    /// order-independent by construction.)
    #[test]
    fn recovery_is_bit_for_bit_deterministic(
        wl_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        workers in 2usize..4,
    ) {
        let stream = stream(wl_seed);
        let cfg = MachineConfig::mi100_like(workers);
        let report = Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("fits");
        let faults = FaultPlan::random(
            fault_seed, workers, stream.vectors().len(), stream.total_tasks() as u64,
        );
        let opts = chaos_opts().with_faults(faults.clone());
        let a = execute_assignments(
            &stream, &report.assignments, workers, &store(wl_seed), &opts,
        ).expect("recovers");
        let b = execute_assignments(
            &stream, &report.assignments, workers, &store(wl_seed), &opts,
        ).expect("recovers");
        prop_assert_eq!(a.checksum, b.checksum);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.retries, b.retries);
        prop_assert_eq!(a.lost_workers, b.lost_workers);
        prop_assert_eq!(a.per_worker_tasks, b.per_worker_tasks);
    }

    /// Degraded-mode repair: losing any proper subset of devices yields a
    /// plan that still validates against the stream and lints with zero
    /// errors — flagged with exactly the W203 degraded-placement warning.
    #[test]
    fn repaired_plans_validate_and_lint_without_errors(
        wl_seed in any::<u64>(),
        loss_mask in 1u8..7,
        which in 0usize..4,
    ) {
        let stream = stream(wl_seed);
        let gpus = 3usize;
        let cfg = MachineConfig::mi100_like(gpus);
        let mut sched = scheduler(which);
        let plan = Session::new(cfg).plan(sched.as_mut(), &stream).expect("fits").into_plan();
        // any non-empty proper subset of {0, 1, 2}
        let lost: Vec<GpuId> = (0..gpus).filter(|g| loss_mask & (1 << g) != 0)
            .map(GpuId).collect();
        prop_assume!(lost.len() < gpus);

        let repaired = repair_plan(&plan, &lost).expect("survivors exist");
        repaired.validate(&stream).expect("repair keeps the plan well-formed");
        for stage in &repaired.stages {
            for a in &stage.assignments {
                prop_assert!(!lost.contains(&a.gpu), "orphan left on a lost device");
            }
        }
        let lint = analyze_plan(&repaired, &stream, &cfg);
        prop_assert_eq!(lint.errors(), 0, "repair introduced lint errors");
        prop_assert!(lint.has(Code::DegradedPlacement), "repaired plan must carry W203");

        // the repaired plan also *executes* on the survivors, and its
        // trace certifies as a linearization of the repaired plan
        let recorder = Recorder::shared();
        let opts = ExecOptions::default().with_trace(recorder.clone());
        micco::exec::execute_plan(&stream, &repaired, &store(wl_seed), &opts)
            .expect("repaired plan executes");
        let report = certify_trace(&repaired, &stream, &cfg, &recorder.events());
        prop_assert_eq!(
            report.errors() + report.warnings(), 0,
            "repaired-plan trace flagged:\n{}", report.render_text()
        );
    }

    /// Happens-before under chaos: ANY fault-injected run that leaves a
    /// survivor emits a trace the certifier proves is a linearization of
    /// the plan it executed — retries, drained queues, and steals must
    /// show up as explained provenance (I302), never as divergence.
    #[test]
    fn chaotic_traces_certify_clean_against_their_plan(
        wl_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        workers in 2usize..4,
        which in 0usize..4,
    ) {
        let stream = stream(wl_seed);
        let cfg = MachineConfig::mi100_like(workers);
        let mut sched = scheduler(which);
        let plan = Session::new(cfg).plan(sched.as_mut(), &stream).expect("fits").into_plan();
        let faults = FaultPlan::random(
            fault_seed, workers, stream.vectors().len(), stream.total_tasks() as u64,
        );
        let recorder = Recorder::shared();
        let opts = chaos_opts().with_faults(faults).with_trace(recorder.clone());
        let out = micco::exec::execute_plan(&stream, &plan, &store(wl_seed), &opts)
            .expect("recovers with >=1 survivor");
        let report = certify_trace(&plan, &stream, &cfg, &recorder.events());
        prop_assert_eq!(
            report.errors() + report.warnings(), 0,
            "chaotic trace flagged:\n{}", report.render_text()
        );
        if out.steals > 0 {
            prop_assert!(
                report.has(Code::StealProvenance),
                "{} steal(s) left no provenance", out.steals
            );
        }
    }
}

/// The ISSUE's concrete acceptance case, pinned outside proptest: a
/// permanent single-GPU loss mid-run on a 3-worker machine finishes with
/// the fault-free checksum, twice over.
#[test]
fn permanent_single_gpu_loss_is_recovered_exactly() {
    let stream = stream(77);
    let workers = 3;
    let cfg = MachineConfig::mi100_like(workers);
    let report = Session::new(cfg)
        .run(&mut GrouteScheduler::new(), &stream)
        .expect("fits");
    let clean = execute_assignments(
        &stream,
        &report.assignments,
        workers,
        &store(77),
        &ExecOptions::default(),
    )
    .expect("fault-free run");
    let faults = FaultPlan::none().with_device_loss(1, 1, true);
    let opts = chaos_opts().with_faults(faults);
    for _ in 0..2 {
        let out = execute_assignments(&stream, &report.assignments, workers, &store(77), &opts)
            .expect("two survivors drain the dead queue");
        assert_eq!(out.checksum, clean.checksum);
        assert_eq!(out.lost_workers, 1);
    }
}
