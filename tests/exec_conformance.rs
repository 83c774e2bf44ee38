//! Sim-vs-real conformance: the CPU execution engine, replaying a
//! `ScheduleReport`'s placement decisions with real kernels, must agree
//! with the simulated machine on every observable the two share — kernel
//! counts, per-worker task totals — and must produce the same correlator
//! checksum no matter which scheduler placed the work, whether the
//! simulator ran with copy/compute overlap, or whether the executor stole
//! work between workers.

use micco::exec::{execute_assignments, ExecOptions, TensorShape, TensorStore};
use micco::gpusim::MachineConfig;
use micco::sched::{
    GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler, ScheduleReport, Scheduler,
    Session,
};
use micco::workload::{TensorPairStream, WorkloadSpec};

const WORKERS: usize = 3;
const SHAPE: TensorShape = TensorShape { batch: 2, dim: 12 };

fn stream() -> TensorPairStream {
    WorkloadSpec::new(18, SHAPE.dim)
        .with_batch(SHAPE.batch)
        .with_repeat_rate(0.6)
        .with_vectors(4)
        .with_seed(23)
        .generate()
}

fn store() -> TensorStore {
    TensorStore::new(SHAPE.batch, SHAPE.dim, 23)
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobinScheduler::new()),
        Box::new(GrouteScheduler::new()),
        Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
    ]
}

/// Per-worker assigned-task counts derived straight from the report — the
/// contract `ExecOutcome::per_worker_tasks` must honour.
fn assigned_counts(report: &ScheduleReport, workers: usize) -> Vec<usize> {
    let mut counts = vec![0usize; workers];
    for a in &report.assignments {
        counts[a.gpu.0] += 1;
    }
    counts
}

#[test]
fn real_execution_matches_simulated_kernel_and_worker_counts() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(WORKERS);
    for mut s in schedulers() {
        let report = Session::new(cfg)
            .run(s.as_mut(), &stream)
            .expect("workload fits");
        let out = execute_assignments(
            &stream,
            &report.assignments,
            WORKERS,
            &store(),
            &ExecOptions::default(),
        )
        .expect("valid");

        // Kernel counts: real engine, simulator, and stream all agree.
        assert_eq!(out.kernels, stream.total_tasks());
        assert_eq!(out.kernels as u64, report.stats.total_tasks());
        assert_eq!(report.assignments.len(), out.kernels);

        // Per-worker totals: engine == assignments == simulator's per-GPU.
        let expected = assigned_counts(&report, WORKERS);
        assert_eq!(out.per_worker_tasks, expected, "{}", s.name());
        let sim_counts: Vec<usize> = report
            .stats
            .per_gpu
            .iter()
            .map(|g| g.tasks as usize)
            .collect();
        assert_eq!(out.per_worker_tasks, sim_counts, "{}", s.name());
    }
}

#[test]
fn checksum_is_independent_of_the_scheduler() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(WORKERS);
    let mut checksums = Vec::new();
    for mut s in schedulers() {
        let report = Session::new(cfg)
            .run(s.as_mut(), &stream)
            .expect("workload fits");
        checksums.push((
            s.name(),
            execute_assignments(
                &stream,
                &report.assignments,
                WORKERS,
                &store(),
                &ExecOptions::default(),
            )
            .expect("valid")
            .checksum,
        ));
    }
    for (name, c) in &checksums[1..] {
        assert_eq!(
            *c, checksums[0].1,
            "{name} diverged from {}",
            checksums[0].0
        );
    }
}

#[test]
fn overlap_changes_timing_only_never_placements_or_physics() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(WORKERS);
    let sync = Session::new(cfg)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("workload fits");
    let overlapped = Session::new(cfg)
        .overlap(true)
        .prefetch_tasks(2)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("workload fits");

    // Overlap is a timing-model switch: identical placement decisions.
    assert_eq!(sync.assignments, overlapped.assignments);
    assert!(overlapped.elapsed_secs() <= sync.elapsed_secs());

    // So the real engine replays both to the same outcome, bit for bit.
    let opts = ExecOptions::default();
    let a =
        execute_assignments(&stream, &sync.assignments, WORKERS, &store(), &opts).expect("valid");
    let b = execute_assignments(&stream, &overlapped.assignments, WORKERS, &store(), &opts)
        .expect("valid");
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.per_worker_tasks, b.per_worker_tasks);
}

#[test]
fn stealing_keeps_the_conformance_contract_intact() {
    let stream = stream();
    let cfg = MachineConfig::mi100_like(WORKERS);
    let report = Session::new(cfg)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("workload fits");
    let expected = assigned_counts(&report, WORKERS);

    let baseline = execute_assignments(
        &stream,
        &report.assignments,
        WORKERS,
        &store(),
        &ExecOptions::default(),
    )
    .expect("valid");
    for opts in [
        ExecOptions::default().with_steal(),
        ExecOptions::default().with_prefetch(),
        ExecOptions::default().with_steal().with_prefetch(),
    ] {
        let out = execute_assignments(&stream, &report.assignments, WORKERS, &store(), &opts)
            .expect("valid");
        // Assigned counts report the *schedule*, not who ran what…
        assert_eq!(out.per_worker_tasks, expected, "{opts:?}");
        // …executed counts report reality, and conserve work.
        assert_eq!(
            out.per_worker_executed.iter().sum::<usize>(),
            out.kernels,
            "{opts:?}"
        );
        assert_eq!(out.kernels, baseline.kernels, "{opts:?}");
        // Physics is invariant to who ran what.
        assert_eq!(out.checksum, baseline.checksum, "{opts:?}");
    }
}

#[test]
fn conformance_holds_across_worker_counts() {
    let stream = stream();
    let mut checksums = Vec::new();
    for workers in [1usize, 2, 4, 6] {
        let cfg = MachineConfig::mi100_like(workers);
        let report = Session::new(cfg)
            .run(&mut GrouteScheduler::new(), &stream)
            .expect("fits");
        let out = execute_assignments(
            &stream,
            &report.assignments,
            workers,
            &store(),
            &ExecOptions::default().with_steal(),
        )
        .expect("valid");
        assert_eq!(out.per_worker_tasks, assigned_counts(&report, workers));
        assert_eq!(out.kernels, stream.total_tasks());
        checksums.push(out.checksum);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "checksum must not depend on the machine width: {checksums:?}"
    );
}
