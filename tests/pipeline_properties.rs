//! Property-based tests of the pipelined execution engine (proptest):
//! the dual-timeline simulator (copy/compute overlap, bounded staging
//! windows) and the work-stealing CPU executor must preserve the system's
//! core contracts over random workloads — determinism under a fixed seed,
//! exact timeline accounting, checksum invariance across execution modes.

use proptest::prelude::*;

use micco::exec::{execute_assignments, ExecOptions, TensorShape, TensorStore};
use micco::gpusim::MachineConfig;
use micco::sched::{GrouteScheduler, MiccoScheduler, ReuseBounds, Session};
use micco::workload::{RepeatDistribution, WorkloadSpec};

const SHAPE: TensorShape = TensorShape { batch: 2, dim: 8 };

fn store() -> TensorStore {
    TensorStore::new(SHAPE.batch, SHAPE.dim, 5)
}

/// Strategy: a modest random workload with real-executable tensor shapes.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        1usize..16,   // vector size (pairs per stage)
        0.0f64..=1.0, // repeat rate
        any::<bool>(),
        1usize..4, // vectors (stages)
        any::<u64>(),
    )
        .prop_map(|(vs, rate, gaussian, nv, seed)| {
            WorkloadSpec::new(vs, SHAPE.dim)
                .with_batch(SHAPE.batch)
                .with_repeat_rate(rate)
                .with_distribution(if gaussian {
                    RepeatDistribution::Gaussian
                } else {
                    RepeatDistribution::Uniform
                })
                .with_vectors(nv)
                .with_seed(seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The executor is deterministic under a fixed seed: the checksum and
    /// the assigned-count contract never vary between runs, in any mode.
    #[test]
    fn executor_is_deterministic_under_fixed_seed(
        spec in spec_strategy(), workers in 1usize..5
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(workers);
        let report = Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("fits");
        for opts in [ExecOptions::default(), ExecOptions::default().with_steal().with_prefetch()] {
            let a = execute_assignments(&stream, &report.assignments, workers, &store(), &opts)
                .expect("valid schedule");
            let b = execute_assignments(&stream, &report.assignments, workers, &store(), &opts)
                .expect("valid schedule");
            prop_assert_eq!(a.checksum, b.checksum);
            prop_assert_eq!(a.per_worker_tasks, b.per_worker_tasks);
            prop_assert_eq!(a.kernels, b.kernels);
        }
    }

    /// Overlap never changes what gets computed. For a timing-oblivious
    /// scheduler (round-robin) the placements are identical and the
    /// simulated makespan never increases; for a timing-aware scheduler
    /// (Groute watches device availability, so a different timing model can
    /// legitimately shift its online decisions) the replayed checksum is
    /// still bit-identical — the physics is invariant even when the
    /// schedule is not.
    #[test]
    fn overlap_never_changes_the_checksum(
        spec in spec_strategy(), prefetch in 0usize..4
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(3);
        let overlapped = Session::new(cfg).overlap(true).prefetch_tasks(prefetch);

        let rr_sync = Session::new(cfg)
            .run(&mut micco::sched::RoundRobinScheduler::new(), &stream)
            .expect("fits");
        let rr_over = overlapped
            .run(&mut micco::sched::RoundRobinScheduler::new(), &stream)
            .expect("fits");
        prop_assert_eq!(&rr_sync.assignments, &rr_over.assignments);
        prop_assert!(rr_over.elapsed_secs() <= rr_sync.elapsed_secs() + 1e-12);

        let g_sync = Session::new(cfg).run(&mut GrouteScheduler::new(), &stream).expect("fits");
        let g_over = overlapped
            .run(&mut GrouteScheduler::new(), &stream)
            .expect("fits");
        let exec_opts = ExecOptions::default();
        let a = execute_assignments(&stream, &g_sync.assignments, 3, &store(), &exec_opts)
            .expect("valid schedule");
        let b = execute_assignments(&stream, &g_over.assignments, 3, &store(), &exec_opts)
            .expect("valid schedule");
        prop_assert_eq!(a.checksum, b.checksum);
        prop_assert_eq!(a.kernels, b.kernels);
    }

    /// Stealing never violates stage barriers or loses work: per stage,
    /// executing the stream stage-by-stage (hard external barriers) gives
    /// the same checksum as the stealing engine's internal barriers, and
    /// executed counts always conserve the kernel total.
    #[test]
    fn stealing_respects_stage_barriers_and_conserves_work(
        spec in spec_strategy(), workers in 2usize..5
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(workers);
        let report = Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .expect("fits");
        let stolen = execute_assignments(
            &stream, &report.assignments, workers, &store(),
            &ExecOptions::default().with_steal())
            .expect("valid schedule");
        // Work conservation across the whole run.
        prop_assert_eq!(stolen.per_worker_executed.iter().sum::<usize>(), stolen.kernels);
        prop_assert_eq!(stolen.kernels, stream.total_tasks());
        // The assigned-count contract is untouched by stealing.
        let mut assigned = vec![0usize; workers];
        for a in &report.assignments { assigned[a.gpu.0] += 1; }
        prop_assert_eq!(&stolen.per_worker_tasks, &assigned);
        // Same physics as the barrier-per-stage static engine.
        let static_run = execute_assignments(
            &stream, &report.assignments, workers, &store(), &ExecOptions::default())
            .expect("valid schedule");
        prop_assert_eq!(stolen.checksum, static_run.checksum);
    }

    /// Timeline accounting is exact on random workloads: per device and
    /// per run, `compute + copy − overlap + idle == elapsed`, overlap is
    /// impossible in sync mode, and idle/overlap are never negative.
    #[test]
    fn timeline_accounting_is_exact(
        spec in spec_strategy(), overlap in any::<bool>(), prefetch in 0usize..4
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(3);
        let r = Session::new(cfg)
            .overlap(overlap)
            .prefetch_tasks(prefetch)
            .run(&mut GrouteScheduler::new(), &stream)
            .expect("fits");
        for g in &r.stats.per_gpu {
            prop_assert!(g.overlap_secs >= 0.0);
            prop_assert!(g.idle_secs >= 0.0);
            prop_assert!(g.overlap_secs <= g.memory_secs.min(g.compute_secs) + 1e-9);
            let accounted = g.occupied_secs() + g.idle_secs;
            prop_assert!(
                (accounted - r.elapsed_secs()).abs() < 1e-6,
                "device timeline must sum to the run: {} vs {}",
                accounted, r.elapsed_secs()
            );
            if !overlap {
                prop_assert!(g.overlap_secs == 0.0, "sync mode cannot overlap");
            }
        }
    }
}
