//! Property-based tests of scheduler and simulator invariants over random
//! workloads (proptest).

use proptest::prelude::*;

use micco::gpusim::{GpuId, MachineConfig, MachineView, SimMachine};
use micco::sched::driver::run_schedule_on;
use micco::sched::{GrouteScheduler, MiccoScheduler, ReuseBounds, Scheduler, Session};
use micco::workload::{RepeatDistribution, WorkloadSpec};

/// Strategy: a modest random workload spec.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        1usize..24,    // vector size (pairs per stage)
        8usize..64,    // tensor dim
        0.0f64..=1.0,  // repeat rate
        any::<bool>(), // distribution
        1usize..5,     // vectors
        any::<u64>(),  // seed
    )
        .prop_map(|(vs, dim, rate, gaussian, nv, seed)| {
            WorkloadSpec::new(vs, dim)
                .with_repeat_rate(rate)
                .with_distribution(if gaussian {
                    RepeatDistribution::Gaussian
                } else {
                    RepeatDistribution::Uniform
                })
                .with_vectors(nv)
                .with_seed(seed)
                .with_batch(2)
        })
}

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(GrouteScheduler::new()),
        Box::new(MiccoScheduler::naive()),
        Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
        Box::new(MiccoScheduler::new(ReuseBounds::unbounded())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scheduler must assign every task to a valid device, and the
    /// stats must add up to the stream totals.
    #[test]
    fn assignments_are_valid_and_complete(spec in spec_strategy(), gpus in 1usize..6) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(gpus);
        for mut s in all_schedulers() {
            let r = Session::new(cfg).run(s.as_mut(), &stream).expect("plenty of memory");
            prop_assert_eq!(r.assignments.len(), stream.total_tasks());
            for a in &r.assignments {
                prop_assert!(a.gpu.0 < gpus, "{} assigned gpu {}", s.name(), a.gpu.0);
            }
            prop_assert_eq!(r.stats.total_tasks() as usize, stream.total_tasks());
            prop_assert_eq!(r.stats.total_flops(), stream.total_flops());
            // operand sourcing identity
            let sourced = r.stats.total_h2d() + r.stats.total_d2d() + r.stats.total_reuse_hits();
            prop_assert_eq!(sourced as usize, 2 * stream.total_tasks());
        }
    }

    /// Device memory never exceeds capacity, even under heavy pressure.
    #[test]
    fn memory_capacity_never_exceeded(spec in spec_strategy(), gpus in 1usize..4) {
        let stream = spec.generate();
        // Shrink memory to just above the largest single-task working set
        // so evictions fire constantly.
        let max_task_bytes = stream
            .vectors()
            .iter()
            .flat_map(|v| v.tasks.iter())
            .map(|t| t.a.bytes + t.b.bytes + t.out.bytes)
            .max()
            .unwrap_or(0);
        let cfg = MachineConfig::mi100_like(gpus).with_mem_bytes(max_task_bytes.max(1) * 2);
        let mut machine = SimMachine::new(cfg);
        let mut sched = MiccoScheduler::new(ReuseBounds::new(1, 1, 1));
        let result = run_schedule_on(&mut sched, &stream, &mut machine);
        prop_assert!(result.is_ok(), "two tasks' worth of memory always fits one");
        for g in 0..gpus {
            prop_assert!(machine.mem_used(GpuId(g)) <= cfg.mem_bytes);
        }
    }

    /// Simulated elapsed time equals the sum of stage makespans and is
    /// monotone in the number of vectors executed.
    #[test]
    fn elapsed_is_sum_of_stage_makespans(spec in spec_strategy()) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(3);
        let r = Session::new(cfg).run(&mut GrouteScheduler::new(), &stream).expect("fits");
        let sum: f64 = r.stats.stage_makespans.iter().sum();
        prop_assert!((r.elapsed_secs() - sum).abs() < 1e-9);
        prop_assert!(r.stats.stage_makespans.iter().all(|&m| m >= 0.0));
    }

    /// Scheduling is deterministic: same spec, same machine, same result.
    #[test]
    fn schedulers_are_deterministic(spec in spec_strategy()) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(4);
        let run_once = || {
            let mut s = MiccoScheduler::new(ReuseBounds::new(0, 2, 0)).with_seed(9);
            Session::new(cfg).run(&mut s, &stream).expect("fits").assignments
        };
        prop_assert_eq!(run_once(), run_once());
    }

    /// MICCO with any bounds never loses to round-robin by more than a
    /// small margin on reuse-free workloads (they should behave almost
    /// identically when there is nothing to reuse).
    #[test]
    fn micco_matches_balance_baselines_without_reuse(
        vs in 4usize..16, dim in 16usize..48, seed in any::<u64>()
    ) {
        let stream = WorkloadSpec::new(vs, dim)
            .with_repeat_rate(0.0)
            .with_vectors(3)
            .with_seed(seed)
            .generate();
        let cfg = MachineConfig::mi100_like(4);
        let micco = Session::new(cfg).run(&mut MiccoScheduler::naive(), &stream).expect("fits");
        let groute = Session::new(cfg).run(&mut GrouteScheduler::new(), &stream).expect("fits");
        prop_assert!(
            micco.elapsed_secs() <= groute.elapsed_secs() * 1.05,
            "micco {} vs groute {}", micco.elapsed_secs(), groute.elapsed_secs()
        );
    }

    /// The unbounded (pure data-centric) MICCO achieves at least as many
    /// reuse hits as the naive one — allowing imbalance can only help reuse.
    #[test]
    fn larger_bounds_never_reduce_reuse(spec in spec_strategy()) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(4);
        let naive = Session::new(cfg).run(&mut MiccoScheduler::naive(), &stream).expect("fits");
        let unbounded = Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::unbounded()), &stream)
            .expect("fits");
        prop_assert!(
            unbounded.stats.total_reuse_hits() + unbounded.stats.total_d2d()
                >= naive.stats.total_reuse_hits(),
            "unbounded reuse {} + d2d {} vs naive reuse {}",
            unbounded.stats.total_reuse_hits(),
            unbounded.stats.total_d2d(),
            naive.stats.total_reuse_hits()
        );
    }
}
