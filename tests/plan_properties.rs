//! Property-based tests of the `SchedulePlan` text format (proptest):
//! for random workloads, any scheduler, and any device count, a decided
//! plan must survive `to_text` → `from_text` exactly (including the
//! bit-exact overhead float and per-stage bounds), still validate against
//! its workload, and reject a workload it was not decided for.

use proptest::prelude::*;

use micco::gpusim::MachineConfig;
use micco::sched::{
    CodaScheduler, DriverOptions, GrouteScheduler, MiccoScheduler, ReuseBounds,
    RoundRobinScheduler, SchedulePlan, Scheduler, Session,
};
use micco::workload::{RepeatDistribution, WorkloadSpec};

/// Strategy: a modest random workload.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        1usize..12,   // vector size (pairs per stage)
        0.0f64..=1.0, // repeat rate
        any::<bool>(),
        1usize..4, // vectors (stages)
        any::<u64>(),
    )
        .prop_map(|(vs, rate, gaussian, nv, seed)| {
            WorkloadSpec::new(vs, 64)
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

/// One of the four schedulers, with per-case bounds for MICCO.
fn scheduler_for(which: usize, bounds: (u8, u8, u8)) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(MiccoScheduler::new(ReuseBounds::new(
            bounds.0 as usize,
            bounds.1 as usize,
            bounds.2 as usize,
        ))),
        1 => Box::new(GrouteScheduler::new()),
        2 => Box::new(CodaScheduler::new()),
        _ => Box::new(RoundRobinScheduler::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The text format is lossless for every scheduler and device count.
    #[test]
    fn plan_text_round_trips_exactly(
        spec in spec_strategy(),
        which in 0usize..4,
        bounds in (0u8..4, 0u8..4, 0u8..4),
        gpus in 1usize..5,
        measure in any::<bool>(),
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(gpus);
        let mut sched = scheduler_for(which, bounds);
        let opts = if measure {
            DriverOptions::default().with_measure_overhead()
        } else {
            DriverOptions::default()
        };
        let plan = Session::new(cfg)
            .with_options(opts)
            .plan(&mut *sched, &stream)
            .expect("fits")
            .into_plan();

        let text = plan.to_text();
        let restored = SchedulePlan::from_text(&text).expect("own output must parse");
        // Exact equality covers scheduler name, device count, fingerprint,
        // the bit-exact overhead float, per-stage bounds, and assignments.
        prop_assert_eq!(&restored, &plan);
        // A second round trip is a fixed point.
        prop_assert_eq!(restored.to_text(), text);
        // The restored plan still validates against its workload.
        prop_assert!(restored.validate(&stream).is_ok());
    }

    /// A plan never validates against a workload with a different
    /// fingerprint — replaying on the wrong stream is a typed error.
    #[test]
    fn plan_rejects_a_different_workload(
        spec in spec_strategy(), seed in any::<u64>(),
    ) {
        let stream = spec.clone().generate();
        let other = spec.with_seed(seed).generate();
        prop_assume!(stream.fingerprint() != other.fingerprint());
        let cfg = MachineConfig::mi100_like(2);
        let plan = Session::new(cfg).plan(&mut RoundRobinScheduler::new(), &stream).expect("fits")
            .into_plan();
        prop_assert!(plan.validate(&other).is_err());
    }
}
