//! Property-based tests of the link-topology layer (proptest): route
//! symmetry, a triangle inequality on charged link time, bit-for-bit
//! equivalence of a single-island NVLink topology with the flat cost
//! model, and the guarantee that the `W204` cross-island lint never fires
//! on a single-island machine.

use proptest::prelude::*;

use micco::analysis::{analyze_plan_with, AnalysisConfig};
use micco::analysis::{Code, Severity};
use micco::gpusim::GpuId;
use micco::gpusim::{LinkTopology, MachineConfig, SimMachine};
use micco::sched::{execute_plan, repair_plan, repair_plan_with, SchedulePlan, Session};
use micco::sched::{
    DriverOptions, GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler, Scheduler,
};
use micco::workload::{RepeatDistribution, WorkloadSpec};

/// Strategy: a topology with 2–16 GPUs whose island size divides the GPU
/// count, an optional multi-island node tier, and randomized link tiers.
fn topology_strategy() -> impl Strategy<Value = LinkTopology> {
    (2usize..=16, any::<u8>(), 1.0f64..400.0, 0.0f64..50.0).prop_map(
        |(gpus, pick, gib_s, latency_us)| {
            let divisors: Vec<usize> = (1..=gpus).filter(|d| gpus % d == 0).collect();
            let island = divisors[pick as usize % divisors.len()];
            // node tier: a multiple of the island size that divides gpus
            let nodes: Vec<usize> = (1..=gpus)
                .filter(|d| gpus % d == 0 && d % island == 0)
                .collect();
            let node = nodes[(pick as usize / 7) % nodes.len()];
            LinkTopology::parse(&format!(
                "nvlink{{gpus:{gpus}, island:{island}, node:{node}, pcie:{gib_s}@{latency_us}}}"
            ))
            .expect("valid spec")
        },
    )
}

/// Strategy: a modest random workload.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        1usize..10,
        0.0f64..=1.0,
        any::<bool>(),
        1usize..4,
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

fn scheduler_for(which: usize) -> Box<dyn Scheduler> {
    match which % 3 {
        0 => Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
        1 => Box::new(GrouteScheduler::new()),
        _ => Box::new(RoundRobinScheduler::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Charged link time is exactly symmetric: the route from a to b and
    /// the route from b to a cost the same, bit for bit, for any byte
    /// count — including the float-non-associative multi-hop case.
    #[test]
    fn routes_charge_symmetrically(
        topo in topology_strategy(),
        bytes in 0u64..(1u64 << 34),
        a in 0usize..16,
        b in 0usize..16,
    ) {
        let n = topo.num_gpus();
        let (a, b) = (a % n, b % n);
        let ab = topo.transfer_secs(a, b, bytes);
        let ba = topo.transfer_secs(b, a, bytes);
        prop_assert_eq!(ab.to_bits(), ba.to_bits());
        if a == b {
            prop_assert_eq!(ab, 0.0);
        } else {
            prop_assert!(ab > 0.0);
        }
    }

    /// Triangle inequality on charged time: routing a→c never beats the
    /// shortest path, so going via any b costs at least as much (up to
    /// float slack from summing in different orders).
    #[test]
    fn charged_time_satisfies_the_triangle_inequality(
        topo in topology_strategy(),
        bytes in 1u64..(1u64 << 32),
        a in 0usize..16,
        b in 0usize..16,
        c in 0usize..16,
    ) {
        let n = topo.num_gpus();
        let (a, b, c) = (a % n, b % n, c % n);
        let direct = topo.transfer_secs(a, c, bytes);
        let via = topo.transfer_secs(a, b, bytes) + topo.transfer_secs(b, c, bytes);
        prop_assert!(
            direct <= via * (1.0 + 1e-12) + f64::EPSILON,
            "direct {} > via {} ({}→{}→{})", direct, via, a, b, c
        );
    }

    /// A single-island NVLink topology whose link spec equals the flat
    /// cost model's d2d parameters reproduces the seed cost model bit for
    /// bit: identical placements, identical stats, identical elapsed time.
    #[test]
    fn single_island_flat_spec_is_bit_identical_to_seed(
        spec in spec_strategy(),
        which in 0usize..3,
        gpus in 1usize..6,
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(gpus);
        let (bw, lat) = (cfg.cost.d2d_gib_s, cfg.cost.transfer_latency_us);
        let topo = LinkTopology::parse(&format!("nvlink{{gpus:{gpus}, island:{gpus}, nv:{bw}@{lat}}}"))
            .expect("valid spec");
        let opts = DriverOptions::default();
        let flat = Session::new(cfg).with_options(opts).run(&mut *scheduler_for(which), &stream);
        let routed = Session::new(cfg)
            .with_options(opts)
            .with_topology(topo)
            .run(&mut *scheduler_for(which), &stream);
        match (flat, routed) {
            (Ok(f), Ok(r)) => {
                prop_assert_eq!(f.assignments, r.assignments);
                prop_assert_eq!(f.stats, r.stats);
                prop_assert_eq!(f.elapsed_secs().to_bits(), r.elapsed_secs().to_bits());
            }
            (Err(_), Err(_)) => {}
            (f, r) => prop_assert!(false, "flat {:?} vs routed {:?} diverged", f.is_ok(), r.is_ok()),
        }
    }

    /// The W204 cross-island lint never fires on a single-island machine,
    /// whatever the scheduler, workload, or link speeds — and analyzing
    /// with the topology never perturbs the flat diagnostics.
    #[test]
    fn w204_never_fires_on_single_island_machines(
        spec in spec_strategy(),
        which in 0usize..3,
        gpus in 1usize..6,
        gib_s in 1.0f64..400.0,
        latency_us in 0.0f64..50.0,
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(gpus);
        let topo = LinkTopology::parse(&format!(
            "nvlink{{gpus:{gpus}, island:{gpus}, nv:{gib_s}@{latency_us}}}"
        ))
        .expect("valid spec");
        let session = Session::new(cfg).with_topology(topo.clone());
        let Ok(planned) = session.plan(&mut *scheduler_for(which), &stream) else {
            return Ok(());
        };
        let plan = planned.into_plan();
        let acfg = AnalysisConfig::default();
        let with_topo = analyze_plan_with(&plan, &stream, &cfg, &acfg, Some(&topo));
        prop_assert!(!with_topo.has(Code::CrossIslandTransfer), "{}", with_topo.render_text());
        let flat = analyze_plan_with(&plan, &stream, &cfg, &acfg, None);
        prop_assert_eq!(flat, with_topo);
    }

    /// Decide/execute stay bit-identical under any topology: replaying a
    /// topology-decided plan on a topology-carrying machine reproduces the
    /// planner's elapsed time exactly, and valid plans lint clean of
    /// errors under the same topology.
    #[test]
    fn topology_plans_replay_bit_identically(
        spec in spec_strategy(),
        which in 0usize..3,
        topo in topology_strategy(),
        aware in any::<bool>(),
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(topo.num_gpus());
        let mut opts = DriverOptions::default();
        if aware {
            opts = opts.with_topology_aware();
        }
        let session = Session::new(cfg).with_options(opts).with_topology(topo.clone());
        let Ok(planned) = session.plan(&mut *scheduler_for(which), &stream) else {
            return Ok(());
        };
        let plan = planned.into_plan();
        let one_shot = session.run(&mut *scheduler_for(which), &stream).expect("runs");
        let mut machine = SimMachine::new(cfg);
        machine.set_topology(Some(topo.clone()));
        let report = execute_plan(&plan, &stream, &mut machine).expect("replays");
        prop_assert_eq!(&one_shot.assignments, &report.assignments);
        prop_assert_eq!(&one_shot.stats, &report.stats);
        prop_assert_eq!(
            one_shot.elapsed_secs().to_bits(),
            report.elapsed_secs().to_bits(),
            "planned and executed timelines must agree bit-for-bit"
        );
        let acfg = AnalysisConfig::default();
        let lint = analyze_plan_with(&plan, &stream, &cfg, &acfg, Some(&topo));
        prop_assert!(!lint.denies(Severity::Error), "{}", lint.render_text());
    }
}

/// Chaos satellite: when a device is lost, topology-near repair
/// ([`repair_plan_with`]) re-places orphans onto same-island survivors, so
/// repaired plans do not regress cross-island transfer counts the way the
/// load-only repair does. Deterministic corpus (seed 0x5eed), 8 GPUs in
/// two NVLink islands, topology-aware placement.
#[test]
fn topology_near_repair_does_not_regress_cross_island_traffic() {
    let stream = WorkloadSpec::new(24, 64)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(6)
        .with_seed(0x5eed)
        .generate();
    let topo = LinkTopology::nvlink(8, 4);
    let cfg = MachineConfig::mi100_like(8);
    let opts = DriverOptions::default().with_topology_aware();
    let plan = Session::new(cfg)
        .with_options(opts)
        .with_topology(topo.clone())
        .plan(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("corpus plans cleanly")
        .into_plan();

    let cross_island = |p: &SchedulePlan| -> u64 {
        let mut machine = SimMachine::new(cfg);
        machine.set_topology(Some(topo.clone()));
        execute_plan(p, &stream, &mut machine).expect("replays");
        machine.cross_island_traffic().0
    };
    let fault_free = cross_island(&plan);

    // without a topology, the new entry point degenerates to the old one
    let lost = [GpuId(2)];
    assert_eq!(
        repair_plan_with(&plan, &lost, None).expect("survivors exist"),
        repair_plan(&plan, &lost).expect("survivors exist"),
    );

    // losing gpu 2: the topology-near repair keeps every orphan on its own
    // island and the cross-island transfer count does not regress at all
    let near = repair_plan_with(&plan, &lost, Some(&topo)).expect("survivors exist");
    near.validate(&stream)
        .expect("repair keeps the plan well-formed");
    assert_eq!(
        cross_island(&near),
        fault_free,
        "topology-near repair of gpu 2 must not add cross-island transfers"
    );

    // across every single-device loss, near repair never does worse than
    // the load-only repair, and strictly wins in aggregate
    let (mut near_total, mut naive_total) = (0u64, 0u64);
    for g in 0..8 {
        let lost = [GpuId(g)];
        let naive = cross_island(&repair_plan(&plan, &lost).expect("survivors"));
        let near = cross_island(&repair_plan_with(&plan, &lost, Some(&topo)).expect("survivors"));
        assert!(
            near <= naive,
            "losing gpu {g}: topology-near repair ({near}) beat by load-only repair ({naive})"
        );
        near_total += near;
        naive_total += naive;
    }
    assert!(
        near_total < naive_total,
        "topology-near repair must strictly reduce cross-island transfers in aggregate \
         ({near_total} vs {naive_total})"
    );
}
