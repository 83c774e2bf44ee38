//! Mutation properties of the static plan verifier (`micco-analysis`):
//!
//! 1. **Zero false positives** — a plan decided by any of the repo's
//!    schedulers on the machine it was decided for lints clean at the
//!    warning threshold, for random workloads, device counts, and reuse
//!    bounds (the analyzer's reuse rules mirror Alg. 1's candidate
//!    construction exactly, so a faithful plan can never trip them);
//! 2. **Seeded violations are flagged with their exact code** — every
//!    class of corruption (device out of range, task drift, stage
//!    truncation, fingerprint flip, device-count drift) produces the one
//!    registry code that names it, anchored to the mutated coordinates;
//! 3. The checked-in golden fixtures lint clean, guarding the plan text
//!    format and the analyzer against silent drift.

use proptest::prelude::*;

use micco::analysis::{analyze_plan, Code, Severity};
use micco::gpusim::{GpuId, MachineConfig};
use micco::sched::{
    CodaScheduler, GrouteScheduler, MiccoScheduler, ReuseBounds, RoundRobinScheduler, SchedulePlan,
    Scheduler, Session,
};
use micco::workload::{RepeatDistribution, TaskId, WorkloadSpec};

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

/// One of the repo's schedulers, with per-case bounds for MICCO.
fn scheduler_for(which: usize, bounds: (u8, u8, u8)) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(MiccoScheduler::new(ReuseBounds::new(
            bounds.0 as usize,
            bounds.1 as usize,
            bounds.2 as usize,
        ))),
        1 => Box::new(GrouteScheduler::new()),
        2 => Box::new(CodaScheduler::new()),
        3 => Box::new(MiccoScheduler::naive()),
        _ => Box::new(RoundRobinScheduler::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No false positives: faithful plans from every scheduler lint clean
    /// at the warning threshold on the machine they were decided for.
    #[test]
    fn valid_plans_lint_clean(
        spec in spec_strategy(),
        which in 0usize..5,
        bounds in (0u8..4, 0u8..4, 0u8..4),
        gpus in 1usize..5,
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(gpus);
        let mut sched = scheduler_for(which, bounds);
        let plan = Session::new(cfg).plan(sched.as_mut(), &stream).expect("fits").into_plan();
        let report = analyze_plan(&plan, &stream, &cfg);
        prop_assert!(
            !report.denies(Severity::Warning),
            "false positive on {}: {}",
            plan.scheduler,
            report.render_text()
        );
    }

    /// Every mutation class is flagged with exactly the code that names
    /// it, at the mutated coordinates.
    #[test]
    fn seeded_violations_are_flagged_with_exact_code(
        spec in spec_strategy(),
        which in 0usize..5,
        gpus in 1usize..5,
        mutation in 0usize..5,
        pick in any::<u64>(),
    ) {
        let stream = spec.generate();
        let cfg = MachineConfig::mi100_like(gpus);
        let mut sched = scheduler_for(which, (0, 2, 0));
        let mut plan = Session::new(cfg).plan(sched.as_mut(), &stream).expect("fits").into_plan();

        let s = (pick as usize) % plan.stages.len();
        let i = (pick as usize / 7) % plan.stages[s].assignments.len();
        let expected = match mutation {
            0 => {
                plan.stages[s].assignments[i].gpu = GpuId(gpus + 1 + s);
                Code::AssignmentOutOfRange
            }
            1 => {
                plan.stages[s].assignments[i].task = TaskId(u64::MAX - 1);
                Code::PlanStructureMismatch
            }
            2 => {
                plan.stages[s].assignments.pop();
                Code::PlanStructureMismatch
            }
            3 => {
                plan.fingerprint ^= 0x5ee0_5ee0;
                Code::FingerprintMismatch
            }
            _ => {
                plan.num_gpus = gpus + 3;
                Code::DeviceCountMismatch
            }
        };

        let machine = if mutation == 4 {
            // the analyzer compares against the machine, so keep it as-is
            MachineConfig::mi100_like(gpus)
        } else {
            cfg
        };
        let report = analyze_plan(&plan, &stream, &machine);
        prop_assert!(
            report.has(expected),
            "mutation {mutation} not flagged as {expected:?}: {}",
            report.render_text()
        );
        prop_assert!(report.denies(Severity::Error));
        // point mutations are anchored to the mutated coordinates
        if mutation <= 1 {
            let d = &report.with_code(expected)[0];
            prop_assert_eq!((d.stage, d.index), (Some(s), Some(i)));
        }
    }
}

/// A working set larger than device memory is reported as `MICCO-E001`,
/// anchored to the first task the replay could not place.
#[test]
fn capacity_violation_reports_e001_at_first_task() {
    let stream = WorkloadSpec::new(4, 384)
        .with_repeat_rate(0.0)
        .with_vectors(1)
        .with_seed(3)
        .generate();
    let cfg = MachineConfig::mi100_like(2);
    let plan = Session::new(cfg)
        .plan(&mut RoundRobinScheduler::new(), &stream)
        .expect("fits")
        .into_plan();
    // shrink device memory below one task's working set for the lint pass
    let tiny = cfg.with_mem_bytes(1 << 20);
    let report = analyze_plan(&plan, &stream, &tiny);
    let hits = report.with_code(Code::CapacityExceeded);
    assert!(!hits.is_empty(), "{}", report.render_text());
    assert_eq!((hits[0].stage, hits[0].index), (Some(0), Some(0)));
    assert_eq!(hits[0].task, Some(stream.vectors[0].tasks[0].id));
    assert!(report.denies(Severity::Error));
    // both machine encodings carry the code and the coordinates
    let json = report.to_json();
    assert!(json.contains("\"code\":\"MICCO-E001\""));
    assert!(json.contains("\"stage\":0"));
    let sarif = report.to_sarif("plan.txt");
    assert!(sarif.contains("\"ruleId\":\"MICCO-E001\""));
    assert!(sarif.contains("\"startLine\":"));
}

/// Piling a whole stage of fresh pairs onto one device under naive bounds
/// violates the availability gates (`W101`) and the balance cap (`W102`).
#[test]
fn pile_up_under_naive_bounds_reports_w101_and_w102() {
    let stream = WorkloadSpec::new(8, 64)
        .with_repeat_rate(0.0)
        .with_vectors(1)
        .with_seed(11)
        .generate();
    let cfg = MachineConfig::mi100_like(2);
    let mut plan = Session::new(cfg)
        .plan(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("fits")
        .into_plan();
    for a in &mut plan.stages[0].assignments {
        a.gpu = GpuId(0);
    }
    let report = analyze_plan(&plan, &stream, &cfg);
    assert!(
        report.has(Code::ReuseBoundViolated),
        "{}",
        report.render_text()
    );
    assert!(
        report.has(Code::BalanceCapExceeded),
        "{}",
        report.render_text()
    );
    assert!(report.denies(Severity::Warning));
    assert!(!report.denies(Severity::Error), "mutation is warning-only");
}

/// The checked-in golden fixtures lint clean — the same invariant CI
/// enforces through the `micco lint` command.
#[test]
fn golden_fixtures_lint_clean() {
    let root = env!("CARGO_MANIFEST_DIR");
    let wl = std::fs::read_to_string(format!("{root}/tests/fixtures/golden_workload.txt"))
        .expect("golden workload fixture");
    let stream = micco::workload::from_text(&wl).expect("fixture parses");
    let text = std::fs::read_to_string(format!("{root}/tests/fixtures/golden_plan.txt"))
        .expect("golden plan fixture");
    let plan = SchedulePlan::from_text(&text).expect("fixture parses");
    let cfg = MachineConfig::mi100_like(plan.num_gpus);
    let report = analyze_plan(&plan, &stream, &cfg);
    assert!(report.is_clean(), "{}", report.render_text());
}
