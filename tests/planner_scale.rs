//! Million-task scale smoke test (`#[ignore]`-gated; run nightly in CI or
//! locally with `cargo test --release --test planner_scale -- --ignored`).
//!
//! Plans roughly 10⁶ contraction tasks on 64 simulated GPUs under a
//! wall-clock budget, then checks the emitted plan still validates against
//! its stream and that the static analyzer replays it without errors.
//! The budget is deliberately generous (it must hold on debug builds and
//! loaded CI runners); override with `MICCO_SCALE_BUDGET_SECS`.

use std::time::Instant;

use micco::analysis::analyze_plan;
use micco::gpusim::MachineConfig;
use micco::sched::{MiccoScheduler, ReuseBounds, Session};
use micco::workload::{RepeatDistribution, WorkloadSpec};

fn budget_secs() -> u64 {
    std::env::var("MICCO_SCALE_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(600)
}

#[test]
#[ignore = "scale smoke test: ~1M tasks, run nightly or with -- --ignored"]
fn plans_a_million_tasks_on_64_gpus_within_budget() {
    // 4000 pairs per stage × 250 stages = 1,000,000 tasks.
    let spec = WorkloadSpec::new(4000, 64)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(250)
        .with_seed(0xbeef);
    let gen_start = Instant::now();
    let stream = spec.generate();
    let total = stream.total_tasks();
    assert!(total >= 1_000_000, "expected ≥1M tasks, generated {total}");
    eprintln!(
        "generated {total} tasks in {:.1}s",
        gen_start.elapsed().as_secs_f64()
    );

    let cfg = MachineConfig::mi100_like(64);
    let mut sched = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
    let plan_start = Instant::now();
    let plan = Session::new(cfg)
        .plan(&mut sched, &stream)
        .expect("million-task stream plans cleanly")
        .into_plan();
    let elapsed = plan_start.elapsed();
    let budget = budget_secs();
    eprintln!(
        "planned {total} tasks on 64 GPUs in {:.1}s ({:.0} tasks/sec, budget {budget}s)",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64()
    );
    assert!(
        elapsed.as_secs() < budget,
        "planning took {:.1}s, budget is {budget}s",
        elapsed.as_secs_f64()
    );

    assert_eq!(plan.total_tasks(), total);
    plan.validate(&stream)
        .expect("million-task plan validates against its stream");

    let report = analyze_plan(&plan, &stream, &cfg);
    assert_eq!(
        report.errors(),
        0,
        "static analysis found errors in the million-task plan: {report:?}"
    );
}
