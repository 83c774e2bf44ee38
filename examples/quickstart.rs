//! Quickstart: schedule a synthetic many-body-correlation workload on a
//! simulated 8-GPU node with MICCO and compare against the Groute-like
//! baseline.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use micco::prelude::*;
use micco::sched::GrouteScheduler;

fn main() {
    // A stream of stage vectors: 32 tensor pairs per stage, 384×384 complex
    // matrices (batched ×4), half of the tensor references repeating data
    // seen earlier — the regime a Lattice-QCD contraction job lives in.
    let workload = WorkloadSpec::new(32, 384)
        .with_repeat_rate(0.5)
        .with_distribution(RepeatDistribution::Uniform)
        .with_vectors(8)
        .with_seed(2024)
        .generate();

    println!(
        "workload: {} stage vectors, {} contraction tasks, {:.1} GFLOP total",
        workload.vectors().len(),
        workload.total_tasks(),
        workload.total_flops() as f64 / 1e9,
    );

    // The paper's platform: eight MI100-like devices, 32 GiB each.
    let machine = MachineConfig::mi100_like(8);

    // Baseline: earliest-available-device (Groute-like).
    let groute = Session::new(machine)
        .run(&mut GrouteScheduler::new(), &workload)
        .expect("workload fits the machine");

    // MICCO with a fixed reuse-bound setting (0,2,0) — the kind of value
    // the regression model would emit for this workload.
    let micco = Session::new(machine)
        .run(
            &mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)),
            &workload,
        )
        .expect("workload fits the machine");

    println!(
        "\n{:<22} {:>10} {:>12} {:>8} {:>8} {:>10}",
        "scheduler", "GFLOPS", "elapsed", "h2d", "d2d", "reuse hits"
    );
    for r in [&groute, &micco] {
        println!(
            "{:<22} {:>10.0} {:>10.2}ms {:>8} {:>8} {:>10}",
            r.scheduler,
            r.gflops(),
            r.elapsed_secs() * 1e3,
            r.stats.total_h2d(),
            r.stats.total_d2d(),
            r.stats.total_reuse_hits(),
        );
    }
    println!(
        "\nMICCO speedup over Groute: {:.2}x (the paper reports 1.2–2.25x across configurations)",
        micco.speedup_over(&groute)
    );
}
