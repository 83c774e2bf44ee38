//! End-to-end Redstar-style run: build the `al_rhopi` correlation function
//! from operator specs, inspect the diagram/staging statistics, schedule
//! it with MICCO on a simulated 8-GPU node, and *numerically evaluate* the
//! correlator with the real tensor kernels to show the pipeline computes an
//! actual physics number.
//!
//! Run with:
//! ```text
//! cargo run --release --example redstar_correlator
//! ```

use micco::prelude::*;
use micco::redstar::numeric::evaluate_plans;
use micco::redstar::{al_rhopi, build_correlator, PresetScale};
use micco::sched::GrouteScheduler;

fn main() {
    // Operator content of the a1 → ρπ correlator, 16 time slices, with a
    // momentum sweep — scaled-down tensors so the numeric evaluation below
    // stays quick (PresetScale::Paper uses the full 128³ tensors).
    let spec = al_rhopi(PresetScale::Ci);
    println!(
        "correlator {}: {} source op(s) × {} sink op(s), {} time slices, momenta {:?}",
        spec.name,
        spec.source.len(),
        spec.sink.len(),
        spec.time_slices,
        spec.momenta
    );

    let program = build_correlator(&spec);
    println!(
        "\nfront end: {} contraction graphs → {} steps, {} unique after CSE ({:.1}% shared)",
        program.graph_count,
        program.total_steps,
        program.unique_steps,
        program.cse_savings() * 100.0,
    );
    println!(
        "staged stream: {} stages, {} tasks, working set {:.1} MiB",
        program.stream.vectors().len(),
        program.stream.total_tasks(),
        program.working_set_bytes as f64 / (1 << 20) as f64,
    );

    // Schedule on the simulated node.
    let machine = MachineConfig::mi100_like(8);
    let groute = Session::new(machine)
        .run(&mut GrouteScheduler::new(), &program.stream)
        .expect("fits");
    let micco = Session::new(machine)
        .run(
            &mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)),
            &program.stream,
        )
        .expect("fits");
    println!(
        "\nscheduling: groute {:.0} GFLOPS | micco {:.0} GFLOPS | speedup {:.2}x",
        groute.gflops(),
        micco.gflops(),
        micco.speedup_over(&groute)
    );

    // And actually compute the correlation value (schedulers only move
    // data; the physics is placement-invariant).
    let (value, kernels) = evaluate_plans(&program.plans, 7);
    println!(
        "\nnumeric evaluation: C = {value} after {kernels} kernel evaluations \
         (memoisation saved {} of {})",
        program.total_steps - kernels,
        program.total_steps,
    );
}
