//! Train the reuse-bound regression model end-to-end and use it for
//! per-vector adaptive scheduling (the paper's MICCO-optimal), comparing
//! against MICCO-naive and a hand-picked fixed setting.
//!
//! Run with:
//! ```text
//! cargo run --release --example autotuned_bounds
//! ```

use micco::prelude::*;
use micco::sched::model::RegressionBounds;
use micco::sched::tuner::{build_training_set, TrainingConfig};

fn main() {
    let machine = MachineConfig::mi100_like(8);

    // Offline phase: label sampled workloads by sweeping reuse bounds on
    // the simulator (the paper labels 300 samples; 40 keeps this example
    // fast), then train the random forests.
    let tc = TrainingConfig {
        samples: 40,
        seed: 99,
        ..TrainingConfig::default()
    };
    println!("labelling {} training samples by bound sweeps…", tc.samples);
    let samples = build_training_set(&tc, &machine);
    let model = RegressionBounds::train(&samples, 99);

    // Peek at what the model learned: predicted bounds across the
    // repeated-rate axis for a vector-64 workload.
    println!("\npredicted bounds vs repeated rate (vector 64, tensor 384, uniform):");
    for rate in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let c = micco::workload::DataCharacteristics {
            vector_size: 64,
            tensor_bytes: (4 * 384 * 384 * 16) as f64,
            repeated_rate: rate,
            distribution_bias: 0.1,
        };
        println!("  rate {rate:.1} → bounds {}", model.predict(&c));
    }

    // Online phase: per-vector adaptive bounds vs static settings.
    println!("\nGFLOPS on held-out workloads:");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "workload", "MICCO-naive", "fixed (0,2,0)", "regression"
    );
    for (rate, dist) in [
        (0.25, RepeatDistribution::Uniform),
        (0.75, RepeatDistribution::Uniform),
        (0.75, RepeatDistribution::Gaussian),
        (1.0, RepeatDistribution::Gaussian),
    ] {
        let stream = WorkloadSpec::new(64, 384)
            .with_repeat_rate(rate)
            .with_distribution(dist)
            .with_vectors(8)
            .with_seed(5)
            .generate();
        let gf = |s: &mut dyn micco::sched::Scheduler| {
            Session::new(machine)
                .run(s, &stream)
                .expect("fits")
                .gflops()
        };
        println!(
            "{:<28} {:>12.0} {:>12.0} {:>12.0}",
            format!("rate {:.0}% {:?}", rate * 100.0, dist),
            gf(&mut MiccoScheduler::naive()),
            gf(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
            gf(&mut MiccoScheduler::with_provider(model.clone())),
        );
    }
}
