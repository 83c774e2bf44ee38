//! Heterogeneous workloads: per-stage tensor sizes, per-stage vector sizes,
//! and the Zipf repeat distribution — the "vector size, repeated rate, and
//! data distribution vary dynamically" regime of real correlation functions
//! (Table VI). Also shows the regression model's feature importances.
//!
//! Run with:
//! ```text
//! cargo run --release --example heterogeneous
//! ```

use micco::ml::Regressor;
use micco::prelude::*;
use micco::sched::tuner::{build_training_set, TrainingConfig};
use micco::sched::GrouteScheduler;
use micco::workload::StreamStats;

fn main() {
    // A dynamically varying stream: stages flip between 128³ and 384³
    // tensors and between 16 and 64 pairs; repeats follow a Zipf head.
    let stream = WorkloadSpec::new(64, 384)
        .with_dim_choices(vec![128, 384])
        .with_vector_size_choices(vec![16, 64])
        .with_distribution(RepeatDistribution::Zipf)
        .with_repeat_rate(0.7)
        .with_vectors(12)
        .with_seed(404)
        .generate();
    println!("{}\n", StreamStats::measure(&stream));

    let cfg = MachineConfig::mi100_like(8);
    let groute = Session::new(cfg)
        .run(&mut GrouteScheduler::new(), &stream)
        .expect("fits");
    let micco = Session::new(cfg)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("fits");
    println!("{groute}");
    println!("{micco}");
    println!("speedup: {:.2}x\n", micco.speedup_over(&groute));

    // What does the bounds model actually look at? Train a small forest on
    // the labelled samples and measure permutation importances of the four
    // data characteristics for the dominant second bound.
    println!("labelling 40 samples for feature-importance analysis…");
    let tc = TrainingConfig {
        samples: 40,
        seed: 12,
        ..TrainingConfig::default()
    };
    let samples = build_training_set(&tc, &cfg);
    let x: Vec<Vec<f64>> = samples.iter().map(|s| s.features.to_vec()).collect();
    let y: Vec<f64> = samples.iter().map(|s| s.bounds[1] as f64).collect();
    let mut forest = micco::ml::RandomForestRegressor::new(60, Default::default(), 5);
    forest.fit(&x, &y);
    let importance = forest.permutation_importance(&x, &y, 3);
    println!("\npermutation importance for reuse_bound_2:");
    for (name, imp) in micco::workload::DataCharacteristics::feature_names()
        .iter()
        .zip(&importance)
    {
        println!("  {name:<18} {imp:>8.3}");
    }
}
