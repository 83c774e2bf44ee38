//! Integration of the ML pipeline: label → train → predict → schedule.

use micco::gpusim::MachineConfig;
use micco::ml::{r2_score, RandomForestRegressor, Regressor};
use micco::sched::model::RegressionBounds;
use micco::sched::tuner::{
    build_training_set, candidate_bound_values, stream_features, TrainingConfig,
};
use micco::sched::{MiccoScheduler, Session};
use micco::workload::{DataCharacteristics, RepeatDistribution, WorkloadSpec};

fn tiny_training() -> Vec<micco::sched::tuner::TuneSample> {
    let tc = TrainingConfig {
        samples: 10,
        vectors_per_stream: 2,
        seeds_per_sample: 2,
        ..TrainingConfig::default()
    };
    build_training_set(&tc, &MachineConfig::mi100_like(4))
}

#[test]
fn training_set_is_deterministic_and_labelled() {
    let a = tiny_training();
    let b = tiny_training();
    assert_eq!(a, b);
    assert_eq!(a.len(), 10);
    for s in &a {
        assert!(s.gflops > 0.0);
        assert!(s.features[0] >= 8.0, "vector size feature");
        assert!((0.0..=1.0).contains(&s.features[2]), "repeat rate feature");
    }
}

#[test]
fn trained_model_schedules_successfully() {
    let model = RegressionBounds::train(&tiny_training(), 3);
    let stream = WorkloadSpec::new(16, 128)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(4)
        .generate();
    let cfg = MachineConfig::mi100_like(4);
    let report = Session::new(cfg)
        .run(&mut MiccoScheduler::with_provider(model), &stream)
        .expect("fits");
    assert_eq!(report.assignments.len(), stream.total_tasks());
    assert!(report.scheduler.contains("regression"));
}

/// MICCO-optimal's bounds come from measuring each vector against every
/// earlier one, in stream order, and predicting from that: the regression
/// provider does the measuring, and a fresh clone of the trained model
/// decides exactly what another fresh clone does.
#[test]
fn regression_bounds_follow_the_measured_characteristics() {
    let model = RegressionBounds::train(&tiny_training(), 3);
    let stream = WorkloadSpec::new(16, 128)
        .with_repeat_rate(0.6)
        .with_distribution(RepeatDistribution::Gaussian)
        .with_vectors(6)
        .with_seed(17)
        .generate();
    let session = Session::new(MachineConfig::mi100_like(4));
    let plan = session
        .plan(&mut MiccoScheduler::with_provider(model.clone()), &stream)
        .expect("fits")
        .into_plan();
    assert_eq!(plan.stages.len(), stream.vectors().len());
    let mut seen = std::collections::HashSet::new();
    for (i, (stage, v)) in plan.stages.iter().zip(stream.vectors()).enumerate() {
        let expected = model.predict(&DataCharacteristics::measure(v, &mut seen));
        assert_eq!(stage.bounds, Some(expected), "stage {i}");
    }
    let again = session
        .plan(&mut MiccoScheduler::with_provider(model.clone()), &stream)
        .expect("fits")
        .into_plan();
    assert_eq!(plan.to_text(), again.to_text());
}

#[test]
fn candidate_values_span_paper_range() {
    // vector 64 → 128 slots, 8 GPUs → balance 16, max = 112
    let vals = candidate_bound_values(128, 8);
    assert_eq!(vals.first(), Some(&0));
    assert_eq!(vals.last(), Some(&112));
    assert!(
        vals.windows(2).all(|w| w[0] < w[1]),
        "strictly increasing: {vals:?}"
    );
    // single GPU: balance = slots → max 0
    assert_eq!(candidate_bound_values(16, 1), vec![0]);
}

#[test]
fn stream_features_reflect_steady_state() {
    let stream = WorkloadSpec::new(32, 64)
        .with_repeat_rate(1.0)
        .with_vectors(4)
        .with_seed(8)
        .generate();
    let f = stream_features(&stream);
    // steady-state vectors of a rate-1.0 stream repeat everything
    assert!(f[2] > 0.95, "steady-state repeat rate {}", f[2]);
}

#[test]
fn forest_on_real_labels_beats_mean_predictor() {
    let samples = {
        let tc = TrainingConfig {
            samples: 60,
            vectors_per_stream: 3,
            seeds_per_sample: 4,
            ..TrainingConfig::default()
        };
        build_training_set(&tc, &MachineConfig::mi100_like(8))
    };
    // Predicting the gflops (a strongly feature-determined quantity) must
    // work very well — sanity for the whole feature pipeline.
    let x: Vec<Vec<f64>> = samples.iter().map(|s| s.features.to_vec()).collect();
    let y: Vec<f64> = samples.iter().map(|s| s.gflops).collect();
    let mut rf = RandomForestRegressor::new(60, Default::default(), 5);
    rf.fit(&x, &y);
    let r2 = r2_score(&y, &rf.predict(&x));
    assert!(r2 > 0.9, "in-sample gflops fit should be strong, got {r2}");
}
