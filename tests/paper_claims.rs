//! Guard rails for the reproduction claims: miniature versions of every
//! paper experiment, asserting the *orderings* EXPERIMENTS.md reports. If a
//! refactor breaks one of these, the full experiment binaries would print
//! tables contradicting the paper — these tests catch that in `cargo test`.

// Test helpers unwrap freely (clippy's allow-unwrap-in-tests only covers
// `#[test]` bodies, not helper functions in integration-test files).
#![allow(clippy::unwrap_used)]

use micco::gpusim::MachineConfig;
use micco::ml::{r2_score, spearman, LinearRegression, RandomForestRegressor, Regressor};
use micco::prelude::*;
use micco::sched::tuner::{build_training_set, TrainingConfig};
use micco::sched::GrouteScheduler;

fn mini_stream(vs: usize, rate: f64, dist: RepeatDistribution, seed: u64) -> TensorPairStream {
    WorkloadSpec::new(vs, 384)
        .with_repeat_rate(rate)
        .with_distribution(dist)
        .with_vectors(6)
        .with_seed(seed)
        .generate()
}

/// Speedup of tuned MICCO over Groute. Fig. 7 evaluates MICCO-*optimal*
/// (per-vector regression-picked bounds); training a model in every test is
/// too slow, so this takes the best of two representative fixed settings —
/// a strict *underestimate* of what the adaptive model achieves.
fn micco_vs_groute(stream: &TensorPairStream, cfg: &MachineConfig) -> f64 {
    let groute = Session::new(*cfg)
        .run(&mut GrouteScheduler::new(), stream)
        .unwrap();
    let best = [ReuseBounds::naive(), ReuseBounds::new(0, 2, 0)]
        .into_iter()
        .map(|b| {
            Session::new(*cfg)
                .run(&mut MiccoScheduler::new(b), stream)
                .unwrap()
                .elapsed_secs()
        })
        .fold(f64::MAX, f64::min);
    groute.elapsed_secs() / best
}

/// Fig. 7's headline: MICCO ≥ Groute on every panel configuration.
#[test]
fn fig7_micco_never_loses() {
    let cfg = MachineConfig::mi100_like(8);
    for dist in [RepeatDistribution::Uniform, RepeatDistribution::Gaussian] {
        for vs in [8usize, 32, 64] {
            for rate in [0.25, 0.75] {
                let speedup = micco_vs_groute(&mini_stream(vs, rate, dist, 11), &cfg);
                assert!(
                    speedup > 0.97,
                    "{dist:?} v{vs} r{rate}: MICCO must not lose (speedup {speedup:.3})"
                );
            }
        }
    }
}

/// Fig. 7: the speedup grows with the repeated rate (more reuse, more win).
#[test]
fn fig7_speedup_grows_with_rate() {
    let cfg = MachineConfig::mi100_like(8);
    let low = micco_vs_groute(
        &mini_stream(64, 0.25, RepeatDistribution::Uniform, 11),
        &cfg,
    );
    let high = micco_vs_groute(&mini_stream(64, 1.0, RepeatDistribution::Uniform, 11), &cfg);
    assert!(
        high > low,
        "speedup at rate 1.0 ({high:.3}) must exceed rate 0.25 ({low:.3})"
    );
}

/// Fig. 9: speedup widens with GPU count (reuse gets harder, MICCO helps more).
#[test]
fn fig9_speedup_widens_with_gpus() {
    let stream = mini_stream(64, 0.5, RepeatDistribution::Uniform, 17);
    let two = micco_vs_groute(&stream, &MachineConfig::mi100_like(2));
    let eight = micco_vs_groute(&stream, &MachineConfig::mi100_like(8));
    assert!(
        eight > two,
        "8-GPU speedup {eight:.3} must exceed 2-GPU {two:.3}"
    );
}

/// Fig. 10: GFLOPS grows with tensor size; MICCO wins at every size.
#[test]
fn fig10_tensor_size_orderings() {
    let cfg = MachineConfig::mi100_like(8);
    let mut prev_gflops = 0.0;
    for dim in [128usize, 384, 768] {
        let stream = WorkloadSpec::new(64, dim)
            .with_repeat_rate(0.5)
            .with_vectors(6)
            .with_seed(19)
            .generate();
        let groute = Session::new(cfg)
            .run(&mut GrouteScheduler::new(), &stream)
            .unwrap();
        assert!(
            groute.gflops() > prev_gflops,
            "GFLOPS must grow with tensor size"
        );
        prev_gflops = groute.gflops();
        assert!(micco_vs_groute(&stream, &cfg) > 1.0, "dim {dim}");
    }
}

/// Fig. 11: throughput falls as oversubscription deepens; MICCO still wins.
#[test]
fn fig11_oversubscription_orderings() {
    let stream = mini_stream(64, 0.5, RepeatDistribution::Uniform, 23);
    let mut prev = f64::MAX;
    for rate in [1.25, 2.0] {
        let cfg = MachineConfig::mi100_like(8).with_oversubscription(stream.unique_bytes(), rate);
        let micco = Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .unwrap();
        assert!(micco.gflops() < prev, "GFLOPS must fall with pressure");
        prev = micco.gflops();
        assert!(micco_vs_groute(&stream, &cfg) > 1.0, "oversub {rate}");
    }
}

/// Table IV's qualitative claim: the bound/characteristics relation is
/// non-linear — a random forest beats linear regression out of sample on
/// the dominant output.
#[test]
fn tab4_forest_beats_linear() {
    let tc = TrainingConfig {
        samples: 80,
        ..TrainingConfig::default()
    };
    let samples = build_training_set(&tc, &MachineConfig::mi100_like(8));
    let x: Vec<Vec<f64>> = samples.iter().map(|s| s.features.to_vec()).collect();
    // bound 2 (index 1) carries the strongest signal in our response surface
    let y: Vec<f64> = samples.iter().map(|s| s.bounds[1] as f64).collect();
    let split = x.len() * 4 / 5;
    let mut lin = LinearRegression::new();
    lin.fit(&x[..split], &y[..split]);
    let mut rf = RandomForestRegressor::paper_default(3);
    rf.fit(&x[..split], &y[..split]);
    let r2_lin = r2_score(&y[split..], &lin.predict(&x[split..]));
    let r2_rf = r2_score(&y[split..], &rf.predict(&x[split..]));
    assert!(
        r2_rf > r2_lin,
        "random forest ({r2_rf:.3}) must beat linear regression ({r2_lin:.3})"
    );
}

/// Table V: scheduling overhead is a vanishing fraction of execution time.
#[test]
fn tab5_overhead_is_small() {
    let stream = mini_stream(64, 0.5, RepeatDistribution::Uniform, 29);
    let cfg = MachineConfig::mi100_like(8);
    let r = Session::new(cfg)
        .measure_overhead(true)
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .unwrap();
    // measured, not the 0.0 an unmeasured run reports
    assert!(r.scheduling_overhead_secs > 0.0);
    assert!(
        r.scheduling_overhead_secs < r.elapsed_secs() * 0.25,
        "overhead {:.6}s vs total {:.6}s",
        r.scheduling_overhead_secs,
        r.elapsed_secs()
    );
}

/// Table VI: MICCO wins on Redstar-shaped real-function streams — on the
/// CI-scale miniatures, and at the exhibit's scale on al_rhopi and f0d4.
/// f0d2 at the exhibit's scale is a tie, the known deviation this test
/// states rather than hides.
#[test]
fn tab6_redstar_wins() {
    use micco::redstar::{al_rhopi, build_correlator, f0d2, f0d4, PresetScale};
    for build in [al_rhopi, f0d2] {
        let program = build_correlator(&build(PresetScale::Ci));
        let cfg = MachineConfig::mi100_like(8);
        let speedup = micco_vs_groute(&program.stream, &cfg);
        assert!(speedup > 0.97, "{}: {speedup:.3}", program.name);
    }

    // The exhibit's inputs (`tab6_redstar`): paper-scale presets on eight
    // GPUs whose memory is sized to twice the per-vector peak, MICCO
    // (0,2,0) against Groute.
    for (build, tie) in [
        (al_rhopi as fn(PresetScale) -> _, false),
        (f0d2, true),
        (f0d4, false),
    ] {
        let program = build_correlator(&build(PresetScale::Paper));
        let cfg = MachineConfig::mi100_like(8)
            .with_oversubscription(program.stream.peak_vector_bytes() * 2, 1.0);
        let groute = Session::new(cfg)
            .run(&mut GrouteScheduler::new(), &program.stream)
            .unwrap();
        let micco = Session::new(cfg)
            .run(
                &mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)),
                &program.stream,
            )
            .unwrap();
        let speedup = groute.elapsed_secs() / micco.elapsed_secs();
        if tie {
            assert!(
                (0.95..=1.05).contains(&speedup),
                "{}: {speedup:.3}x left the 0.95-1.05x tie that EXPERIMENTS.md \
                 states as known deviation 6 (Table VI's f0d2 is a tie); if the \
                 balance fallback changed, restate the deviation",
                program.name
            );
        } else {
            assert!(speedup >= 1.1, "{}: {speedup:.3}x", program.name);
        }
    }
}

/// Fig. 5's core reading: the data characteristics correlate positively
/// with achieved GFLOPS over the training population.
#[test]
fn fig5_tensor_size_drives_gflops() {
    let tc = TrainingConfig {
        samples: 40,
        ..TrainingConfig::default()
    };
    let samples = build_training_set(&tc, &MachineConfig::mi100_like(8));
    let tensor_bytes: Vec<f64> = samples.iter().map(|s| s.features[1]).collect();
    let gflops: Vec<f64> = samples.iter().map(|s| s.gflops).collect();
    let rho = spearman(&tensor_bytes, &gflops);
    assert!(
        rho > 0.5,
        "ρ(TensorSize, GFLOPS) = {rho:.2} must be strongly positive"
    );
}
