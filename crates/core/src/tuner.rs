//! Reuse-bound auto-tuning: grid search over bound settings (the ground
//! truth the regression model is trained on) and the Fig. 8 candidate set.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::HashSet;

use micco_gpusim::MachineConfig;
use micco_workload::{DataCharacteristics, RepeatDistribution, TensorPairStream, WorkloadSpec};

use crate::bounds::ReuseBounds;
use crate::micco::MiccoScheduler;
use crate::session::Session;

/// The thirteen reuse-bound settings measured in Fig. 8 (values 0–2).
pub const FIG8_BOUND_SETTINGS: [[usize; 3]; 13] = [
    [0, 0, 0],
    [1, 0, 0],
    [2, 0, 0],
    [0, 1, 0],
    [0, 2, 0],
    [0, 0, 1],
    [0, 0, 2],
    [1, 1, 0],
    [0, 1, 1],
    [1, 1, 1],
    [0, 2, 2],
    [2, 2, 0],
    [2, 2, 2],
];

/// The full 0–2 cube (27 settings) — the "all possible values" sweep used to
/// label training samples (Sec. IV-C).
pub fn bound_cube() -> Vec<[usize; 3]> {
    let mut v = Vec::with_capacity(27);
    for a in 0..=2 {
        for b in 0..=2 {
            for c in 0..=2 {
                v.push([a, b, c]);
            }
        }
    }
    v
}

/// Simulated GFLOPS of MICCO with `bounds` on `stream`.
pub fn evaluate_bounds(
    stream: &TensorPairStream,
    config: &MachineConfig,
    bounds: ReuseBounds,
) -> f64 {
    let mut s = MiccoScheduler::new(bounds);
    match Session::new(*config).run(&mut s, stream) {
        Ok(report) => report.gflops(),
        // A setting that drives the machine out of memory scores zero.
        Err(_) => 0.0,
    }
}

/// Exhaustively evaluate `candidates` and return the best setting with its
/// GFLOPS.
pub fn grid_search(
    stream: &TensorPairStream,
    config: &MachineConfig,
    candidates: &[[usize; 3]],
) -> (ReuseBounds, f64) {
    assert!(!candidates.is_empty(), "no candidate bounds");
    candidates
        .iter()
        .map(|&c| {
            let b = ReuseBounds::from(c);
            (b, evaluate_bounds(stream, config, b))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty")
}

/// Grid search with label regularisation for training-set construction:
/// each candidate is scored as the *mean* GFLOPS over several streams of
/// the same spec (different seeds), and among all settings within
/// `tolerance` of the best mean, the smallest (L1, then lexicographic)
/// setting wins. Raw argmax labels are dominated by tie-breaking noise —
/// many settings land within a fraction of a percent of each other — and
/// unlearnable; preferring the smallest near-optimal bounds yields the
/// stable "how much imbalance is actually worth accepting" signal the
/// regression model is meant to capture.
pub fn grid_search_regularized(
    streams: &[TensorPairStream],
    config: &MachineConfig,
    candidates: &[[usize; 3]],
    tolerance: f64,
) -> (ReuseBounds, f64) {
    assert!(!candidates.is_empty(), "no candidate bounds");
    assert!(!streams.is_empty(), "no streams");
    let scored: Vec<([usize; 3], f64)> = candidates
        .iter()
        .map(|&c| {
            let mean = streams
                .iter()
                .map(|s| evaluate_bounds(s, config, c.into()))
                .sum::<f64>()
                / streams.len() as f64;
            (c, mean)
        })
        .collect();
    // NaN-safe maximum: folding from 0.0 with `f64::max` silently drops
    // NaN and negative scores, and the tolerance filter below could then
    // reject every candidate and panic. `total_cmp` totally orders the
    // scores, and clamping the threshold to `best` guarantees the best
    // candidate always survives its own filter.
    let best = scored
        .iter()
        .map(|(_, g)| *g)
        .fold(f64::NEG_INFINITY, |acc, g| {
            if g.total_cmp(&acc).is_gt() {
                g
            } else {
                acc
            }
        });
    let threshold = best.min(best * (1.0 - tolerance));
    let (setting, gflops) = scored
        .into_iter()
        .filter(|(_, g)| g.total_cmp(&threshold).is_ge())
        .min_by(|(a, ga), (b, gb)| {
            let norm = |s: &[usize; 3]| s.iter().sum::<usize>();
            norm(a).cmp(&norm(b)).then(a.cmp(b)).then(gb.total_cmp(ga))
        })
        .expect("at least the best survives the filter");
    (ReuseBounds::from(setting), gflops)
}

/// Candidate bound values for a vector of `tensor_slots` tensors on
/// `num_gpus` devices, spanning the paper's full training range: "reuse
/// bounds range from 0 to numTensor − balanceNum (i.e., assigning all data
/// to one GPU)" (Sec. IV-C). Geometric spacing keeps the sweep cheap while
/// covering the whole range.
pub fn candidate_bound_values(tensor_slots: usize, num_gpus: usize) -> Vec<usize> {
    let balance = tensor_slots.div_ceil(num_gpus).max(1);
    let max = tensor_slots.saturating_sub(balance);
    let mut vals = vec![0usize];
    let mut v = 2usize;
    while v < max {
        vals.push(v);
        v *= 2;
    }
    if max > 0 {
        vals.push(max);
    }
    vals.dedup();
    vals
}

/// Full-range per-component optimum by coordinate ascent: each bound
/// component is swept over `candidate_bound_values` in the context of the
/// components already fixed, scored as the mean GFLOPS over `streams`, and
/// set to the smallest value within `tolerance` of the component's best.
///
/// Coordinate ascent exposes the interactions between pattern classes (the
/// source of the relation's non-linearity, Table IV) while keeping the
/// label cost linear rather than cubic in the candidate count; the
/// smallest-within-tolerance rule keeps labels stable where the response
/// surface is flat (see DESIGN.md §6).
pub fn optimal_bounds_full_range(
    streams: &[TensorPairStream],
    config: &MachineConfig,
    tolerance: f64,
) -> (ReuseBounds, f64) {
    assert!(!streams.is_empty(), "no streams");
    let slots = streams[0]
        .vectors
        .first()
        .map(|v| v.tensor_slots())
        .unwrap_or(0);
    let candidates = candidate_bound_values(slots, config.num_gpus);
    let mean_gflops = |setting: [usize; 3]| {
        streams
            .iter()
            .map(|s| evaluate_bounds(s, config, setting.into()))
            .sum::<f64>()
            / streams.len() as f64
    };
    let mut bounds = [0usize; 3];
    for k in 0..3 {
        let scored: Vec<(usize, f64)> = candidates
            .iter()
            .map(|&v| {
                let mut setting = bounds;
                setting[k] = v;
                (v, mean_gflops(setting))
            })
            .collect();
        // same NaN-safe fold + clamped threshold as
        // `grid_search_regularized`: the component's best value always
        // survives its own filter
        let best = scored
            .iter()
            .map(|(_, g)| *g)
            .fold(f64::NEG_INFINITY, |acc, g| {
                if g.total_cmp(&acc).is_gt() {
                    g
                } else {
                    acc
                }
            });
        let threshold = best.min(best * (1.0 - tolerance));
        bounds[k] = scored
            .into_iter()
            .filter(|(_, g)| g.total_cmp(&threshold).is_ge())
            .map(|(v, _)| v)
            .min()
            .expect("the best setting survives its own filter");
    }
    let gflops = mean_gflops(bounds);
    (ReuseBounds::from(bounds), gflops)
}

/// One labelled training sample for the regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneSample {
    /// Mean measured data characteristics of the stream's vectors
    /// (`[vector_size, tensor_bytes, repeated_rate, distribution_bias]`).
    pub features: [f64; 4],
    /// The grid-search-optimal reuse bounds.
    pub bounds: [usize; 3],
    /// GFLOPS achieved at the optimum.
    pub gflops: f64,
}

/// Steady-state per-vector characteristics of a stream: the measured
/// characteristics of the *last* vector (warm `seen` set). The scheduler's
/// online inference measures exactly this kind of per-vector feature, so
/// training on it keeps the train and inference feature distributions
/// aligned (a stream-level mean would be diluted by the all-fresh first
/// vector and push inference into extrapolation).
pub fn stream_features(stream: &TensorPairStream) -> [f64; 4] {
    let mut seen: HashSet<micco_workload::TensorId> = HashSet::new();
    let mut last = [0.0; 4];
    for v in &stream.vectors {
        let c = DataCharacteristics::measure(v, &mut seen);
        last = c.features();
    }
    last
}

/// Configuration-space sampler for training-set construction. Ranges follow
/// the paper's evaluation: vector size 8–64, tensor size 128–768, repeated
/// rate 25–100 %, both distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Number of labelled samples (the paper uses 300).
    pub samples: usize,
    /// Vectors per sampled stream.
    pub vectors_per_stream: usize,
    /// RNG seed.
    pub seed: u64,
    /// Memory oversubscription applied to the training machine, relative to
    /// each sampled stream's working set. Reuse bounds matter most — and
    /// their optimum is stable and learnable — under memory pressure, which
    /// is the regime the paper designs for; 1.5 reproduces that. `None`
    /// keeps the base machine's memory.
    pub oversubscription: Option<f64>,
    /// Independent workload seeds averaged per candidate setting (denoises
    /// the response surface before the argmax).
    pub seeds_per_sample: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            samples: 300,
            vectors_per_stream: 4,
            seed: 0xB00,
            oversubscription: Some(1.5),
            seeds_per_sample: 8,
        }
    }
}

/// Build a labelled training set by sampling workload specs and grid-
/// searching the bound cube for each (Sec. IV-C: "for each set of feature
/// variables, we measure GFLOPS of all possible values of reuse bounds and
/// set the optimal reuse bounds to be the response labels").
pub fn build_training_set(tc: &TrainingConfig, machine: &MachineConfig) -> Vec<TuneSample> {
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let vector_sizes = [8usize, 16, 32, 64];
    let tensor_dims = [128usize, 256, 384, 768];
    (0..tc.samples)
        .map(|i| {
            let spec = WorkloadSpec::new(
                vector_sizes[rng.gen_range(0..vector_sizes.len())],
                tensor_dims[rng.gen_range(0..tensor_dims.len())],
            )
            .with_repeat_rate(rng.gen_range(0.2..=1.0))
            .with_distribution(if rng.gen_bool(0.5) {
                RepeatDistribution::Uniform
            } else {
                RepeatDistribution::Gaussian
            })
            .with_vectors(tc.vectors_per_stream)
            .with_seed(tc.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9));
            let streams: Vec<_> = (0..tc.seeds_per_sample as u64)
                .map(|r| {
                    spec.clone()
                        .with_seed(spec.seed.wrapping_add(r * 0x1_0001))
                        .generate()
                })
                .collect();
            let machine = match tc.oversubscription {
                Some(rate) => machine.with_oversubscription(streams[0].unique_bytes(), rate),
                None => *machine,
            };
            let (best, gflops) = optimal_bounds_full_range(&streams, &machine, 0.01);
            TuneSample {
                features: stream_features(&streams[0]),
                bounds: best.as_array(),
                gflops,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_machine() -> MachineConfig {
        MachineConfig::mi100_like(4)
    }

    #[test]
    fn fig8_settings_are_distinct_and_bounded() {
        let mut seen = std::collections::HashSet::new();
        for s in FIG8_BOUND_SETTINGS {
            assert!(seen.insert(s), "duplicate setting {s:?}");
            assert!(s.iter().all(|&v| v <= 2));
        }
        assert_eq!(FIG8_BOUND_SETTINGS.len(), 13);
    }

    #[test]
    fn cube_has_27_settings() {
        let cube = bound_cube();
        assert_eq!(cube.len(), 27);
        let set: std::collections::HashSet<_> = cube.iter().collect();
        assert_eq!(set.len(), 27);
    }

    #[test]
    fn grid_search_returns_argmax() {
        let stream = WorkloadSpec::new(16, 128)
            .with_repeat_rate(0.6)
            .with_vectors(2)
            .generate();
        let cfg = small_machine();
        let candidates = [[0, 0, 0], [0, 2, 0]];
        let (best, gf) = grid_search(&stream, &cfg, &candidates);
        let direct: f64 = candidates
            .iter()
            .map(|&c| evaluate_bounds(&stream, &cfg, c.into()))
            .fold(0.0, f64::max);
        assert!((gf - direct).abs() < 1e-9);
        assert!(candidates.contains(&best.as_array()));
    }

    #[test]
    fn evaluate_bounds_is_deterministic() {
        let stream = WorkloadSpec::new(16, 128).with_vectors(2).generate();
        let cfg = small_machine();
        let b = ReuseBounds::new(0, 2, 0);
        assert_eq!(
            evaluate_bounds(&stream, &cfg, b),
            evaluate_bounds(&stream, &cfg, b)
        );
    }

    #[test]
    fn stream_features_have_expected_shape() {
        let stream = WorkloadSpec::new(32, 256)
            .with_repeat_rate(0.5)
            .with_vectors(4)
            .with_seed(2)
            .generate();
        let f = stream_features(&stream);
        assert_eq!(f[0], 32.0); // vector size
        assert_eq!(f[1], (4 * 256 * 256 * 16) as f64); // tensor bytes
        assert!(f[2] > 0.2 && f[2] < 0.7, "repeat rate {}", f[2]);
        assert!((0.0..=1.0).contains(&f[3]));
    }

    #[test]
    fn regularized_search_survives_degenerate_scores() {
        // a machine too small for any setting: every candidate scores 0.0
        // (the run errors out-of-memory) — the search must pick the
        // smallest setting instead of panicking on an emptied filter
        let streams = vec![WorkloadSpec::new(16, 128)
            .with_repeat_rate(0.5)
            .with_vectors(2)
            .generate()];
        let tiny = MachineConfig::mi100_like(2).with_mem_bytes(1);
        let (best, gf) = grid_search_regularized(&streams, &tiny, &bound_cube(), 0.02);
        assert_eq!(best.as_array(), [0, 0, 0]);
        assert_eq!(gf, 0.0);
        let (best_fr, gf_fr) = optimal_bounds_full_range(&streams, &tiny, 0.02);
        assert_eq!(best_fr.as_array(), [0, 0, 0]);
        assert_eq!(gf_fr, 0.0);
        // a pathological tolerance (> 1) pushes the old threshold above
        // the best score; the clamped threshold keeps the filter non-empty
        let cfg = small_machine();
        let (_, gf) = grid_search_regularized(&streams, &cfg, &bound_cube(), -0.5);
        assert!(gf > 0.0);
    }

    #[test]
    fn training_set_small_smoke() {
        let tc = TrainingConfig {
            samples: 4,
            vectors_per_stream: 2,
            seed: 1,
            seeds_per_sample: 2,
            ..TrainingConfig::default()
        };
        let samples = build_training_set(&tc, &small_machine());
        assert_eq!(samples.len(), 4);
        for s in &samples {
            assert!(s.gflops > 0.0);
            assert!(s.bounds.iter().all(|&b| b <= 2));
            assert!(s.features[0] >= 8.0);
        }
        // deterministic
        assert_eq!(samples, build_training_set(&tc, &small_machine()));
    }
}
