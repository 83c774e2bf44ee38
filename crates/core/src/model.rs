//! The regression-model bounds provider (the paper's MICCO-optimal).
//!
//! Three random forests — one per reuse bound — map the measured data
//! characteristics of a vector to the predicted optimal bound values
//! (Sec. IV-C). The forests are trained offline once on grid-search-labelled
//! samples ([`crate::tuner::build_training_set`]) and queried online per
//! vector; inference cost is a few microseconds, matching the paper's
//! "negligible overhead" claim (Table V quantifies it).

use micco_ml::{RandomForestRegressor, Regressor};
use micco_workload::{DataCharacteristics, FastIdSet, TensorId, Vector};

use crate::bounds::{BoundsProvider, ReuseBounds};
use crate::tuner::TuneSample;

/// Largest bound value the provider will ever emit. Training labels span
/// the paper's full range (0 to numTensor − balanceNum, i.e. up to ~112 at
/// vector size 64); the cap only guards against pathological extrapolation.
const BOUND_CAP: usize = 512;

/// Pre-trained per-vector reuse-bound predictor.
///
/// As a [`BoundsProvider`] it measures each vector's
/// [`DataCharacteristics`] against the tensors of the vectors it was
/// asked about before, and predicts from them. Its measurement state
/// travels with it, so clone the trained model once per scheduler.
#[derive(Debug, Clone)]
pub struct RegressionBounds {
    forests: [RandomForestRegressor; 3],
    /// Tensors of every vector [`BoundsProvider::bounds_for`] has
    /// measured so far; empty after [`Self::train`].
    seen: FastIdSet<TensorId>,
}

impl RegressionBounds {
    /// Train on labelled samples. `seed` drives the forests' bootstrap
    /// sampling.
    pub fn train(samples: &[TuneSample], seed: u64) -> Self {
        assert!(!samples.is_empty(), "cannot train on zero samples");
        let x: Vec<Vec<f64>> = samples.iter().map(|s| s.features.to_vec()).collect();
        let forests = std::array::from_fn(|k| {
            let y: Vec<f64> = samples.iter().map(|s| s.bounds[k] as f64).collect();
            let mut f = RandomForestRegressor::paper_default(seed.wrapping_add(k as u64));
            f.fit(&x, &y);
            f
        });
        RegressionBounds {
            forests,
            seen: FastIdSet::default(),
        }
    }

    /// Predict bounds for one set of characteristics.
    pub fn predict(&self, c: &DataCharacteristics) -> ReuseBounds {
        let row = c.features();
        let b = std::array::from_fn(|k| {
            let raw = self.forests[k].predict_one(&row);
            raw.round().clamp(0.0, BOUND_CAP as f64) as usize
        });
        ReuseBounds::from(b)
    }
}

impl BoundsProvider for RegressionBounds {
    fn bounds_for(&mut self, vector: &Vector) -> ReuseBounds {
        let characteristics = DataCharacteristics::measure(vector, &mut self.seen);
        self.predict(&characteristics)
    }

    fn name(&self) -> String {
        "regression".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(features: [f64; 4], bounds: [usize; 3]) -> TuneSample {
        TuneSample {
            features,
            bounds,
            gflops: 1.0,
        }
    }

    fn characteristics(features: [f64; 4]) -> DataCharacteristics {
        DataCharacteristics {
            vector_size: features[0] as usize,
            tensor_bytes: features[1],
            repeated_rate: features[2],
            distribution_bias: features[3],
        }
    }

    /// A separable synthetic relation: high repeat rate → bounds (2,2,0),
    /// low repeat rate → (0,0,2). The forest must recover it.
    fn synthetic_samples() -> Vec<TuneSample> {
        let mut v = Vec::new();
        for i in 0..40 {
            let rate = i as f64 / 39.0;
            let bounds = if rate > 0.5 { [2, 2, 0] } else { [0, 0, 2] };
            v.push(sample([32.0, 1e6, rate, 0.3], bounds));
        }
        v
    }

    #[test]
    fn learns_a_separable_relation() {
        let model = RegressionBounds::train(&synthetic_samples(), 0);
        let high = model.predict(&characteristics([32.0, 1e6, 0.9, 0.3]));
        let low = model.predict(&characteristics([32.0, 1e6, 0.1, 0.3]));
        assert_eq!(high.as_array(), [2, 2, 0]);
        assert_eq!(low.as_array(), [0, 0, 2]);
    }

    #[test]
    fn predictions_within_cap() {
        let model = RegressionBounds::train(&synthetic_samples(), 1);
        for rate in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let b = model.predict(&characteristics([64.0, 1e7, rate, 0.8]));
            assert!(b.as_array().iter().all(|&v| v <= BOUND_CAP));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = synthetic_samples();
        let a = RegressionBounds::train(&s, 7);
        let b = RegressionBounds::train(&s, 7);
        let c = characteristics([32.0, 1e6, 0.4, 0.3]);
        assert_eq!(a.predict(&c), b.predict(&c));
    }

    #[test]
    fn provider_name() {
        let mut m = RegressionBounds::train(&synthetic_samples(), 0);
        assert_eq!(BoundsProvider::name(&m), "regression");
        let stream = micco_workload::WorkloadSpec::new(16, 64)
            .with_repeat_rate(0.75)
            .with_vectors(3)
            .generate();
        // the provider measures each vector against the ones before it
        let mut seen = FastIdSet::default();
        for v in stream.vectors() {
            let c = DataCharacteristics::measure(v, &mut seen);
            assert_eq!(m.bounds_for(v), m.predict(&c));
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_training_panics() {
        let _ = RegressionBounds::train(&[], 0);
    }
}
