//! Per-vector data characteristics (Table I of the paper).
//!
//! MICCO extracts these online for every incoming vector and feeds them to
//! the regression model, which returns the reuse-bound setting for that
//! vector. All four characteristics are *measured from the vector itself*
//! (plus the set of tensors seen so far), exactly as the paper's step (1) in
//! Fig. 6 describes — the scheduler never needs generator-side ground truth.

use std::collections::HashSet;

use crate::intern::{FastIdMap, FastIdSet};
use crate::task::{TensorId, Vector};

/// Measured data characteristics of one stage vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCharacteristics {
    /// Number of tensor pairs in the vector (the paper's vector size).
    pub vector_size: usize,
    /// Mean tensor footprint in bytes (proxy for the paper's tensor size —
    /// monotone in the mode length for fixed batch/kind).
    pub tensor_bytes: f64,
    /// Fraction of input tensor slots referencing an already-seen tensor.
    pub repeated_rate: f64,
    /// Bias of the repeated-data distribution in `[0, 1]`:
    /// `1 − distinct_targets / total_repeats`, where a repeat target is a
    /// tensor that a repeated input slot references. Uniform reuse ⇒ near
    /// 0; a hot set (Gaussian) ⇒ near 1.
    pub distribution_bias: f64,
}

impl DataCharacteristics {
    /// Measure characteristics of `vector`, treating `seen` as the tensors
    /// already materialised by earlier vectors. Updates `seen` with this
    /// vector's inputs and outputs so streams can be measured incrementally.
    ///
    /// Generic over the set's hasher so hot planners can pass a
    /// [`crate::FastIdSet`] instead of the SipHash default.
    pub fn measure<S: std::hash::BuildHasher>(
        vector: &Vector,
        seen: &mut HashSet<TensorId, S>,
    ) -> Self {
        let mut slots = 0usize;
        let mut repeats = 0usize;
        let mut repeat_counts: FastIdMap<TensorId, usize> = FastIdMap::default();
        let mut bytes_sum: u128 = 0;

        for t in &vector.tasks {
            for d in [t.a, t.b] {
                slots += 1;
                bytes_sum += d.bytes as u128;
                if seen.contains(&d.id) {
                    repeats += 1;
                    *repeat_counts.entry(d.id).or_default() += 1;
                }
            }
        }
        // Within-vector repeats also count: a second appearance in the same
        // vector is just as reusable as one from a previous vector.
        let mut local: FastIdSet<TensorId> = FastIdSet::default();
        for t in &vector.tasks {
            for d in [t.a, t.b] {
                if !seen.contains(&d.id) && !local.insert(d.id) {
                    repeats += 1;
                    *repeat_counts.entry(d.id).or_default() += 1;
                }
            }
        }
        for t in &vector.tasks {
            seen.insert(t.a.id);
            seen.insert(t.b.id);
            seen.insert(t.out.id);
        }

        let repeated_rate = if slots == 0 {
            0.0
        } else {
            repeats as f64 / slots as f64
        };
        let tensor_bytes = if slots == 0 {
            0.0
        } else {
            bytes_sum as f64 / slots as f64
        };
        DataCharacteristics {
            vector_size: vector.len(),
            tensor_bytes,
            repeated_rate,
            distribution_bias: bias_from_counts(&repeat_counts),
        }
    }

    /// Feature vector for the regression model, in the order
    /// `[vector_size, tensor_bytes, repeated_rate, distribution_bias]`.
    pub fn features(&self) -> [f64; 4] {
        [
            self.vector_size as f64,
            self.tensor_bytes,
            self.repeated_rate,
            self.distribution_bias,
        ]
    }

    /// Names matching [`Self::features`] (for reports and the Fig. 5
    /// Spearman heatmap).
    pub fn feature_names() -> [&'static str; 4] {
        ["VectorSize", "TensorSize", "RepeatRate", "DataDistribution"]
    }
}

/// Concentration of repeat targets: `1 − distinct_targets / total_repeats`.
///
/// 0 when every repeat lands on its own target (no hot set); approaches 1
/// when a single tensor absorbs all repeats. This cheap statistic separates
/// the paper's Uniform and Gaussian (biased) repeated-data distributions
/// cleanly, because the Gaussian funnels repeats onto a small hot set while
/// the Uniform spreads them over the whole pool.
fn bias_from_counts(counts: &FastIdMap<TensorId, usize>) -> f64 {
    let total: usize = counts.values().sum();
    if total == 0 {
        return 0.0;
    }
    (1.0 - counts.len() as f64 / total as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{RepeatDistribution, WorkloadSpec};
    use crate::task::{ContractionTask, TaskId, TensorPairStream};
    use micco_tensor::ContractionKind;

    fn task(id: u64, a: u64, b: u64, out: u64) -> ContractionTask {
        ContractionTask::uniform(
            TaskId(id),
            TensorId(a),
            TensorId(b),
            TensorId(out),
            ContractionKind::Meson,
            2,
            8,
        )
    }

    fn measure_stream(s: &TensorPairStream) -> Vec<DataCharacteristics> {
        let mut seen = HashSet::new();
        s.vectors()
            .iter()
            .map(|v| DataCharacteristics::measure(v, &mut seen))
            .collect()
    }

    #[test]
    fn fresh_vector_has_zero_repeat_rate() {
        let v = Vector::new(vec![task(0, 1, 2, 100), task(1, 3, 4, 101)]);
        let mut seen = HashSet::new();
        let c = DataCharacteristics::measure(&v, &mut seen);
        assert_eq!(c.repeated_rate, 0.0);
        assert_eq!(c.vector_size, 2);
        assert_eq!(c.tensor_bytes, (2 * 8 * 8 * 16) as f64);
        assert_eq!(c.distribution_bias, 0.0);
    }

    #[test]
    fn cross_vector_repeats_detected() {
        let v1 = Vector::new(vec![task(0, 1, 2, 100)]);
        let v2 = Vector::new(vec![task(1, 1, 3, 101)]);
        let mut seen = HashSet::new();
        DataCharacteristics::measure(&v1, &mut seen);
        let c = DataCharacteristics::measure(&v2, &mut seen);
        assert_eq!(c.repeated_rate, 0.5); // one of two slots repeats
    }

    #[test]
    fn within_vector_repeats_detected() {
        let v = Vector::new(vec![task(0, 1, 2, 100), task(1, 1, 1, 101)]);
        let mut seen = HashSet::new();
        let c = DataCharacteristics::measure(&v, &mut seen);
        // slots: 1, 2, 1, 1 -> second and third appearance of tensor 1 repeat
        assert_eq!(c.repeated_rate, 0.5);
    }

    #[test]
    fn single_hot_target_is_high_bias() {
        let v = Vector::new(vec![task(0, 1, 1, 100), task(1, 1, 1, 101)]);
        let mut seen = HashSet::new();
        seen.insert(TensorId(1));
        let c = DataCharacteristics::measure(&v, &mut seen);
        assert_eq!(c.repeated_rate, 1.0);
        // four repeats, one target → 1 − 1/4
        assert_eq!(c.distribution_bias, 0.75);
    }

    #[test]
    fn even_repeats_have_low_bias() {
        // four repeats across four distinct targets, one hit each
        let v = Vector::new(vec![task(0, 1, 2, 100), task(1, 3, 4, 101)]);
        let mut seen: HashSet<TensorId> = [1, 2, 3, 4].into_iter().map(TensorId).collect();
        let c = DataCharacteristics::measure(&v, &mut seen);
        assert_eq!(c.repeated_rate, 1.0);
        assert!(c.distribution_bias < 1e-9);
    }

    #[test]
    fn gaussian_workload_measures_more_biased_than_uniform() {
        let spec = WorkloadSpec::new(64, 64)
            .with_repeat_rate(0.75)
            .with_vectors(6)
            .with_seed(5);
        let u = measure_stream(
            &spec
                .clone()
                .with_distribution(RepeatDistribution::Uniform)
                .generate(),
        );
        let g = measure_stream(
            &spec
                .with_distribution(RepeatDistribution::Gaussian)
                .generate(),
        );
        let mean = |cs: &[DataCharacteristics]| {
            cs.iter().map(|c| c.distribution_bias).sum::<f64>() / cs.len() as f64
        };
        assert!(
            mean(&g) > mean(&u) + 0.05,
            "gaussian bias {} should exceed uniform {}",
            mean(&g),
            mean(&u)
        );
    }

    #[test]
    fn measured_rate_close_to_spec_rate() {
        let spec = WorkloadSpec::new(64, 64)
            .with_repeat_rate(0.5)
            .with_vectors(8)
            .with_seed(11);
        let cs = measure_stream(&spec.generate());
        // skip the warm-up vector
        let mean: f64 =
            cs[1..].iter().map(|c| c.repeated_rate).sum::<f64>() / (cs.len() - 1) as f64;
        assert!((mean - 0.5).abs() < 0.1, "mean measured rate {mean}");
    }

    #[test]
    fn empty_vector_is_all_zeros() {
        let mut seen = HashSet::new();
        let c = DataCharacteristics::measure(&Vector::default(), &mut seen);
        assert_eq!(c.features(), [0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn feature_names_align() {
        assert_eq!(DataCharacteristics::feature_names().len(), 4);
    }
}
