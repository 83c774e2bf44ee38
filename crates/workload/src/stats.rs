//! Descriptive statistics of tensor-pair streams.
//!
//! Front ends and papers talk about streams in aggregate terms — how much
//! reuse, how concentrated, how heavy per stage. This module computes those
//! aggregates for any [`TensorPairStream`] (synthetic or Redstar-built), and
//! backs the `micco info`-style reporting in examples and experiments.

use std::collections::HashMap;

use crate::task::{TensorId, TensorPairStream};

/// Aggregate statistics of one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Stage count.
    pub stages: usize,
    /// Total contraction tasks.
    pub tasks: usize,
    /// Total kernel flops.
    pub flops: u64,
    /// Distinct input tensors.
    pub distinct_inputs: usize,
    /// Fraction of input slots that re-reference an earlier tensor.
    pub repeat_fraction: f64,
    /// Mean appearances per distinct input tensor (≥ 1; higher = hotter).
    pub mean_uses_per_tensor: f64,
    /// Appearance count of the single hottest tensor.
    pub max_uses: usize,
    /// Working-set bytes (each distinct tensor once, outputs included).
    pub working_set_bytes: u64,
    /// Largest single-stage working set in bytes.
    pub peak_stage_bytes: u64,
    /// Tasks per stage: (min, mean, max).
    pub tasks_per_stage: (usize, f64, usize),
}

impl StreamStats {
    /// Compute statistics for `stream`.
    pub fn measure(stream: &TensorPairStream) -> Self {
        let mut uses: HashMap<TensorId, usize> = HashMap::new();
        let mut slots = 0usize;
        for v in stream.vectors() {
            for t in &v.tasks {
                for id in [t.a.id, t.b.id] {
                    *uses.entry(id).or_default() += 1;
                    slots += 1;
                }
            }
        }
        let distinct = uses.len();
        let repeats = slots - distinct.min(slots);
        let max_uses = uses.values().copied().max().unwrap_or(0);
        let per_stage: Vec<usize> = stream.vectors().iter().map(|v| v.len()).collect();
        let (min_t, max_t) = per_stage
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &n| (lo.min(n), hi.max(n)));
        let mean_t = if per_stage.is_empty() {
            0.0
        } else {
            per_stage.iter().sum::<usize>() as f64 / per_stage.len() as f64
        };
        StreamStats {
            stages: stream.vectors().len(),
            tasks: stream.total_tasks(),
            flops: stream.total_flops(),
            distinct_inputs: distinct,
            repeat_fraction: if slots == 0 {
                0.0
            } else {
                repeats as f64 / slots as f64
            },
            mean_uses_per_tensor: if distinct == 0 {
                0.0
            } else {
                slots as f64 / distinct as f64
            },
            max_uses,
            working_set_bytes: stream.unique_bytes(),
            peak_stage_bytes: stream.peak_vector_bytes(),
            tasks_per_stage: (if per_stage.is_empty() { 0 } else { min_t }, mean_t, max_t),
        }
    }
}

impl std::fmt::Display for StreamStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} stages × {:.1} tasks (min {}, max {}), {} tasks total, {:.1} GFLOP",
            self.stages,
            self.tasks_per_stage.1,
            self.tasks_per_stage.0,
            self.tasks_per_stage.2,
            self.tasks,
            self.flops as f64 / 1e9
        )?;
        writeln!(
            f,
            "inputs: {} distinct, repeat fraction {:.1}%, mean uses {:.2}, hottest tensor used {}×",
            self.distinct_inputs,
            self.repeat_fraction * 100.0,
            self.mean_uses_per_tensor,
            self.max_uses
        )?;
        write!(
            f,
            "working set {:.1} MiB (peak stage {:.1} MiB)",
            self.working_set_bytes as f64 / (1 << 20) as f64,
            self.peak_stage_bytes as f64 / (1 << 20) as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{RepeatDistribution, WorkloadSpec};

    #[test]
    fn fresh_stream_has_no_repeats() {
        let s = WorkloadSpec::new(8, 32)
            .with_repeat_rate(0.0)
            .with_vectors(3)
            .generate();
        let st = StreamStats::measure(&s);
        assert_eq!(st.repeat_fraction, 0.0);
        assert_eq!(st.distinct_inputs, 8 * 3 * 2);
        assert_eq!(st.mean_uses_per_tensor, 1.0);
        assert_eq!(st.max_uses, 1);
        assert_eq!(st.stages, 3);
        assert_eq!(st.tasks, 24);
        assert_eq!(st.tasks_per_stage, (8, 8.0, 8));
    }

    #[test]
    fn hot_stream_registers_high_reuse() {
        let s = WorkloadSpec::new(32, 32)
            .with_repeat_rate(0.9)
            .with_distribution(RepeatDistribution::Gaussian)
            .with_vectors(4)
            .generate();
        let st = StreamStats::measure(&s);
        assert!(
            st.repeat_fraction > 0.4,
            "repeat fraction {}",
            st.repeat_fraction
        );
        assert!(st.mean_uses_per_tensor > 1.5);
        assert!(st.max_uses > 3);
    }

    #[test]
    fn consistency_with_stream_accessors() {
        let s = WorkloadSpec::new(16, 48)
            .with_repeat_rate(0.5)
            .with_vectors(3)
            .generate();
        let st = StreamStats::measure(&s);
        assert_eq!(st.tasks, s.total_tasks());
        assert_eq!(st.flops, s.total_flops());
        assert_eq!(st.working_set_bytes, s.unique_bytes());
        assert_eq!(st.peak_stage_bytes, s.peak_vector_bytes());
    }

    #[test]
    fn empty_stream() {
        let st = StreamStats::measure(&TensorPairStream::default());
        assert_eq!(st.tasks, 0);
        assert_eq!(st.repeat_fraction, 0.0);
        assert_eq!(st.tasks_per_stage, (0, 0.0, 0));
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = WorkloadSpec::new(4, 16).with_vectors(2).generate();
        let text = StreamStats::measure(&s).to_string();
        assert!(text.contains("2 stages"));
        assert!(text.contains("distinct"));
        assert!(text.contains("working set"));
    }
}
