//! Synthetic workload generator (the paper's evaluation datasets, Sec. V-A).
//!
//! The evaluation synthesises streams of stage vectors controlled by four
//! data characteristics (Table I): *vector size*, *tensor size*, *repeated
//! rate*, and *data distribution*. A repeated tensor slot references a tensor
//! id already emitted earlier in the stream; which earlier tensor it
//! references is drawn either uniformly over the pool (Uniform) or from a
//! Gaussian concentrated on a hot region of the pool (Gaussian — the paper's
//! "biased" distribution, which clusters reuse on few tensors and therefore
//! stresses load balance).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

use micco_tensor::ContractionKind;

use crate::task::{ContractionTask, TaskId, TensorId, TensorPairStream, Vector};

/// First output id of a generated stream. [`WorkloadSpec::generate`]
/// numbers input tensors densely from 0 and outputs densely from here, so
/// the two runs never meet; [`crate::TensorInterner`] resolves ids in
/// either run by array index.
pub const OUTPUT_ID_BASE: u64 = 1 << 40;

/// How repeated tensor slots pick their referent from the pool of previously
/// emitted tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepeatDistribution {
    /// Unbiased: every earlier tensor equally likely.
    Uniform,
    /// Biased: Gaussian over the pool centred on the oldest tensors,
    /// clustering reuse on a hot set (the paper's "biased" case).
    Gaussian,
    /// Extension beyond the paper's two distributions: Zipf-like rank
    /// skew (`P(rank k) ∝ 1/k`), the shape real access frequencies tend
    /// to follow — heavier head than Gaussian, but with a long tail that
    /// keeps every pool member reachable.
    Zipf,
}

impl std::fmt::Display for RepeatDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepeatDistribution::Uniform => write!(f, "Uniform"),
            RepeatDistribution::Gaussian => write!(f, "Gaussian"),
            RepeatDistribution::Zipf => write!(f, "Zipf"),
        }
    }
}

/// Builder for synthetic tensor-pair streams.
///
/// # Examples
///
/// ```
/// use micco_workload::{RepeatDistribution, WorkloadSpec};
///
/// let stream = WorkloadSpec::new(16, 384)        // 16 pairs/stage, 384×384 tensors
///     .with_repeat_rate(0.5)
///     .with_distribution(RepeatDistribution::Gaussian)
///     .with_vectors(4)
///     .with_seed(7)
///     .generate();
/// assert_eq!(stream.vectors().len(), 4);
/// assert_eq!(stream.total_tasks(), 64);
/// // same spec ⇒ same stream, bit for bit
/// assert_eq!(stream, WorkloadSpec::new(16, 384)
///     .with_repeat_rate(0.5)
///     .with_distribution(RepeatDistribution::Gaussian)
///     .with_vectors(4)
///     .with_seed(7)
///     .generate());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Tensors per stage side-vector; each stage contributes this many pairs
    /// (the paper's "vector size").
    pub vector_size: usize,
    /// Mode length of every hadron tensor (the paper's "tensor size",
    /// 128–768 in the evaluation).
    pub tensor_dim: usize,
    /// Batch count per hadron tensor.
    pub batch: usize,
    /// Meson (batched GEMM) or baryon (batched rank-3 contraction) system.
    pub kind: ContractionKind,
    /// Fraction of tensor slots that repeat an earlier tensor (0.0–1.0).
    pub repeat_rate: f64,
    /// How repeats pick their referent.
    pub distribution: RepeatDistribution,
    /// Number of stage vectors in the stream.
    pub num_vectors: usize,
    /// RNG seed — generation is fully deterministic given the spec.
    pub seed: u64,
    /// Gaussian width as a fraction of the pool size (biased distribution
    /// only). Smaller ⇒ hotter hot set ⇒ more imbalance.
    pub gaussian_sigma_frac: f64,
    /// Optional heterogeneous mode: each stage vector samples its tensor
    /// mode length from this list instead of using `tensor_dim`. Repeats
    /// only reference earlier tensors of the same mode length (tensors of
    /// different shapes are different data). Real correlation functions mix
    /// stages of different tensor sizes exactly like this (Table VI:
    /// "vector size, repeated rate, and data distribution vary
    /// dynamically").
    pub dim_choices: Option<Vec<usize>>,
    /// Optional per-vector size variation: each stage vector samples its
    /// pair count from this list instead of using `vector_size` (Table VI:
    /// vector size varies dynamically in real runs).
    pub vector_size_choices: Option<Vec<usize>>,
}

impl WorkloadSpec {
    /// Spec with the paper's defaults: meson system, batch 4, four vectors,
    /// 50% repeated rate, uniform distribution, seed 0.
    pub fn new(vector_size: usize, tensor_dim: usize) -> Self {
        WorkloadSpec {
            vector_size,
            tensor_dim,
            batch: 4,
            kind: ContractionKind::Meson,
            repeat_rate: 0.5,
            distribution: RepeatDistribution::Uniform,
            num_vectors: 4,
            seed: 0,
            gaussian_sigma_frac: 1.0 / 16.0,
            dim_choices: None,
            vector_size_choices: None,
        }
    }

    /// Set the repeated rate.
    pub fn with_repeat_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "repeat rate must be in [0,1]");
        self.repeat_rate = rate;
        self
    }

    /// Set the repeated-data distribution.
    pub fn with_distribution(mut self, d: RepeatDistribution) -> Self {
        self.distribution = d;
        self
    }

    /// Set the number of stage vectors.
    pub fn with_vectors(mut self, n: usize) -> Self {
        self.num_vectors = n;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the per-tensor batch count.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Enable heterogeneous mode: per-vector tensor sizes drawn from
    /// `dims`.
    pub fn with_dim_choices(mut self, dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "need at least one dim choice");
        self.dim_choices = Some(dims);
        self
    }

    /// Enable per-vector size variation: pair counts drawn from `sizes`.
    pub fn with_vector_size_choices(mut self, sizes: Vec<usize>) -> Self {
        assert!(!sizes.is_empty(), "need at least one vector size choice");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "vector sizes must be positive"
        );
        self.vector_size_choices = Some(sizes);
        self
    }

    /// Generate the stream described by this spec.
    pub fn generate(&self) -> TensorPairStream {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // One tensor pool per mode length: repeats only reference earlier
        // tensors of the same shape.
        let mut pools: std::collections::HashMap<usize, Vec<TensorId>> =
            std::collections::HashMap::new();
        let mut next_tensor: u64 = 0;
        let mut next_task: u64 = 0;
        // Output ids live in a disjoint range so streams stay valid even if
        // callers later feed outputs back in as inputs.
        let mut next_output = OUTPUT_ID_BASE;

        let mut fresh = |pool: &mut Vec<TensorId>, next_tensor: &mut u64| {
            let id = TensorId(*next_tensor);
            *next_tensor += 1;
            pool.push(id);
            id
        };

        let mut vectors = Vec::with_capacity(self.num_vectors);
        for vi in 0..self.num_vectors {
            let dim = match &self.dim_choices {
                Some(choices) => choices[rng.gen_range(0..choices.len())],
                None => self.tensor_dim,
            };
            let pool = pools.entry(dim).or_default();
            let pairs = match &self.vector_size_choices {
                Some(choices) => choices[rng.gen_range(0..choices.len())],
                None => self.vector_size,
            };
            let mut tasks = Vec::with_capacity(pairs);
            // The first vector is entirely fresh: the repeated rate
            // describes repeats *relative to previous data* (Table I), and
            // there is no previous data yet. This also keeps the tensor
            // pool realistic at repeated rate 1.0 (otherwise the whole
            // stream would collapse onto the single first tensor).
            let rate = if vi == 0 { 0.0 } else { self.repeat_rate };
            for _ in 0..pairs {
                let a = self.pick_slot(rate, &mut rng, pool, &mut next_tensor, &mut fresh);
                let b = self.pick_slot(rate, &mut rng, pool, &mut next_tensor, &mut fresh);
                let out = TensorId(next_output);
                next_output += 1;
                tasks.push(ContractionTask::uniform(
                    TaskId(next_task),
                    a,
                    b,
                    out,
                    self.kind,
                    self.batch,
                    dim,
                ));
                next_task += 1;
            }
            vectors.push(Vector::new(tasks));
        }
        TensorPairStream::new(vectors)
    }

    fn pick_slot(
        &self,
        rate: f64,
        rng: &mut StdRng,
        pool: &mut Vec<TensorId>,
        next_tensor: &mut u64,
        fresh: &mut impl FnMut(&mut Vec<TensorId>, &mut u64) -> TensorId,
    ) -> TensorId {
        if !pool.is_empty() && rng.gen_bool(rate) {
            self.pick_from_pool(rng, pool)
        } else {
            fresh(pool, next_tensor)
        }
    }

    fn pick_from_pool(&self, rng: &mut StdRng, pool: &[TensorId]) -> TensorId {
        match self.distribution {
            RepeatDistribution::Uniform => pool[rng.gen_range(0..pool.len())],
            RepeatDistribution::Gaussian => {
                let n = pool.len() as f64;
                let sigma = (n * self.gaussian_sigma_frac).max(0.5);
                // Centre the hot set on the oldest tensors: index 0 is a
                // stable anchor, so reuse keeps hammering the same few
                // tensors as the pool grows (the paper's "biased" case).
                let normal = Normal::new(0.0, sigma).expect("sigma > 0");
                let idx = normal.sample(rng).abs().round();
                let idx = (idx as usize).min(pool.len() - 1);
                pool[idx]
            }
            RepeatDistribution::Zipf => {
                // Inverse-CDF sampling of P(rank k) ∝ 1/(k+1) over the
                // pool, anchored like the Gaussian on the oldest tensors.
                // H_n ≈ ln(n) + γ; solving u·H_n = H_k for k gives the
                // classic exp-of-uniform form.
                let n = pool.len() as f64;
                let h_n = (n + 1.0).ln() + 0.577_215_664_9;
                let u: f64 = rng.gen_range(0.0..1.0);
                let k = (u * h_n).exp_m1(); // e^{uH} − 1 ∈ [0, n)
                let idx = (k.floor() as usize).min(pool.len() - 1);
                pool[idx]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::collections::HashSet;

    /// Measured repeat fraction over the steady-state vectors (the first
    /// vector is all-fresh by construction and excluded from the count,
    /// though its tensors do seed the `seen` set).
    fn measured_repeat_rate(stream: &TensorPairStream) -> f64 {
        let mut seen: HashSet<TensorId> = HashSet::new();
        let mut slots = 0usize;
        let mut repeats = 0usize;
        for (vi, v) in stream.vectors().iter().enumerate() {
            for t in &v.tasks {
                for id in [t.a.id, t.b.id] {
                    let repeat = !seen.insert(id);
                    if vi > 0 {
                        slots += 1;
                        if repeat {
                            repeats += 1;
                        }
                    }
                }
            }
        }
        repeats as f64 / slots as f64
    }

    #[test]
    fn first_vector_is_all_fresh() {
        let s = WorkloadSpec::new(16, 32)
            .with_repeat_rate(1.0)
            .with_vectors(3)
            .generate();
        let mut ids: HashSet<TensorId> = HashSet::new();
        for t in &s.vectors()[0].tasks {
            ids.insert(t.a.id);
            ids.insert(t.b.id);
        }
        assert_eq!(ids.len(), 32, "first vector must not repeat anything");
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = WorkloadSpec::new(16, 128).with_seed(42);
        assert_eq!(spec.generate(), spec.generate());
        let other = spec.clone().with_seed(43).generate();
        assert_ne!(spec.generate(), other);
    }

    #[test]
    fn shape_matches_spec() {
        let s = WorkloadSpec::new(8, 64).with_vectors(5).generate();
        assert_eq!(s.vectors().len(), 5);
        for v in s.vectors() {
            assert_eq!(v.len(), 8);
            for t in &v.tasks {
                assert_eq!(t.a.bytes, 4 * 64 * 64 * 16);
            }
        }
    }

    #[test]
    fn zero_repeat_rate_all_fresh() {
        let s = WorkloadSpec::new(16, 32)
            .with_repeat_rate(0.0)
            .with_vectors(3)
            .generate();
        assert_eq!(measured_repeat_rate(&s), 0.0);
        // 3 vectors * 16 pairs * 2 slots distinct inputs
        let mut ids: HashSet<TensorId> = HashSet::new();
        for v in s.vectors() {
            for t in &v.tasks {
                ids.insert(t.a.id);
                ids.insert(t.b.id);
            }
        }
        assert_eq!(ids.len(), 3 * 16 * 2);
    }

    #[test]
    fn full_repeat_rate_reuses_heavily() {
        let s = WorkloadSpec::new(32, 32)
            .with_repeat_rate(1.0)
            .with_vectors(4)
            .with_seed(1)
            .generate();
        // Past the all-fresh seed vector, everything repeats.
        let r = measured_repeat_rate(&s);
        assert_eq!(r, 1.0, "measured repeat rate {r}");
    }

    #[test]
    fn measured_rate_tracks_requested_rate() {
        for &want in &[0.25, 0.5, 0.75] {
            let s = WorkloadSpec::new(64, 32)
                .with_repeat_rate(want)
                .with_vectors(8)
                .with_seed(9)
                .generate();
            let got = measured_repeat_rate(&s);
            assert!((got - want).abs() < 0.08, "want {want}, got {got}");
        }
    }

    #[test]
    fn gaussian_concentrates_repeats() {
        let base = WorkloadSpec::new(64, 32)
            .with_repeat_rate(0.8)
            .with_vectors(8)
            .with_seed(3);
        let count_hot = |s: &TensorPairStream| {
            let mut counts: HashMap<TensorId, usize> = HashMap::new();
            for v in s.vectors() {
                for t in &v.tasks {
                    *counts.entry(t.a.id).or_default() += 1;
                    *counts.entry(t.b.id).or_default() += 1;
                }
            }
            // Max appearance count of any single tensor.
            counts.values().copied().max().unwrap_or(0)
        };
        let uniform = count_hot(
            &base
                .clone()
                .with_distribution(RepeatDistribution::Uniform)
                .generate(),
        );
        let gaussian = count_hot(
            &base
                .with_distribution(RepeatDistribution::Gaussian)
                .generate(),
        );
        assert!(
            gaussian > uniform,
            "gaussian hot count {gaussian} should exceed uniform {uniform}"
        );
    }

    #[test]
    fn outputs_are_unique_and_disjoint_from_inputs() {
        let s = WorkloadSpec::new(16, 32)
            .with_repeat_rate(0.9)
            .with_vectors(4)
            .generate();
        let mut outs = HashSet::new();
        for v in s.vectors() {
            for t in &v.tasks {
                assert!(outs.insert(t.out.id), "duplicate output id {:?}", t.out.id);
                assert!(t.out.id.0 >= OUTPUT_ID_BASE);
                assert!(t.a.id.0 < OUTPUT_ID_BASE);
            }
        }
    }

    #[test]
    #[should_panic(expected = "repeat rate")]
    fn invalid_rate_panics() {
        let _ = WorkloadSpec::new(4, 16).with_repeat_rate(1.5);
    }

    #[test]
    fn zipf_concentrates_harder_than_uniform_with_a_tail() {
        let base = WorkloadSpec::new(64, 32)
            .with_repeat_rate(0.8)
            .with_vectors(8)
            .with_seed(3);
        let counts = |s: &TensorPairStream| {
            let mut c: HashMap<TensorId, usize> = HashMap::new();
            for v in s.vectors() {
                for t in &v.tasks {
                    *c.entry(t.a.id).or_default() += 1;
                    *c.entry(t.b.id).or_default() += 1;
                }
            }
            c
        };
        let uniform = counts(
            &base
                .clone()
                .with_distribution(RepeatDistribution::Uniform)
                .generate(),
        );
        let zipf = counts(&base.with_distribution(RepeatDistribution::Zipf).generate());
        let max = |c: &HashMap<TensorId, usize>| c.values().copied().max().unwrap();
        assert!(
            max(&zipf) > max(&uniform),
            "zipf head {} must beat uniform {}",
            max(&zipf),
            max(&uniform)
        );
        // long tail: a decent number of distinct tensors still get hit
        assert!(
            zipf.len() > uniform.len() / 4,
            "zipf tail too short: {}",
            zipf.len()
        );
    }

    #[test]
    fn vector_size_choices_vary_per_vector() {
        let s = WorkloadSpec::new(8, 32)
            .with_vector_size_choices(vec![4, 16])
            .with_vectors(10)
            .with_seed(2)
            .generate();
        let sizes: HashSet<usize> = s.vectors().iter().map(|v| v.len()).collect();
        assert!(sizes.iter().all(|s| *s == 4 || *s == 16));
        assert_eq!(sizes.len(), 2, "both sizes should appear over 10 vectors");
    }

    #[test]
    fn heterogeneous_dims_per_vector() {
        let s = WorkloadSpec::new(8, 384)
            .with_dim_choices(vec![128, 256])
            .with_vectors(8)
            .with_seed(3)
            .generate();
        let mut dims_seen = HashSet::new();
        for v in s.vectors() {
            // all tasks within a vector share one dim
            let bytes: HashSet<u64> = v.tasks.iter().map(|t| t.a.bytes).collect();
            assert_eq!(bytes.len(), 1, "mixed dims within a vector");
            dims_seen.extend(bytes);
        }
        assert_eq!(dims_seen.len(), 2, "both dims should appear over 8 vectors");
    }

    #[test]
    fn heterogeneous_repeats_stay_shape_consistent() {
        let s = WorkloadSpec::new(16, 384)
            .with_dim_choices(vec![64, 128])
            .with_repeat_rate(1.0)
            .with_vectors(10)
            .with_seed(9)
            .generate();
        // every tensor id must always appear with the same byte size
        let mut size_of: HashMap<TensorId, u64> = HashMap::new();
        for v in s.vectors() {
            for t in &v.tasks {
                for d in [t.a, t.b] {
                    let prev = size_of.insert(d.id, d.bytes);
                    if let Some(p) = prev {
                        assert_eq!(p, d.bytes, "tensor {:?} changed size", d.id);
                    }
                }
            }
        }
    }

    #[test]
    fn display_of_distribution() {
        assert_eq!(RepeatDistribution::Uniform.to_string(), "Uniform");
        assert_eq!(RepeatDistribution::Gaussian.to_string(), "Gaussian");
    }
}
