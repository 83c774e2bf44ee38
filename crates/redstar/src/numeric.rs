//! Numeric evaluation of correlator plans with the real tensor kernels.
//!
//! Leaf hadron tensors are generated deterministically from their labels;
//! every unique contraction step is computed exactly once (memoised — the
//! numeric counterpart of the stager's CSE); final reductions sum into the
//! correlation value. Integration tests use this to prove that scheduling
//! (which only decides *placement*) never changes the computed physics.
//!
//! Both system kinds are supported: meson steps multiply batched matrices,
//! baryon steps contract batched rank-3 tensors (via
//! [`micco_tensor::HadronTensor`]).
//!
//! ## Order sensitivity (simplification)
//!
//! Real Redstar tracks exactly which tensor indices each propagator wires
//! together, so a diagram's value is independent of the reduction order.
//! Our graphs carry *unoriented, unlabelled* edges and a step simply
//! multiplies its operands, which makes the computed value depend on the
//! contraction order for cycles of four or more hadrons (a triangle is
//! safe: every order is a cyclic rotation of one trace). Consequently the
//! value is reproducible for a *fixed planner* — the invariance the
//! scheduling tests rely on — but may differ between planners. Scheduling
//! behaviour, which is what this reproduction studies, only depends on the
//! step structure.

use std::collections::HashMap;

use micco_graph::{ContractionStep, PlanOutput};
use micco_tensor::{BatchedMatrix, BatchedTensor3, Complex64, ContractionKind, HadronTensor};

/// splitmix64 stream seeded by (label, seed).
struct Splitmix(u64);

impl Splitmix {
    fn new(label: u64, seed: u64) -> Self {
        Splitmix(label ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-0.5, 0.5] — keeps long product chains well scaled.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    fn complex(&mut self) -> Complex64 {
        Complex64::new(self.unit(), self.unit())
    }
}

/// Deterministic leaf payload for a hadron label.
pub fn leaf_tensor(
    kind: ContractionKind,
    label: u64,
    batch: usize,
    dim: usize,
    seed: u64,
) -> HadronTensor {
    let mut rng = Splitmix::new(label, seed);
    match kind {
        ContractionKind::Meson => {
            HadronTensor::Mat(BatchedMatrix::from_fn(batch, dim, |_, _, _| rng.complex()))
        }
        ContractionKind::Baryon => {
            HadronTensor::T3(BatchedTensor3::from_fn(batch, dim, |_, _, _, _| {
                rng.complex()
            }))
        }
    }
}

/// Evaluate a set of plans, returning the summed correlation value and the
/// number of kernel evaluations actually run (after memoisation).
pub fn evaluate_plans(plans: &[PlanOutput], seed: u64) -> (Complex64, usize) {
    let mut memo: HashMap<u64, HadronTensor> = HashMap::new();
    let mut finals: HashMap<(u64, u64), Complex64> = HashMap::new();
    let mut kernels = 0usize;
    let mut total = Complex64::ZERO;

    for plan in plans {
        for step in &plan.steps {
            if step.is_final {
                let key = (step.lhs, step.rhs);
                let value = if let Some(&v) = finals.get(&key) {
                    v
                } else {
                    let a = resolve(step, step.lhs, &mut memo, seed);
                    let b = resolve(step, step.rhs, &mut memo, seed);
                    kernels += 1;
                    let v = a.trace_inner(&b).expect("shapes agree within a plan");
                    finals.insert(key, v);
                    v
                };
                total += value;
            } else if !memo.contains_key(&step.out) {
                let a = resolve(step, step.lhs, &mut memo, seed);
                let b = resolve(step, step.rhs, &mut memo, seed);
                kernels += 1;
                let out = a.contract(&b).expect("shapes agree within a plan");
                memo.insert(step.out, out);
            }
        }
    }
    (total, kernels)
}

/// Fetch an operand: either a previously computed intermediate or a fresh
/// deterministic leaf.
fn resolve(
    step: &ContractionStep,
    label: u64,
    memo: &mut HashMap<u64, HadronTensor>,
    seed: u64,
) -> HadronTensor {
    if let Some(m) = memo.get(&label) {
        return m.clone();
    }
    let leaf = leaf_tensor(step.kind, label, step.batch, step.dim, seed);
    memo.insert(label, leaf.clone());
    leaf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{CorrelatorSpec, Flavor, MesonOperator};
    use crate::pipeline::build_correlator;

    fn tiny_spec(kind: ContractionKind) -> CorrelatorSpec {
        let op = |n: &str| MesonOperator::new(n, Flavor::Up, Flavor::Up);
        CorrelatorSpec {
            kind,
            name: "tiny".into(),
            source: vec![op("a1")],
            sink: vec![op("rho"), op("pi")],
            momenta: vec![0],
            time_slices: 2,
            tensor_dim: 6,
            batch: 2,
            max_diagrams_per_combo: 16,
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = build_correlator(&tiny_spec(ContractionKind::Meson));
        let (v1, k1) = evaluate_plans(&p.plans, 42);
        let (v2, k2) = evaluate_plans(&p.plans, 42);
        assert_eq!(v1, v2);
        assert_eq!(k1, k2);
        assert!(v1.is_finite());
    }

    #[test]
    fn different_seed_changes_value() {
        let p = build_correlator(&tiny_spec(ContractionKind::Meson));
        let (v1, _) = evaluate_plans(&p.plans, 1);
        let (v2, _) = evaluate_plans(&p.plans, 2);
        assert_ne!(v1, v2);
    }

    #[test]
    fn memoisation_matches_staging_dedup() {
        let p = build_correlator(&tiny_spec(ContractionKind::Meson));
        let (_, kernels) = evaluate_plans(&p.plans, 7);
        assert_eq!(
            kernels, p.unique_steps,
            "kernel evaluations must equal the stager's unique step count"
        );
        assert!(kernels < p.total_steps, "memoisation must save work");
    }

    #[test]
    fn leaf_tensor_is_label_stable() {
        for kind in [ContractionKind::Meson, ContractionKind::Baryon] {
            let a = leaf_tensor(kind, 5, 2, 4, 9);
            assert_eq!(a, leaf_tensor(kind, 5, 2, 4, 9));
            assert_ne!(a, leaf_tensor(kind, 6, 2, 4, 9));
            assert_ne!(a, leaf_tensor(kind, 5, 2, 4, 10));
        }
    }

    #[test]
    fn plan_order_does_not_change_value() {
        let p = build_correlator(&tiny_spec(ContractionKind::Meson));
        let mut reversed = p.plans.clone();
        reversed.reverse();
        let (v1, _) = evaluate_plans(&p.plans, 3);
        let (v2, _) = evaluate_plans(&reversed, 3);
        assert!((v1 - v2).abs() < 1e-9, "evaluation order must not matter");
    }

    #[test]
    fn baryon_system_evaluates() {
        let p = build_correlator(&tiny_spec(ContractionKind::Baryon));
        assert!(p.graph_count > 0);
        let (v, kernels) = evaluate_plans(&p.plans, 11);
        assert!(v.is_finite());
        assert_eq!(kernels, p.unique_steps);
        // baryon tasks carry n⁴ flops, mesons n³
        let bar = p.stream.vectors()[0].tasks[0].flops;
        let mes = build_correlator(&tiny_spec(ContractionKind::Meson))
            .stream
            .vectors()[0]
            .tasks[0]
            .flops;
        assert_eq!(bar, mes * 6, "n⁴ vs n³ at dim 6");
    }

    #[test]
    fn meson_and_baryon_values_differ() {
        let pm = build_correlator(&tiny_spec(ContractionKind::Meson));
        let pb = build_correlator(&tiny_spec(ContractionKind::Baryon));
        let (vm, _) = evaluate_plans(&pm.plans, 5);
        let (vb, _) = evaluate_plans(&pb.plans, 5);
        assert_ne!(vm, vb);
    }
}
