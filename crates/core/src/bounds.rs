//! Reuse bounds (Table II) and the provider abstraction that feeds them to
//! the scheduler per vector.

use micco_workload::Vector;

/// The three reuse bounds of Table II.
///
/// A reuse bound is "the allowed level of load imbalance" (Sec. III-B2):
/// device `g` is an *available* candidate for a pair of bound class `k` only
/// while the number of tensors assigned to `g` in the current vector stays
/// below `bounds[k] + balanceNum`, where `balanceNum = numTensor / numGPU`
/// is the perfectly balanced share.
///
/// * `bounds[0]` governs `TwoRepeatedSame` pairs (mapping (1));
/// * `bounds[1]` governs `TwoRepeatedDiff` / `OneRepeated` pairs
///   (mappings (2)–(3));
/// * `bounds[2]` governs `TwoNew` pairs (mappings (4)–(7)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ReuseBounds {
    bounds: [usize; 3],
}

impl ReuseBounds {
    /// Build from the three per-class bounds.
    pub const fn new(same: usize, one: usize, new: usize) -> Self {
        ReuseBounds {
            bounds: [same, one, new],
        }
    }

    /// All-zero bounds — the *MICCO-naive* configuration of the evaluation
    /// (no imbalance allowed beyond the balanced share).
    pub const fn naive() -> Self {
        ReuseBounds::new(0, 0, 0)
    }

    /// Effectively unlimited bounds — pure data-centric scheduling (used by
    /// the `baselines_matrix` experiment; equivalent to case ① of Fig. 2).
    pub const fn unbounded() -> Self {
        ReuseBounds::new(usize::MAX / 2, usize::MAX / 2, usize::MAX / 2)
    }

    /// The bound for pattern class `k` (see [`ReuseBounds`] docs).
    pub fn get(&self, class: usize) -> usize {
        self.bounds[class]
    }

    /// The raw triple.
    pub fn as_array(&self) -> [usize; 3] {
        self.bounds
    }
}

impl From<[usize; 3]> for ReuseBounds {
    fn from(bounds: [usize; 3]) -> Self {
        ReuseBounds { bounds }
    }
}

impl std::fmt::Display for ReuseBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // written piecewise (no temporary Strings): the plan cache hashes
        // scheduler names through this impl on every lookup
        f.write_str("(")?;
        for (i, &v) in self.bounds.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            if v >= usize::MAX / 2 {
                f.write_str("inf")?;
            } else {
                write!(f, "{v}")?;
            }
        }
        f.write_str(")")
    }
}

/// Source of per-vector reuse bounds.
///
/// MICCO-optimal plugs in the pre-trained regression model
/// ([`crate::model::RegressionBounds`]); MICCO-naive and the Fig. 8 sweeps
/// plug in [`FixedBounds`]. The scheduler hands each provider the vector
/// itself, once per vector and in stream order, so a provider that needs
/// the vector's data characteristics measures them (and keeps whatever
/// state the measurement carries across vectors), and one that does not
/// never pays for them.
pub trait BoundsProvider {
    /// Bounds to use for `vector`, the next stage vector of the stream.
    fn bounds_for(&mut self, vector: &Vector) -> ReuseBounds;
    /// Human-readable name for reports.
    fn name(&self) -> String;
    /// Write [`BoundsProvider::name`] into `out` without building a
    /// `String` (see [`crate::Scheduler::write_name`]).
    fn write_name(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        out.write_str(&self.name())
    }
}

/// A constant bounds setting. It answers without looking at the vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedBounds(pub ReuseBounds);

impl BoundsProvider for FixedBounds {
    fn bounds_for(&mut self, _vector: &Vector) -> ReuseBounds {
        self.0
    }

    fn name(&self) -> String {
        format!("fixed{}", self.0)
    }

    fn write_name(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        write!(out, "fixed{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let b = ReuseBounds::new(1, 2, 3);
        assert_eq!(b.get(0), 1);
        assert_eq!(b.get(1), 2);
        assert_eq!(b.get(2), 3);
        assert_eq!(b.as_array(), [1, 2, 3]);
    }

    #[test]
    fn naive_is_zero() {
        assert_eq!(ReuseBounds::naive().as_array(), [0, 0, 0]);
    }

    #[test]
    fn unbounded_never_saturates_when_added_to_balance() {
        let b = ReuseBounds::unbounded();
        // must not overflow when the scheduler adds balanceNum
        assert!(b.get(0).checked_add(10_000).is_some());
        assert!(b.get(0) > 1_000_000_000);
    }

    #[test]
    fn from_array_and_display() {
        let b: ReuseBounds = [0, 2, 0].into();
        assert_eq!(b.to_string(), "(0,2,0)");
        assert_eq!(ReuseBounds::unbounded().to_string(), "(inf,inf,inf)");
    }

    #[test]
    fn fixed_provider_ignores_characteristics() {
        let mut p = FixedBounds(ReuseBounds::new(0, 2, 0));
        let stream = micco_workload::WorkloadSpec::new(16, 64)
            .with_repeat_rate(0.5)
            .with_vectors(3)
            .generate();
        for v in stream.vectors().iter().chain([&Vector::default()]) {
            assert_eq!(p.bounds_for(v), ReuseBounds::new(0, 2, 0));
        }
        assert!(p.name().contains("(0,2,0)"));
    }
}
