//! The three real-world correlators of Table VI, at reproduction scale.
//!
//! The paper's jobs span 56 GB – 4.6 TB of device traffic across sixteen
//! time slices. Rebuilding those exact footprints would only slow the
//! simulator down without changing scheduler behaviour, so each preset
//! supports a [`PresetScale`]: `Paper` keeps the paper's tensor sizes and
//! sixteen time slices; `Ci` shrinks dimensions for fast test runs. The
//! *structure* — operator content, momentum sweeps, diagram counts, sharing
//! pattern — is identical across scales.

use crate::operators::{CorrelatorSpec, Flavor, MesonOperator};

/// How large to build a preset correlator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresetScale {
    /// Paper-faithful tensor sizes (Table VI) and 16 time slices.
    Paper,
    /// Shrunk for unit tests and CI.
    Ci,
}

impl PresetScale {
    fn time_slices(self) -> usize {
        match self {
            PresetScale::Paper => 16,
            PresetScale::Ci => 3,
        }
    }

    fn dim(self, paper_dim: usize) -> usize {
        match self {
            PresetScale::Paper => paper_dim,
            PresetScale::Ci => 16,
        }
    }

    fn batch(self) -> usize {
        match self {
            PresetScale::Paper => 4,
            PresetScale::Ci => 2,
        }
    }
}

fn op(name: &str, q: Flavor, aq: Flavor) -> MesonOperator {
    MesonOperator::new(name, q, aq)
}

/// `al_rhopi` — the `a1 → ρπ` correlator of the `a1` system: one
/// single-particle operator against a two-particle construction
/// (Table VI row 1: tensor size 128).
pub fn al_rhopi(scale: PresetScale) -> CorrelatorSpec {
    CorrelatorSpec {
        kind: micco_tensor::ContractionKind::Meson,
        name: "al_rhopi".into(),
        source: vec![op("a1", Flavor::Up, Flavor::Up)],
        sink: vec![
            op("rho", Flavor::Up, Flavor::Up),
            op("pi", Flavor::Up, Flavor::Up),
        ],
        momenta: vec![-1, 0, 1],
        time_slices: scale.time_slices(),
        tensor_dim: scale.dim(128),
        batch: scale.batch(),
        max_diagrams_per_combo: 64,
    }
}

/// `f0d2` — the `f0` system with two-particle ππ constructions on both
/// sides (Table VI row 2: tensor size 256). The larger memory footprint of
/// the paper's run comes from the denser momentum sweep and doubled
/// operator count relative to `al_rhopi`.
pub fn f0d2(scale: PresetScale) -> CorrelatorSpec {
    CorrelatorSpec {
        kind: micco_tensor::ContractionKind::Meson,
        name: "f0d2".into(),
        source: vec![
            op("f0", Flavor::Up, Flavor::Up),
            op("pi+", Flavor::Up, Flavor::Up),
        ],
        sink: vec![
            op("pi1", Flavor::Up, Flavor::Up),
            op("pi2", Flavor::Up, Flavor::Up),
        ],
        momenta: vec![-1, 0, 1],
        time_slices: scale.time_slices(),
        tensor_dim: scale.dim(256),
        batch: scale.batch(),
        max_diagrams_per_combo: 64,
    }
}

/// `f0d4` — the `f0` system with a wider momentum shell (Table VI row 3:
/// tensor size 256, slightly smaller total footprint than `f0d2` in the
/// paper because fewer momentum combinations survive conservation).
pub fn f0d4(scale: PresetScale) -> CorrelatorSpec {
    CorrelatorSpec {
        kind: micco_tensor::ContractionKind::Meson,
        name: "f0d4".into(),
        source: vec![
            op("f0", Flavor::Up, Flavor::Up),
            op("sigma", Flavor::Up, Flavor::Up),
        ],
        sink: vec![
            op("pi1", Flavor::Up, Flavor::Up),
            op("pi2", Flavor::Up, Flavor::Up),
        ],
        momenta: vec![-2, 0, 2],
        time_slices: scale.time_slices(),
        tensor_dim: scale.dim(256),
        batch: scale.batch(),
        max_diagrams_per_combo: 48,
    }
}

/// `nucleon_pipi` — a baryon-system correlator (not in Table VI, which is
/// all mesons, but Sec. II-A defines baryon systems as the rank-3-tensor
/// case): a nucleon against a nucleon-pion construction. Exercises the
/// batched rank-3 contraction path end to end; kernel cost scales n⁴.
pub fn nucleon_pipi(scale: PresetScale) -> CorrelatorSpec {
    CorrelatorSpec {
        kind: micco_tensor::ContractionKind::Baryon,
        name: "nucleon_pipi".into(),
        source: vec![op("N", Flavor::Up, Flavor::Up)],
        sink: vec![
            op("N'", Flavor::Up, Flavor::Up),
            op("pi", Flavor::Up, Flavor::Up),
        ],
        momenta: vec![-1, 0, 1],
        time_slices: scale.time_slices(),
        // rank-3 payloads are n³ elements; keep dims modest even at paper
        // scale (the paper's baryon runs use comparable mode lengths)
        tensor_dim: match scale {
            PresetScale::Paper => 64,
            PresetScale::Ci => 8,
        },
        batch: scale.batch(),
        max_diagrams_per_combo: 64,
    }
}

/// `kk_pipi` — a mixed-flavour correlator: a kaon pair (strange content)
/// against a pion pair. Exercises the flavour constraint in the Wick
/// enumeration at preset scale: strange quark lines may only close on
/// strange antiquark lines, which prunes the derangement set.
pub fn kk_pipi(scale: PresetScale) -> CorrelatorSpec {
    CorrelatorSpec {
        kind: micco_tensor::ContractionKind::Meson,
        name: "kk_pipi".into(),
        source: vec![
            op("K+", Flavor::Up, Flavor::Strange),
            op("K-", Flavor::Strange, Flavor::Up),
        ],
        sink: vec![
            op("pi1", Flavor::Up, Flavor::Up),
            op("pi2", Flavor::Up, Flavor::Up),
        ],
        momenta: vec![-1, 0, 1],
        time_slices: scale.time_slices(),
        tensor_dim: scale.dim(256),
        batch: scale.batch(),
        max_diagrams_per_combo: 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::build_correlator;

    #[test]
    fn presets_have_paper_tensor_sizes() {
        assert_eq!(al_rhopi(PresetScale::Paper).tensor_dim, 128);
        assert_eq!(f0d2(PresetScale::Paper).tensor_dim, 256);
        assert_eq!(f0d4(PresetScale::Paper).tensor_dim, 256);
        for spec in [al_rhopi, f0d2, f0d4] {
            assert_eq!(spec(PresetScale::Paper).time_slices, 16);
        }
    }

    #[test]
    fn ci_scale_builds_quickly_and_nontrivially() {
        for build in [al_rhopi, f0d2, f0d4] {
            let spec = build(PresetScale::Ci);
            let p = build_correlator(&spec);
            assert!(p.graph_count > 0, "{} built no graphs", spec.name);
            assert!(p.stream.total_tasks() > 0);
            assert!(p.cse_savings() > 0.0, "{} shows no sharing", spec.name);
        }
    }

    #[test]
    fn baryon_preset_builds_and_costs_more_per_element() {
        let spec = nucleon_pipi(PresetScale::Ci);
        assert_eq!(spec.kind, micco_tensor::ContractionKind::Baryon);
        let p = build_correlator(&spec);
        assert!(p.graph_count > 0);
        let t = &p.stream.vectors()[0].tasks[0];
        // baryon contraction flops = batch · n⁴ · 8
        assert_eq!(
            t.flops,
            (spec.batch as u64) * (spec.tensor_dim as u64).pow(4) * 8
        );
    }

    #[test]
    fn flavour_constraints_prune_kaon_diagrams() {
        use crate::wick::enumerate_diagrams;
        let kk = kk_pipi(PresetScale::Ci);
        let hadrons: Vec<_> = kk.source.iter().chain(&kk.sink).cloned().collect();
        let kaon_diagrams = enumerate_diagrams(&hadrons, 100).len();
        // same shape but single-flavour: strictly more pairings allowed
        let f0 = f0d2(PresetScale::Ci);
        let f0_hadrons: Vec<_> = f0.source.iter().chain(&f0.sink).cloned().collect();
        let f0_diagrams = enumerate_diagrams(&f0_hadrons, 100).len();
        assert!(kaon_diagrams > 0, "kaon system must still contract");
        assert!(
            kaon_diagrams < f0_diagrams,
            "flavour constraints must prune: {kaon_diagrams} !< {f0_diagrams}"
        );
        let p = build_correlator(&kk);
        assert!(p.stream.total_tasks() > 0);
    }

    #[test]
    fn f0_systems_are_heavier_than_al_rhopi() {
        let a = build_correlator(&al_rhopi(PresetScale::Ci));
        let f = build_correlator(&f0d2(PresetScale::Ci));
        assert!(f.stream.total_tasks() > a.stream.total_tasks());
    }
}
