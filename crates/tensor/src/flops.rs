//! Flop and byte accounting for hadron contractions.
//!
//! These formulas are the single source of truth shared by the CPU kernels
//! (what is actually computed) and the `micco-gpusim` cost model (how long
//! the simulated device takes). One complex multiply-add counts as 8 flops
//! (4 mul + 4 add), matching vendor GEMM accounting.
//!
//! Each formula is written once, with checked arithmetic; the plain
//! functions panic on a shape whose count overflows `u64`, so a caller that
//! cannot rule overflow out asks [`checked_contraction_flops`] and
//! [`checked_contraction_bytes`] first.

/// Size of one complex double (two f64).
pub const COMPLEX_BYTES: u64 = 16;

/// Flops per complex fused multiply-add.
pub const FLOPS_PER_CMADD: u64 = 8;

/// Whether a hadron node carries batched matrices (meson) or batched rank-3
/// tensors (baryon).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContractionKind {
    /// Two-quark systems: batched `n × n` matrices.
    Meson,
    /// Three-quark systems: batched `n × n × n` tensors.
    Baryon,
}

impl ContractionKind {
    /// Number of complex elements in one batch element of mode length `n`.
    #[inline]
    pub fn elements(self, dim: usize) -> u64 {
        self.checked_elements(dim)
            .expect("tensor element count overflows u64")
    }

    #[inline]
    fn checked_elements(self, dim: usize) -> Option<u64> {
        let n = dim as u64;
        match self {
            ContractionKind::Meson => n.checked_mul(n),
            ContractionKind::Baryon => n.checked_mul(n)?.checked_mul(n),
        }
    }
}

/// Device-memory footprint in bytes of a hadron tensor.
#[inline]
pub fn tensor_bytes(kind: ContractionKind, batch: usize, dim: usize) -> u64 {
    checked_tensor_bytes(kind, batch, dim).expect("tensor footprint overflows u64")
}

#[inline]
fn checked_tensor_bytes(kind: ContractionKind, batch: usize, dim: usize) -> Option<u64> {
    (batch as u64)
        .checked_mul(kind.checked_elements(dim)?)?
        .checked_mul(COMPLEX_BYTES)
}

/// Flops of one hadron contraction (one graph-edge reduction) between two
/// nodes of equal `batch` and `dim`.
///
/// * Meson: batched GEMM — `batch · n³` complex madds.
/// * Baryon: batched spectator contraction — `batch · n⁴` complex madds
///   (`n³` output elements, each an `n`-length dot product).
#[inline]
pub fn contraction_flops(kind: ContractionKind, batch: usize, dim: usize) -> u64 {
    checked_contraction_flops(kind, batch, dim).expect("contraction flops overflow u64")
}

/// [`contraction_flops`], or `None` when the count overflows `u64`.
#[inline]
pub fn checked_contraction_flops(kind: ContractionKind, batch: usize, dim: usize) -> Option<u64> {
    // n³ for mesons, n⁴ for baryons: the element count times the reduced
    // mode length
    let madds = kind.checked_elements(dim)?.checked_mul(dim as u64)?;
    (batch as u64)
        .checked_mul(madds)?
        .checked_mul(FLOPS_PER_CMADD)
}

/// Bytes touched by one hadron contraction: both inputs read, output written.
#[inline]
pub fn contraction_bytes(kind: ContractionKind, batch: usize, dim: usize) -> u64 {
    checked_contraction_bytes(kind, batch, dim).expect("contraction bytes overflow u64")
}

/// [`contraction_bytes`], or `None` when the count overflows `u64`.
#[inline]
pub fn checked_contraction_bytes(kind: ContractionKind, batch: usize, dim: usize) -> Option<u64> {
    checked_tensor_bytes(kind, batch, dim)?.checked_mul(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meson_bytes() {
        // batch 4 of 384x384 complex doubles
        assert_eq!(
            tensor_bytes(ContractionKind::Meson, 4, 384),
            4 * 384 * 384 * 16
        );
    }

    #[test]
    fn baryon_bytes() {
        assert_eq!(tensor_bytes(ContractionKind::Baryon, 2, 10), 2 * 1000 * 16);
    }

    #[test]
    fn meson_flops() {
        assert_eq!(
            contraction_flops(ContractionKind::Meson, 1, 100),
            100u64.pow(3) * 8
        );
        assert_eq!(
            contraction_flops(ContractionKind::Meson, 7, 100),
            7 * 100u64.pow(3) * 8
        );
    }

    #[test]
    fn baryon_flops_scale_n4() {
        let f10 = contraction_flops(ContractionKind::Baryon, 1, 10);
        let f20 = contraction_flops(ContractionKind::Baryon, 1, 20);
        assert_eq!(f20 / f10, 16);
    }

    #[test]
    fn contraction_bytes_is_three_tensors() {
        for kind in [ContractionKind::Meson, ContractionKind::Baryon] {
            assert_eq!(
                contraction_bytes(kind, 3, 12),
                3 * tensor_bytes(kind, 3, 12)
            );
        }
    }

    #[test]
    fn checked_forms_agree_and_catch_overflow() {
        for kind in [ContractionKind::Meson, ContractionKind::Baryon] {
            for (batch, dim) in [(1, 1), (4, 384), (512, 768)] {
                assert_eq!(
                    checked_contraction_flops(kind, batch, dim),
                    Some(contraction_flops(kind, batch, dim))
                );
                assert_eq!(
                    checked_contraction_bytes(kind, batch, dim),
                    Some(contraction_bytes(kind, batch, dim))
                );
            }
        }
        // (2^53)^3 and (2^21)^4 flops overflow, as do 3 * 2^63 bytes
        let (meson, baryon) = (ContractionKind::Meson, ContractionKind::Baryon);
        assert_eq!(checked_contraction_flops(meson, 1, 1 << 53), None);
        assert_eq!(checked_contraction_flops(baryon, 1, 1 << 21), None);
        assert_eq!(checked_contraction_bytes(meson, 1 << 35, 1 << 12), None);
    }

    #[test]
    fn no_overflow_at_paper_scale() {
        // tensor size 768, batch 512 — the largest evaluated configuration —
        // must stay far below u64::MAX.
        let f = contraction_flops(ContractionKind::Baryon, 512, 768);
        assert!(f < u64::MAX / 1024);
    }
}
