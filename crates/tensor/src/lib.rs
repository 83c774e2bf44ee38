#![warn(missing_docs)]

//! # micco-tensor
//!
//! Dense complex tensor kernels for many-body correlation functions.
//!
//! Hadron nodes in a correlation-function contraction graph carry *batched*
//! tensors: a meson node is a batch of complex `n × n` matrices (one per
//! dilution/spin combination), a baryon node is a batch of rank-3 tensors.
//! Reducing a graph edge multiplies/contracts the tensors of the two incident
//! nodes. This crate provides those kernels on the CPU (one call runs on the
//! calling thread; `micco-exec` supplies the parallelism with one worker per
//! simulated device) together with the flop/byte accounting used by the
//! `micco-gpusim` cost model, so that the simulated GPU timing and the
//! actually-computed values share one source of truth.
//!
//! The kernels are *real* computations — integration tests use them to verify
//! that every scheduler produces numerically identical correlation values
//! (scheduling must never change results, only placement).

pub mod batched;
pub mod complex;
pub mod flops;
pub mod matrix;
pub mod tensor3;

pub use batched::{BatchedMatrix, BatchedTensor3};
pub use complex::Complex64;
pub use flops::{
    checked_contraction_bytes, checked_contraction_flops, contraction_bytes, contraction_flops,
    tensor_bytes, ContractionKind, COMPLEX_BYTES,
};
pub use matrix::Matrix;
pub use tensor3::Tensor3;

/// A hadron-node payload: either a batch of matrices (meson systems) or a
/// batch of rank-3 tensors (baryon systems).
///
/// The paper (Sec. II-A) uses "tensor" for both; so do we.
#[derive(Debug, Clone, PartialEq)]
pub enum HadronTensor {
    /// Meson-system node: batched complex matrices.
    Mat(BatchedMatrix),
    /// Baryon-system node: batched rank-3 complex tensors.
    T3(BatchedTensor3),
}

impl HadronTensor {
    /// Batch count of the payload.
    pub fn batch(&self) -> usize {
        match self {
            HadronTensor::Mat(m) => m.batch(),
            HadronTensor::T3(t) => t.batch(),
        }
    }

    /// Mode length (`n` for `n×n` matrices or `n×n×n` tensors).
    pub fn dim(&self) -> usize {
        match self {
            HadronTensor::Mat(m) => m.dim(),
            HadronTensor::T3(t) => t.dim(),
        }
    }

    /// Device-memory footprint in bytes of this payload.
    pub fn bytes(&self) -> u64 {
        match self {
            HadronTensor::Mat(m) => flops::tensor_bytes(ContractionKind::Meson, m.batch(), m.dim()),
            HadronTensor::T3(t) => flops::tensor_bytes(ContractionKind::Baryon, t.batch(), t.dim()),
        }
    }

    /// Contract two hadron tensors (a graph-edge reduction).
    ///
    /// Meson nodes multiply batch-wise (`C_b = A_b · B_b`); baryon nodes
    /// contract their last/first modes. Mixed-kind contraction is a caller
    /// error and returns [`TensorError::KindMismatch`].
    pub fn contract(&self, rhs: &HadronTensor) -> Result<HadronTensor, TensorError> {
        match (self, rhs) {
            (HadronTensor::Mat(a), HadronTensor::Mat(b)) => Ok(HadronTensor::Mat(a.matmul(b)?)),
            (HadronTensor::T3(a), HadronTensor::T3(b)) => Ok(HadronTensor::T3(a.contract(b)?)),
            _ => Err(TensorError::KindMismatch),
        }
    }

    /// Frobenius-style scalar reduction used when a graph is fully contracted
    /// down to two nodes: `sum_b tr(A_b · B_b)` for mesons, and the full
    /// pairwise contraction for baryons.
    pub fn trace_inner(&self, rhs: &HadronTensor) -> Result<Complex64, TensorError> {
        match (self, rhs) {
            (HadronTensor::Mat(a), HadronTensor::Mat(b)) => a.trace_inner(b),
            (HadronTensor::T3(a), HadronTensor::T3(b)) => a.inner(b),
            _ => Err(TensorError::KindMismatch),
        }
    }
}

/// Errors from tensor kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorError {
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// Left operand (batch, dim).
        lhs: (usize, usize),
        /// Right operand (batch, dim).
        rhs: (usize, usize),
    },
    /// Meson payload contracted with baryon payload (or vice versa).
    KindMismatch,
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs } => write!(
                f,
                "shape mismatch: lhs (batch {}, dim {}) vs rhs (batch {}, dim {})",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::KindMismatch => {
                write!(f, "cannot contract a meson payload with a baryon payload")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadron_tensor_contract_mesons() {
        let a = BatchedMatrix::identity(2, 3);
        let b = BatchedMatrix::identity(2, 3);
        let c = a.matmul(&b).unwrap();
        let h = HadronTensor::Mat(a)
            .contract(&HadronTensor::Mat(b))
            .unwrap();
        assert_eq!(h, HadronTensor::Mat(c));
    }

    #[test]
    fn hadron_tensor_kind_mismatch() {
        let a = HadronTensor::Mat(BatchedMatrix::identity(1, 2));
        let b = HadronTensor::T3(BatchedTensor3::zeros(1, 2));
        assert_eq!(a.contract(&b).unwrap_err(), TensorError::KindMismatch);
        assert_eq!(a.trace_inner(&b).unwrap_err(), TensorError::KindMismatch);
    }

    #[test]
    fn hadron_tensor_reports_dims() {
        let a = HadronTensor::Mat(BatchedMatrix::identity(4, 7));
        assert_eq!(a.batch(), 4);
        assert_eq!(a.dim(), 7);
        let t = HadronTensor::T3(BatchedTensor3::zeros(3, 5));
        assert_eq!(t.batch(), 3);
        assert_eq!(t.dim(), 5);
    }

    #[test]
    fn bytes_match_flops_module() {
        let a = HadronTensor::Mat(BatchedMatrix::identity(4, 8));
        assert_eq!(a.bytes(), 4 * 8 * 8 * 16);
        let t = HadronTensor::T3(BatchedTensor3::zeros(2, 4));
        assert_eq!(t.bytes(), 2 * 4 * 4 * 4 * 16);
    }

    #[test]
    fn error_display() {
        let e = TensorError::ShapeMismatch {
            lhs: (1, 2),
            rhs: (3, 4),
        };
        assert!(e.to_string().contains("shape mismatch"));
        assert!(TensorError::KindMismatch.to_string().contains("meson"));
    }
}
