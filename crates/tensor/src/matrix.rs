//! Dense square complex matrices (a single batch element of a meson node).

use crate::complex::Complex64;
use crate::TensorError;

/// A dense, row-major `n × n` complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<Complex64>,
}

impl Matrix {
    /// Zero matrix of mode length `n`.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![Complex64::ZERO; n * n],
        }
    }

    /// Identity matrix of mode length `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m.data[i * n + i] = Complex64::ONE;
        }
        m
    }

    /// Build from a generator over `(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        Matrix { n, data }
    }

    /// Mode length `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.data[i * self.n + j]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut Complex64 {
        &mut self.data[i * self.n + j]
    }

    /// Raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// The kernel iterates `i, k, j` so the inner loop streams contiguous
    /// rows of both `rhs` and the output (the classic cache-friendly
    /// ordering; see the Rust Performance Book on iteration order).
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        if self.n != rhs.n {
            return Err(TensorError::ShapeMismatch {
                lhs: (1, self.n),
                rhs: (1, rhs.n),
            });
        }
        let n = self.n;
        let mut out = Matrix::zeros(n);
        matmul_into(&self.data, &rhs.data, &mut out.data, n);
        Ok(out)
    }

    /// `tr(self · rhs)` without materialising the product.
    pub fn trace_inner(&self, rhs: &Matrix) -> Result<Complex64, TensorError> {
        if self.n != rhs.n {
            return Err(TensorError::ShapeMismatch {
                lhs: (1, self.n),
                rhs: (1, rhs.n),
            });
        }
        let n = self.n;
        let mut acc = Complex64::ZERO;
        for i in 0..n {
            for k in 0..n {
                acc.mul_add_assign(self.get(i, k), rhs.get(k, i));
            }
        }
        Ok(acc)
    }

    /// Trace `tr(self)`.
    pub fn trace(&self) -> Complex64 {
        (0..self.n).map(|i| self.get(i, i)).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> Matrix {
        Matrix::from_fn(self.n, |i, j| self.get(j, i).conj())
    }

    /// Element-wise maximum absolute difference from `rhs` (for tests).
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.n, rhs.n, "max_abs_diff requires equal dims");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

/// Row-major `n×n` GEMM accumulating into `out` (which must be zeroed by the
/// caller when a fresh product is wanted). Shared by [`Matrix::matmul`] and
/// the batched kernels so they cannot drift apart.
///
/// Dispatches to a cache-blocked kernel for large matrices; both paths
/// produce **bitwise identical** results because every output element's
/// `k`-accumulation order is globally ascending either way.
#[inline]
pub(crate) fn matmul_into(a: &[Complex64], b: &[Complex64], out: &mut [Complex64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    debug_assert_eq!(out.len(), n * n);
    // A 256×256 complex matrix is 1 MiB — by 128 the B panel no longer
    // fits alongside A and out in L2, so blocking starts paying.
    if n >= 128 {
        gemm_blocked(a, b, out, n);
    } else {
        gemm_naive(a, b, out, n);
    }
}

/// The straightforward `i, k, j` kernel (inner loop streams rows of `b` and
/// `out`).
fn gemm_naive(a: &[Complex64], b: &[Complex64], out: &mut [Complex64], n: usize) {
    for i in 0..n {
        let arow = &a[i * n..(i + 1) * n];
        let orow = &mut out[i * n..(i + 1) * n];
        for (k, &aik) in arow.iter().enumerate() {
            let brow = &b[k * n..(k + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow) {
                o.mul_add_assign(aik, bkj);
            }
        }
    }
}

/// Cache-blocked variant: `k` is panelled so the active slab of `b`
/// (`KB × n` complex ≈ 64 KiB at n = 256) stays in L2 across all rows of
/// `a`. Per output element the `k` order is still globally ascending, so
/// results are bitwise identical to [`gemm_naive`] (floating-point addition
/// order is preserved).
fn gemm_blocked(a: &[Complex64], b: &[Complex64], out: &mut [Complex64], n: usize) {
    const KB: usize = 16;
    let mut kk = 0;
    while kk < n {
        let kend = (kk + KB).min(n);
        for i in 0..n {
            let arow = &a[i * n + kk..i * n + kend];
            let orow = &mut out[i * n..(i + 1) * n];
            for (k, &aik) in (kk..kend).zip(arow) {
                let brow = &b[k * n..(k + 1) * n];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    o.mul_add_assign(aik, bkj);
                }
            }
        }
        kk = kend;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[(f64, f64)]]) -> Matrix {
        let n = rows.len();
        Matrix::from_fn(n, |i, j| Complex64::new(rows[i][j].0, rows[i][j].1))
    }

    #[test]
    fn identity_is_neutral() {
        let a = mat(&[&[(1.0, 2.0), (0.0, -1.0)], &[(3.0, 0.5), (2.0, 2.0)]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn known_product() {
        // [[1, i], [0, 2]] * [[1, 0], [1, 1]] = [[1+i, i], [2, 2]]
        let a = mat(&[&[(1.0, 0.0), (0.0, 1.0)], &[(0.0, 0.0), (2.0, 0.0)]]);
        let b = mat(&[&[(1.0, 0.0), (0.0, 0.0)], &[(1.0, 0.0), (1.0, 0.0)]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.get(0, 0), Complex64::new(1.0, 1.0));
        assert_eq!(c.get(0, 1), Complex64::new(0.0, 1.0));
        assert_eq!(c.get(1, 0), Complex64::new(2.0, 0.0));
        assert_eq!(c.get(1, 1), Complex64::new(2.0, 0.0));
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Matrix::zeros(2);
        let b = Matrix::zeros(3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(a.trace_inner(&b).is_err());
    }

    #[test]
    fn trace_inner_matches_product_trace() {
        let a = mat(&[&[(1.0, 1.0), (2.0, 0.0)], &[(0.0, -1.0), (3.0, 0.0)]]);
        let b = mat(&[&[(0.5, 0.0), (1.0, 1.0)], &[(2.0, -2.0), (0.0, 1.0)]]);
        let direct = a.trace_inner(&b).unwrap();
        let via_product = a.matmul(&b).unwrap().trace();
        assert!((direct - via_product).abs() < 1e-12);
    }

    #[test]
    fn dagger_involution() {
        let a = mat(&[&[(1.0, 1.0), (2.0, -3.0)], &[(0.0, 4.0), (5.0, 0.0)]]);
        assert_eq!(a.dagger().dagger(), a);
        assert_eq!(a.dagger().get(0, 1), Complex64::new(0.0, -4.0));
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn associativity_numerically() {
        let a = mat(&[&[(1.0, 0.3), (0.2, 1.0)], &[(0.0, -0.7), (1.5, 0.0)]]);
        let b = mat(&[&[(0.9, 0.0), (1.1, -1.0)], &[(2.0, 0.4), (0.3, 1.0)]]);
        let c = mat(&[&[(0.1, 0.1), (0.0, 2.0)], &[(1.0, 0.0), (0.5, -0.5)]]);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(left.max_abs_diff(&right) < 1e-12);
    }

    #[test]
    fn max_abs_diff_zero_for_self() {
        let a = Matrix::identity(3);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn blocked_gemm_is_bitwise_identical_to_naive() {
        for n in [7usize, 16, 33, 128, 200] {
            let a = Matrix::from_fn(n, |i, j| {
                Complex64::new(
                    (i as f64 * 0.37 - j as f64 * 0.11).sin(),
                    (i as f64 + 2.0 * j as f64).cos() * 0.5,
                )
            });
            let b = Matrix::from_fn(n, |i, j| {
                Complex64::new(
                    (j as f64 * 0.29 + i as f64 * 0.07).cos(),
                    (3.0 * i as f64 - j as f64).sin() * 0.25,
                )
            });
            let mut naive = vec![Complex64::ZERO; n * n];
            let mut blocked = vec![Complex64::ZERO; n * n];
            gemm_naive(a.as_slice(), b.as_slice(), &mut naive, n);
            gemm_blocked(a.as_slice(), b.as_slice(), &mut blocked, n);
            assert_eq!(
                naive, blocked,
                "n = {n}: float addition order must be preserved"
            );
        }
    }
}
