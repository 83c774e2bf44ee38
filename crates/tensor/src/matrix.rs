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

    /// Matrix product `self · rhs`, by the register-tiled kernel the
    /// batched product uses (bitwise equal to the scalar `i, k, j` loop).
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        if self.n != rhs.n {
            return Err(TensorError::ShapeMismatch {
                lhs: (1, self.n),
                rhs: (1, rhs.n),
            });
        }
        let n = self.n;
        let mut out = Matrix::zeros(n);
        let mut planes = vec![0.0; 2 * n * n];
        matmul_into(&self.data, &rhs.data, &mut out.data, n, &mut planes);
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
/// `planes` is scratch of length `2n²` that receives `b`'s real and
/// imaginary parts as two row-major planes; a batched caller allocates it
/// once and reuses it for every element. Each output element starts from
/// its value in `out`, accumulates over `k` in ascending order and
/// evaluates `re += ar·br − ai·bi; im += ar·bi + ai·br` exactly as
/// [`Complex64::mul_add_assign`] does, so every kernel instance gives the
/// same bits as that scalar loop.
pub(crate) fn matmul_into(
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    n: usize,
    planes: &mut [f64],
) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    debug_assert_eq!(out.len(), n * n);
    let (bre, bim) = planes.split_at_mut(n * n);
    for ((z, re), im) in b.iter().zip(bre.iter_mut()).zip(bim.iter_mut()) {
        *re = z.re;
        *im = z.im;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            // SAFETY: `is_x86_feature_detected!` just found AVX-512F on
            // this CPU, the only feature `gemm_avx512` is compiled for.
            unsafe { gemm_avx512(a, bre, bim, out, n) };
            return;
        }
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for AVX2 and `gemm_avx2`.
            unsafe { gemm_avx2(a, bre, bim, out, n) };
            return;
        }
    }
    gemm_tiled(a, bre, bim, out, n);
}

/// Output rows per register tile.
const MR: usize = 4;
/// Output columns per register tile.
const NR: usize = 8;

/// The tiled kernel compiled with AVX-512F, which holds a 4×8 tile's
/// accumulators in eight of its 32 512-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512(a: &[Complex64], bre: &[f64], bim: &[f64], out: &mut [Complex64], n: usize) {
    gemm_tiled(a, bre, bim, out, n);
}

/// The tiled kernel compiled with AVX2, which holds a 4×8 tile's
/// accumulators in sixteen 256-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: &[Complex64], bre: &[f64], bim: &[f64], out: &mut [Complex64], n: usize) {
    gemm_tiled(a, bre, bim, out, n);
}

/// The one GEMM body: `MR × NR` tiles of `out`, then the rows and columns
/// left over go through the same tile code one row or one column wide.
/// Inlined into each caller, it is compiled once for the target's baseline
/// instruction set (the portable instance), once in `gemm_avx2` and once
/// in `gemm_avx512`, all with the same tile.
#[inline(always)]
fn gemm_tiled(a: &[Complex64], bre: &[f64], bim: &[f64], out: &mut [Complex64], n: usize) {
    let full_rows = n - n % MR;
    let full_cols = n - n % NR;
    for i in (0..full_rows).step_by(MR) {
        for j in (0..full_cols).step_by(NR) {
            tile::<MR, NR>(a, bre, bim, out, n, i, j);
        }
        for j in full_cols..n {
            tile::<MR, 1>(a, bre, bim, out, n, i, j);
        }
    }
    for i in full_rows..n {
        for j in (0..full_cols).step_by(NR) {
            tile::<1, NR>(a, bre, bim, out, n, i, j);
        }
        for j in full_cols..n {
            tile::<1, 1>(a, bre, bim, out, n, i, j);
        }
    }
}

/// One `R × C` tile of `out` at `(i, j)`, its accumulators in registers
/// for the whole `k` loop. Each element's own operations are those of the
/// scalar loop, in the same order; only independent elements run side by
/// side.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: &[Complex64],
    bre: &[f64],
    bim: &[f64],
    out: &mut [Complex64],
    n: usize,
    i: usize,
    j: usize,
) {
    let mut acc_re = [[0.0; C]; R];
    let mut acc_im = [[0.0; C]; R];
    for (r, (re, im)) in acc_re.iter_mut().zip(acc_im.iter_mut()).enumerate() {
        for (c, z) in out[(i + r) * n + j..][..C].iter().enumerate() {
            re[c] = z.re;
            im[c] = z.im;
        }
    }
    let arows: [&[Complex64]; R] = std::array::from_fn(|r| &a[(i + r) * n..][..n]);
    for (k, (br, bi)) in bre.chunks_exact(n).zip(bim.chunks_exact(n)).enumerate() {
        let br = &br[j..][..C];
        let bi = &bi[j..][..C];
        for ((re, im), arow) in acc_re.iter_mut().zip(acc_im.iter_mut()).zip(arows) {
            let x = arow[k];
            for c in 0..C {
                re[c] += x.re * br[c] - x.im * bi[c];
                im[c] += x.re * bi[c] + x.im * br[c];
            }
        }
    }
    for (r, (re, im)) in acc_re.iter().zip(&acc_im).enumerate() {
        for (c, z) in out[(i + r) * n + j..][..C].iter_mut().enumerate() {
            *z = Complex64::new(re[c], im[c]);
        }
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

    /// The scalar `i, k, j` loop every kernel instance must equal bit for
    /// bit.
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

    fn to_bits(m: &[Complex64]) -> Vec<(u64, u64)> {
        m.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn tiled_gemm_is_bitwise_identical_to_naive() {
        // Sizes below, at and above the 4×8 tile, with and without the
        // partial rows and columns. Each instance this CPU can run is
        // called directly, since dispatch reaches only the widest one.
        for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 128, 200] {
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
            // A non-zero start checks that products accumulate into `out`.
            let start = Matrix::from_fn(n, |i, j| Complex64::new(i as f64 * 0.5, -(j as f64)));
            let mut naive = start.as_slice().to_vec();
            gemm_naive(a.as_slice(), b.as_slice(), &mut naive, n);

            let mut planes = vec![0.0; 2 * n * n];
            let mut dispatched = start.as_slice().to_vec();
            matmul_into(a.as_slice(), b.as_slice(), &mut dispatched, n, &mut planes);
            assert_eq!(to_bits(&dispatched), to_bits(&naive), "n = {n}: dispatched");

            let (bre, bim) = planes.split_at(n * n);
            let run = |kernel: &dyn Fn(&mut [Complex64])| {
                let mut got = start.as_slice().to_vec();
                kernel(&mut got);
                to_bits(&got)
            };
            let want = to_bits(&naive);
            assert_eq!(
                run(&|o| gemm_tiled(a.as_slice(), bre, bim, o, n)),
                want,
                "n = {n}: portable"
            );
            #[cfg(target_arch = "x86_64")]
            {
                if std::is_x86_feature_detected!("avx2") {
                    // SAFETY: the CPU has AVX2.
                    let got = run(&|o| unsafe { gemm_avx2(a.as_slice(), bre, bim, o, n) });
                    assert_eq!(got, want, "n = {n}: avx2");
                }
                if std::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the CPU has AVX-512F.
                    let got = run(&|o| unsafe { gemm_avx512(a.as_slice(), bre, bim, o, n) });
                    assert_eq!(got, want, "n = {n}: avx512");
                }
            }
        }
    }
}
