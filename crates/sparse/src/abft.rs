//! Algorithm-based fault tolerance (ABFT) for the sparse kernels.
//!
//! Huang–Abraham style checksums adapted to sparse storage: an
//! [`AbftCsr`] carries the row-sum (`A·e`) and column-sum (`eᵀ·A`)
//! checksum vectors of its matrix, captured when the wrapper is built
//! (the *trusted baseline*). Every checked kernel then verifies an
//! identity the checksums imply:
//!
//! * `y = A x` — the output must satisfy `Σᵢ yᵢ = (eᵀA)·x`
//!   ([`AbftCsr::spmv_checked`], [`AbftCsr::spmv_identity_top_checked`]);
//! * `C = A B` — the product's column sums must equal `(eᵀA)·B` and its
//!   row sums must equal `A·(B e)` ([`spgemm_twopass_checked`],
//!   [`spgemm_spa_checked`], [`spgemm_hash_checked`]). Both directions
//!   run because each is blind to one input: a corrupted `B` cancels
//!   out of the column identity (both sides see the same `B`) but not
//!   the row identity, and vice versa for `A`.
//!
//! A bit flipped in a value array after the baseline was captured
//! perturbs one side of the identity and not the other, so the check
//! fails — that is the detection. Flips whose numerical effect is below
//! the floating-point tolerance are *masked*: indistinguishable from
//! rounding, and harmless at the same magnitude.
//!
//! # Tolerance design
//!
//! Checks compare quantities computed along different summation orders,
//! so they differ by genuine rounding. Each verification derives a
//! bound from the *magnitude* sums (`eᵀ|A|`, `|A|·e` — also carried by
//! the wrapper): for a length-`n` accumulation of terms bounded by `M`,
//! the error is below `n · ε · M`, and the detection threshold is that
//! bound times [`ABFT_TOL_FACTOR`]. The factor makes false positives
//! impossible in practice (the real error behaves like `√n · ε · M`)
//! while keeping the threshold many orders of magnitude below any bit
//! flip that matters. [`AbftCsr::spmv_tolerance`] exposes the threshold
//! so experiments can classify injected flips as above or below it.

use std::error::Error;
use std::fmt;

use crate::csr::Csr;
use crate::spgemm::{spgemm_hash, spgemm_spa, spgemm_twopass, SpGemmResult};
use crate::SpOpStats;

/// Safety factor between the worst-case rounding bound and the
/// detection threshold. Large enough that rounding can never trip a
/// check, small enough that only sub-rounding flips are masked.
pub const ABFT_TOL_FACTOR: f64 = 32.0;

/// Absolute tolerance floor, so an all-zero problem (zero magnitudes)
/// still tolerates denormal dust without dividing by zero anywhere.
const ABFT_TOL_FLOOR: f64 = 1e-290;

/// A failed ABFT verification: the checksum identity of `kernel` was
/// violated by more than the rounding tolerance — silent data
/// corruption detected.
#[derive(Debug, Clone, PartialEq)]
pub struct AbftError {
    /// The kernel whose check failed.
    pub kernel: &'static str,
    /// Observed violation of the checksum identity (`NaN`/`Inf` if the
    /// data itself was non-finite).
    pub discrepancy: f64,
    /// The rounding tolerance the violation exceeded.
    pub tolerance: f64,
}

impl fmt::Display for AbftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ABFT check failed in {}: checksum discrepancy {:e} exceeds tolerance {:e}",
            self.kernel, self.discrepancy, self.tolerance
        )
    }
}

impl Error for AbftError {}

/// Column sums `eᵀ·A` and their magnitude counterpart `eᵀ·|A|`.
fn col_sums_of(a: &Csr) -> (Vec<f64>, Vec<f64>) {
    let mut sums = vec![0.0; a.ncols()];
    let mut mags = vec![0.0; a.ncols()];
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            sums[c] += v;
            mags[c] += v.abs();
        }
    }
    (sums, mags)
}

/// Row sums `A·e` and their magnitude counterpart `|A|·e`.
fn row_sums_of(a: &Csr) -> (Vec<f64>, Vec<f64>) {
    let mut sums = vec![0.0; a.nrows()];
    let mut mags = vec![0.0; a.nrows()];
    for r in 0..a.nrows() {
        let (_, vals) = a.row(r);
        for &v in vals {
            sums[r] += v;
            mags[r] += v.abs();
        }
    }
    (sums, mags)
}

fn check(kernel: &'static str, discrepancy: f64, tolerance: f64) -> Result<(), AbftError> {
    if discrepancy.is_finite() && discrepancy <= tolerance {
        Ok(())
    } else {
        Err(AbftError {
            kernel,
            discrepancy,
            tolerance,
        })
    }
}

/// A CSR matrix carrying its ABFT checksum vectors.
///
/// The checksums are captured at construction (or on
/// [`AbftCsr::refresh`]) and are the *trusted baseline* every check
/// compares against: corruption striking the value array afterwards —
/// via [`cpx_comm::BitFlipInjector`] or otherwise — is caught by the
/// next checked kernel or by [`AbftCsr::verify_values`].
#[derive(Debug, Clone)]
pub struct AbftCsr {
    matrix: Csr,
    col_sums: Vec<f64>,
    col_mags: Vec<f64>,
    row_sums: Vec<f64>,
    row_mags: Vec<f64>,
}

impl AbftCsr {
    /// Wrap `matrix`, capturing its checksum vectors as the trusted
    /// baseline. One `O(nnz)` pass.
    pub fn new(matrix: Csr) -> AbftCsr {
        let (col_sums, col_mags) = col_sums_of(&matrix);
        let (row_sums, row_mags) = row_sums_of(&matrix);
        AbftCsr {
            matrix,
            col_sums,
            col_mags,
            row_sums,
            row_mags,
        }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Csr {
        &self.matrix
    }

    /// Mutable access to the wrapped matrix. The checksum baseline is
    /// deliberately *not* refreshed — mutations made here are exactly
    /// what the checks detect (this is the fault-injection surface).
    /// After a legitimate update, call [`AbftCsr::refresh`].
    pub fn matrix_mut(&mut self) -> &mut Csr {
        &mut self.matrix
    }

    /// Recapture the checksum baseline after a legitimate matrix
    /// update.
    pub fn refresh(&mut self) {
        let (col_sums, col_mags) = col_sums_of(&self.matrix);
        let (row_sums, row_mags) = row_sums_of(&self.matrix);
        self.col_sums = col_sums;
        self.col_mags = col_mags;
        self.row_sums = row_sums;
        self.row_mags = row_mags;
    }

    /// The trusted column-sum vector `eᵀ·A`.
    pub fn col_sums(&self) -> &[f64] {
        &self.col_sums
    }

    /// The trusted row-sum vector `A·e`.
    pub fn row_sums(&self) -> &[f64] {
        &self.row_sums
    }

    /// Verify the stored values against the baseline row sums —
    /// an `O(nnz)` scrub catching any above-threshold flip in the value
    /// array without running a kernel.
    pub fn verify_values(&self) -> Result<(), AbftError> {
        let (sums, mags) = row_sums_of(&self.matrix);
        for r in 0..self.matrix.nrows() {
            let nnz_r = self.matrix.row(r).0.len() as f64;
            let tol =
                ABFT_TOL_FACTOR * f64::EPSILON * (nnz_r + 1.0) * self.row_mags[r].max(mags[r])
                    + ABFT_TOL_FLOOR;
            check("verify_values", (sums[r] - self.row_sums[r]).abs(), tol)?;
        }
        Ok(())
    }

    /// The detection threshold of [`AbftCsr::spmv_checked`] for input
    /// `x`: an injected perturbation of the product with numerical
    /// effect above this is guaranteed caught; below it, masked.
    pub fn spmv_tolerance(&self, x: &[f64]) -> f64 {
        let mag: f64 = self
            .col_mags
            .iter()
            .zip(x)
            .map(|(m, xi)| m * xi.abs())
            .sum();
        let n = (self.matrix.nrows() + self.matrix.ncols()) as f64;
        ABFT_TOL_FACTOR * f64::EPSILON * n * mag + ABFT_TOL_FLOOR
    }

    /// `y = A x` with ABFT verification: checks `Σᵢ yᵢ = (eᵀA)·x`
    /// against the trusted baseline. `O(n)` on top of the kernel.
    pub fn spmv_checked(&self, x: &[f64], y: &mut [f64]) -> Result<SpOpStats, AbftError> {
        let stats = self.matrix.spmv(x, y);
        self.verify_spmv_output("spmv", x, y)?;
        Ok(stats)
    }

    /// [`Csr::spmv_identity_top`] with the same ABFT verification as
    /// [`AbftCsr::spmv_checked`].
    pub fn spmv_identity_top_checked(
        &self,
        k: usize,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<SpOpStats, AbftError> {
        let stats = self.matrix.spmv_identity_top(k, x, y);
        self.verify_spmv_output("spmv_identity_top", x, y)?;
        Ok(stats)
    }

    fn verify_spmv_output(
        &self,
        kernel: &'static str,
        x: &[f64],
        y: &[f64],
    ) -> Result<(), AbftError> {
        let got: f64 = y.iter().sum();
        let want: f64 = self.col_sums.iter().zip(x).map(|(c, xi)| c * xi).sum();
        check(kernel, (got - want).abs(), self.spmv_tolerance(x))
    }
}

/// Verify `C = A·B` against the trusted baselines of both inputs:
/// column sums of `C` against `(eᵀA)·B` (catches corruption of `A` or
/// `C`) and row sums of `C` against `A·(B e)` (catches corruption of
/// `B` or `C`). Element-wise, so cancellation in one row or column of
/// an input cannot hide a flip. `O(nnz(A) + nnz(B) + nnz(C))`.
pub fn verify_spgemm(
    kernel: &'static str,
    a: &AbftCsr,
    b: &AbftCsr,
    c: &Csr,
) -> Result<(), AbftError> {
    let am = a.matrix();
    let bm = b.matrix();
    let n = am.nrows();
    let m = bm.ncols();
    let depth = f64::EPSILON * (n + m) as f64 * ABFT_TOL_FACTOR;

    // Column identity: colsums(C) =?= (eᵀA)_trusted · B_current.
    let mut want = vec![0.0; m];
    let mut mag = vec![0.0; m];
    for k in 0..bm.nrows() {
        let (cols, vals) = bm.row(k);
        let (s, g) = (a.col_sums()[k], a.col_mags[k]);
        for (&c0, &v) in cols.iter().zip(vals) {
            want[c0] += s * v;
            mag[c0] += g * v.abs();
        }
    }
    let (got, got_mag) = col_sums_of(c);
    for j in 0..m {
        let tol = depth * mag[j].max(got_mag[j]) + ABFT_TOL_FLOOR;
        check(kernel, (got[j] - want[j]).abs(), tol)?;
    }

    // Row identity: rowsums(C) =?= A_current · (B e)_trusted.
    let (got, got_mag) = row_sums_of(c);
    for i in 0..n {
        let (cols, vals) = am.row(i);
        let mut want_i = 0.0;
        let mut mag_i = 0.0;
        for (&k, &v) in cols.iter().zip(vals) {
            want_i += v * b.row_sums()[k];
            mag_i += v.abs() * b.row_mags[k];
        }
        let tol = depth * mag_i.max(got_mag[i]) + ABFT_TOL_FLOOR;
        check(kernel, (got[i] - want_i).abs(), tol)?;
    }
    Ok(())
}

/// [`spgemm_twopass`] with ABFT verification of the product.
pub fn spgemm_twopass_checked(a: &AbftCsr, b: &AbftCsr) -> Result<SpGemmResult, AbftError> {
    let result = spgemm_twopass(a.matrix(), b.matrix());
    verify_spgemm("spgemm_twopass", a, b, &result.product)?;
    Ok(result)
}

/// [`spgemm_spa`] with ABFT verification of the product.
pub fn spgemm_spa_checked(
    a: &AbftCsr,
    b: &AbftCsr,
    chunks: usize,
) -> Result<SpGemmResult, AbftError> {
    let result = spgemm_spa(a.matrix(), b.matrix(), chunks);
    verify_spgemm("spgemm_spa", a, b, &result.product)?;
    Ok(result)
}

/// [`spgemm_hash`] with ABFT verification of the product.
pub fn spgemm_hash_checked(a: &AbftCsr, b: &AbftCsr) -> Result<SpGemmResult, AbftError> {
    let result = spgemm_hash(a.matrix(), b.matrix());
    verify_spgemm("spgemm_hash", a, b, &result.product)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpx_comm::BitFlipInjector;

    fn flip_val(m: &mut Csr, idx: usize, bit: u32) -> f64 {
        let old = m.vals()[idx];
        let new = BitFlipInjector::flip(old, bit);
        m.vals_mut()[idx] = new;
        (new - old).abs()
    }

    #[test]
    fn clean_spmv_passes() {
        let a = AbftCsr::new(Csr::poisson2d(20, 20));
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y = vec![0.0; 400];
        a.spmv_checked(&x, &mut y).expect("clean spmv must pass");
        let mut y2 = vec![0.0; 400];
        a.matrix().spmv(&x, &mut y2);
        assert_eq!(y, y2, "checked spmv must not perturb the result");
    }

    #[test]
    fn exponent_flip_in_vals_is_caught_by_spmv() {
        let mut a = AbftCsr::new(Csr::poisson2d(16, 16));
        flip_val(a.matrix_mut(), 100, 62); // exponent bit: huge delta
        let x = vec![1.0; 256];
        let mut y = vec![0.0; 256];
        let err = a.spmv_checked(&x, &mut y).expect_err("must detect");
        assert_eq!(err.kernel, "spmv");
        assert!(err.discrepancy > err.tolerance);
    }

    #[test]
    fn nan_producing_flip_is_caught() {
        let mut a = AbftCsr::new(Csr::poisson1d(50));
        // Set all exponent bits: -1.0 -> NaN territory via bit 52..62.
        let v = a.matrix().vals()[10];
        a.matrix_mut().vals_mut()[10] = f64::from_bits(v.to_bits() | 0x7ff0_0000_0000_0001);
        let x = vec![1.0; 50];
        let mut y = vec![0.0; 50];
        assert!(a.spmv_checked(&x, &mut y).is_err());
    }

    #[test]
    fn below_threshold_flip_is_masked() {
        let mut a = AbftCsr::new(Csr::poisson2d(16, 16));
        let delta = flip_val(a.matrix_mut(), 100, 0); // lowest mantissa bit
        let x = vec![1.0; 256];
        assert!(delta < a.spmv_tolerance(&x), "bit 0 flip is sub-rounding");
        let mut y = vec![0.0; 256];
        a.spmv_checked(&x, &mut y)
            .expect("sub-tolerance flip must not fire");
    }

    #[test]
    fn verify_values_scrub_catches_flip() {
        let mut a = AbftCsr::new(Csr::poisson3d(6, 6, 6));
        a.verify_values().expect("clean scrub");
        flip_val(a.matrix_mut(), 50, 61);
        assert!(a.verify_values().is_err());
        a.refresh();
        a.verify_values().expect("refresh re-baselines");
    }

    #[test]
    fn spmv_identity_top_checked_matches_and_detects() {
        use crate::coo::Coo;
        let mut coo = Coo::new(6, 3);
        for i in 0..3 {
            coo.push(i, i, 1.0);
        }
        coo.push(3, 0, 0.5);
        coo.push(4, 1, 2.0);
        coo.push(5, 2, -1.5);
        let a = AbftCsr::new(coo.to_csr());
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 6];
        a.spmv_identity_top_checked(3, &x, &mut y).expect("clean");
        assert_eq!(y[..3], x[..]);

        let mut bad = a.clone();
        // Flip a tail value (the identity top is never read by the
        // kernel, so only tail flips can corrupt the output).
        let idx = bad.matrix().rowptr()[4];
        flip_val(bad.matrix_mut(), idx, 62);
        assert!(bad.spmv_identity_top_checked(3, &x, &mut y).is_err());
    }

    #[test]
    fn clean_spgemm_passes_all_variants() {
        let a = AbftCsr::new(Csr::poisson2d(12, 12));
        let b = AbftCsr::new(Csr::poisson2d(12, 12));
        spgemm_twopass_checked(&a, &b).expect("twopass clean");
        spgemm_spa_checked(&a, &b, 4).expect("spa clean");
        spgemm_hash_checked(&a, &b).expect("hash clean");
    }

    #[test]
    fn corrupted_a_input_is_caught_by_spgemm() {
        let mut a = AbftCsr::new(Csr::poisson2d(10, 10));
        let b = AbftCsr::new(Csr::poisson2d(10, 10));
        flip_val(a.matrix_mut(), 17, 60);
        assert!(spgemm_twopass_checked(&a, &b).is_err());
        assert!(spgemm_spa_checked(&a, &b, 2).is_err());
        assert!(spgemm_hash_checked(&a, &b).is_err());
    }

    #[test]
    fn corrupted_b_input_is_caught_by_spgemm() {
        let a = AbftCsr::new(Csr::poisson2d(10, 10));
        let mut b = AbftCsr::new(Csr::poisson2d(10, 10));
        flip_val(b.matrix_mut(), 23, 60);
        assert!(spgemm_spa_checked(&a, &b, 3).is_err());
    }

    #[test]
    fn corrupted_product_is_caught_by_verify() {
        let a = AbftCsr::new(Csr::poisson2d(10, 10));
        let b = AbftCsr::new(Csr::poisson2d(10, 10));
        let mut c = spgemm_spa(a.matrix(), b.matrix(), 1).product;
        verify_spgemm("test", &a, &b, &c).expect("clean product");
        flip_val(&mut c, 40, 59);
        assert!(verify_spgemm("test", &a, &b, &c).is_err());
    }

    #[test]
    fn zero_row_sums_do_not_hide_input_corruption() {
        // Poisson interior rows/cols sum to ~0 — the scalar-total check
        // would be blind there; the element-wise identity is not.
        let n = 20;
        let mut a = AbftCsr::new(Csr::poisson1d(n));
        let b = AbftCsr::new(Csr::poisson1d(n));
        // Corrupt a value in an interior row (row sums to zero).
        let idx = a.matrix().rowptr()[n / 2] + 1;
        flip_val(a.matrix_mut(), idx, 58);
        assert!(spgemm_spa_checked(&a, &b, 2).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = AbftError {
            kernel: "spmv",
            discrepancy: 1.5,
            tolerance: 1e-12,
        };
        let s = e.to_string();
        assert!(s.contains("spmv") && s.contains("tolerance"));
    }
}
