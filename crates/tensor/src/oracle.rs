//! The naive kernels the tiled ones in `kernels.rs` were derived from,
//! kept as test oracles.
//!
//! Nothing in the engine calls these: each is the plain loop that defines
//! what its production counterpart must compute, bit for bit. Tests and
//! benches call them by name and compare against
//! [`Matrix::matmul`](crate::Matrix::matmul) and
//! [`Matrix::fused_affine_into_runs`](crate::Matrix::fused_affine_into_runs).

use crate::Matrix;

/// `a * b` by the `ikj` loop, skipping zero left coefficients.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
#[must_use]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "oracle::matmul: shape mismatch");
    let (rows, inner, cols) = (a.rows(), a.cols(), b.cols());
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = Matrix::zeros(rows, cols);
    let od = out.as_mut_slice();
    for i in 0..rows {
        for k in 0..inner {
            let av = ad[i * inner + k];
            if av == 0.0 {
                continue;
            }
            let rrow = &bd[k * cols..(k + 1) * cols];
            let orow = &mut od[i * cols..(i + 1) * cols];
            for (o, &r) in orow.iter_mut().zip(rrow) {
                *o += av * r;
            }
        }
    }
    out
}

/// Masked fused affine step: `out = a * weight` and `consts[i] += dot(a.row(i),
/// bias)`, with every column of `a` flagged in `skip` dropped from both —
/// as if `a`'s entry, `weight`'s row and `bias`'s entry were all absent.
///
/// Back-substitution calls the production kernel with the maximal
/// unmasked runs of this mask; the two must agree bit for bit.
///
/// # Panics
///
/// Panics on any shape mismatch between `a`, `weight`, `bias`, `consts`
/// and `skip`.
pub fn fused_affine_masked(
    a: &Matrix,
    weight: &Matrix,
    bias: &[f64],
    consts: &mut [f64],
    out: &mut Matrix,
    skip: &[bool],
) {
    let (inner, cols) = (a.cols(), weight.cols());
    assert_eq!(inner, weight.rows(), "oracle::fused_affine_masked: shape mismatch");
    assert_eq!(bias.len(), inner, "oracle::fused_affine_masked: bias length");
    assert_eq!(skip.len(), inner, "oracle::fused_affine_masked: skip length");
    assert_eq!(consts.len(), a.rows(), "oracle::fused_affine_masked: consts length");
    out.resize_zeroed(a.rows(), cols);
    let (ad, wd) = (a.as_slice(), weight.as_slice());
    let od = out.as_mut_slice();
    for (i, cslot) in consts.iter_mut().enumerate() {
        let mut c = 0.0;
        let arow = &ad[i * inner..(i + 1) * inner];
        for (k, (&av, &b)) in arow.iter().zip(bias).enumerate() {
            if skip[k] {
                continue;
            }
            c += av * b;
            if av == 0.0 {
                continue;
            }
            let wrow = &wd[k * cols..(k + 1) * cols];
            let orow = &mut od[i * cols..(i + 1) * cols];
            for (o, &w) in orow.iter_mut().zip(wrow) {
                *o += av * w;
            }
        }
        *cslot += c;
    }
}
