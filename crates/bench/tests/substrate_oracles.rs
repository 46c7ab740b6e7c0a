//! The production tensor kernels against their oracles on real operands.
//!
//! The `matrix.rs` proptests pin every kernel to its oracle on random
//! small shapes; this test does the same on the operands verification
//! actually feeds them. For each zoo model of the smoke Table II set it
//! takes every lowered layer `j` below the margin output, and runs the
//! back-substitution step `W_{j+1} · W_j` (with `b_j` into the constant
//! terms) under the skip mask a root `DeepPoly::planet()` analysis at the
//! model's first calibrated instance produces for layer `j`. The
//! production kernels must reproduce the oracles bit for bit:
//! `Matrix::fused_affine_into_runs` over the mask's unmasked runs against
//! `oracle::fused_affine_masked`, and `Matrix::matmul` against
//! `oracle::matmul`.

use abonn_bench::scenario::prepare_model;
use abonn_bound::{AppVer, DeepPoly, ReluRelaxation, SplitSet};
use abonn_core::RobustnessProblem;
use abonn_data::zoo::ModelKind;
use abonn_tensor::{oracle, Matrix};

/// Maximal unmasked intervals of `skip`, as back-substitution condenses
/// them for the runs kernel.
fn runs_of(skip: &[bool]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (k, &s) in skip.iter().enumerate() {
        match (s, start) {
            (false, None) => start = Some(k),
            (true, Some(b)) => {
                runs.push((b, k));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(b) = start {
        runs.push((b, skip.len()));
    }
    runs
}

fn bits(m: &Matrix, consts: &[f64]) -> Vec<u64> {
    m.as_slice().iter().chain(consts).map(|v| v.to_bits()).collect()
}

#[test]
fn kernels_match_their_oracles_on_zoo_operands() {
    let mut masked = 0usize;
    let mut unmasked = 0usize;
    for kind in ModelKind::ALL {
        let prepared = prepare_model(kind, 1, 2025);
        let instance = &prepared.instances[0];
        let problem = RobustnessProblem::new(
            &prepared.network,
            instance.input.clone(),
            instance.label,
            instance.epsilon,
        )
        .expect("suite instances are valid specifications");
        let net = problem.margin_net();
        let analysis = DeepPoly::planet().analyze(net, problem.region(), &SplitSet::new());
        assert!(!analysis.infeasible, "{kind:?}: the root region is feasible");
        let layers = net.layers();
        for j in 0..layers.len() - 1 {
            let (stage, coeffs) = (&layers[j], &layers[j + 1].weight);
            let lb = &analysis.bounds[j];
            // The mask back-substitution builds: neurons whose ReLU
            // relaxation is identically zero.
            let skip: Vec<bool> = lb
                .lower
                .iter()
                .zip(&lb.upper)
                .map(|(&l, &u)| {
                    let r = ReluRelaxation::deeppoly(l, u);
                    r.lower_slope == 0.0 && r.upper_slope == 0.0 && r.upper_intercept == 0.0
                })
                .collect();
            masked += skip.iter().filter(|&&s| s).count();
            unmasked += skip.iter().filter(|&&s| !s).count();

            let consts0: Vec<f64> = (0..coeffs.rows()).map(|i| i as f64 * 0.25 - 1.0).collect();
            let mut got_c = consts0.clone();
            let mut got = Matrix::default();
            coeffs.fused_affine_into_runs(
                &stage.weight,
                &stage.bias,
                &mut got_c,
                &mut got,
                &runs_of(&skip),
            );
            let mut want_c = consts0;
            let mut want = Matrix::default();
            oracle::fused_affine_masked(
                coeffs,
                &stage.weight,
                &stage.bias,
                &mut want_c,
                &mut want,
                &skip,
            );
            assert_eq!(
                bits(&got, &got_c),
                bits(&want, &want_c),
                "{kind:?} layer {j}: fused_affine_into_runs diverged from its oracle"
            );
            assert_eq!(
                bits(&coeffs.matmul(&stage.weight), &[]),
                bits(&oracle::matmul(coeffs, &stage.weight), &[]),
                "{kind:?} layer {j}: matmul diverged from its oracle"
            );
        }
    }
    assert!(
        masked > 0 && unmasked > 0,
        "the root masks must mix skipped and kept columns ({masked} masked, {unmasked} kept)"
    );
}
