//! Dense-vs-revised engine equivalence on randomly generated LPs.
//!
//! Both engines implement the same pivot rules (entering rule, ratio test,
//! tolerances, Bland fallback, two-phase structure), differing only in how
//! the basis arithmetic is carried (pivoted tableau vs. factorized basis
//! inverse). These tests pin the contract down:
//!
//! * same [`Status`] on feasible, infeasible, and degenerate problems;
//! * bit-identical extracted vertices and objectives whenever both
//!   engines are optimal (the canonical vertex extraction is a pure
//!   function of `(problem, vertex)`, independent of the engine);
//! * the revised engine never spends more pivots than the dense one.
//!
//! Coefficients are drawn from a dyadic grid (multiples of 1/8, exactly
//! representable in binary) so the two engines' pricing — mathematically
//! equal but computed through different expressions — stays exact until
//! divisions enter and near-ties cannot flip the Dantzig argmax.

use abonn_lp::{Problem, Relation, Sense, Status};
use proptest::collection::vec;
use proptest::prelude::*;

/// Decodes raw integer draws into a fully boxed dyadic LP with `n`
/// variables: coefficients are eighths in `[-2, 2]`, right-hand sides
/// eighths in `[-4, 4]`, every variable boxed to `[-2, 2]` so the LP is
/// never unbounded and every optimum is a vertex of a polytope.
fn build_lp(
    n: usize,
    sense_raw: u8,
    objective_raw: &[i32],
    rows_raw: &[(Vec<i32>, u8, i32)],
) -> Problem {
    let sense = if sense_raw == 0 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut p = Problem::new(n, sense);
    let c: Vec<f64> = objective_raw[..n].iter().map(|&k| f64::from(k) / 8.0).collect();
    p.set_objective(&c);
    for j in 0..n {
        p.set_bounds(j, -2.0, 2.0);
    }
    for (coeffs_raw, rel_raw, rhs_raw) in rows_raw {
        let a: Vec<f64> = coeffs_raw[..n].iter().map(|&k| f64::from(k) / 8.0).collect();
        let rel = match rel_raw % 3 {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        p.add_row(&a, rel, f64::from(*rhs_raw) / 8.0);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The two engines classify every problem identically, extract
    /// bit-identical optima, and the revised engine never pivots more.
    #[test]
    fn engines_agree_on_dyadic_lps(
        n in 2usize..=4,
        sense_raw in 0u8..=1,
        objective_raw in vec(-16i32..=16, 4),
        rows_raw in vec((vec(-16i32..=16, 4), 0u8..=2, -32i32..=32), 0..=4),
    ) {
        let p = build_lp(n, sense_raw, &objective_raw, &rows_raw);
        let dense = p.solve_dense().unwrap();
        let revised = p.solve().unwrap();
        prop_assert_eq!(dense.status, revised.status);
        if dense.status == Status::Optimal {
            prop_assert_eq!(
                dense.objective.to_bits(),
                revised.objective.to_bits(),
                "objectives differ: dense {} vs revised {}",
                dense.objective,
                revised.objective
            );
            for (a, b) in dense.x.iter().zip(&revised.x) {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "vertices differ: dense {:?} vs revised {:?}", dense.x, revised.x);
            }
        }
        prop_assert!(
            revised.pivots <= dense.pivots,
            "revised spent {} pivots, dense {}",
            revised.pivots,
            dense.pivots
        );
    }

    /// Warm-started resolves agree the same way: snapshot an optimal basis
    /// with each engine, perturb a bound, and resolve warm.
    #[test]
    fn warm_engines_agree_after_bound_tightening(
        n in 2usize..=4,
        sense_raw in 0u8..=1,
        objective_raw in vec(-16i32..=16, 4),
        rows_raw in vec((vec(-16i32..=16, 4), 0u8..=2, -32i32..=32), 0..=4),
        tighten_var in 0usize..4,
        tighten_amt in 1i32..=8,
    ) {
        let mut p = build_lp(n, sense_raw, &objective_raw, &rows_raw);
        let dense0 = p.solve_dense().unwrap();
        let revised0 = p.solve().unwrap();
        prop_assert_eq!(dense0.status, revised0.status);
        let (Some(dw), Some(rw)) = (dense0.warm, revised0.warm) else {
            // No snapshot (non-optimal, or an artificial was left basic):
            // nothing to warm-start.
            return Ok(());
        };
        let j = tighten_var % n;
        let hi = 2.0 - f64::from(tighten_amt) / 4.0;
        p.set_bounds(j, -2.0, hi);
        let dense = p.solve_warm_dense(&dw).unwrap();
        let revised = p.solve_warm(&rw).unwrap();
        prop_assert_eq!(dense.status, revised.status);
        if dense.status == Status::Optimal {
            prop_assert_eq!(
                dense.objective.to_bits(),
                revised.objective.to_bits(),
                "warm objectives differ: dense {} vs revised {}",
                dense.objective,
                revised.objective
            );
            for (a, b) in dense.x.iter().zip(&revised.x) {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "warm vertices differ: dense {:?} vs revised {:?}", dense.x, revised.x);
            }
        }
    }
}
