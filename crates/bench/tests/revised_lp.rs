//! Acceptance check for the revised-simplex pivot engine on an MNIST
//! suite slice.
//!
//! Drives the BaB baseline with the exact triangle-LP relaxation as its
//! `AppVer` on calibrated MNIST instances, once on the revised engine
//! (what `Problem::solve` runs) and once on the dense-tableau oracle
//! (`LpVerifier::with_dense_oracle`), and asserts — on call-based
//! counters only, never wall time — that:
//!
//! * verdicts, search shape, and pivot sequences are identical (the
//!   engines walk the same pivot paths; only the per-pivot work
//!   differs),
//! * the revised engine cuts per-pivot basis-update cell writes by at
//!   least 30% (the measured ratio on this slice is ~0.6).

use abonn_bench::scenario::prepare_model;
use abonn_bound::LpVerifier;
use abonn_core::heuristics::HeuristicKind;
use abonn_core::{BabBaseline, Budget, RobustnessProblem, RunResult, Verifier, WorkerPool};
use abonn_data::zoo::ModelKind;
use std::sync::Arc;

fn run_lp_bab(lp: LpVerifier, problem: &RobustnessProblem, budget: &Budget) -> RunResult {
    let lp = lp.with_warm_start(true);
    let mut bab = BabBaseline::new(HeuristicKind::DeepSplit, Arc::new(lp));
    bab.warm_start = true;
    bab.with_pool(Arc::new(WorkerPool::new(1)))
        .verify(problem, budget)
}

#[test]
fn revised_simplex_cuts_pivot_cells_on_mnist() {
    let prepared = prepare_model(ModelKind::MnistL2, 2, 2025);
    let budget = Budget::with_appver_calls(10);

    let mut dense_cells = 0usize;
    let mut revised_cells = 0usize;
    let mut pivots = 0usize;
    for instance in &prepared.instances {
        let problem = RobustnessProblem::new(
            &prepared.network,
            instance.input.clone(),
            instance.label,
            instance.epsilon,
        )
        .expect("suite instances are valid specifications");
        let revised = run_lp_bab(LpVerifier::new(), &problem, &budget);
        let dense = run_lp_bab(LpVerifier::new().with_dense_oracle(), &problem, &budget);

        // The engines must be interchangeable in every observable way
        // except the per-pivot work metric.
        assert_eq!(revised.verdict, dense.verdict, "the engine changed the verdict");
        assert_eq!(revised.stats.appver_calls, dense.stats.appver_calls);
        assert_eq!(revised.stats.nodes_visited, dense.stats.nodes_visited);
        assert_eq!(revised.stats.tree_size, dense.stats.tree_size);
        assert_eq!(revised.stats.max_depth, dense.stats.max_depth);
        assert_eq!(
            revised.stats.lp_pivots, dense.stats.lp_pivots,
            "the engines must walk identical pivot paths"
        );
        assert_eq!(revised.stats.lp_warm_hits, dense.stats.lp_warm_hits);
        assert_eq!(revised.stats.lp_cold_solves, dense.stats.lp_cold_solves);

        dense_cells += dense.stats.lp_pivot_cells;
        revised_cells += revised.stats.lp_pivot_cells;
        pivots += revised.stats.lp_pivots;
    }

    eprintln!(
        "mnist lp slice: {pivots} pivots, {dense_cells} dense cells vs \
         {revised_cells} revised cells"
    );
    assert!(pivots > 0, "suite slice exercised no LP pivots");
    assert!(dense_cells > 0, "dense engine reported no pivot cells");
    assert!(
        revised_cells * 10 <= dense_cells * 7,
        "expected >= 30% per-pivot-work reduction, \
         got {revised_cells} revised vs {dense_cells} dense cells"
    );
}
