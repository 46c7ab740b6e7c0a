//! The Table-II grid workloads: ABONN and BaB-baseline on calibrated
//! robustness instances, single-threaded, with call-only budgets.

use crate::appver::{TracedAppVer, APPVER_SPAN};
use crate::report::{peak_rss_mb, work_digest, Outcome};
use crate::rng::SplitMix;
use crate::trace::{self, median, percentile, Tracer};
use crate::Args;
use abonn_bound::{AppVer, DeepPoly};
use abonn_core::heuristics::HeuristicKind;
use abonn_core::{
    AbonnConfig, AbonnVerifier, BabBaseline, Budget, RobustnessProblem, RunResult, RunStats,
    Verdict, Verifier,
};
use abonn_data::{suite, ModelKind, SuiteConfig};
use abonn_nn::Network;
use abonn_vnnlib::Property;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed the benchmark models are trained with and their instance suites
/// are calibrated from. Models and instances are fixed, like the paper's
/// benchmark networks and images, so every workload seed measures the same
/// work; the seed sets the order the problems are verified in.
pub const TRAIN_SEED: u64 = 2025;

/// How many times set-up runs in an untraced run (the median is reported).
pub const SETUP_REPS: usize = 3;

/// One grid workload.
pub struct GridSpec {
    pub models: &'static [ModelKind],
    /// Calibrated instances per model.
    pub per_model: usize,
    /// Per-problem AppVer-call budget.
    pub calls: usize,
}

/// CIFAR conv models: DeepPoly back-substitution through the tensor
/// kernels carries the time.
pub const CONV: GridSpec = GridSpec {
    models: &[
        ModelKind::CifarBase,
        ModelKind::CifarWide,
        ModelKind::CifarDeep,
    ],
    per_model: 6,
    calls: 150,
};

/// MNIST dense models: small AppVer calls, so per-call fixed costs and the
/// engines' own tree work carry the time.
pub const DENSE: GridSpec = GridSpec {
    models: &[ModelKind::MnistL2, ModelKind::MnistL4],
    per_model: 20,
    calls: 600,
};

/// The two tree-search engines compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// ABONN with the paper's defaults, λ = 0.5 and c = 0.2.
    Abonn,
    /// Breadth-first BaB-baseline.
    Bab,
}

impl Engine {
    pub const ALL: [Engine; 2] = [Engine::Abonn, Engine::Bab];

    /// Builds the engine over `appver`, single-threaded.
    pub fn build(self, appver: Arc<dyn AppVer>) -> Box<dyn Verifier> {
        match self {
            Engine::Abonn => Box::new(AbonnVerifier::new(
                AbonnConfig {
                    lambda: 0.5,
                    c: 0.2,
                    ..AbonnConfig::default()
                },
                appver,
            )),
            Engine::Bab => Box::new(BabBaseline::new(HeuristicKind::DeepSplit, appver)),
        }
    }
}

/// One verification job of a round.
pub struct Job {
    pub model: usize,
    /// Instance index within the model's calibrated suite.
    pub instance: usize,
    pub engine: Engine,
    pub problem: RobustnessProblem,
    /// The same region as a VNN-LIB property, for witness replay.
    pub property: Property,
}

/// Trained models and the round's jobs, in (model, engine, instance) order.
pub struct Prepared {
    pub nets: Vec<Network>,
    pub jobs: Vec<Job>,
    /// The seeded order the jobs run in.
    pub order: Vec<usize>,
}

/// Trains the models, calibrates their instances and orders the jobs by
/// `seed`; records
/// `nn.train` and `data.calibrate` spans when traced.
pub fn prepare(spec: &GridSpec, seed: u64, tracer: Option<&Tracer>) -> Prepared {
    let mut nets = Vec::new();
    let mut jobs = Vec::new();
    for (m, &kind) in spec.models.iter().enumerate() {
        let (net, _) = {
            let _span = tracer.map(|t| t.span("nn.train"));
            kind.trained_model(TRAIN_SEED)
        };
        let config = SuiteConfig {
            per_model: spec.per_model,
            seed: TRAIN_SEED,
        };
        let instances = {
            let _span = tracer.map(|t| t.span("data.calibrate"));
            suite::calibrated_instances(kind, &net, &config)
        };
        for engine in Engine::ALL {
            for (instance, inst) in instances.iter().enumerate() {
                let problem =
                    RobustnessProblem::new(&net, inst.input.clone(), inst.label, inst.epsilon)
                        .expect("calibrated instances are valid specifications");
                let text = abonn_vnnlib::write_robustness(
                    &inst.input,
                    inst.epsilon,
                    inst.label,
                    net.output_dim(),
                );
                let property = abonn_vnnlib::parse(&text).expect("writer output parses");
                jobs.push(Job {
                    model: m,
                    instance,
                    engine,
                    problem,
                    property,
                });
            }
        }
        nets.push(net);
    }
    let order = SplitMix(seed).permutation(jobs.len());
    Prepared { nets, jobs, order }
}

/// Outcome of running every job once.
pub struct Round {
    pub wall_s: f64,
    /// Per-job results in job (not run) order, with `stats.wall` zeroed so
    /// rounds compare exactly.
    pub results: Vec<RunResult>,
    pub latencies_ms: Vec<f64>,
}

impl Round {
    pub fn appver_calls(&self) -> usize {
        self.results.iter().map(|r| r.stats.appver_calls).sum()
    }

    pub fn solved(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.verdict.is_solved())
            .count()
    }

    /// The work digest of the verdict vector, in job order.
    pub fn digest(&self) -> u64 {
        let verdicts: Vec<u8> = self
            .results
            .iter()
            .map(|r| match r.verdict {
                Verdict::Verified => b'V',
                Verdict::Falsified(_) => b'F',
                Verdict::Timeout => b'T',
            })
            .collect();
        work_digest(&verdicts, self.appver_calls() as u64)
    }
}

/// Runs every job once, in the prepared order, through engines built over
/// `appver`. With a tracer, each `verify` call gets a `core.verify` span.
pub fn run_round(
    prep: &Prepared,
    appver: &Arc<dyn AppVer>,
    budget: &Budget,
    tracer: Option<&Tracer>,
) -> Round {
    let engines: Vec<(Engine, Box<dyn Verifier>)> = Engine::ALL
        .iter()
        .map(|&e| (e, e.build(Arc::clone(appver))))
        .collect();
    let mut results = vec![None; prep.jobs.len()];
    let mut latencies_ms = Vec::with_capacity(prep.jobs.len());
    let start = Instant::now();
    for &id in &prep.order {
        let job = &prep.jobs[id];
        let verifier = &engines
            .iter()
            .find(|(e, _)| *e == job.engine)
            .expect("every engine is built")
            .1;
        let t = Instant::now();
        let mut result = match tracer {
            Some(tr) => {
                tr.set_problem(id as u32);
                let _span = tr.span("core.verify");
                verifier.verify(&job.problem, budget)
            }
            None => verifier.verify(&job.problem, budget),
        };
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        result.stats.wall = Duration::ZERO;
        results[id] = Some(result);
    }
    Round {
        wall_s: start.elapsed().as_secs_f64(),
        results: results
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect(),
        latencies_ms,
    }
}

/// Checks a round's outputs: every witness replays on the concrete
/// network, and no instance is both verified by one engine and falsified
/// by the other. Returns (replays attempted, failure messages).
fn check_round(prep: &Prepared, round: &Round) -> (usize, Vec<String>) {
    let mut attempted = 0;
    let mut notes = Vec::new();
    for (job, r) in prep.jobs.iter().zip(&round.results) {
        if let Verdict::Falsified(w) = &r.verdict {
            attempted += 1;
            if let Err(e) = abonn_check::replay_witness(&prep.nets[job.model], &job.property, w) {
                notes.push(format!("witness replay failed: {e}"));
            }
        }
    }
    let verdict_of = |model: usize, instance: usize, engine: Engine| {
        prep.jobs
            .iter()
            .zip(&round.results)
            .find(|(j, _)| j.model == model && j.instance == instance && j.engine == engine)
            .map(|(_, r)| &r.verdict)
    };
    for job in prep.jobs.iter().filter(|j| j.engine == Engine::Abonn) {
        let a = verdict_of(job.model, job.instance, Engine::Abonn);
        let b = verdict_of(job.model, job.instance, Engine::Bab);
        if let (Some(a), Some(b)) = (a, b) {
            if matches!(
                (a, b),
                (Verdict::Verified, Verdict::Falsified(_))
                    | (Verdict::Falsified(_), Verdict::Verified)
            ) {
                notes.push(format!(
                    "engines disagree on model {} instance {}",
                    job.model, job.instance
                ));
            }
        }
    }
    (attempted, notes)
}

/// Median over rounds of problems verified per second.
fn problems_per_s(rounds: &[Round]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.results.len() as f64 / r.wall_s)
        .collect();
    median(&rates)
}

/// Runs a grid workload and reports its metrics.
pub fn run(spec: &GridSpec, args: &Args) -> Outcome {
    let budget = Budget::with_appver_calls(spec.calls);
    let planet: Arc<dyn AppVer> = Arc::new(DeepPoly::planet());
    let mut out = Outcome::default();
    let deadline = Duration::from_secs_f64(args.seconds);

    if !args.trace {
        let mut setups = Vec::new();
        let mut prep = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            prep = Some(prepare(spec, args.seed, None));
            setups.push(t.elapsed().as_secs_f64());
        }
        let prep = prep.expect("at least one set-up");
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.is_empty() || start.elapsed() < deadline {
            rounds.push(run_round(&prep, &planet, &budget, None));
        }
        check_rounds(&prep, &rounds, &mut out);
        let first = &rounds[0];
        let cps: Vec<f64> = rounds
            .iter()
            .map(|r| first.appver_calls() as f64 / r.wall_s)
            .collect();
        let lat: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        out.note(format!(
            "digest={:016x} solved={} appver_calls={} problems={} latency_samples={} round_s={:.3?}",
            first.digest(),
            first.solved(),
            first.appver_calls(),
            first.results.len(),
            lat.len(),
            rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()
        ));
        out.metric("setup_s", median(&setups));
        out.metric("problems_per_s", problems_per_s(&rounds));
        out.metric("appver_per_s", median(&cps));
        out.metric("solved", first.solved() as f64);
        out.metric("peak_rss_mb", peak_rss_mb());
        out.metric("latency_p50_ms", percentile(&lat, 50.0).unwrap_or(0.0));
        out.metric("latency_p95_ms", percentile(&lat, 95.0).unwrap_or(0.0));
        return out;
    }

    // Traced: one traced set-up, then alternating untraced and traced
    // rounds, so the traced numbers can be compared with untraced ones.
    let tracer = Arc::new(Tracer::new());
    let prep = prepare(spec, args.seed, Some(&tracer));
    let setup_spans = tracer.take();
    let own = trace::self_times_ns(&setup_spans);
    out.metric(
        "nn.train_s",
        trace::totals(&setup_spans, &own, "nn.train").1,
    );
    out.metric(
        "data.calibrate_s",
        trace::totals(&setup_spans, &own, "data.calibrate").1,
    );

    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut layer_rows: Vec<LayerRow> = Vec::new();
    while plain.is_empty() || start.elapsed() < deadline {
        plain.push(run_round(&prep, &planet, &budget, None));
        let wrapped = Arc::new(TracedAppVer::new(Arc::clone(&planet), Arc::clone(&tracer)));
        let wrapped_dyn: Arc<dyn AppVer> = wrapped.clone();
        let round = run_round(&prep, &wrapped_dyn, &budget, Some(&tracer));
        layer_rows.push(LayerRow::measure(&round, &tracer.take(), wrapped.closed()));
        traced.push(round);
    }
    check_rounds(&prep, &plain, &mut out);
    for (p, t) in plain.iter().zip(&traced) {
        if p.results != t.results {
            out.fail("traced round differs from untraced round (verdicts or RunStats)".into());
        }
    }
    let first = &traced[0];
    let stats: Vec<&RunStats> = first.results.iter().map(|r| &r.stats).collect();
    let sum = |f: fn(&RunStats) -> usize| stats.iter().map(|s| f(s)).sum::<usize>() as f64;
    // The wrapper sees every analysis; RunStats leaves out the ones
    // BaB-baseline computes and then discards when its budget runs out.
    let calls = layer_rows[0].spans as f64;
    out.note(format!(
        "AppVer calls: {calls} seen by the wrapper, {} counted in RunStats",
        first.appver_calls()
    ));
    let med = |f: fn(&LayerRow) -> f64| median(&layer_rows.iter().map(f).collect::<Vec<_>>());
    let busy = med(|r| r.busy_s);
    let core_self = med(|r| r.self_s);
    out.metric("bound.calls", calls);
    out.metric("bound.busy_s", busy);
    out.metric("bound.us_per_call", busy / calls.max(1.0) * 1e6);
    out.metric(
        "bound.close_ratio",
        layer_rows[0].closed as f64 / calls.max(1.0),
    );
    out.metric("bound.backsub_steps", sum(|s| s.backsub_steps));
    out.metric(
        "bound.backsub_skip_ratio",
        sum(|s| s.backsub_rows_skipped) / sum(|s| s.backsub_rows_total).max(1.0),
    );
    let reused = sum(|s| s.cache_layers_reused);
    out.metric(
        "bound.cache_reuse_ratio",
        reused / (reused + sum(|s| s.cache_layers_recomputed)).max(1.0),
    );
    out.metric("bound.blocks_skipped", sum(|s| s.blocks_skipped));
    out.metric(
        "bound.arena_bytes_peak",
        stats.iter().map(|s| s.arena_bytes_peak).max().unwrap_or(0) as f64,
    );
    out.metric("core.verify_s", med(|r| r.verify_s));
    out.metric("core.self_s", core_self);
    out.metric("core.self_us_per_call", core_self / calls.max(1.0) * 1e6);
    out.metric("core.nodes_visited", sum(|s| s.nodes_visited));
    out.metric("core.tree_size", sum(|s| s.tree_size));
    out.metric("lp.pivots", sum(|s| s.lp_pivots));
    let coverage = med(|r| r.verify_s / r.wall_s);
    out.metric("trace.verify_coverage", coverage);
    out.metric("trace.unattributed_s", med(|r| r.wall_s - r.verify_s));
    out.metric(
        "trace.overhead_ratio",
        problems_per_s(&traced) / problems_per_s(&plain),
    );
    if coverage < 0.9 {
        out.note(format!(
            "core.verify spans cover only {:.1}% of the timed wall",
            coverage * 100.0
        ));
    }
    out.note(format!(
        "digest={:016x} solved={} traced_rounds={}",
        first.digest(),
        first.solved(),
        traced.len()
    ));
    out
}

/// Per-traced-round span totals.
struct LayerRow {
    wall_s: f64,
    verify_s: f64,
    self_s: f64,
    busy_s: f64,
    spans: usize,
    closed: usize,
}

impl LayerRow {
    fn measure(round: &Round, spans: &[trace::Span], closed: usize) -> Self {
        let own = trace::self_times_ns(spans);
        let (_, verify_s, self_s) = trace::totals(spans, &own, "core.verify");
        let (count, busy_s, _) = trace::totals(spans, &own, APPVER_SPAN);
        Self {
            wall_s: round.wall_s,
            verify_s,
            self_s,
            busy_s,
            spans: count,
            closed,
        }
    }
}

/// Every round must reproduce the first exactly; witnesses must replay.
fn check_rounds(prep: &Prepared, rounds: &[Round], out: &mut Outcome) {
    for round in rounds {
        out.attempted += round.results.len();
        if round.results != rounds[0].results {
            out.fail("a round's verdicts or RunStats differ from the first round's".into());
        }
    }
    let (attempted, notes) = check_round(prep, &rounds[0]);
    out.attempted += attempted;
    for n in notes {
        out.fail(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: GridSpec = GridSpec {
        models: &[ModelKind::MnistL2],
        per_model: 3,
        calls: 200,
    };

    #[test]
    fn wrapped_appver_leaves_verdicts_and_stats_unchanged() {
        let prep = prepare(&TINY, 11, None);
        assert!(!prep.jobs.is_empty());
        let budget = Budget::with_appver_calls(TINY.calls);
        let planet: Arc<dyn AppVer> = Arc::new(DeepPoly::planet());
        let plain = run_round(&prep, &planet, &budget, None);
        let tracer = Arc::new(Tracer::new());
        let wrapped = Arc::new(TracedAppVer::new(Arc::clone(&planet), Arc::clone(&tracer)));
        let wrapped_dyn: Arc<dyn AppVer> = wrapped.clone();
        let traced = run_round(&prep, &wrapped_dyn, &budget, Some(&tracer));
        assert_eq!(plain.results, traced.results);
        assert_eq!(plain.digest(), traced.digest());
        let spans = tracer.take();
        let appver_spans = spans.iter().filter(|s| s.name == APPVER_SPAN).count();
        // RunStats leaves out at most one analysis per BaB-baseline job:
        // the one it discards when its budget runs out.
        let bab_jobs = prep.jobs.iter().filter(|j| j.engine == Engine::Bab).count();
        assert!(appver_spans >= traced.appver_calls());
        assert!(appver_spans <= traced.appver_calls() + bab_jobs);
        assert!(wrapped.closed() <= appver_spans);
        // Prefix caching stayed on through the wrapper.
        assert!(traced
            .results
            .iter()
            .any(|r| r.stats.cache_layers_reused > 0));
        // Every AppVer span sits inside a core.verify span.
        assert!(spans
            .iter()
            .filter(|s| s.name == APPVER_SPAN)
            .all(|s| s.parent.is_some_and(|p| spans[p].name == "core.verify")));
    }
}
