//! The `serve-ladder` workload: one closed-loop client replays a seeded
//! session of ε-ladders through an in-process `abonn_serve::Server`.

use crate::grid::{SETUP_REPS, TRAIN_SEED};
use crate::report::{peak_rss_mb, work_digest, Outcome};
use crate::rng::SplitMix;
use crate::trace::{self, median, percentile, Tracer};
use crate::Args;
use abonn_data::{suite, ModelKind, SuiteConfig};
use abonn_nn::Network;
use abonn_serve::{apply_epsilon_override, Server, ServerConfig};
use serde_json::{Number, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Span name of one request line handled by the server.
const QUERY_SPAN: &str = "serve.handle_line";

/// Smallest share of queries the store must answer, so that the median
/// latency is the hit path.
const MIN_HIT_SHARE: f64 = 0.6;

/// A served model: how many calibrated centers its ladders start from,
/// the per-query call budget, and whether queries ask for audits (audits
/// replay every certificate leaf as an LP, so only the small MNIST_L2 net
/// asks for them).
struct ModelPlan {
    kind: ModelKind,
    centers: usize,
    calls: usize,
    audit: bool,
}

const MODELS: &[ModelPlan] = &[
    ModelPlan {
        kind: ModelKind::MnistL2,
        centers: 6,
        calls: 500,
        audit: true,
    },
    ModelPlan {
        kind: ModelKind::MnistL4,
        centers: 18,
        calls: 500,
        audit: false,
    },
    ModelPlan {
        kind: ModelKind::CifarBase,
        centers: 3,
        calls: 200,
        audit: false,
    },
];

/// Radius multipliers of one ladder, relative to the calibrated radius, in
/// the order a client asks them: a small radius and its exact repeat, a
/// smaller one (ε-monotone UNSAT reuse), a large radius and its repeat, the
/// smaller one again, a larger one (SAT reuse), the calibrated radius
/// itself (the hard rung), and repeats. A last query moves the center of
/// the first rung (cross-center reuse).
const RUNGS: &[f64] = &[
    0.5, 0.5, 0.25, 2.0, 2.0, 0.25, 3.0, 1.0, 0.5, 1.0, 3.0, 0.25, 2.0,
];

/// Center shift of the last query, relative to its radius.
const SHIFT: f64 = 0.1;

/// A ladder's starting point.
#[derive(Debug, Clone, PartialEq)]
pub struct Center {
    pub model: usize,
    pub file: String,
    pub input: Vec<f64>,
    pub label: usize,
    pub classes: usize,
    pub epsilon: f64,
    pub calls: usize,
    pub audit: bool,
}

/// One query of the session.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Index of the ladder's center.
    pub center: usize,
    /// Position in the ladder; `RUNGS.len()` is the shifted-center query,
    /// which forms a store family of its own.
    pub rung: usize,
    pub point: Vec<f64>,
    pub epsilon: f64,
    pub audit: bool,
    pub line: String,
}

/// Builds the session: every ladder's rungs in order, the ladders
/// interleaved in a seeded order per rung. The queries themselves are the
/// same for every seed, so every seed measures the same work.
pub fn session(centers: &[Center], seed: u64) -> Vec<Query> {
    let mut rng = SplitMix(seed);
    let mut queries = Vec::new();
    for rung in 0..=RUNGS.len() {
        for ci in rng.permutation(centers.len()) {
            let c = &centers[ci];
            let (point, epsilon) = match RUNGS.get(rung) {
                Some(factor) => (c.input.clone(), c.epsilon * factor),
                None => {
                    let epsilon = c.epsilon * RUNGS[0];
                    let shift = SHIFT * epsilon;
                    let point = c
                        .input
                        .iter()
                        .enumerate()
                        .map(|(j, &x)| {
                            let step = if (j + ci) % 2 == 0 { shift } else { -shift };
                            (x + step).clamp(0.0, 1.0)
                        })
                        .collect();
                    (point, epsilon)
                }
            };
            let property = abonn_vnnlib::write_robustness(&point, epsilon, c.label, c.classes);
            let id = queries.len();
            let line = format!(
                "{{\"id\":{id},\"cmd\":\"verify\",\"model\":{},\"property\":{},\"epsilon\":{epsilon:?},\"center\":{},\"calls\":{},\"audit\":{}}}",
                Value::String(c.file.clone()),
                Value::String(property),
                Value::Array(point.iter().map(|&x| Value::Number(Number::Float(x))).collect()),
                c.calls,
                c.audit
            );
            queries.push(Query {
                center: ci,
                rung,
                point,
                epsilon,
                audit: c.audit,
                line,
            });
        }
    }
    queries
}

/// Everything set-up produces.
struct Prepared {
    nets: Vec<Network>,
    centers: Vec<Center>,
    queries: Vec<Query>,
    config: ServerConfig,
}

/// Trains and calibrates the served models, writes their model files into
/// `dir`, and generates the session.
fn prepare(dir: &Path, seed: u64, tracer: Option<&Tracer>) -> Prepared {
    let mut nets = Vec::new();
    let mut centers = Vec::new();
    for (m, plan) in MODELS.iter().enumerate() {
        let (net, _) = {
            let _span = tracer.map(|t| t.span("nn.train"));
            plan.kind.trained_model(TRAIN_SEED)
        };
        let config = SuiteConfig {
            per_model: plan.centers,
            seed: TRAIN_SEED,
        };
        let instances = {
            let _span = tracer.map(|t| t.span("data.calibrate"));
            suite::calibrated_instances(plan.kind, &net, &config)
        };
        let file = format!("{}.json", plan.kind.paper_name());
        abonn_nn::io::save_network(&net, &dir.join(&file)).expect("model directory is writable");
        for inst in instances {
            centers.push(Center {
                model: m,
                file: file.clone(),
                input: inst.input,
                label: inst.label,
                classes: net.output_dim(),
                epsilon: inst.epsilon,
                calls: plan.calls,
                audit: plan.audit,
            });
        }
        nets.push(net);
    }
    let queries = session(&centers, seed);
    let config = ServerConfig {
        threads: 1,
        batch: 1,
        model_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    Prepared {
        nets,
        centers,
        queries,
        config,
    }
}

/// One replay of the whole session against a fresh server.
struct Round {
    wall_s: f64,
    responses: Vec<String>,
    latencies_ms: Vec<f64>,
    stats: Value,
}

fn run_round(prep: &Prepared, tracer: Option<&Tracer>) -> Round {
    let mut server = Server::new(prep.config.clone());
    let mut responses = Vec::with_capacity(prep.queries.len());
    let mut latencies_ms = Vec::with_capacity(prep.queries.len());
    let start = Instant::now();
    for (i, q) in prep.queries.iter().enumerate() {
        let t = Instant::now();
        let response = match tracer {
            Some(tr) => {
                tr.set_problem(i as u32);
                let _span = tr.span(QUERY_SPAN);
                server.handle_line(&q.line)
            }
            None => server.handle_line(&q.line),
        };
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        responses.push(response.unwrap_or_default());
    }
    Round {
        wall_s: start.elapsed().as_secs_f64(),
        responses,
        latencies_ms,
        stats: server.stats_json(),
    }
}

/// How a response was answered.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Miss,
    Hit,
    AuditedHit,
    Error,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

fn counter(stats: &Value, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    number(v).unwrap_or(0.0)
}

fn hits(stats: &Value) -> f64 {
    ["exact_hits", "reuse_unsat", "reuse_sat", "reuse_cross"]
        .iter()
        .map(|k| counter(stats, &["store", k]))
        .sum()
}

/// Checks one round's responses and classifies them. Failures: error
/// lines, witnesses that do not replay, verified answers to audited
/// queries that carry no passed audit, and ladders whose verified radii
/// are not all below their falsified radii. Returns each query's kind and
/// verdict letter (`V`, `F`, `T`, or `E` for an error).
fn check_round(prep: &Prepared, round: &Round, out: &mut Outcome) -> (Vec<Kind>, Vec<u8>) {
    let mut kinds = Vec::new();
    let mut verdicts = Vec::new();
    // (center, shifted) -> (largest verified ε, smallest falsified ε)
    let mut ladders = std::collections::BTreeMap::<(usize, bool), (f64, f64)>::new();
    for (q, line) in prep.queries.iter().zip(&round.responses) {
        let parsed = serde_json::from_str::<Value>(line).ok();
        let Some(v) = parsed.filter(|v| field(v, "status") == Some("ok")) else {
            out.fail(format!("query failed: {line}"));
            kinds.push(Kind::Error);
            verdicts.push(b'E');
            continue;
        };
        let c = &prep.centers[q.center];
        let entry = ladders
            .entry((q.center, q.rung == RUNGS.len()))
            .or_insert((0.0, f64::INFINITY));
        match field(&v, "verdict") {
            Some("verified") => {
                verdicts.push(b'V');
                entry.0 = entry.0.max(q.epsilon);
                if q.audit && field(&v, "audit") != Some("passed") {
                    out.fail(format!("audited query {} carries no passed audit", v["id"]));
                }
            }
            Some("falsified") => {
                verdicts.push(b'F');
                entry.1 = entry.1.min(q.epsilon);
                out.attempted += 1;
                let witness: Vec<f64> = match v.get("witness") {
                    Some(Value::Array(a)) => a.iter().filter_map(number).collect(),
                    _ => Vec::new(),
                };
                let text = abonn_vnnlib::write_robustness(&q.point, q.epsilon, c.label, c.classes);
                let property = abonn_vnnlib::parse(&text).expect("writer output parses");
                let property = apply_epsilon_override(&property, &q.point, q.epsilon);
                if let Err(e) =
                    abonn_check::replay_witness(&prep.nets[c.model], &property, &witness)
                {
                    out.fail(format!("witness of query {} does not replay: {e}", v["id"]));
                }
            }
            _ => verdicts.push(b'T'),
        }
        kinds.push(match (field(&v, "store"), field(&v, "audit")) {
            (Some("miss"), _) => Kind::Miss,
            (_, Some("passed")) => Kind::AuditedHit,
            _ => Kind::Hit,
        });
    }
    for ((center, shifted), (verified, falsified)) in ladders {
        if verified >= falsified {
            out.fail(format!(
                "ladder {center} (shifted {shifted}) verified ε={verified} but falsified ε={falsified}"
            ));
        }
    }
    (kinds, verdicts)
}

/// Checks every round against the first and the hit share; returns the
/// first round's query kinds and verdict letters.
fn check_rounds(prep: &Prepared, rounds: &[Round], out: &mut Outcome) -> (Vec<Kind>, Vec<u8>) {
    let first = &rounds[0];
    for r in rounds {
        out.attempted += r.responses.len();
        if r.responses != first.responses {
            out.fail("a round's responses differ from the first round's".into());
        }
    }
    let checked = check_round(prep, first, out);
    let share = hits(&first.stats) / counter(&first.stats, &["queries"]).max(1.0);
    if share < MIN_HIT_SHARE {
        out.fail(format!(
            "store answered {:.1}% of queries, below {:.0}%",
            share * 100.0,
            MIN_HIT_SHARE * 100.0
        ));
    }
    checked
}

fn latencies_of(latencies: &[f64], kinds: &[Kind], kind: Kind) -> Vec<f64> {
    latencies
        .iter()
        .zip(kinds)
        .filter(|(_, k)| **k == kind)
        .map(|(l, _)| *l)
        .collect()
}

/// Working directory for the served model files, inside the current
/// directory; removed when the run ends.
fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("work directory can be created");
    dir
}

/// Runs the workload and reports its metrics.
pub fn run(args: &Args) -> Outcome {
    let dir = work_dir();
    let out = measure(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Fails, as it should, while another run still has its directory here.
    let _ = dir.parent().map(std::fs::remove_dir);
    out
}

/// Median over rounds of queries answered per second.
fn queries_per_s(rounds: &[Round]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.responses.len() as f64 / r.wall_s)
        .collect();
    median(&rates)
}

fn measure(args: &Args, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut setups = Vec::new();
        let mut prep = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let p = prepare(dir, args.seed, None);
            drop(Server::new(p.config.clone()));
            setups.push(t.elapsed().as_secs_f64());
            prep = Some(p);
        }
        let prep = prep.expect("at least one set-up");
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.is_empty() || start.elapsed() < deadline {
            rounds.push(run_round(&prep, None));
        }
        let (_, verdicts) = check_rounds(&prep, &rounds, &mut out);
        // Digest in ladder order, which is the same for every seed.
        let mut ladder_order: Vec<usize> = (0..verdicts.len()).collect();
        ladder_order.sort_by_key(|&i| (prep.queries[i].center, prep.queries[i].rung));
        let ladder_verdicts: Vec<u8> = ladder_order.iter().map(|&i| verdicts[i]).collect();
        let solved = verdicts.iter().filter(|v| matches!(v, b'V' | b'F')).count();
        let first = &rounds[0];
        let n = first.responses.len() as f64;
        let calls = counter(&first.stats, &["appver_calls_total"]);
        let lat: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        out.note(format!(
            "digest={:016x} queries={n} hits={} solved={solved} appver_calls={calls} latency_samples={} round_s={:.3?}",
            work_digest(&ladder_verdicts, calls as u64),
            hits(&first.stats),
            lat.len(),
            rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()
        ));
        out.metric("setup_s", median(&setups));
        out.metric("problems_per_s", queries_per_s(&rounds));
        out.metric(
            "appver_per_s",
            median(&rounds.iter().map(|r| calls / r.wall_s).collect::<Vec<_>>()),
        );
        out.metric("solved", solved as f64);
        out.metric("peak_rss_mb", peak_rss_mb());
        out.metric("latency_p50_ms", percentile(&lat, 50.0).unwrap_or(0.0));
        out.metric("latency_p95_ms", percentile(&lat, 95.0).unwrap_or(0.0));
        return out;
    }

    let tracer = Tracer::new();
    let prep = prepare(dir, args.seed, Some(&tracer));
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
    let (mut plain, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    while plain.is_empty() || start.elapsed() < deadline {
        plain.push(run_round(&prep, None));
        traced.push(run_round(&prep, Some(&tracer)));
        spans.push(tracer.take());
    }
    let (kinds, _) = check_rounds(&prep, &plain, &mut out);
    if traced.iter().any(|t| t.responses != plain[0].responses) {
        out.fail("traced round's responses differ from the untraced round's".into());
    }
    // Per-kind latencies from the traced spans, pooled over rounds.
    let span_ms: Vec<f64> = spans
        .iter()
        .flat_map(|s| {
            s.iter()
                .filter(|s| s.name == QUERY_SPAN)
                .map(|s| s.ns() as f64 * 1e-6)
        })
        .collect();
    let all_kinds: Vec<Kind> = spans.iter().flat_map(|_| kinds.iter().copied()).collect();
    let p50 = |k| percentile(&latencies_of(&span_ms, &all_kinds, k), 50.0).unwrap_or(0.0);
    let stats = &plain[0].stats;
    out.metric("serve.hit_ms_p50", p50(Kind::Hit));
    out.metric("serve.miss_ms_p50", p50(Kind::Miss));
    out.metric("check.audit_ms_p50", p50(Kind::AuditedHit));
    out.metric(
        "serve.hit_ratio",
        hits(stats) / counter(stats, &["queries"]).max(1.0),
    );
    out.metric(
        "serve.model_cache_hits",
        counter(stats, &["models", "hits"]),
    );
    out.metric("serve.inserts", counter(stats, &["store", "inserts"]));
    out.metric(
        "check.audits",
        plain[0]
            .responses
            .iter()
            .filter(|r| r.contains("\"audit\":\"passed\""))
            .count() as f64,
    );
    out.metric("bound.calls", counter(stats, &["appver_calls_total"]));
    let handled: Vec<f64> = spans
        .iter()
        .zip(&traced)
        .map(|(s, r)| {
            let busy: u64 = s
                .iter()
                .filter(|s| s.name == QUERY_SPAN)
                .map(trace::Span::ns)
                .sum();
            r.wall_s - busy as f64 * 1e-9
        })
        .collect();
    out.metric("trace.unattributed_s", median(&handled));
    out.metric(
        "trace.overhead_ratio",
        queries_per_s(&traced) / queries_per_s(&plain),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn centers() -> Vec<Center> {
        (0..4)
            .map(|i| Center {
                model: i % 2,
                file: format!("m{}.json", i % 2),
                input: vec![0.1 * i as f64 + 0.2, 0.5],
                label: i % 3,
                classes: 3,
                epsilon: 0.01 * (i + 1) as f64,
                calls: 100,
                audit: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn session_is_a_pure_function_of_the_seed() {
        let cs = centers();
        let a = session(&cs, 42);
        assert_eq!(a, session(&cs, 42));
        assert_ne!(a, session(&cs, 43));
        assert_eq!(a.len(), cs.len() * (RUNGS.len() + 1));
        for (i, q) in a.iter().enumerate() {
            let v: Value = serde_json::from_str(&q.line).expect("query lines are JSON");
            assert_eq!(v.get("id"), Some(&Value::Number(Number::PosInt(i as u64))));
            assert!(abonn_serve::parse_request(&q.line).is_ok(), "{}", q.line);
        }
    }

    #[test]
    fn every_ladder_climbs_its_rungs_in_order() {
        let cs = centers();
        let s = session(&cs, 7);
        for (ci, c) in cs.iter().enumerate() {
            let ladder: Vec<&Query> = s.iter().filter(|q| q.center == ci).collect();
            assert_eq!(ladder.len(), RUNGS.len() + 1);
            for (q, factor) in ladder.iter().zip(RUNGS) {
                assert!(q.point == c.input);
                assert_eq!(q.epsilon, c.epsilon * factor);
            }
            let last = ladder[RUNGS.len()];
            assert!(last.rung == RUNGS.len() && last.point != c.input);
            assert_eq!(last.epsilon, c.epsilon * RUNGS[0]);
        }
    }
}
