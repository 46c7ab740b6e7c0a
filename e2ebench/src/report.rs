//! The metric catalogue and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("problems_per_s", "1/s"),
    ("appver_per_s", "1/s"),
    ("solved", "count"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not reach through a call the benchmark can wrap reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.train_s", "s"),
    ("data.calibrate_s", "s"),
    ("bound.calls", "count"),
    ("bound.busy_s", "s"),
    ("bound.us_per_call", "us"),
    ("bound.close_ratio", "ratio"),
    ("bound.backsub_steps", "count"),
    ("bound.backsub_skip_ratio", "ratio"),
    ("bound.cache_reuse_ratio", "ratio"),
    ("bound.blocks_skipped", "count"),
    ("bound.arena_bytes_peak", "bytes"),
    ("core.verify_s", "s"),
    ("core.self_s", "s"),
    ("core.self_us_per_call", "us"),
    ("core.nodes_visited", "count"),
    ("core.tree_size", "count"),
    ("lp.pivots", "count"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.model_cache_hits", "count"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.inserts", "count"),
    ("check.audit_ms_p50", "ms"),
    ("check.audits", "count"),
    ("trace.verify_coverage", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric; the name must be in the catalogue.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed operation or check.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Records an informational line.
    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }

    /// The result line: every metric of the selected catalogue, in
    /// catalogue order. A missing end-to-end metric, or any non-finite
    /// value, makes the result incorrect.
    pub fn render(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut correct = self.failures.is_empty() && self.attempted > 0;
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => {
                    correct = false;
                    0.0
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failures.len(),
            fields.join(", ")
        )
    }
}

/// FNV-1a over a verdict vector (one letter per problem) and the total
/// AppVer calls: the work digest, which must repeat exactly across runs.
pub fn work_digest(verdicts: &[u8], appver_calls: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in verdicts.iter().chain(&appver_calls.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_every_catalogue_metric() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.metric(name, 1.25);
        }
        let line = out.render(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
            )));
        }
        let traced = out.render(true);
        assert!(traced.contains("\"lp.pivots\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn work_digest_sees_every_verdict_and_the_call_total() {
        let d = work_digest(b"VFT", 10);
        assert_eq!(d, work_digest(b"VFT", 10));
        assert_ne!(d, work_digest(b"VTF", 10));
        assert_ne!(d, work_digest(b"VFT", 11));
    }

    #[test]
    fn missing_or_non_finite_end_to_end_metrics_are_incorrect() {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert!(out.render(false).starts_with("{\"correct\": false"));
        for (name, _) in END_TO_END {
            out.metric(name, f64::NAN);
        }
        assert!(out.render(false).starts_with("{\"correct\": false"));
    }
}
