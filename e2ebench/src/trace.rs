//! In-memory spans recorded around calls into the layers, plus the
//! arithmetic the report needs: self time and nearest-rank percentiles.

use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.verify`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Verification problem (or serve query) the span belongs to.
    pub problem: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
    problem: u32,
}

/// Records nested spans. Shared with the wrapped `AppVer`, hence the lock;
/// every workload is single-threaded, so it is never contended.
pub struct Tracer {
    origin: Instant,
    log: Mutex<Log>,
}

/// Ends its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        let mut log = self.tracer.lock();
        log.spans[self.index].end_ns = end;
        if log.open.last() == Some(&self.index) {
            log.open.pop();
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            log: Mutex::new(Log::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("no span holder panics while recording")
    }

    /// Tags the spans that follow with `problem`.
    pub fn set_problem(&self, problem: u32) {
        self.lock().problem = problem;
    }

    /// Opens a span that is a child of the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start = self.now_ns();
        let mut log = self.lock();
        let index = log.spans.len();
        let span = Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: log.open.last().copied(),
            problem: log.problem,
        };
        log.spans.push(span);
        log.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        let mut log = self.lock();
        assert!(log.open.is_empty(), "take() while spans are open");
        std::mem::take(&mut log.spans)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Count, total duration and total self time (seconds) of spans named `name`.
pub fn totals(spans: &[Span], self_ns: &[u64], name: &str) -> (usize, f64, f64) {
    let mut count = 0;
    let (mut total, mut own) = (0u64, 0u64);
    for (s, &own_ns) in spans.iter().zip(self_ns) {
        if s.name == name {
            count += 1;
            total += s.ns();
            own += own_ns;
        }
    }
    (count, total as f64 * 1e-9, own as f64 * 1e-9)
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a sample (nearest-rank, so always an observed value).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            problem: 0,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        // Ten samples lie beyond p95 once there are 200 of them.
        assert_eq!(xs.iter().filter(|&&x| x > 190.0).count(), 10);
        assert_eq!(percentile(&xs, 100.0), Some(200.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("core.verify", 0, 100, None),
            span("bound.appver", 10, 30, Some(0)),
            span("bound.appver", 40, 70, Some(0)),
            span("inner", 45, 50, Some(2)),
            span("core.verify", 200, 260, None),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![50, 20, 25, 5, 60]);
        let (n, total, self_s) = totals(&spans, &own, "core.verify");
        assert_eq!(n, 2);
        assert!((total - 160e-9).abs() < 1e-15);
        assert!((self_s - 110e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 120, 170, Some(0)),
            span("c", 190, 230, Some(0)),
        ];
        // Covered: [100, 170) and [190, 200) = 80 of the parent's 100.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_through_guards() {
        let t = Tracer::new();
        t.set_problem(3);
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let _after = t.span("after");
        drop(_after);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans
            .iter()
            .all(|s| s.problem == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
