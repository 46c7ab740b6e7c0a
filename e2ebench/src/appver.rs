//! A forwarding `AppVer` that records one span per bounding call.

use crate::trace::Tracer;
use abonn_bound::{Analysis, AppVer, BoundPrefix, CachedAnalysis, InputBox, SplitSet};
use abonn_nn::lowering::CanonicalNetwork;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Span name of one approximated-verifier call.
pub const APPVER_SPAN: &str = "bound.appver";

/// Wraps an approximated verifier, forwarding every method (including
/// `analyze_cached`, so prefix caching stays on) and recording a span and
/// whether the analysis closed its node.
pub struct TracedAppVer {
    inner: Arc<dyn AppVer>,
    tracer: Arc<Tracer>,
    closed: AtomicUsize,
}

impl TracedAppVer {
    pub fn new(inner: Arc<dyn AppVer>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            closed: AtomicUsize::new(0),
        }
    }

    /// Analyses so far that proved their sub-problem (or found it
    /// infeasible).
    pub fn closed(&self) -> usize {
        self.closed.load(Ordering::Relaxed)
    }

    fn note(&self, analysis: &Analysis) {
        if analysis.verified() {
            // Relaxed: a statistic that publishes no other data.
            self.closed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl AppVer for TracedAppVer {
    fn analyze(&self, net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Analysis {
        let _span = self.tracer.span(APPVER_SPAN);
        let analysis = self.inner.analyze(net, region, splits);
        self.note(&analysis);
        analysis
    }

    fn analyze_cached(
        &self,
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        parent: Option<&Arc<BoundPrefix>>,
    ) -> CachedAnalysis {
        let _span = self.tracer.span(APPVER_SPAN);
        let cached = self.inner.analyze_cached(net, region, splits, parent);
        self.note(&cached.analysis);
        cached
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
