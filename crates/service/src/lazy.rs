//! Deferred construction of the pairwise arm's reachability backend.
//!
//! GTEA evaluates on the SCC condensation the graph carries: both prune
//! rounds and the matching graph's AD branches are condensation sweeps
//! (`gtpq_reach::sweep`), so a request under default options never asks a
//! reachability *index* anything.  Only the pairwise ablation arm
//! (`GteaOptions::use_contours == false`) calls
//! [`Reachability::reaches`].  The service therefore never builds the
//! index of [`ServiceConfig::backend`](crate::ServiceConfig::backend) per
//! generation: an epoch commit costs the rotation plus ordinary cache
//! misses, and a cold start never pays the O(V+E) construction.
//!
//! [`LazyIndex`] wraps the *decision* (which backend, over which snapshot)
//! and defers the *work* to the first probe via [`OnceLock`], counting it in
//! `gtpq_reach_index_builds_total`.  The observational methods of
//! [`Reachability`] answer without forcing the build — an unbuilt index has
//! performed zero lookups, and its name is known from its [`BackendKind`] —
//! so the stats plumbing (`lookup_count` deltas around prune rounds) stays
//! free.  Only `reaches` and the prepared probes build, exactly once, even
//! under concurrent first probes.

use std::sync::{Arc, OnceLock};

use gtpq_graph::{GraphSnapshot, NodeId};
use gtpq_reach::{BackendKind, Probe, Reachability, SharedIndex};

use crate::metrics::ServiceMetrics;

/// A reachability backend that is chosen now and built on first probe.
pub(crate) struct LazyIndex {
    kind: BackendKind,
    snapshot: Arc<GraphSnapshot>,
    built: OnceLock<SharedIndex>,
    /// Where a forced build is counted.
    metrics: Arc<ServiceMetrics>,
}

impl LazyIndex {
    /// Wraps `kind` over `snapshot` as an index that will build itself on
    /// the first reachability probe.
    pub(crate) fn new(
        kind: BackendKind,
        snapshot: Arc<GraphSnapshot>,
        metrics: Arc<ServiceMetrics>,
    ) -> Arc<Self> {
        Arc::new(Self {
            kind,
            snapshot,
            built: OnceLock::new(),
            metrics,
        })
    }

    /// The wrapped index, building it now if no probe has forced it yet.
    fn force(&self) -> &SharedIndex {
        self.built.get_or_init(|| {
            self.metrics.record_index_build(|| {
                self.kind
                    .build_shared_with(self.snapshot.graph(), self.snapshot.condensation())
            })
        })
    }

    /// Whether a probe has forced the build yet.
    pub(crate) fn is_built(&self) -> bool {
        self.built.get().is_some()
    }
}

impl Reachability for LazyIndex {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.force().reaches(u, v)
    }

    /// Forces the build: entry counts are only asked for in space
    /// comparisons, where the built index is the object of interest.
    fn index_entries(&self) -> usize {
        self.force().index_entries()
    }

    /// Does not force: every index is named after its [`BackendKind`].
    fn name(&self) -> &'static str {
        self.kind.as_str()
    }

    /// Does not force: an unbuilt index has performed zero lookups, so the
    /// deltas the prune and matching stages take around their probes stay
    /// correct whether or not this round was the one that built it.
    fn lookup_count(&self) -> u64 {
        self.built.get().map_or(0, |index| index.lookup_count())
    }

    fn reset_lookups(&self) {
        if let Some(index) = self.built.get() {
            index.reset_lookups();
        }
    }

    fn pred_probe<'s>(&'s self, targets: &[NodeId]) -> Probe<'s> {
        self.force().pred_probe(targets)
    }

    fn succ_probe<'s>(&'s self, sources: &[NodeId]) -> Probe<'s> {
        self.force().succ_probe(sources)
    }

    fn source_probe<'s>(&'s self, source: NodeId) -> Probe<'s> {
        self.force().source_probe(source)
    }
}

#[cfg(test)]
mod tests {
    use gtpq_core::{GteaEngine, GteaOptions};
    use gtpq_graph::GraphBuilder;

    use super::*;

    fn snapshot() -> Arc<GraphSnapshot> {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("a");
        let c = b.add_node_with_label("b");
        let d = b.add_node_with_label("c");
        b.add_edge(a, c);
        b.add_edge(c, d);
        Arc::new(GraphSnapshot::freeze(Arc::new(b.build())))
    }

    fn lazy(kind: BackendKind, snapshot: &Arc<GraphSnapshot>) -> LazyIndex {
        LazyIndex {
            kind,
            snapshot: Arc::clone(snapshot),
            built: OnceLock::new(),
            metrics: Arc::new(ServiceMetrics::new()),
        }
    }

    #[test]
    fn observational_methods_do_not_force_the_build() {
        let lazy = lazy(BackendKind::Sspi, &snapshot());
        assert_eq!(lazy.name(), "sspi");
        assert_eq!(lazy.lookup_count(), 0);
        lazy.reset_lookups();
        assert!(!lazy.is_built(), "stats plumbing must not build the index");
    }

    #[test]
    fn default_options_never_force_the_build_but_the_pairwise_arm_does() {
        let snap = snapshot();
        let lazy = lazy(BackendKind::ThreeHop, &snap);
        let point = gtpq_query::parse_query("[label = c]*").unwrap();
        let path = gtpq_query::parse_query("a { //c* }").unwrap();

        // Neither the cold-start pattern (one selective predicate, no AD
        // edge) nor a descendant pattern asks the index anything: AD edges
        // are answered on the condensation the graph carries.
        let engine = GteaEngine::with_backend(snap.graph(), &lazy, GteaOptions::default());
        assert_eq!(engine.evaluate(&point).len(), 1);
        let (rows, stats) = engine.evaluate_with_stats(&path);
        assert_eq!(rows.len(), 1);
        assert!(stats.index_lookups > 0, "the sweeps' edges are counted");
        assert!(!lazy.is_built(), "a default-option query built the index");
        assert_eq!(lazy.lookup_count(), 0);
        assert_eq!(lazy.metrics.snapshot().index_builds, 0);

        // The pairwise ablation arm probes `reaches`, forcing the build.
        let pairwise =
            GteaEngine::with_backend(snap.graph(), &lazy, GteaOptions::without_contours());
        assert_eq!(pairwise.evaluate(&path), rows);
        assert!(lazy.is_built());
        let m = lazy.metrics.snapshot();
        assert_eq!(m.index_builds, 1);
        assert!(m.index_build_time > std::time::Duration::ZERO);
    }

    #[test]
    fn first_probe_builds_once_and_answers_like_an_eager_build() {
        let snap = snapshot();
        let lazy = lazy(BackendKind::ThreeHop, &snap);
        let eager = BackendKind::ThreeHop.build_shared_with(snap.graph(), snap.condensation());
        let g = snap.graph();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(lazy.reaches(u, v), eager.reaches(u, v), "{u} -> {v}");
            }
        }
        assert!(lazy.is_built());
        assert_eq!(lazy.metrics.snapshot().index_builds, 1);
        assert_eq!(lazy.name(), eager.name());
        let probe = lazy.succ_probe(&[NodeId(0)]);
        assert!(probe(NodeId(2)));
        assert!(!probe(NodeId(0)));
    }
}
