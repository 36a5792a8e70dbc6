//! Deferred construction of a pinned reachability backend.
//!
//! A service whose [`ServiceConfig::backend`](crate::ServiceConfig::backend)
//! pins a backend does not need that backend *built* until a query actually
//! probes reachability: index-served point lookups (the cold-start pattern —
//! map a snapshot, answer one selective predicate) never ask a reachability
//! question, so paying the O(V+E) backend construction before the first row
//! would put the single largest start-up cost on a path that does not use it.
//!
//! [`LazyIndex`] wraps the *decision* (which backend, over which snapshot)
//! and defers the *work* to the first reachability probe via [`OnceLock`].
//! The observational methods of [`Reachability`] answer without forcing the
//! build — an unbuilt index has performed zero lookups, and its name is
//! known from its [`BackendKind`] — so stats plumbing (`lookup_count` deltas
//! around prune rounds, `backend_name` in the CLI prompt) stays free.  Only
//! `reaches` and the prepared probes build, exactly once, even under
//! concurrent first probes.
//!
//! Auto-selected backends are *not* wrapped: selection itself must profile
//! the graph and the chosen index is part of the selection evidence, so the
//! service keeps building those eagerly at epoch rotation.

use std::sync::{Arc, OnceLock};

use gtpq_graph::{GraphSnapshot, NodeId};
use gtpq_reach::{BackendKind, Probe, Reachability, SharedIndex};

/// A reachability backend that is chosen now and built on first probe.
pub(crate) struct LazyIndex {
    kind: BackendKind,
    snapshot: Arc<GraphSnapshot>,
    built: OnceLock<SharedIndex>,
}

impl LazyIndex {
    /// Wraps `kind` over `snapshot` as a shareable index that will build
    /// itself on the first reachability probe.
    pub(crate) fn shared(kind: BackendKind, snapshot: Arc<GraphSnapshot>) -> SharedIndex {
        Arc::new(Self {
            kind,
            snapshot,
            built: OnceLock::new(),
        })
    }

    /// The wrapped index, building it now if no probe has forced it yet.
    fn force(&self) -> &SharedIndex {
        self.built.get_or_init(|| {
            self.kind
                .build_shared_with(self.snapshot.graph(), self.snapshot.condensation())
        })
    }

    /// Whether a probe has forced the build yet (test observability).
    #[cfg(test)]
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

    #[test]
    fn observational_methods_do_not_force_the_build() {
        let snap = snapshot();
        let lazy = LazyIndex {
            kind: BackendKind::Sspi,
            snapshot: Arc::clone(&snap),
            built: OnceLock::new(),
        };
        assert_eq!(lazy.name(), "sspi");
        assert_eq!(lazy.lookup_count(), 0);
        lazy.reset_lookups();
        assert!(!lazy.is_built(), "stats plumbing must not build the index");
    }

    #[test]
    fn index_served_lookup_does_not_force_the_build_but_a_descendant_pattern_does() {
        let snap = snapshot();
        let lazy = LazyIndex {
            kind: BackendKind::ThreeHop,
            snapshot: Arc::clone(&snap),
            built: OnceLock::new(),
        };
        let engine = GteaEngine::with_backend(snap.graph(), &lazy, GteaOptions::default());

        // The cold-start pattern: one selective predicate, no AD edge, so no
        // reachability question is ever asked.
        let point = gtpq_query::parse_query("[label = c]*").unwrap();
        assert_eq!(engine.evaluate(&point).len(), 1);
        assert!(!lazy.is_built(), "an index-served lookup built the index");
        assert_eq!(lazy.lookup_count(), 0);

        // A descendant pattern probes reachability, forcing the build.
        let path = gtpq_query::parse_query("a { //c* }").unwrap();
        assert_eq!(engine.evaluate(&path).len(), 1);
        assert!(lazy.is_built());
    }

    #[test]
    fn first_probe_builds_once_and_answers_like_an_eager_build() {
        let snap = snapshot();
        let lazy = LazyIndex {
            kind: BackendKind::ThreeHop,
            snapshot: Arc::clone(&snap),
            built: OnceLock::new(),
        };
        let eager = BackendKind::ThreeHop.build_shared_with(snap.graph(), snap.condensation());
        let g = snap.graph();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(lazy.reaches(u, v), eager.reaches(u, v), "{u} -> {v}");
            }
        }
        assert!(lazy.is_built());
        assert_eq!(lazy.name(), eager.name());
        let probe = lazy.succ_probe(&[NodeId(0)]);
        assert!(probe(NodeId(2)));
        assert!(!probe(NodeId(0)));
    }
}
