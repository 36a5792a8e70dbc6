//! Reachability for GTPQ evaluation: the pairwise indexes the paper
//! compares, behind one trait.
//!
//! GTEA's filter stages ask ancestor-descendant (AD) questions about whole
//! candidate sets, and `gtpq-graph` answers those on the condensation the
//! graph carries ([`DataGraph::condensation`](gtpq_graph::DataGraph::condensation))
//! without any index, through the kernels of [`gtpq_graph::sweep`]: `sweep`
//! marks everything that reaches (or is reached from) a set — both prune
//! rounds — and `branches` lists, for every member of one set, what it
//! reaches in another — the AD edges of the matching graph.  The engine's
//! default path (`gtpq-core`) uses nothing from this crate but the
//! [`Reachability`] trait the condensation implements.
//!
//! The paper's evaluation also compares pairwise indexes: GTEA probes the
//! *3-hop* index, and the TwigStackD baseline needs an SSPI-style index.
//! Those two sit behind the common [`Reachability`] trait, one per
//! [`BackendKind`]:
//!
//! * [`ThreeHop`] — chain cover + `Lin`/`Lout` hop lists,
//! * [`Sspi`] — spanning-tree intervals + surplus predecessor lists (on a
//!   forest the surplus lists are empty and it *is* the interval labelling).
//!
//! Both are built on the SCC condensation so they accept arbitrary
//! directed graphs; the AD relationship of the paper ("non-empty path") is
//! preserved: a node reaches itself only when it lies on a cycle.  The
//! condensation itself implements [`Reachability`] too (in `sweep.rs`), with
//! no index behind it; the tests' exact oracle is the plain BFS of
//! `gtpq_graph::traversal`.
//!
//! The paper's contour merging (Procedure 2, `MergePredLists` /
//! `MergeSuccLists`, and Proposition 7) is not implemented: every set
//! question is one condensation sweep, whichever backend exists.
//!
//! ## Pluggable backends
//!
//! The GTEA engine holds a `&dyn Reachability` — the graph's condensation
//! unless the caller passes an index — and reads it in one place: its
//! pairwise ablation arm calls the point probe
//! [`reaches`](Reachability::reaches) per (candidate, member) pair, which is
//! where the backends differ.  The trait's two set probes —
//! [`pred_probe`](Reachability::pred_probe) and
//! [`succ_probe`](Reachability::succ_probe) — are one sweep on every
//! backend, and [`source_probe`](Reachability::source_probe) (one source,
//! many targets) is pairwise `reaches` on every backend and has no caller in
//! the engine.  [`BackendKind::build_shared`] builds a named backend;
//! [`BackendKind::ALL`] is the one table of backends everything else is
//! derived from.

#![warn(missing_docs)]

mod chain;
pub mod select;
pub mod sspi;
mod sweep;
pub mod three_hop;

use std::sync::Arc;

use gtpq_graph::NodeId;

pub use select::{
    build_selected_with, select_backend_for_query, BackendCostHints, BackendKind, BackendSelection,
    GraphProfile,
};
pub use sspi::Sspi;
pub use three_hop::ThreeHop;

/// A prepared membership probe returned by the set-probe methods of
/// [`Reachability`]: call it once per node to test against the prepared set.
pub type Probe<'s> = Box<dyn Fn(NodeId) -> bool + 's>;

/// A reachability index: answers whether there is a *non-empty* directed path
/// from `u` to `v` (the ancestor-descendant relationship of the paper).
///
/// Implementations must be cheap to probe after construction; construction
/// cost and memory are reported through [`index_entries`](Self::index_entries)
/// so experiments can compare space/time trade-offs.
///
/// The trait requires `Send + Sync`: indexes are immutable after
/// construction (lookup counters are atomics), and the query service shares
/// one index across the requests its callers' threads evaluate at once.
pub trait Reachability: Send + Sync {
    /// Whether `u` reaches `v` by a non-empty path.
    fn reaches(&self, u: NodeId, v: NodeId) -> bool;

    /// Number of entries stored by the index (used in space comparisons).
    fn index_entries(&self) -> usize;

    /// Short name of the index; the two backends return their
    /// [`BackendKind::as_str`] spelling.
    fn name(&self) -> &'static str;

    /// Cumulative number of index elements looked up since construction (or
    /// the last [`reset_lookups`](Self::reset_lookups)) — the `#index`
    /// I/O-cost metric of Fig. 10.  Point probes count the hop-list or
    /// surplus entries they read; a set-probe sweep counts the condensation
    /// edges it visited.  Backends without instrumentation (the bare
    /// condensation) report 0.
    ///
    /// The counter is a property of the (possibly shared) index, so callers
    /// wanting a per-stage figure should take start/end deltas rather than
    /// resetting; when several queries probe one index concurrently, each
    /// query's delta is an upper bound that may include the others' lookups.
    fn lookup_count(&self) -> u64 {
        0
    }

    /// Resets the lookup counter.  No-op for uninstrumented backends.
    fn reset_lookups(&self) {}

    /// Prepares a probe answering "does `v` reach *some* member of
    /// `targets`?" for many different `v` — the question of the downward
    /// prune round, which asks the condensation's kernels directly.
    ///
    /// There is no pairwise default: a set probe must cost one pass over
    /// the set, not one `reaches` per (candidate, member) pair.  Every
    /// implementation here answers with one backward condensation
    /// sweep from `targets`; an index adds the condensation edges it
    /// visited to [`lookup_count`](Self::lookup_count) once, at preparation.
    /// The prepared probe is then `component_of(v)` plus one bit test and
    /// counts nothing.  Wrappers forward to the index they wrap.
    fn pred_probe<'s>(&'s self, targets: &[NodeId]) -> Probe<'s>;

    /// Prepares a probe answering "does *some* member of `sources` reach
    /// `v`?" for many different `v` — the upward round's question.  The forward
    /// twin of [`pred_probe`](Self::pred_probe), with the same cost and
    /// accounting.
    fn succ_probe<'s>(&'s self, sources: &[NodeId]) -> Probe<'s>;

    /// Prepares a probe answering "does `source` reach `v`?" for many
    /// different `v` (one source, many targets): pairwise
    /// [`reaches`](Self::reaches) on every backend.  The matching graph
    /// asks the condensation's `branches` kernel instead.
    fn source_probe<'s>(&'s self, source: NodeId) -> Probe<'s> {
        Box::new(move |v| self.reaches(source, v))
    }
}

macro_rules! forward_reachability {
    () => {
        fn reaches(&self, u: NodeId, v: NodeId) -> bool {
            (**self).reaches(u, v)
        }
        fn index_entries(&self) -> usize {
            (**self).index_entries()
        }
        fn name(&self) -> &'static str {
            (**self).name()
        }
        fn lookup_count(&self) -> u64 {
            (**self).lookup_count()
        }
        fn reset_lookups(&self) {
            (**self).reset_lookups()
        }
        fn pred_probe<'s>(&'s self, targets: &[NodeId]) -> Probe<'s> {
            (**self).pred_probe(targets)
        }
        fn succ_probe<'s>(&'s self, sources: &[NodeId]) -> Probe<'s> {
            (**self).succ_probe(sources)
        }
        fn source_probe<'s>(&'s self, source: NodeId) -> Probe<'s> {
            (**self).source_probe(source)
        }
    };
}

impl<T: Reachability + ?Sized> Reachability for &T {
    forward_reachability!();
}

impl<T: Reachability + ?Sized> Reachability for Box<T> {
    forward_reachability!();
}

impl<T: Reachability + ?Sized> Reachability for Arc<T> {
    forward_reachability!();
}

/// A reachability backend that can be shared across threads (what
/// [`BackendKind::build_shared`] and the query service hand out).
pub type SharedIndex = Arc<dyn Reachability + Send + Sync>;
