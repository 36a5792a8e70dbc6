//! Baseline algorithms the paper compares GTEA against (§5).
//!
//! All baselines evaluate *conjunctive* tree pattern queries; general GTPQs
//! are handled through the decompose-and-merge wrapper in [`decompose`],
//! which is how the paper applies TwigStack / TwigStackD to queries with
//! disjunction and negation (Appendix C.2).
//!
//! * [`TwigStack`] — holistic twig join in the style of Bruno et al.:
//!   enumerates root-to-leaf *path solutions* and merge-joins them into twig
//!   matches.  Its intermediate results grow with the number of path
//!   solutions, the effect the paper's Fig. 10 quantifies.
//! * [`Twig2Stack`] — bottom-up twig evaluation that avoids path
//!   enumeration by keeping per-node hierarchical match links, at the cost
//!   of building and maintaining those structures for every query node.
//! * [`TwigStackD`] — the DAG generalization of the holistic algorithms:
//!   a pre-filtering phase (two sweeps over the candidates) followed by
//!   pool-based match expansion, with the SSPI index answering reachability.
//! * [`HgJoin`] — hash-based structural join over (parent, children) units,
//!   in two flavours: tuple intermediates (HGJoin+) and graph-represented
//!   intermediates (HGJoin*), the paper's own revision.
//!
//! Substitutions with respect to the original systems (region-encoded input
//! streams, selectivity-based plan generation) are listed under
//! "Substitutions" in `docs/ARCHITECTURE.md`; the
//! join strategies and intermediate-result representations — the factors the
//! paper's experiments isolate — are reproduced by real code doing the
//! corresponding work.

pub mod decompose;
pub mod hgjoin;
pub mod stats;
pub mod twig2stack;
pub mod twig_stack;
pub mod twigstack_d;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{Gtpq, ResultSet};

pub use decompose::evaluate_gtpq_with;
pub use hgjoin::HgJoin;
pub use stats::BaselineStats;
pub use twig2stack::Twig2Stack;
pub use twig_stack::TwigStack;
pub use twigstack_d::TwigStackD;

/// Per-query-node candidate restrictions handed to a baseline by the
/// decompose-and-merge wrapper (`None` entries mean "no restriction").
pub(crate) type Restrictions = Vec<Option<Vec<NodeId>>>;

/// One match projection: a sorted `(query node, data node)` assignment.
/// Shared by the enumeration phases of the baseline evaluators.
pub(crate) type Assignment = Vec<(gtpq_query::QueryNodeId, NodeId)>;

/// Appends the projection of `assignment` onto `q`'s output nodes to the
/// flat row buffer `rows`; an assignment missing an output node adds nothing.
pub(crate) fn push_projection(
    q: &Gtpq,
    assignment: &[(gtpq_query::QueryNodeId, NodeId)],
    rows: &mut Vec<NodeId>,
) {
    let start = rows.len();
    for u in q.output_nodes() {
        match assignment.iter().find(|(qu, _)| qu == u) {
            Some(&(_, v)) => rows.push(v),
            None => return rows.truncate(start),
        }
    }
}

/// Shared, memoized projections per (query node, data node).
pub(crate) type AssignmentMemo =
    std::collections::HashMap<(gtpq_query::QueryNodeId, NodeId), std::rc::Rc<Vec<Assignment>>>;

/// A conjunctive tree-pattern-query evaluation algorithm.
pub trait TpqAlgorithm {
    /// Short name used in experiment output.
    fn name(&self) -> &'static str;

    /// Evaluates a conjunctive query, optionally restricting the candidates of
    /// some query nodes.
    ///
    /// # Panics
    /// Panics if `q` is not conjunctive (use [`evaluate_gtpq_with`] for
    /// general GTPQs).
    fn evaluate_restricted(
        &self,
        q: &Gtpq,
        restrict: Option<&Restrictions>,
    ) -> (ResultSet, BaselineStats);

    /// Evaluates a conjunctive query without restrictions.
    fn evaluate(&self, q: &Gtpq) -> (ResultSet, BaselineStats) {
        self.evaluate_restricted(q, None)
    }

    /// The data graph the algorithm was built for.
    fn graph(&self) -> &DataGraph;
}

/// Computes the initial candidates of every query node through the attribute
/// inverted index, applying restrictions.
pub(crate) fn restricted_candidates(
    q: &Gtpq,
    g: &DataGraph,
    restrict: Option<&Restrictions>,
    stats: &mut BaselineStats,
) -> Vec<Vec<NodeId>> {
    let mut mat: Vec<Vec<NodeId>> = Vec::with_capacity(q.size());
    let mut allowed = gtpq_graph::NodeBitSet::new(g.node_count());
    for u in q.node_ids() {
        let selection = q.candidates_indexed(g, u);
        stats.input_nodes += selection.verified;
        stats.index_lookups += selection.posting_entries;
        let mut candidates = selection.nodes;
        if let Some(r) = restrict.and_then(|r| r[u.index()].as_ref()) {
            allowed.clear();
            allowed.extend_from_slice(r);
            candidates.retain(|&v| allowed.contains(v));
        }
        mat.push(candidates);
    }
    mat
}
