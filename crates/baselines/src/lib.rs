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
//!
//! Everything else is written once, here, and shared: candidate selection
//! (`restricted_candidates`), the PC/AD edge test (`edge_ok`), the tuple
//! extension of TwigStack and HGJoin+ (`extend_tuples`), the child-list
//! pass of Twig2Stack, TwigStackD and HGJoin* (`child_lists`,
//! `link_all`) into one link table (`Links`), and the memoized
//! expansion of that table into answers (`expand`).  So each arm keeps
//! only its strategy: TwigStack's path solutions and their merge join,
//! Twig2Stack's bottom-up links with its stop at a candidate's first empty
//! child list, TwigStackD's two pre-filter sweeps, HGJoin+'s tuple joins,
//! and HGJoin*'s unit graphs over the unpruned candidates.  Every arm's
//! Fig. 10 counters on fixed inputs are pinned by `tests/counters.rs`.

pub mod decompose;
pub mod hgjoin;
pub mod stats;
pub mod twig2stack;
pub mod twig_stack;
pub mod twigstack_d;

use std::collections::HashMap;
use std::rc::Rc;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{EdgeKind, Gtpq, QueryNodeId, ResultSet};
use gtpq_reach::Reachability;

pub use decompose::evaluate_gtpq_with;
pub use hgjoin::HgJoin;
pub use stats::BaselineStats;
pub use twig2stack::Twig2Stack;
pub use twig_stack::TwigStack;
pub use twigstack_d::TwigStackD;

/// Per-query-node candidate restrictions handed to a baseline by the
/// decompose-and-merge wrapper (`None` entries mean "no restriction").
pub(crate) type Restrictions = Vec<Option<Vec<NodeId>>>;

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

/// Whether the data pair `(v, w)` satisfies the edge into query node
/// `child`: a PC edge needs a graph edge, an AD edge a path `index` answers.
pub(crate) fn edge_ok(
    g: &DataGraph,
    index: &dyn Reachability,
    q: &Gtpq,
    child: QueryNodeId,
    v: NodeId,
    w: NodeId,
) -> bool {
    match q.incoming_edge(child) {
        Some(EdgeKind::Child) => g.has_edge(v, w),
        _ => index.reaches(v, w),
    }
}

/// Tuple extension: one 1-tuple per candidate of `first`, then for each
/// step `(col, child)` every tuple extended by each candidate of `child`
/// that its column `col` links to.  Each (tuple, candidate) pair costs one
/// edge test and one `#index` lookup; the surviving tuples count as
/// intermediate results.
pub(crate) fn extend_tuples(
    g: &DataGraph,
    index: &dyn Reachability,
    q: &Gtpq,
    mat: &[Vec<NodeId>],
    first: QueryNodeId,
    steps: impl IntoIterator<Item = (usize, QueryNodeId)>,
    stats: &mut BaselineStats,
) -> Vec<Vec<NodeId>> {
    let mut tuples: Vec<Vec<NodeId>> = mat[first.index()].iter().map(|&v| vec![v]).collect();
    for (col, child) in steps {
        if tuples.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for tuple in &tuples {
            for &w in &mat[child.index()] {
                stats.index_lookups += 1;
                if edge_ok(g, index, q, child, tuple[col], w) {
                    let mut extended = tuple.clone();
                    extended.push(w);
                    next.push(extended);
                }
            }
        }
        tuples = next;
    }
    stats.intermediate_results += tuples.len() as u64;
    tuples
}

/// A match structure: per (query node, candidate), one list per query child
/// of the child's candidates it links to.  Twig2Stack's hierarchical stacks,
/// TwigStackD's pools and HGJoin*'s unit graphs are each one of these.
pub(crate) type Links = HashMap<(QueryNodeId, NodeId), Vec<Vec<NodeId>>>;

/// The child lists of candidate `v` of `u`: for each query child in turn,
/// its candidates in `mat` that `v` links to.  Lazy, so that a caller can
/// stop at the first empty list; each (v, w) pair costs one edge test and
/// one `#index` lookup.
pub(crate) fn child_lists<'a>(
    g: &'a DataGraph,
    index: &'a dyn Reachability,
    q: &'a Gtpq,
    u: QueryNodeId,
    v: NodeId,
    mat: &'a [Vec<NodeId>],
    lookups: &'a mut u64,
) -> impl Iterator<Item = Vec<NodeId>> + 'a {
    q.children(u).iter().map(move |&child| {
        *lookups += mat[child.index()].len() as u64;
        mat[child.index()]
            .iter()
            .copied()
            .filter(|&w| edge_ok(g, index, q, child, v, w))
            .collect()
    })
}

/// Links every candidate of every internal query node to its child lists.
pub(crate) fn link_all(
    g: &DataGraph,
    index: &dyn Reachability,
    q: &Gtpq,
    mat: &[Vec<NodeId>],
    lookups: &mut u64,
) -> Links {
    let mut links = Links::new();
    for u in q.internal_nodes() {
        for &v in &mat[u.index()] {
            let lists = child_lists(g, index, q, u, v, mat, lookups).collect();
            links.insert((u, v), lists);
        }
    }
    links
}

/// Enumerates the answers a match structure holds below the root candidates
/// `roots`.  Each (query node, candidate) expands once into its distinct
/// assignments of the output nodes in its subtree; an internal pair without
/// links, or with an empty child list, matches nothing.
pub(crate) fn expand(q: &Gtpq, links: &Links, roots: &[NodeId]) -> ResultSet {
    type Assignments = Rc<Vec<Vec<(QueryNodeId, NodeId)>>>;
    fn matches(
        q: &Gtpq,
        links: &Links,
        u: QueryNodeId,
        v: NodeId,
        memo: &mut HashMap<(QueryNodeId, NodeId), Assignments>,
    ) -> Assignments {
        if let Some(cached) = memo.get(&(u, v)) {
            return Rc::clone(cached);
        }
        let mut partials = vec![if q.is_output(u) { vec![(u, v)] } else { vec![] }];
        if !q.node(u).is_leaf() {
            let lists = links.get(&(u, v)).map_or(&[][..], Vec::as_slice);
            if lists.is_empty() {
                partials.clear();
            }
            for (&child, list) in q.children(u).iter().zip(lists) {
                if partials.is_empty() {
                    break;
                }
                let mut branch: Vec<Vec<(QueryNodeId, NodeId)>> = list
                    .iter()
                    .flat_map(|&w| Vec::clone(&matches(q, links, child, w, memo)))
                    .collect();
                branch.sort();
                branch.dedup();
                partials = partials
                    .iter()
                    .flat_map(|base| {
                        branch.iter().map(move |extra| {
                            let mut merged = [&base[..], extra].concat();
                            merged.sort();
                            merged
                        })
                    })
                    .collect();
            }
        }
        partials.sort();
        partials.dedup();
        let partials = Rc::new(partials);
        memo.insert((u, v), Rc::clone(&partials));
        partials
    }

    let mut memo = HashMap::new();
    let mut rows = Vec::new();
    for &v in roots {
        for assignment in matches(q, links, q.root(), v, &mut memo).iter() {
            rows.extend(q.output_nodes().iter().map(|u| {
                let at = assignment.binary_search_by_key(u, |&(qu, _)| qu);
                assignment[at.expect("every output node is assigned")].1
            }));
        }
    }
    ResultSet::from_rows(q.output_nodes().to_vec(), rows)
}
