//! The two-round pruning process (§4.2, Procedures 6 and 7).
//!
//! [`prune_downward`] runs the plan's children-first order of internal
//! nodes and records each step's actual rows and time as one operator;
//! [`prune_upward`] walks the prime subtree top-down and records its
//! survivors in [`EvalStats::candidates_after_upward`].  Neither records an
//! estimate: no decision reads one.
//!
//! Both rounds skip work whose answer is already known.  A downward step
//! resolves its children one at a time, each only for the candidates that
//! `fext(u)`, evaluated in three-valued logic over the children resolved so
//! far, leaves undecided, and stops once none is.  A PC child's column is
//! computed from whichever side of the adjacency lists `PcSide::choose`
//! sizes, in O(1), as the cheapest; an upward PC edge marks from its
//! smaller end.  `ctl` is polled once per 64 candidates of every column and
//! every upward filter.

use std::fmt::Write as _;
use std::time::Instant;

use gtpq_graph::sweep::{reaching, Direction};
use gtpq_graph::{DataGraph, NodeBitSet, NodeId};
use gtpq_logic::valuation::{eval_kleene_columns, eval_words};
use gtpq_logic::VarId;
use gtpq_query::{EdgeKind, Gtpq, QueryNodeId};
use gtpq_reach::Reachability;

use crate::exec::{ExecCtl, Interrupt};
use crate::options::GteaOptions;
use crate::prime::PrimeSubtree;
use crate::stats::{EvalStats, Operator, OperatorStats};

/// Candidates per poll of `ctl`: one word of a step's bit columns.
const WORD: usize = 64;

/// The candidates `keep` accepts, in order, polling `ctl` once per
/// [`WORD`] candidates.
fn retain_polled(
    candidates: &[NodeId],
    ctl: &ExecCtl,
    mut keep: impl FnMut(NodeId) -> bool,
) -> Result<Vec<NodeId>, Interrupt> {
    let mut kept = Vec::with_capacity(candidates.len());
    for chunk in candidates.chunks(WORD) {
        ctl.check()?;
        kept.extend(chunk.iter().copied().filter(|&v| keep(v)));
    }
    Ok(kept)
}

/// The members of `candidates` whose bit is set in `words` (bit `i % 64` of
/// word `i / 64` for `candidates[i]`), in order.
fn members(candidates: &[NodeId], words: &[u64]) -> Vec<NodeId> {
    let len = words.iter().map(|w| w.count_ones() as usize).sum();
    let mut out = Vec::with_capacity(len);
    for (chunk, &word) in candidates.chunks(WORD).zip(words) {
        let mut bits = word;
        while bits != 0 {
            out.push(chunk[bits.trailing_zeros() as usize]);
            bits &= bits - 1;
        }
    }
    out
}

/// One child's variable of `fext(u)` as `(known true, known false)` words
/// over the step's candidates: `test` runs for the candidates whose bit is
/// set in `open` and decides their bit; every other bit stays unknown.
/// Polls `ctl` once per word.
fn column(
    candidates: &[NodeId],
    open: &[u64],
    ctl: &ExecCtl,
    mut test: impl FnMut(NodeId) -> bool,
) -> Result<Vec<(u64, u64)>, Interrupt> {
    let mut words = Vec::with_capacity(open.len());
    for (chunk, &open) in candidates.chunks(WORD).zip(open) {
        ctl.check()?;
        let (mut bits, mut holds) = (open, 0u64);
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            holds |= u64::from(test(chunk[i])) << i;
            bits &= bits - 1;
        }
        words.push((holds, open & !holds));
    }
    Ok(words)
}

/// Which side of the adjacency lists computes a PC child's column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PcSide {
    /// Mark the targets' parents, then test each candidate's mark.
    MarkParents,
    /// Mark the targets, then scan each candidate's children for a mark.
    ScanMarked,
    /// Scan each candidate's children with a binary search in the sorted
    /// targets: no pass over the targets at all.
    ScanSearch,
}

impl PcSide {
    /// The side expected to cost least for `from` candidates and `targets`
    /// child candidates, sized in O(1) from the two counts and the graph's
    /// mean degree `d = E / V` (a degree-based join bound): marking parents
    /// reads `targets·d` entries and tests `from` marks; scanning against
    /// marks marks `targets` nodes and reads `from·d` entries; scanning with
    /// a search reads `from·d` entries at `log₂ targets` probes each.  A
    /// mark, a test, an entry read and a probe each count one.  `targets`
    /// is at least one: a child without candidates is decided unread.
    fn choose(g: &DataGraph, from: usize, targets: usize) -> Self {
        let (e, n) = (g.edge_count() as u64, g.node_count().max(1) as u64);
        let (from, targets) = (from as u64, targets as u64);
        // Every cost times V, so that `d` stays the integer ratio it is.
        let probes = u64::from(u64::BITS - targets.leading_zeros());
        let costs = [
            (targets * e + from * n, PcSide::MarkParents),
            (targets * n + from * e, PcSide::ScanMarked),
            (from * e * probes, PcSide::ScanSearch),
        ];
        costs
            .into_iter()
            .min_by_key(|&(cost, _)| cost)
            .expect("three sides")
            .1
    }
}

/// A PC child's column over the `open` candidates (see [`column`]): bit `i`
/// holds when `candidates[i]` has a graph child in `targets` (sorted).  Every
/// side reads the adjacency lists exactly and adds the entries it reads to
/// `lookups`; `marked` is scratch, cleared first.
#[allow(clippy::too_many_arguments)] // the kernel's inputs and its scratch
fn pc_column(
    g: &DataGraph,
    side: PcSide,
    candidates: &[NodeId],
    open: &[u64],
    targets: &[NodeId],
    marked: &mut NodeBitSet,
    ctl: &ExecCtl,
    lookups: &mut u64,
) -> Result<Vec<(u64, u64)>, Interrupt> {
    marked.clear();
    match side {
        PcSide::MarkParents => {
            for &t in targets {
                let parents = g.parents(t);
                *lookups += parents.len() as u64;
                marked.extend_from_slice(parents);
            }
            column(candidates, open, ctl, |v| marked.contains(v))
        }
        PcSide::ScanMarked => {
            marked.extend_from_slice(targets);
            column(candidates, open, ctl, |v| {
                let children = g.children(v);
                *lookups += children.len() as u64;
                children.iter().any(|&c| marked.contains(c))
            })
        }
        PcSide::ScanSearch => column(candidates, open, ctl, |v| {
            let children = g.children(v);
            *lookups += children.len() as u64;
            children.iter().any(|c| targets.binary_search(c).is_ok())
        }),
    }
}

/// `PruneDownward` (Procedure 6): removes candidates that do not satisfy the
/// downward structural constraints of their query node.
///
/// Processes the internal query nodes in the order given by `steps` — the
/// plan's children-first downward-prune order
/// ([`QueryPlan::normalized_prune_down`](crate::QueryPlan::normalized_prune_down)); for
/// every internal node `u` and candidate `v`, a truth value is assigned to
/// each child's variable from the reachability of `v` into the (already
/// pruned) candidate set of the child, and `v` is kept only when the
/// extended structural predicate `fext(u)` evaluates to true.
///
/// A step resolves only the children whose variable occurs in `fext(u)`.
/// With none, `fext(u)` is a constant (`fs(u) = 0` beside backbone
/// children): the step keeps every candidate or none, reading nothing.
/// Otherwise it resolves them one at a time — backbone children first,
/// since `fext(u)` AND-s them, then predicate children in query order — and
/// each only for the candidates still undecided: after each child,
/// `fext(u)` is evaluated 64 candidates per word in three-valued logic
/// ([`eval_kleene_columns`]; an unresolved variable is unknown), and the
/// step stops as soon as every candidate is decided.  The kept set is the
/// final "known true" words.  A child with no candidates is false for every
/// candidate and reads nothing; any other child becomes one bit per
/// undecided candidate:
///
/// * an AD child by one [`reaching`] race of `g`'s condensation — a sweep
///   back from the child's candidates against a memoised search forward
///   from the step's candidates — costing at most
///   `2·min(sweep, search) + CHUNK` edges, each side at most the
///   condensation's edges `E`, and read for the undecided candidates only;
/// * a PC child exactly through the adjacency lists, from the side
///   `PcSide::choose` sizes as cheapest in O(1) from `|mat(child)|`, the
///   undecided count and the graph's mean degree: marking the child's
///   candidates' parents, or scanning the undecided candidates' children
///   against a bitset of the child's candidates or with a binary search in
///   them.
///
/// A step so costs O(|mat(u)|) plus those reads, rather than
/// O(|mat(u)| · |mat(child)|) probes.  `index` is read only by the pairwise
/// ablation arm ([`GteaOptions::pairwise_ad`]), which calls
/// [`Reachability::reaches`] per undecided pair.  One [`OperatorStats`]
/// entry, with its actual rows and no estimate, is recorded per step,
/// constant or not.
///
/// `ctl` is polled once per 64 candidates of each resolved child's column;
/// an expired deadline or a triggered cancellation aborts mid-round with an
/// [`Interrupt`] (the candidate sets are left in an unspecified but
/// memory-safe state).  The round's rollups —
/// `candidates_after_downward`, the index-lookup delta and
/// `prune_down_time` — are recorded even for aborted rounds, over whatever
/// the candidate sets hold at the abort point.
#[allow(clippy::too_many_arguments)] // the evaluation pipeline state is explicit
pub fn prune_downward<R: Reachability + ?Sized>(
    q: &Gtpq,
    g: &DataGraph,
    index: &R,
    options: &GteaOptions,
    steps: &[QueryNodeId],
    mat: &mut [Vec<NodeId>],
    stats: &mut EvalStats,
    ctl: &ExecCtl,
) -> Result<(), Interrupt> {
    let start = Instant::now();
    // Delta, not reset: the index may be shared with concurrent queries
    // (QueryService), and a reset here would wipe their in-flight counts.
    let lookups_before = index.lookup_count();
    let result = prune_downward_inner(q, g, index, options, steps, mat, stats, ctl);
    for u in q.node_ids() {
        stats.candidates_after_downward += mat[u.index()].len() as u64;
    }
    stats.index_lookups += index.lookup_count().saturating_sub(lookups_before);
    stats.prune_down_time += start.elapsed();
    result
}

#[allow(clippy::too_many_arguments)] // mirrors the public entry point
fn prune_downward_inner<R: Reachability + ?Sized>(
    q: &Gtpq,
    g: &DataGraph,
    index: &R,
    options: &GteaOptions,
    steps: &[QueryNodeId],
    mat: &mut [Vec<NodeId>],
    stats: &mut EvalStats,
    ctl: &ExecCtl,
) -> Result<(), Interrupt> {
    // Scratch node set for a PC child, reused across steps (cleared in
    // O(touched), not re-allocated).
    let mut marked = NodeBitSet::new(g.node_count());
    let cond = g.condensation();
    for &u in steps {
        let span = ctl.tracer().span_with(|| format!("prune_down {u}"));
        let op_start = Instant::now();
        let fext = q.fext(u);

        let candidates = std::mem::take(&mut mat[u.index()]);
        stats.input_nodes += candidates.len() as u64;

        // Only the children `fext(u)` mentions are resolved, backbone ones
        // first (a stable sort keeps query order within each kind); with
        // none, the formula is a constant that decides every candidate alike.
        let mut used: Vec<QueryNodeId> = q
            .children(u)
            .iter()
            .copied()
            .filter(|c| fext.contains_var(c.var()))
            .collect();
        used.sort_by_key(|&c| !q.is_backbone(c));
        // The span's `swept` field: per AD child, the side of the race that
        // answered and the condensation edges both sides visited.
        let mut swept = String::new();
        let candidates = if used.is_empty() {
            let value = eval_words(&fext, &mut |_| 0) != 0;
            span.field("formula", value);
            if value {
                candidates
            } else {
                Vec::new()
            }
        } else {
            // `open`: the candidates `fext(u)` leaves undecided, `kept` the
            // ones it holds for; `known[var]` is a resolved variable's
            // column of (true, false) pairs, `unknown` every other one's.
            let mut open: Vec<u64> = candidates
                .chunks(WORD)
                .map(|chunk| u64::MAX >> (WORD - chunk.len()))
                .collect();
            let mut kept = vec![0u64; open.len()];
            let unknown = vec![(0u64, 0u64); open.len()];
            let mut known: Vec<Vec<(u64, u64)>> = vec![Vec::new(); q.size()];
            let mut stack = Vec::new();
            let mut undecided = candidates.len();
            for &c in &used {
                let targets = &mat[c.index()];
                let words = match q.incoming_edge(c) {
                    // No child candidate: false wherever open, read from nothing.
                    _ if targets.is_empty() => open.iter().map(|&open| (0, open)).collect(),
                    Some(EdgeKind::Child) => {
                        let side = PcSide::choose(g, undecided, targets.len());
                        let lookups = &mut stats.index_lookups;
                        pc_column(
                            g,
                            side,
                            &candidates,
                            &open,
                            targets,
                            &mut marked,
                            ctl,
                            lookups,
                        )?
                    }
                    _ if options.pairwise_ad => column(&candidates, &open, ctl, |v| {
                        targets.iter().any(|&t| index.reaches(v, t))
                    })?,
                    _ => {
                        let found = reaching(cond, &candidates, targets, Direction::Ancestors);
                        stats.index_lookups += found.edges_visited;
                        let sep = if swept.is_empty() { "" } else { "," };
                        let _ = write!(swept, "{sep}{c}:{}:{}", found.side, found.edges_visited);
                        column(&candidates, &open, ctl, |v| {
                            found.reached.contains(cond.component_of(v))
                        })?
                    }
                };
                known[c.index()] = words;
                let mut lookup = |var: VarId| match &known[var.index()] {
                    column if column.is_empty() => &unknown[..],
                    column => &column[..],
                };
                stack.clear();
                eval_kleene_columns(&fext, open.len(), &mut lookup, &mut stack);
                undecided = 0;
                for ((open, kept), &(holds, fails)) in open.iter_mut().zip(&mut kept).zip(&stack) {
                    *kept |= holds & *open;
                    *open &= !(holds | fails);
                    undecided += open.count_ones() as usize;
                }
                if undecided == 0 {
                    break;
                }
            }
            debug_assert_eq!(undecided, 0, "fext(u) is decided once all it reads is");
            members(&candidates, &kept)
        };
        span.field("actual_rows", candidates.len());
        if !swept.is_empty() {
            span.field("swept", &swept);
        }
        drop(span);
        stats.operators.push(OperatorStats {
            label: Operator::PruneDown(u),
            estimated_rows: None,
            actual_rows: candidates.len() as u64,
            time: op_start.elapsed(),
        });
        let emptied_backbone = candidates.is_empty() && q.is_backbone(u);
        mat[u.index()] = candidates;
        // A backbone node with no candidates forces an empty answer, and
        // later steps can only shrink their own sets — skip them.  This is
        // where the plan's selectivity ordering pays: cheap, selective nodes
        // run first, so doomed queries bail before the expensive ones.
        if emptied_backbone {
            break;
        }
    }
    Ok(())
}

/// `PruneUpward` (Procedure 7): removes candidates of prime-subtree nodes that
/// are not reachable from any candidate of their prime parent.
///
/// Processes the prime subtree top-down; each AD edge is answered by one
/// [`reaching`] race of `g`'s condensation — a sweep forward from the
/// parent's candidates against a memoised search back from the child's.
/// A PC edge is checked exactly through the adjacency lists from its
/// smaller end: when the parent has fewer surviving candidates than the
/// child, their children are marked and the child's candidates tested
/// against the marks; otherwise the parents are marked and each child
/// candidate's parents tested.  `index` again serves the pairwise arm only.
/// The surviving prime-subtree candidates are summed into
/// `candidates_after_upward`; `_estimated_rows` is unread, kept while the
/// benchmark's replay passes [`QueryPlan::upward_estimated_rows`](crate::QueryPlan::upward_estimated_rows).
/// `ctl` is polled once per 64 of each edge's child candidates.  As with
/// [`prune_downward`], the round's rollups and `prune_up_time` are recorded
/// even when the round is aborted mid-way.
#[allow(clippy::too_many_arguments)] // mirrors prune_downward plus the unread estimate
pub fn prune_upward<R: Reachability + ?Sized>(
    q: &Gtpq,
    g: &DataGraph,
    index: &R,
    options: &GteaOptions,
    prime: &PrimeSubtree,
    _estimated_rows: u64,
    mat: &mut [Vec<NodeId>],
    stats: &mut EvalStats,
    ctl: &ExecCtl,
) -> Result<(), Interrupt> {
    let start = Instant::now();
    let lookups_before = index.lookup_count();
    let result = prune_upward_inner(q, g, index, options, prime, mat, stats, ctl);
    for &u in &prime.nodes {
        stats.candidates_after_upward += mat[u.index()].len() as u64;
    }
    stats.index_lookups += index.lookup_count().saturating_sub(lookups_before);
    stats.prune_up_time += start.elapsed();
    result
}

#[allow(clippy::too_many_arguments)] // mirrors the public entry point
fn prune_upward_inner<R: Reachability + ?Sized>(
    q: &Gtpq,
    g: &DataGraph,
    index: &R,
    options: &GteaOptions,
    prime: &PrimeSubtree,
    mat: &mut [Vec<NodeId>],
    stats: &mut EvalStats,
    ctl: &ExecCtl,
) -> Result<(), Interrupt> {
    // One scratch node set reused across every prime edge.
    let mut marked = NodeBitSet::new(g.node_count());
    for &u in &prime.nodes {
        for &child in prime.children_of(u) {
            let span = ctl.tracer().span_with(|| format!("prune_up {child}"));
            let candidates = std::mem::take(&mut mat[child.index()]);
            stats.input_nodes += candidates.len() as u64;
            let parents = &mat[u.index()];
            let kept = match q.incoming_edge(child) {
                Some(EdgeKind::Child) if parents.len() < candidates.len() => {
                    marked.clear();
                    for &p in parents {
                        let children = g.children(p);
                        stats.index_lookups += children.len() as u64;
                        marked.extend_from_slice(children);
                    }
                    retain_polled(&candidates, ctl, |v| marked.contains(v))?
                }
                Some(EdgeKind::Child) => {
                    marked.clear();
                    marked.extend_from_slice(parents);
                    let lookups = &mut stats.index_lookups;
                    retain_polled(&candidates, ctl, |v| {
                        let parents = g.parents(v);
                        *lookups += parents.len() as u64;
                        parents.iter().any(|&p| marked.contains(p))
                    })?
                }
                _ if options.pairwise_ad => retain_polled(&candidates, ctl, |v| {
                    parents.iter().any(|&s| index.reaches(s, v))
                })?,
                _ => {
                    let cond = g.condensation();
                    let found = reaching(cond, &candidates, parents, Direction::Descendants);
                    stats.index_lookups += found.edges_visited;
                    span.field("swept", format!("{}:{}", found.side, found.edges_visited));
                    retain_polled(&candidates, ctl, |v| {
                        found.reached.contains(cond.component_of(v))
                    })?
                }
            };
            span.field("actual_rows", kept.len());
            drop(span);
            mat[child.index()] = kept;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gtpq_graph::traversal::is_reachable;
    use gtpq_graph::Condensation;
    use gtpq_logic::BoolExpr;
    use gtpq_query::fixtures::{example_graph, example_query};
    use gtpq_query::naive;
    use gtpq_reach::{BackendKind, SharedIndex, ThreeHop};

    use super::*;
    use crate::plan::{execute_candidates, Planner};

    /// The planned candidate sets: every node's, through the index.
    fn selected(q: &Gtpq, g: &DataGraph, stats: &mut EvalStats) -> Vec<Vec<NodeId>> {
        let plan = Planner::new(g).plan(q);
        execute_candidates(q, g, &plan, stats, &ExecCtl::unbounded()).unwrap()
    }

    /// The planned downward-prune order.
    fn prune_order(q: &Gtpq, g: &DataGraph) -> Vec<QueryNodeId> {
        Planner::new(g).plan(q).normalized_prune_down(q).to_vec()
    }

    #[test]
    fn downward_pruning_matches_naive_downward_semantics() {
        let g = example_graph();
        let q = example_query();
        let index = ThreeHop::new(&g);
        let options = GteaOptions::default();
        let mut stats = EvalStats::default();
        let mut mat = selected(&q, &g, &mut stats);
        prune_downward(
            &q,
            &g,
            &index,
            &options,
            &prune_order(&q, &g),
            &mut mat,
            &mut stats,
            &ExecCtl::unbounded(),
        )
        .unwrap();
        assert_eq!(mat, oracle(&g, &q, false));
        assert!(stats.initial_candidates > 0);
        assert!(stats.candidates_after_downward <= stats.initial_candidates);
    }

    #[test]
    fn candidate_selection_counts_only_touched_nodes() {
        let g = example_graph();
        let q = example_query();
        let mut stats = EvalStats::default();
        let mat = selected(&q, &g, &mut stats);
        // The seed charged |V| once per query node; the indexed path reads
        // posting lists instead, so `#input` stays below the |Q|·|V| blowup.
        assert!(
            stats.input_nodes < (q.size() * g.node_count()) as u64,
            "input_nodes = {} for |Q| = {}, |V| = {}",
            stats.input_nodes,
            q.size(),
            g.node_count()
        );
        // During selection, exactly the individually verified nodes count as
        // data accesses (the example query's prefix predicates are string
        // ranges, which verify an index-restricted superset).
        assert_eq!(stats.input_nodes, stats.scanned_nodes);
        assert!(stats.index_lookups > 0);
        // The indexed selection equals the full scan.
        for u in q.node_ids() {
            assert_eq!(mat[u.index()], q.candidates(&g, u), "mismatch at {u}");
        }

        // A pure label-equality query is served entirely from the index.
        let mut b = gtpq_query::GtpqBuilder::new(gtpq_query::AttrPredicate::label("a1"));
        let root = b.root_id();
        let child = b.backbone_child(
            root,
            EdgeKind::Descendant,
            gtpq_query::AttrPredicate::label("b1"),
        );
        b.mark_output(child);
        let eq_query = b.build().unwrap();
        let mut eq_stats = EvalStats::default();
        let eq_mat = selected(&eq_query, &g, &mut eq_stats);
        assert_eq!(eq_stats.scanned_nodes, 0);
        assert_eq!(eq_stats.input_nodes, 0);
        assert_eq!(eq_stats.index_hits, eq_stats.initial_candidates);
        assert_eq!(eq_stats.index_serve_rate(), 1.0);
        for u in eq_query.node_ids() {
            assert_eq!(eq_mat[u.index()], eq_query.candidates(&g, u));
        }
    }

    /// A graph whose AD edges cross a two-node cycle (`b1 ⇄ c2`), a
    /// self-loop (`b3`) and acyclic tails, with a query that puts a backbone
    /// AD chain and a negated AD predicate on it.
    fn cyclic_fixture() -> (DataGraph, Gtpq) {
        let mut b = gtpq_graph::GraphBuilder::new();
        let v: Vec<NodeId> = ["a", "b", "c", "b", "d", "a", "c", "d", "b", "a"]
            .iter()
            .map(|label| b.add_node_with_label(label))
            .collect();
        for (x, y) in [
            (0, 1),
            (1, 2),
            (2, 1), // cycle b1 <-> c2
            (2, 4),
            (0, 3),
            (3, 3), // self-loop on b3
            (3, 6),
            (5, 8), // a5 -> b8 -> d7: a b with no c below it
            (8, 7),
            (9, 6), // a9 reaches a c but no b
        ] {
            b.add_edge(v[x], v[y]);
        }
        let q = gtpq_query::parse_query("a* { //b* { //c* where !(//b) | //d } }").unwrap();
        (b.build(), q)
    }

    /// The cyclic fixture's graph under a query whose root formula is the
    /// constant `0` beside a backbone child: the root's step reads no child.
    fn constant_fixture() -> (DataGraph, Gtpq) {
        let (g, _) = cyclic_fixture();
        let q = gtpq_query::parse_query("a* { //b* { //c* } where 0 }").unwrap();
        (g, q)
    }

    /// Every backend of `BackendKind::ALL` built on `g`, then `g`'s bare
    /// condensation: what the pairwise arm can probe.
    fn backends(g: &DataGraph) -> Vec<SharedIndex> {
        let mut indexes: Vec<SharedIndex> = BackendKind::ALL
            .iter()
            .map(|kind| kind.build_shared(g))
            .collect();
        indexes.push(Arc::new(Condensation::clone(g.condensation())));
        indexes
    }

    /// Candidate sets after the downward round (and the upward one when
    /// `upward`), with `index` behind the pairwise arm.
    fn pruned(
        g: &DataGraph,
        q: &Gtpq,
        index: &dyn Reachability,
        options: &GteaOptions,
        upward: bool,
    ) -> Vec<Vec<NodeId>> {
        let mut stats = EvalStats::default();
        let mut mat = selected(q, g, &mut stats);
        let ctl = ExecCtl::unbounded();
        let steps = prune_order(q, g);
        prune_downward(q, g, index, options, &steps, &mut mat, &mut stats, &ctl).unwrap();
        if upward {
            let prime = PrimeSubtree::new(q);
            prune_upward(q, g, index, options, &prime, 0, &mut mat, &mut stats, &ctl).unwrap();
        }
        mat
    }

    /// The naive evaluator's downward table as candidate sets, then (when
    /// `upward`) the upward round re-done by BFS: a prime child's candidate
    /// survives when a surviving candidate of its prime parent reaches it
    /// (is its graph parent, on a PC edge).
    fn oracle(g: &DataGraph, q: &Gtpq, upward: bool) -> Vec<Vec<NodeId>> {
        let table = naive::downward_matches(q, g);
        let mut mat: Vec<Vec<NodeId>> = q
            .node_ids()
            .map(|u| g.nodes().filter(|&v| table[u.index()][v.index()]).collect())
            .collect();
        if upward {
            let prime = PrimeSubtree::new(q);
            for &u in &prime.nodes {
                for &c in prime.children_of(u) {
                    let parents = mat[u.index()].clone();
                    mat[c.index()].retain(|&v| {
                        parents.iter().any(|&p| match q.incoming_edge(c) {
                            Some(EdgeKind::Child) => g.children(p).contains(&v),
                            _ => is_reachable(g, p, v),
                        })
                    });
                }
            }
        }
        mat
    }

    #[test]
    fn pairwise_downward_pruning_gives_the_same_result() {
        for (g, q) in [
            (example_graph(), example_query()),
            cyclic_fixture(),
            constant_fixture(),
        ] {
            let expected = oracle(&g, &q, false);
            for index in backends(&g) {
                let swept = pruned(&g, &q, &*index, &GteaOptions::default(), false);
                let pairwise = pruned(&g, &q, &*index, &GteaOptions::pairwise(), false);
                assert_eq!(swept, expected, "{}", index.name());
                assert_eq!(pairwise, expected, "{}", index.name());
            }
        }
    }

    #[test]
    fn pairwise_upward_pruning_gives_the_same_result() {
        for (g, q) in [
            (example_graph(), example_query()),
            cyclic_fixture(),
            constant_fixture(),
        ] {
            let expected = oracle(&g, &q, true);
            for index in backends(&g) {
                let swept = pruned(&g, &q, &*index, &GteaOptions::default(), true);
                let pairwise = pruned(&g, &q, &*index, &GteaOptions::pairwise(), true);
                assert_eq!(swept, expected, "{}", index.name());
                assert_eq!(pairwise, expected, "{}", index.name());
            }
        }
        // On the cyclic fixture both rounds have work to do: b3 reaches a b
        // (itself, through its self-loop) and no d, so it dies downward —
        // and c6, which only b3 and a9 reach, dies upward.
        let (g, q) = cyclic_fixture();
        let mat = pruned(&g, &q, &**g.condensation(), &GteaOptions::default(), true);
        assert_eq!(mat[0], vec![NodeId(0)]);
        assert_eq!(mat[1], vec![NodeId(1)]);
        assert_eq!(mat[2], vec![NodeId(2)]);
    }

    #[test]
    fn traced_prune_spans_report_the_edges_each_sweep_visited() {
        // The fixture's query has AD edges only, so the prune rounds'
        // `index_lookups` is exactly what their sweeps visited.
        let (g, q) = cyclic_fixture();
        let index = BackendKind::Sspi.build_shared(&g);
        let tracer = crate::Tracer::enabled();
        let ctl = ExecCtl::unbounded().with_tracer(tracer.clone());
        let mut mat = selected(&q, &g, &mut EvalStats::default());
        let mut stats = EvalStats::default();
        let options = GteaOptions::default();
        let steps = prune_order(&q, &g);
        prune_downward(&q, &g, &index, &options, &steps, &mut mat, &mut stats, &ctl).unwrap();
        let prime = PrimeSubtree::new(&q);
        prune_upward(
            &q, &g, &index, &options, &prime, 0, &mut mat, &mut stats, &ctl,
        )
        .unwrap();
        let trace = tracer.finish().unwrap();

        let swept_of = |name: &str| -> String {
            let span = trace.span(name).unwrap_or_else(|| panic!("no {name} span"));
            let field = span.fields.iter().find(|(k, _)| *k == "swept");
            field
                .unwrap_or_else(|| panic!("{name}: no swept field"))
                .1
                .clone()
        };
        // Each entry is `[child:]side:edges`, the side being the one that
        // answered.
        let edges_of = |entry: &str| -> u64 {
            let (rest, edges) = entry.rsplit_once(':').unwrap();
            let side = rest.rsplit(':').next().unwrap();
            assert!(["sweep", "search"].contains(&side), "{entry}");
            edges.parse().unwrap()
        };
        // Downward spans name each AD child; u1 (b) has three, c and the
        // predicate b and d children.
        let down_u1 = swept_of("prune_down u1");
        assert_eq!(down_u1.split(',').count(), 3, "{down_u1}");
        assert!(down_u1.starts_with("u2:"), "{down_u1}");
        let mut total = 0u64;
        for name in ["prune_down u0", "prune_down u1"] {
            total += swept_of(name).split(',').map(edges_of).sum::<u64>();
        }
        // Upward spans are per prime edge and carry no child.
        for name in ["prune_up u1", "prune_up u2"] {
            total += edges_of(&swept_of(name));
        }
        assert!(total > 0);
        assert_eq!(total, stats.index_lookups);
    }

    #[test]
    fn a_step_resolves_no_child_once_every_candidate_is_decided() {
        // Every `a` has a `b` child, and some reach a `c` through it: `/b`,
        // resolved first, decides `(/b) | (//c)` for every candidate, so the
        // step races no sweep for `c` and reads only the `b` side's entries.
        let mut b = gtpq_graph::GraphBuilder::new();
        for i in 0..6 {
            let (a, child) = (b.add_node_with_label("a"), b.add_node_with_label("b"));
            b.add_edge(a, child);
            if i % 2 == 0 {
                let c = b.add_node_with_label("c");
                b.add_edge(child, c);
            }
        }
        let g = b.build();
        let q = gtpq_query::parse_query("a* { where (/b) | (//c) }").unwrap();
        assert_eq!(q.to_string(), "a* { where (/b) | (//c) }");
        let tracer = crate::Tracer::enabled();
        let ctl = ExecCtl::unbounded().with_tracer(tracer.clone());
        let mut mat = selected(&q, &g, &mut EvalStats::default());
        assert_eq!(mat[2].len(), 3, "the c candidates are there to resolve");
        let mut stats = EvalStats::default();
        let steps = prune_order(&q, &g);
        let index = &**g.condensation();
        let options = GteaOptions::default();
        prune_downward(&q, &g, index, &options, &steps, &mut mat, &mut stats, &ctl).unwrap();
        assert_eq!(mat[0], q.candidates(&g, q.root()));
        let trace = tracer.finish().unwrap();
        let span = trace.span("prune_down u0").expect("the root's step");
        let swept = span.fields.iter().find(|(k, _)| *k == "swept");
        assert!(swept.is_none_or(|(_, v)| !v.contains("u2")), "{swept:?}");
        // Each `a` has one child and each `b` one parent: whichever side
        // resolved `/b`, it read six adjacency entries, and nothing else did.
        let out: usize = mat[0].iter().map(|&v| g.out_degree(v)).sum();
        let into: usize = mat[1].iter().map(|&v| g.in_degree(v)).sum();
        assert_eq!((out, into), (6, 6));
        assert_eq!(stats.index_lookups, 6);
    }

    #[test]
    fn a_child_without_candidates_is_false_and_read_from_nothing() {
        // No `z` or `y` in the graph: both children are false for every
        // `a`, so every `a` is kept and no adjacency entry or edge is read,
        // whatever side the PC child would have been given.
        let (g, _) = cyclic_fixture();
        let q = gtpq_query::parse_query("a* { where !(/z) & !(//y) }").unwrap();
        let tracer = crate::Tracer::enabled();
        let ctl = ExecCtl::unbounded().with_tracer(tracer.clone());
        let mut mat = selected(&q, &g, &mut EvalStats::default());
        assert!(mat[1].is_empty() && mat[2].is_empty());
        let mut stats = EvalStats::default();
        let steps = prune_order(&q, &g);
        let index = &**g.condensation();
        let options = GteaOptions::default();
        prune_downward(&q, &g, index, &options, &steps, &mut mat, &mut stats, &ctl).unwrap();
        assert_eq!(mat[0], q.candidates(&g, q.root()));
        assert_eq!(mat[0].len(), 3);
        assert_eq!(stats.index_lookups, 0);
        let trace = tracer.finish().unwrap();
        let span = trace.span("prune_down u0").expect("the root's step");
        assert!(span.fields.iter().all(|(k, _)| *k != "swept"), "{span:?}");
    }

    /// splitmix64, seeded.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// `n` nodes over three labels and `n` to `3n` random edges, self-loops
    /// included; an edge against id order is turned round unless
    /// `back_percent` keeps it, so a small one leaves few, small cycles in
    /// a long condensation.
    fn random_graph(rng: &mut Rng, n: u64, back_percent: u64) -> DataGraph {
        let mut b = gtpq_graph::GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| b.add_node_with_label(&format!("l{}", rng.below(3))))
            .collect();
        for _ in 0..n + rng.below(2 * n) {
            let (mut x, mut y) = (rng.below(n) as usize, rng.below(n) as usize);
            if x > y && !rng.chance(back_percent) {
                (x, y) = (y, x);
            }
            b.add_edge(nodes[x], nodes[y]);
        }
        b.build()
    }

    /// 10–29 nodes, every edge random: cycles next to acyclic stretches.
    fn random_cyclic_graph(rng: &mut Rng) -> DataGraph {
        let n = 10 + rng.below(20);
        random_graph(rng, n, 100)
    }

    /// A random read-once formula over `literals`: AND and OR nested to any
    /// depth, with NOT over leaves and whole subformulas.
    fn random_formula(rng: &mut Rng, literals: &[BoolExpr]) -> BoolExpr {
        let f = match literals {
            [one] => one.clone(),
            _ => {
                let mid = 1 + rng.below(literals.len() as u64 - 1) as usize;
                let (l, r) = literals.split_at(mid);
                let (l, r) = (random_formula(rng, l), random_formula(rng, r));
                if rng.chance(50) {
                    BoolExpr::and2(l, r)
                } else {
                    BoolExpr::or2(l, r)
                }
            }
        };
        if rng.chance(30) {
            BoolExpr::not(f)
        } else {
            f
        }
    }

    /// A random query tree of depth up to 3: backbone and predicate children
    /// behind PC and AD edges, each node's structural predicate a random
    /// AND/OR/NOT formula over its predicate children.
    fn random_query(rng: &mut Rng) -> Gtpq {
        let attr = |rng: &mut Rng| {
            if rng.chance(20) {
                gtpq_query::AttrPredicate::any()
            } else {
                gtpq_query::AttrPredicate::label(&format!("l{}", rng.below(3)))
            }
        };
        let edge = |rng: &mut Rng| {
            if rng.chance(40) {
                EdgeKind::Child
            } else {
                EdgeKind::Descendant
            }
        };
        let mut b = gtpq_query::GtpqBuilder::new(attr(rng));
        let root = b.root_id();
        b.mark_output(root);
        let mut frontier = vec![(root, 0u32, true)];
        let mut size = 1;
        while let Some((u, depth, backbone)) = frontier.pop() {
            if depth == 3 {
                continue;
            }
            let mut literals = Vec::new();
            for _ in 0..rng.below(4).min(9 - size.min(9)) {
                size += 1;
                if backbone && rng.chance(40) {
                    let c = b.backbone_child(u, edge(rng), attr(rng));
                    if rng.chance(60) {
                        b.mark_output(c);
                    }
                    frontier.push((c, depth + 1, true));
                } else {
                    let p = b.predicate_child(u, edge(rng), attr(rng));
                    literals.push(BoolExpr::Var(p.var()));
                    frontier.push((p, depth + 1, false));
                }
            }
            if !literals.is_empty() {
                let fs = random_formula(rng, &literals);
                b.set_structural(u, fs);
            }
        }
        b.build().expect("generated queries are valid")
    }

    #[test]
    fn random_formulas_prune_each_round_to_its_oracle() {
        // Each round on its own, where both stages run to the end: a step
        // that keeps too many candidates must not be masked by a later
        // stage.  Small cyclic graphs, then larger ones with a long
        // condensation.  The traces count the AD children a step's formula
        // reads but the step never raced.
        let (mut cases, mut skipped) = (0, 0);
        let graphs = (0..40u64)
            .map(|seed| (seed, false))
            .chain((0..10).map(|seed| (seed, true)));
        for (seed, large) in graphs {
            let mut rng = Rng(seed);
            let g = if large {
                let n = 150 + rng.below(100);
                random_graph(&mut rng, n, 3)
            } else {
                random_cyclic_graph(&mut rng)
            };
            for case in 0..if large { 4 } else { 8 } {
                let q = random_query(&mut rng);
                let tag = format!("seed {seed} (large: {large}) case {case}: {q}");
                for options in [GteaOptions::default(), GteaOptions::pairwise()] {
                    let tracer = crate::Tracer::enabled();
                    let ctl = ExecCtl::unbounded().with_tracer(tracer.clone());
                    let index = &**g.condensation();
                    let mut stats = EvalStats::default();
                    let mut mat = selected(&q, &g, &mut stats);
                    let steps = prune_order(&q, &g);
                    prune_downward(&q, &g, index, &options, &steps, &mut mat, &mut stats, &ctl)
                        .unwrap();
                    // A backbone node left without candidates stops both
                    // stages early: the answer is empty, and so must the
                    // oracle's be.
                    if q.node_ids()
                        .any(|u| q.is_backbone(u) && mat[u.index()].is_empty())
                    {
                        assert!(oracle(&g, &q, false)[0].is_empty(), "emptied, {tag}");
                        continue;
                    }
                    assert_eq!(mat, oracle(&g, &q, false), "downward, {tag}");
                    let prime = PrimeSubtree::new(&q);
                    prune_upward(
                        &q, &g, index, &options, &prime, 0, &mut mat, &mut stats, &ctl,
                    )
                    .unwrap();
                    assert_eq!(mat, oracle(&g, &q, true), "upward, {tag}");
                    if options.pairwise_ad {
                        continue;
                    }
                    cases += 1;
                    let trace = tracer.finish().unwrap();
                    for &u in &steps {
                        let Some(span) = trace.span(&format!("prune_down {u}")) else {
                            continue; // after an emptied backbone node
                        };
                        let fext = q.fext(u);
                        let mut used: Vec<QueryNodeId> = q
                            .children(u)
                            .iter()
                            .copied()
                            .filter(|c| fext.contains_var(c.var()))
                            .collect();
                        used.sort_by_key(|&c| !q.is_backbone(c));
                        let ad_read = used
                            .iter()
                            .filter(|&&c| q.incoming_edge(c) == Some(EdgeKind::Descendant));
                        let Some((_, swept)) = span.fields.iter().find(|(k, _)| *k == "swept")
                        else {
                            skipped += ad_read.count();
                            continue;
                        };
                        skipped += ad_read.count() - swept.split(',').count();
                    }
                }
            }
        }
        assert!(
            cases >= 200,
            "only {cases} of 360 cases kept every backbone node"
        );
        assert!(skipped >= 20, "only {skipped} AD children left unraced");
    }

    #[test]
    fn pc_sides_compute_identical_columns() {
        let ctl = ExecCtl::unbounded();
        let (mut partial, mut hits) = (0, 0);
        for seed in 0..60u64 {
            let mut rng = Rng(seed);
            let g = random_cyclic_graph(&mut rng);
            let mut marked = NodeBitSet::new(g.node_count());
            let subset = |rng: &mut Rng, percent| -> Vec<NodeId> {
                g.nodes().filter(|_| rng.chance(percent)).collect()
            };
            let candidates = subset(&mut rng, 70);
            let percent = 1 + rng.below(60);
            let targets = subset(&mut rng, percent);
            // Every candidate open, then a random part of them.
            let full: Vec<u64> = candidates
                .chunks(WORD)
                .map(|chunk| u64::MAX >> (WORD - chunk.len()))
                .collect();
            let part: Vec<u64> = full.iter().map(|&w| w & rng.below(u64::MAX)).collect();
            for open in [full, part] {
                let expected: Vec<(u64, u64)> = candidates
                    .chunks(WORD)
                    .zip(&open)
                    .map(|(chunk, &open)| {
                        let holds = chunk.iter().enumerate().fold(0u64, |w, (i, &v)| {
                            let child = g.children(v).iter().any(|c| targets.contains(c));
                            w | u64::from(child) << i
                        }) & open;
                        (holds, open & !holds)
                    })
                    .collect();
                let open_nodes = members(&candidates, &open);
                let scanned: usize = open_nodes.iter().map(|&v| g.out_degree(v)).sum();
                let marked_reads: usize = targets.iter().map(|&t| g.in_degree(t)).sum();
                for (side, reads) in [
                    (PcSide::MarkParents, marked_reads),
                    (PcSide::ScanMarked, scanned),
                    (PcSide::ScanSearch, scanned),
                ] {
                    let mut lookups = 0;
                    let words = pc_column(
                        &g,
                        side,
                        &candidates,
                        &open,
                        &targets,
                        &mut marked,
                        &ctl,
                        &mut lookups,
                    )
                    .unwrap();
                    assert_eq!(words, expected, "seed {seed}, {side:?}");
                    assert_eq!(lookups, reads as u64, "seed {seed}, {side:?}");
                }
                partial += usize::from(open_nodes.len() < candidates.len());
                hits += expected.iter().map(|w| w.0.count_ones()).sum::<u32>();
            }
        }
        assert!(
            partial >= 50 && hits >= 300,
            "{partial} partial scopes, {hits} hits"
        );
    }

    #[test]
    fn the_pc_side_follows_the_set_sizes() {
        // A graph of mean degree 4: 100 nodes, 400 edges.
        let mut b = gtpq_graph::GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..100).map(|_| b.add_node_with_label("x")).collect();
        for i in 0..100 {
            for k in 1..=4 {
                b.add_edge(nodes[i], nodes[(i + k) % 100]);
            }
        }
        let g = b.build();
        // Few targets: mark their parents.  Few open candidates among many
        // targets: search them.  In between, scan against a bitset.
        assert_eq!(PcSide::choose(&g, 1000, 10), PcSide::MarkParents);
        assert_eq!(PcSide::choose(&g, 2, 1000), PcSide::ScanSearch);
        assert_eq!(PcSide::choose(&g, 100, 1000), PcSide::ScanMarked);
    }

    #[test]
    fn upward_pruning_keeps_only_reachable_candidates() {
        let g = example_graph();
        let q = example_query();
        let index = ThreeHop::new(&g);
        let options = GteaOptions::default();
        let mut stats = EvalStats::default();
        let mut mat = selected(&q, &g, &mut stats);
        prune_downward(
            &q,
            &g,
            &index,
            &options,
            &prune_order(&q, &g),
            &mut mat,
            &mut stats,
            &ExecCtl::unbounded(),
        )
        .unwrap();
        let prime = PrimeSubtree::new(&q);
        prune_upward(
            &q,
            &g,
            &index,
            &options,
            &prime,
            0,
            &mut mat,
            &mut stats,
            &ExecCtl::unbounded(),
        )
        .unwrap();
        // Every surviving candidate of a prime child is reachable from a
        // surviving candidate of its prime parent.
        for &u in &prime.nodes {
            for &c in prime.children_of(u) {
                for &v in &mat[c.index()] {
                    assert!(
                        mat[u.index()]
                            .iter()
                            .any(|&p| gtpq_graph::traversal::is_reachable(&g, p, v)),
                        "candidate {v} of {c} unreachable from candidates of {u}"
                    );
                }
            }
        }
        // In the running example the root keeps v1 only, u2 keeps v3/v8, u4
        // keeps the three d1 nodes under v3.
        assert_eq!(mat[0], vec![NodeId(0)]);
        assert_eq!(mat[1], vec![NodeId(2), NodeId(7)]);
        assert_eq!(mat[3], vec![NodeId(10), NodeId(11), NodeId(13)]);
    }
}
