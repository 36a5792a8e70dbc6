//! The two-round pruning process (§4.2, Procedures 6 and 7).

use std::fmt::Write as _;
use std::time::Instant;

use gtpq_graph::sweep::{reaching, Direction};
use gtpq_graph::{DataGraph, NodeBitSet, NodeId};
use gtpq_logic::valuation::eval_words;
use gtpq_query::{EdgeKind, Gtpq, QueryNodeId};
use gtpq_reach::Reachability;

use crate::exec::{ExecCtl, Interrupt};
use crate::options::GteaOptions;
use crate::plan::PruneStep;
use crate::prime::PrimeSubtree;
use crate::stats::{EvalStats, OperatorStats};

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

/// One child's variable of `fext(u)` over the step's candidates: bit `i % 64`
/// of word `i / 64` says whether `test` holds for `candidates[i]`.  Polls
/// `ctl` once per word.
fn column(
    candidates: &[NodeId],
    ctl: &ExecCtl,
    mut test: impl FnMut(NodeId) -> bool,
) -> Result<Vec<u64>, Interrupt> {
    let mut words = Vec::with_capacity(candidates.len().div_ceil(WORD));
    for chunk in candidates.chunks(WORD) {
        ctl.check()?;
        let bits = chunk.iter().enumerate();
        words.push(bits.fold(0u64, |w, (i, &v)| w | u64::from(test(v)) << i));
    }
    Ok(words)
}

/// `PruneDownward` (Procedure 6): removes candidates that do not satisfy the
/// downward structural constraints of their query node.
///
/// Processes the internal query nodes in the order given by `steps` — the
/// plan's (already normalized, children-first) downward-prune order; for
/// every internal node `u` and candidate `v`, a truth value is assigned to
/// each child's variable from the reachability of `v` into the (already
/// pruned) candidate set of the child, and `v` is kept only when the
/// extended structural predicate `fext(u)` evaluates to true.
///
/// A step resolves only the children whose variable occurs in `fext(u)`.
/// With none, `fext(u)` is a constant (`fs(u) = 0` beside backbone
/// children): the step keeps every candidate or none, reading nothing.  Each
/// used child becomes one bit per candidate:
///
/// * an AD child by one [`reaching`] race of `g`'s condensation — a sweep
///   back from the child's candidates against a memoised search forward
///   from `mat(u)` — costing at most `2·min(sweep, search) + CHUNK` edges,
///   each side at most the condensation's edges `E`;
/// * a PC child exactly through the adjacency lists: the parents of the
///   child's candidates are marked, unless scanning every candidate's
///   children reads fewer entries — `min(Σ in-degree of mat(child),
///   Σ out-degree of mat(u))`.
///
/// `fext(u)` is then evaluated 64 candidates at a time, so a step costs
/// O(|mat(u)|) plus those reads, rather than O(|mat(u)| · |mat(child)|)
/// probes.  `index` is read only by the pairwise ablation arm
/// ([`GteaOptions::pairwise_ad`]), which calls [`Reachability::reaches`] per
/// pair.  One [`OperatorStats`] entry is recorded per step, constant or
/// not.
///
/// `ctl` is polled once per 64 candidates of each used child's bits; an
/// expired deadline or a triggered cancellation aborts mid-round with an
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
    steps: &[PruneStep],
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
    steps: &[PruneStep],
    mat: &mut [Vec<NodeId>],
    stats: &mut EvalStats,
    ctl: &ExecCtl,
) -> Result<(), Interrupt> {
    // Scratch node set for a PC child, reused across steps (cleared in
    // O(touched), not re-allocated).
    let mut marked = NodeBitSet::new(g.node_count());
    for step in steps {
        let u = step.node;
        if u.index() >= q.size() || q.node(u).is_leaf() {
            continue;
        }
        let span = ctl.tracer().span_with(|| format!("prune_down {u}"));
        let op_start = Instant::now();
        let fext = q.fext(u);
        let cond = g.condensation();

        let candidates = std::mem::take(&mut mat[u.index()]);
        stats.input_nodes += candidates.len() as u64;

        // Only the children `fext(u)` mentions are resolved; with none, the
        // formula is a constant that decides every candidate alike.
        let used: Vec<QueryNodeId> = q
            .children(u)
            .iter()
            .copied()
            .filter(|c| fext.contains_var(c.var()))
            .collect();
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
            // `columns[var]` holds the variable's value for every candidate
            // (empty, so false, for a variable naming no used child).
            let mut columns: Vec<Vec<u64>> = vec![Vec::new(); q.size()];
            for &c in &used {
                let targets = &mat[c.index()];
                columns[c.index()] = match q.incoming_edge(c) {
                    Some(EdgeKind::Child) => {
                        marked.clear();
                        // Mark the child's candidates' parents unless
                        // scanning every candidate's children reads fewer
                        // adjacency entries (the sum stops once it is not).
                        let up: usize = targets.iter().map(|&t| g.in_degree(t)).sum();
                        let mut down = 0;
                        let scan = candidates.iter().all(|&v| {
                            down += g.out_degree(v);
                            down < up
                        });
                        if !scan {
                            stats.index_lookups += up as u64;
                            for &t in targets {
                                marked.extend_from_slice(g.parents(t));
                            }
                            column(&candidates, ctl, |v| marked.contains(v))?
                        } else {
                            stats.index_lookups += down as u64;
                            marked.extend_from_slice(targets);
                            column(&candidates, ctl, |v| {
                                g.children(v).iter().any(|&c| marked.contains(c))
                            })?
                        }
                    }
                    _ if options.pairwise_ad => column(&candidates, ctl, |v| {
                        targets.iter().any(|&t| index.reaches(v, t))
                    })?,
                    _ => {
                        let found = reaching(cond, &candidates, targets, Direction::Ancestors);
                        stats.index_lookups += found.edges_visited;
                        let sep = if swept.is_empty() { "" } else { "," };
                        let _ = write!(swept, "{sep}{c}:{}:{}", found.side, found.edges_visited);
                        column(&candidates, ctl, |v| {
                            found.reached.contains(cond.component_of(v))
                        })?
                    }
                };
            }
            let mut kept = Vec::new();
            for (w, chunk) in candidates.chunks(WORD).enumerate() {
                let mut word = eval_words(&fext, &mut |var| {
                    let words = columns.get(var.index());
                    words.and_then(|words| words.get(w)).copied().unwrap_or(0)
                });
                while word != 0 {
                    let i = word.trailing_zeros() as usize;
                    if i >= chunk.len() {
                        break;
                    }
                    kept.push(chunk[i]);
                    word &= word - 1;
                }
            }
            kept
        };
        span.field("est_rows", step.estimated_rows);
        span.field("actual_rows", candidates.len());
        if !swept.is_empty() {
            span.field("swept", &swept);
        }
        drop(span);
        stats.operators.push(OperatorStats {
            label: format!("PruneDown {u}"),
            estimated_rows: step.estimated_rows,
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
/// parent's candidates against a memoised search back from the child's —
/// PC edges exactly through the adjacency lists (`index` again serves the
/// pairwise arm only).  Recorded as one `PruneUp` operator
/// whose actual rows are the surviving prime-subtree candidates;
/// `estimated_rows` is the plan's survivor estimate (0 for unplanned calls).
/// As with [`prune_downward`], the round's rollups and `prune_up_time` are
/// recorded even when the round is aborted mid-way.
#[allow(clippy::too_many_arguments)] // mirrors prune_downward plus the plan estimate
pub fn prune_upward<R: Reachability + ?Sized>(
    q: &Gtpq,
    g: &DataGraph,
    index: &R,
    options: &GteaOptions,
    prime: &PrimeSubtree,
    estimated_rows: u64,
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
    stats.operators.push(OperatorStats {
        label: "PruneUp".to_owned(),
        estimated_rows,
        actual_rows: stats.candidates_after_upward,
        time: start.elapsed(),
    });
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
    // One parent-membership bitset reused across every prime edge.
    let mut parent_bits = NodeBitSet::new(g.node_count());
    for &u in &prime.nodes {
        for &child in prime.children_of(u) {
            let span = ctl.tracer().span_with(|| format!("prune_up {child}"));
            let candidates = std::mem::take(&mut mat[child.index()]);
            stats.input_nodes += candidates.len() as u64;
            let kept = match q.incoming_edge(child) {
                Some(EdgeKind::Child) => {
                    parent_bits.clear();
                    parent_bits.extend_from_slice(&mat[u.index()]);
                    let lookups = &mut stats.index_lookups;
                    retain_polled(&candidates, ctl, |v| {
                        *lookups += g.in_degree(v) as u64;
                        g.parents(v).iter().any(|&p| parent_bits.contains(p))
                    })?
                }
                _ if options.pairwise_ad => {
                    let parents = &mat[u.index()];
                    retain_polled(&candidates, ctl, |v| {
                        parents.iter().any(|&s| index.reaches(s, v))
                    })?
                }
                _ => {
                    let cond = g.condensation();
                    let found =
                        reaching(cond, &candidates, &mat[u.index()], Direction::Descendants);
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
    use gtpq_query::fixtures::{example_graph, example_query};
    use gtpq_query::naive;
    use gtpq_reach::{BackendKind, SharedIndex, ThreeHop};

    use super::*;
    use crate::plan::{execute_candidates, QueryPlan};

    /// The fixed pipeline's candidate sets: every node's, through the index.
    fn selected(q: &Gtpq, g: &DataGraph, stats: &mut EvalStats) -> Vec<Vec<NodeId>> {
        let plan = QueryPlan::fixed_pipeline(q);
        execute_candidates(q, g, &plan, stats, &ExecCtl::unbounded()).unwrap()
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
            &PruneStep::bottom_up(&q),
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
        let steps = PruneStep::bottom_up(q);
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
        let steps = PruneStep::bottom_up(&q);
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
            &PruneStep::bottom_up(&q),
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
