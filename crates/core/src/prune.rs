//! The two-round pruning process (§4.2, Procedures 6 and 7).

use std::fmt::Write as _;
use std::time::Instant;

use gtpq_graph::sweep::{sweep, ComponentSet, Direction};
use gtpq_graph::{DataGraph, NodeBitSet, NodeId};
use gtpq_logic::valuation::eval_with;
use gtpq_query::{EdgeKind, Gtpq};
use gtpq_reach::Reachability;

use crate::exec::{ExecCtl, Interrupt};
use crate::options::GteaOptions;
use crate::plan::PruneStep;
use crate::prime::PrimeSubtree;
use crate::stats::{EvalStats, OperatorStats};

/// The candidates `keep` accepts, in order, polling `ctl` once per
/// candidate.
fn retain_polled(
    candidates: &[NodeId],
    ctl: &ExecCtl,
    mut keep: impl FnMut(NodeId) -> bool,
) -> Result<Vec<NodeId>, Interrupt> {
    let mut kept = Vec::with_capacity(candidates.len());
    for &v in candidates {
        ctl.check_sampled()?;
        if keep(v) {
            kept.push(v);
        }
    }
    Ok(kept)
}

/// How one child's variable of `fext(u)` is answered for a candidate `v` of
/// `u` during a downward step — resolved once per step, indexed by `VarId`.
enum ChildTest<'a> {
    /// The variable names no child of the step's node: never true.
    Absent,
    /// PC child: some graph child of `v` is in the candidate bitset held in
    /// this slot of the step's bitset pool.
    Child(usize),
    /// AD child, set-at-a-time: the components a backward condensation
    /// sweep from the child's candidates marked.
    Swept(ComponentSet),
    /// AD child, pairwise `reaches` against each of the child's candidates
    /// (`use_contours == false`, the ablation baseline).
    Pairwise(&'a [NodeId]),
}

/// Selects the initial candidate matching nodes `mat(u)` for every query node
/// through the graph's attribute inverted index.
///
/// Indexable predicates (equalities, integer ranges) are answered by
/// posting-list intersection without touching any node; only non-indexable
/// comparisons (`!=`, string ranges) verify an index-restricted superset per
/// node.  `stats.input_nodes` counts exactly the nodes whose attribute tuples
/// were read (the seed charged `|V|` once per query node, inflating the
/// figure-level `#input` metric `|Q|`-fold); index-served candidates and
/// scanned nodes are reported separately as `index_hits` / `scanned_nodes`,
/// and posting entries read count towards `index_lookups`.
pub fn initial_candidates(q: &Gtpq, g: &DataGraph, stats: &mut EvalStats) -> Vec<Vec<NodeId>> {
    let start = Instant::now();
    let mut mat: Vec<Vec<NodeId>> = vec![Vec::new(); q.size()];
    for u in q.node_ids() {
        let selection = q.candidates_indexed(g, u);
        crate::plan::record_selection(&selection, stats);
        mat[u.index()] = selection.nodes;
    }
    stats.candidate_time += start.elapsed();
    mat
}

/// `PruneDownward` (Procedure 6): removes candidates that do not satisfy the
/// downward structural constraints of their query node.
///
/// Processes the internal query nodes in the order given by `steps` — the
/// plan's (already normalized, children-first) downward-prune order; for
/// every internal node `u` and candidate `v`, a truth value is assigned to
/// each child's variable from the reachability of `v` into the (already
/// pruned) candidate set of the child, and `v` is kept only when the
/// extended structural predicate `fext(u)` evaluates to true.  AD children
/// are answered set-at-a-time — one backward [`sweep`] of `g`'s condensation
/// per (step, AD child), then one bit test per candidate, so a step costs
/// O(V + E + |mat(u)|) rather than O(|mat(u)| · |mat(child)|) probes; PC
/// children are answered exactly through the adjacency lists.  `index` is
/// read only by the pairwise ablation arm (`use_contours == false`), which
/// calls [`Reachability::reaches`] per pair.  One [`OperatorStats`] entry is
/// recorded per step.
///
/// `ctl` is polled once per candidate; an expired deadline or a triggered
/// cancellation aborts mid-round with an [`Interrupt`] (the candidate sets
/// are left in an unspecified but memory-safe state).  The round's rollups —
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
    // Scratch bitsets for PC-child candidate membership, hoisted out of the
    // loop and reused across every internal query node (cleared in
    // O(touched), not re-allocated).
    let mut pc_pool: Vec<NodeBitSet> = Vec::new();
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

        // The span's `swept` field: per AD child, the condensation edges
        // its sweep visited.
        let mut swept = String::new();
        let candidates = {
            // Resolve every variable of `fext(u)` once per step: `tests[var]`
            // says how the child behind `var` is answered, so the
            // per-candidate work below is `eval_with` over table lookups.
            let mut tests: Vec<ChildTest<'_>> = Vec::new();
            tests.resize_with(q.size(), || ChildTest::Absent);
            let mut pc_used = 0usize;
            for &c in q.children(u) {
                tests[c.index()] = match q.incoming_edge(c) {
                    Some(EdgeKind::Child) => {
                        if pc_used == pc_pool.len() {
                            pc_pool.push(NodeBitSet::new(g.node_count()));
                        }
                        let bits = &mut pc_pool[pc_used];
                        bits.clear();
                        bits.extend_from_slice(&mat[c.index()]);
                        pc_used += 1;
                        ChildTest::Child(pc_used - 1)
                    }
                    _ if options.use_contours => {
                        let found = sweep(cond, &mat[c.index()], Direction::Ancestors);
                        stats.index_lookups += found.edges_visited;
                        let sep = if swept.is_empty() { "" } else { "," };
                        let _ = write!(swept, "{sep}{c}:{}", found.edges_visited);
                        ChildTest::Swept(found.reached)
                    }
                    _ => ChildTest::Pairwise(&mat[c.index()]),
                };
            }
            let pool: &[NodeBitSet] = &pc_pool;
            let lookups = &mut stats.index_lookups;
            retain_polled(&candidates, ctl, |v| {
                eval_with(&fext, &mut |var| {
                    let test = tests.get(var.index()).unwrap_or(&ChildTest::Absent);
                    match test {
                        ChildTest::Absent => false,
                        ChildTest::Child(slot) => {
                            *lookups += g.out_degree(v) as u64;
                            g.children(v).iter().any(|&c| pool[*slot].contains(c))
                        }
                        ChildTest::Swept(reached) => reached.contains(cond.component_of(v)),
                        ChildTest::Pairwise(targets) => {
                            targets.iter().any(|&t| index.reaches(v, t))
                        }
                    }
                })
            })?
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
/// Processes the prime subtree top-down; AD edges are answered by one forward
/// [`sweep`] of `g`'s condensation from the parent's candidates per edge, PC
/// edges exactly through the adjacency lists (`index` again serves the
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
                _ if options.use_contours => {
                    let cond = g.condensation();
                    let found = sweep(cond, &mat[u.index()], Direction::Descendants);
                    stats.index_lookups += found.edges_visited;
                    span.field("swept", found.edges_visited);
                    retain_polled(&candidates, ctl, |v| {
                        found.reached.contains(cond.component_of(v))
                    })?
                }
                _ => {
                    let parents = &mat[u.index()];
                    retain_polled(&candidates, ctl, |v| {
                        parents.iter().any(|&s| index.reaches(s, v))
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

    #[test]
    fn downward_pruning_matches_naive_downward_semantics() {
        let g = example_graph();
        let q = example_query();
        let index = ThreeHop::new(&g);
        let options = GteaOptions::default();
        let mut stats = EvalStats::default();
        let mut mat = initial_candidates(&q, &g, &mut stats);
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
        let table = naive::downward_matches(&q, &g);
        for u in q.node_ids() {
            let expected: Vec<NodeId> =
                g.nodes().filter(|&v| table[u.index()][v.index()]).collect();
            assert_eq!(mat[u.index()], expected, "mismatch at {u}");
        }
        assert!(stats.initial_candidates > 0);
        assert!(stats.candidates_after_downward <= stats.initial_candidates);
    }

    #[test]
    fn candidate_selection_counts_only_touched_nodes() {
        let g = example_graph();
        let q = example_query();
        let mut stats = EvalStats::default();
        let mat = initial_candidates(&q, &g, &mut stats);
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
        let eq_mat = initial_candidates(&eq_query, &g, &mut eq_stats);
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
        let mut mat = initial_candidates(q, g, &mut stats);
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
    fn downward_pruning_without_contours_gives_the_same_result() {
        for (g, q) in [(example_graph(), example_query()), cyclic_fixture()] {
            let expected = oracle(&g, &q, false);
            for index in backends(&g) {
                let swept = pruned(&g, &q, &*index, &GteaOptions::default(), false);
                let pairwise = pruned(&g, &q, &*index, &GteaOptions::without_contours(), false);
                assert_eq!(swept, expected, "{}", index.name());
                assert_eq!(pairwise, expected, "{}", index.name());
            }
        }
    }

    #[test]
    fn upward_pruning_without_contours_gives_the_same_result() {
        for (g, q) in [(example_graph(), example_query()), cyclic_fixture()] {
            let expected = oracle(&g, &q, true);
            for index in backends(&g) {
                let swept = pruned(&g, &q, &*index, &GteaOptions::default(), true);
                let pairwise = pruned(&g, &q, &*index, &GteaOptions::without_contours(), true);
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
        let mut mat = initial_candidates(&q, &g, &mut EvalStats::default());
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
        // Downward spans name each AD child; u1 (b) has two, c and the
        // predicate b and d children.
        let down_u1 = swept_of("prune_down u1");
        assert_eq!(down_u1.split(',').count(), 3, "{down_u1}");
        assert!(down_u1.starts_with("u2:"), "{down_u1}");
        let mut total = 0u64;
        for name in ["prune_down u0", "prune_down u1"] {
            for entry in swept_of(name).split(',') {
                total += entry.split_once(':').unwrap().1.parse::<u64>().unwrap();
            }
        }
        // Upward spans are per prime edge and carry the bare count.
        for name in ["prune_up u1", "prune_up u2"] {
            total += swept_of(name).parse::<u64>().unwrap();
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
        let mut mat = initial_candidates(&q, &g, &mut stats);
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
