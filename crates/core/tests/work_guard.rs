//! Deterministic work guards for the index-free filter stages.
//!
//! * Set-at-a-time AD pruning must cost one condensation sweep per (prune
//!   step, AD child), and the matching graph one bounded pass per AD child —
//!   both show in lookup counts that repeat exactly, so a silent fall-back
//!   to pairwise probing fails here without timing anything.
//! * Under default options no stage may ask a reachability index anything:
//!   an index whose every probe panics answers like the naive evaluator.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gtpq_core::matching::MatchingGraph;
use gtpq_core::plan::execute_candidates;
use gtpq_core::prime::{PrimeSubtree, ShrunkPrime};
use gtpq_core::prune::{prune_downward, prune_upward};
use gtpq_core::{
    EvalStats, ExecCtl, ExecOptions, GteaEngine, GteaOptions, Planner, PruneStep, QueryPlan,
};
use gtpq_datagen::{
    dblp_queries, fig11_gtpq, generate_arxiv, generate_dblp, generate_xmark, xmark_q1, xmark_q2,
    xmark_q3, ArxivConfig, Fig11Predicate, XmarkConfig,
};
use gtpq_graph::{DataGraph, GraphBuilder, NodeId};
use gtpq_logic::BoolExpr;
use gtpq_query::fixtures::{example_graph, example_query};
use gtpq_query::{naive, parse_query, AttrPredicate, EdgeKind, Gtpq, GtpqBuilder};
use gtpq_reach::{Probe, Reachability, Sspi};

/// Edges of `g`'s condensation DAG.
fn condensation_edges(g: &DataGraph) -> usize {
    let cond = g.condensation();
    let components = cond.topological_order().iter();
    components.map(|&c| cond.successors(c).len()).sum()
}

/// The fixed pipeline's candidate sets of `q` on `g`.
fn selected(g: &DataGraph, q: &Gtpq, stats: &mut EvalStats) -> Vec<Vec<NodeId>> {
    let plan = QueryPlan::fixed_pipeline(q);
    execute_candidates(q, g, &plan, stats, &ExecCtl::unbounded()).unwrap()
}

/// `#index` of the two prune rounds of `q` on `g` (candidate selection's
/// posting-list reads excluded).
fn prune_index_lookups(g: &DataGraph, q: &Gtpq, index: &Sspi, options: &GteaOptions) -> u64 {
    let mut mat = selected(g, q, &mut EvalStats::default());
    let mut stats = EvalStats::default();
    let ctl = ExecCtl::unbounded();
    let steps = PruneStep::bottom_up(q);
    prune_downward(q, g, index, options, &steps, &mut mat, &mut stats, &ctl).unwrap();
    let prime = PrimeSubtree::new(q);
    prune_upward(q, g, index, options, &prime, 0, &mut mat, &mut stats, &ctl).unwrap();
    stats.index_lookups
}

#[test]
fn prune_rounds_sweep_once_per_ad_edge_on_xmark_under_sspi() {
    let g = generate_xmark(&XmarkConfig::with_scale(1.0));
    let cond = g.condensation();
    let cond_edges = condensation_edges(&g);
    let index = Sspi::new(&g);

    // Table 4's NEG1: three AD edges, `fs(person) = ¬education`.
    let q = fig11_gtpq(Fig11Predicate::Neg1, 0, 0);
    let ad_edges = q
        .node_ids()
        .filter(|&u| q.incoming_edge(u) == Some(EdgeKind::Descendant))
        .count();
    assert_eq!(ad_edges, 3);
    // Each AD edge is swept at most once per round and a sweep visits each
    // condensation edge at most once; the `components` term leaves room for
    // the PC edges' adjacency reads, which `index_lookups` also counts.
    let bound = (2 * ad_edges * (cond.component_count() + cond_edges)) as u64;

    let swept = prune_index_lookups(&g, &q, &index, &GteaOptions::default());
    assert!(swept <= bound, "{swept} lookups > bound {bound}");
    assert_eq!(
        swept,
        prune_index_lookups(&g, &q, &index, &GteaOptions::default()),
        "the count repeats exactly"
    );
    // The bound has teeth: pairwise probing of the same query breaks it.
    let pairwise = prune_index_lookups(&g, &q, &index, &GteaOptions::pairwise());
    assert!(pairwise > bound, "{pairwise} pairwise lookups <= {bound}");
}

#[test]
fn dis1_parses_to_the_nodes_its_formulas_read() {
    // Table 4's DIS1: `bidder` and `seller` are read through the root's
    // `|`, and each carries an inert `((…) | 1)` branch (`bidder`'s two
    // levels deep); `item`'s `mailbox` reads no `mail` either.  The parser
    // drops those seven nodes, so every node left selects and prunes.
    let g = generate_xmark(&XmarkConfig::with_scale(0.2));
    let q = fig11_gtpq(Fig11Predicate::Dis1, 0, 1);
    assert_eq!(q.size(), 6);
    assert_eq!(
        q.to_string(),
        "open_auction* { //item1* { /location* where (/mailbox) } where (/bidder) | (/seller) }"
    );
    let plan = Planner::new(&g).plan(&q);
    assert_eq!(plan.candidates.len(), q.size());
    let exec = GteaEngine::new(&g)
        .execute(&q, &plan, ExecOptions::unbounded())
        .expect("unbounded execution cannot be interrupted");
    assert!(!exec.results.is_empty(), "{q} has rows");
    assert_eq!(exec.results, naive::evaluate(&q, &g));
    let candidates = q.node_ids().map(|u| q.candidates(&g, u).len() as u64);
    assert_eq!(exec.stats.initial_candidates, candidates.sum::<u64>());
}

#[test]
fn matching_graph_costs_one_bounded_pass_per_ad_child() {
    // `arxiv_enum`'s year-window citation joins (AD edges between large
    // candidate sets) and the paper's Q3 (one AD edge among PC ones).
    let arxiv = generate_arxiv(&ArxivConfig::small());
    let xmark = generate_xmark(&XmarkConfig::with_scale(1.0));
    let join = |text| parse_query(text).expect("guard queries parse");
    let cases = [
        (
            &arxiv,
            join("[year >= 1995, year <= 1997]* { //[year >= 1990]* }"),
        ),
        (
            &arxiv,
            join("[year >= 1998]* { //[year <= 1996]* { //[year <= 1993]* } }"),
        ),
        (&xmark, xmark_q3(0, 0, 0)),
    ];
    let index = Untouchable;
    let options = GteaOptions::default();
    let ctl = ExecCtl::unbounded();
    let mut had_teeth = false;
    for (g, q) in cases {
        let cond_edges = condensation_edges(g) as u64;
        let build = || {
            let mut stats = EvalStats::default();
            let mut mat = selected(g, &q, &mut stats);
            let steps = PruneStep::bottom_up(&q);
            prune_downward(&q, g, &index, &options, &steps, &mut mat, &mut stats, &ctl).unwrap();
            let prime = PrimeSubtree::new(&q);
            prune_upward(
                &q, g, &index, &options, &prime, 0, &mut mat, &mut stats, &ctl,
            )
            .unwrap();
            let shrunk = ShrunkPrime::new(&q, &prime, &mat, options.shrink_prime_subtree);
            let before = stats.index_lookups;
            let matching =
                MatchingGraph::build(&q, g, &index, &shrunk, &mat, &mut stats, &ctl).unwrap();
            (matching, mat, stats.index_lookups - before)
        };
        let (matching, mat, lookups) = build();
        assert!(!matching.ad_passes.is_empty(), "{q} has AD edges");

        // A pass looks at the backward sweep's edges, the region walk's and
        // (one column block here) the region's once more for the rows: never
        // more than three times the condensation, whatever the candidate
        // sets hold.  PC children add adjacency reads, nothing else.
        let mut pass_lookups = 0;
        for pass in &matching.ad_passes {
            assert!(
                pass.edges_visited <= 3 * cond_edges,
                "{pass:?} visited more than 3 x {cond_edges} edges"
            );
            pass_lookups += pass.edges_visited;
            // What pairwise probing of the same edge would have asked.
            let parent = q.parent(pass.child).expect("an AD child has a parent");
            let pairs = (mat[parent.index()].len() * mat[pass.child.index()].len()) as u64;
            had_teeth |= pairs > 3 * cond_edges + pass.branch_entries as u64;
        }
        let pc_reads: u64 = q
            .node_ids()
            .filter(|&u| q.incoming_edge(u) == Some(EdgeKind::Child))
            .filter_map(|u| q.parent(u))
            .map(|parent| {
                let candidates = mat[parent.index()].iter();
                candidates.map(|&v| g.out_degree(v) as u64).sum::<u64>()
            })
            .sum();
        assert!(
            (pass_lookups..=pass_lookups + pc_reads).contains(&lookups),
            "{lookups} lookups, {pass_lookups} from AD passes, {pc_reads} PC reads at most"
        );
        let (again, _, lookups_again) = build();
        assert_eq!(lookups, lookups_again, "the count repeats exactly");
        assert_eq!(matching.ad_passes, again.ad_passes);
    }
    assert!(had_teeth, "no AD edge whose pairwise cost breaks the bound");
}

/// A reachability index nothing may ask anything: every probe, and the
/// entry count, panics.
struct Untouchable;

impl Reachability for Untouchable {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        panic!("reaches({u}, {v}) on the default evaluation path")
    }
    fn index_entries(&self) -> usize {
        panic!("index_entries on the default evaluation path")
    }
    fn name(&self) -> &'static str {
        "untouchable"
    }
    fn pred_probe<'s>(&'s self, _: &[NodeId]) -> Probe<'s> {
        panic!("pred_probe on the default evaluation path")
    }
    fn succ_probe<'s>(&'s self, _: &[NodeId]) -> Probe<'s> {
        panic!("succ_probe on the default evaluation path")
    }
    fn source_probe<'s>(&'s self, _: NodeId) -> Probe<'s> {
        panic!("source_probe on the default evaluation path")
    }
}

/// splitmix64: a seeded generator small enough to inline.
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

/// 10–29 nodes over three labels, one to three random edges a node in either
/// direction plus the odd self-loop: cycles next to acyclic stretches.
fn random_cyclic_graph(rng: &mut Rng) -> DataGraph {
    let n = 10 + rng.below(20);
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| b.add_node_with_label(&format!("l{}", rng.below(3))))
        .collect();
    for _ in 0..n + rng.below(2 * n) {
        let (x, y) = (rng.below(n) as usize, rng.below(n) as usize);
        b.add_edge(nodes[x], nodes[y]);
    }
    b.build()
}

/// A random query tree of depth up to 3: backbone and predicate children
/// behind PC and AD edges, structural predicates mixing AND, OR and NOT
/// over the predicate children, any backbone node an output.
fn random_tree_query(rng: &mut Rng) -> Gtpq {
    fn attr(rng: &mut Rng) -> AttrPredicate {
        if rng.chance(20) {
            AttrPredicate::any()
        } else {
            AttrPredicate::label(&format!("l{}", rng.below(3)))
        }
    }
    fn edge(rng: &mut Rng) -> EdgeKind {
        if rng.chance(35) {
            EdgeKind::Child
        } else {
            EdgeKind::Descendant
        }
    }
    let mut b = GtpqBuilder::new(attr(rng));
    let root = b.root_id();
    b.mark_output(root);
    let mut frontier = vec![(root, 0u32, true)];
    let mut size = 1;
    while let Some((u, depth, backbone)) = frontier.pop() {
        if depth == 3 {
            continue;
        }
        let mut literals = Vec::new();
        for _ in 0..rng.below(3).min(8 - size.min(8)) {
            size += 1;
            if backbone && rng.chance(50) {
                let c = b.backbone_child(u, edge(rng), attr(rng));
                if rng.chance(60) {
                    b.mark_output(c);
                }
                frontier.push((c, depth + 1, true));
            } else {
                let p = b.predicate_child(u, edge(rng), attr(rng));
                let var = BoolExpr::Var(p.var());
                literals.push(if rng.chance(40) {
                    BoolExpr::not(var)
                } else {
                    var
                });
                frontier.push((p, depth + 1, false));
            }
        }
        if let Some(first) = literals.pop() {
            let fs = literals.into_iter().fold(first, |acc, lit| {
                if rng.chance(50) {
                    BoolExpr::and2(acc, lit)
                } else {
                    BoolExpr::or2(acc, lit)
                }
            });
            b.set_structural(u, fs);
        }
    }
    b.build().expect("generated queries are valid")
}

/// Evaluates `q` on `g` behind the [`Untouchable`] index and holds it to the
/// naive evaluator; returns `index_lookups`.
fn assert_index_free(g: &DataGraph, q: &Gtpq, tag: &str) -> u64 {
    let engine = GteaEngine::with_backend(g, &Untouchable, GteaOptions::default());
    let exec = engine
        .execute(q, &Planner::new(g).plan(q), ExecOptions::unbounded())
        .expect("unbounded execution cannot be interrupted");
    assert_eq!(exec.results, naive::evaluate(q, g), "{tag}: {q}");
    exec.stats.index_lookups
}

#[test]
fn default_options_answer_every_query_without_touching_the_index() {
    // The fixture set: the running example, the paper's XMark queries with
    // every Table 4 variant, the DBLP suite.
    assert_index_free(&example_graph(), &example_query(), "running example");
    let xmark = generate_xmark(&XmarkConfig::with_scale(0.2));
    let mut xmark_queries = vec![xmark_q1(0), xmark_q2(0, 1), xmark_q3(0, 1, 2)];
    for (_, variant) in Fig11Predicate::table4_suite() {
        xmark_queries.push(fig11_gtpq(variant, 0, 1));
    }
    let mut swept = 0;
    for q in &xmark_queries {
        swept += assert_index_free(&xmark, q, "xmark");
    }
    assert!(swept > 0, "the XMark queries have AD edges to sweep");
    let dblp = generate_dblp(120, 7);
    for (name, q) in dblp_queries() {
        assert_index_free(&dblp, &q, name);
    }

    // 24 seeds of cyclic graphs x random trees with AND/OR/NOT predicates
    // and mixed PC/AD edges.
    let (mut cyclic, mut swept) = (0, 0);
    for seed in 0..24u64 {
        let mut rng = Rng(seed);
        let g = random_cyclic_graph(&mut rng);
        cyclic += u32::from(!g.condensation().input_was_dag());
        for case in 0..6 {
            let q = random_tree_query(&mut rng);
            swept += assert_index_free(&g, &q, &format!("seed {seed} case {case}"));
        }
    }
    assert!(cyclic >= 16, "only {cyclic} of 24 graphs have a cycle");
    assert!(swept > 0, "the random queries have AD edges to sweep");

    // The wrapper is live: the pairwise arm reaches it.
    let g = example_graph();
    let pairwise = GteaEngine::with_backend(&g, &Untouchable, GteaOptions::pairwise());
    let reached = catch_unwind(AssertUnwindSafe(|| pairwise.evaluate(&example_query())));
    let message = *reached.unwrap_err().downcast::<String>().unwrap();
    assert!(message.starts_with("reaches("), "{message}");
}
