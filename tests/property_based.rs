//! Property-based tests over the core invariants:
//! * every reachability backend, and the bare condensation, agrees with the
//!   BFS oracle on random DAGs and random cyclic graphs,
//! * formula transformations preserve logical equivalence and DPLL agrees
//!   with brute force,
//! * index-backed candidate selection equals the full scan, and every
//!   physical plan returns the default plan's answer.
//!
//! GTEA's agreement with the naive semantic evaluator is the differential
//! oracle's (`tests/differential.rs`).  Graphs and queries come from the
//! shared generators in `tests/common`.  The harness is a deterministic
//! seed sweep over the vendored `rand` PRNG (the build image has no network,
//! so `proptest` is unavailable): every failure message carries the seed,
//! which reproduces the case exactly.

mod common;

use common::{random_graph, random_query};
use gtpq::logic::transform::{simplify, to_cnf, to_nnf};
use gtpq::logic::{brute_force_satisfiable, is_satisfiable, BoolExpr};
use gtpq::prelude::*;
use gtpq::reach::{BackendKind, SharedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// A random propositional formula of bounded depth over 5 variables.
fn random_formula(rng: &mut StdRng, depth: u32) -> BoolExpr {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0u8..4) {
            0 => BoolExpr::True,
            1 => BoolExpr::False,
            _ => BoolExpr::var(rng.gen_range(0u32..5)),
        };
    }
    match rng.gen_range(0u8..3) {
        0 => BoolExpr::not(random_formula(rng, depth - 1)),
        1 => BoolExpr::and((0..rng.gen_range(1..3usize)).map(|_| random_formula(rng, depth - 1))),
        _ => BoolExpr::or((0..rng.gen_range(1..3usize)).map(|_| random_formula(rng, depth - 1))),
    }
}

/// Every backend of `BackendKind::ALL` built on `g`, then `g`'s bare
/// condensation, which answers reachability with no index behind it.
fn backends(g: &DataGraph) -> Vec<SharedIndex> {
    let mut all: Vec<SharedIndex> = BackendKind::ALL.map(|kind| kind.build_shared(g)).into();
    let cond = gtpq::graph::Condensation::clone(g.condensation());
    all.push(std::sync::Arc::new(cond));
    all
}

#[test]
fn all_backends_agree_with_the_oracle_on_dags_and_cyclic_graphs() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        // Even seeds exercise guaranteed-acyclic graphs, odd seeds allow
        // cycles, so both condensation regimes are covered.
        let dag_only = seed % 2 == 0;
        let g = random_graph(&mut rng, 2..24, dag_only);
        let indexes = backends(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                let expected = gtpq::graph::traversal::is_reachable(&g, u, v);
                for index in &indexes {
                    assert_eq!(
                        index.reaches(u, v),
                        expected,
                        "seed {seed} ({}): backend {} disagrees with oracle on {u} -> {v}",
                        if dag_only { "dag" } else { "cyclic" },
                        index.name(),
                    );
                }
            }
        }
    }
}

#[test]
fn prepared_probes_agree_with_pairwise_reachability() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 2..20, seed % 2 == 0);
        let targets: Vec<NodeId> = g.nodes().filter(|v| v.0 % 3 == 0).collect();
        if targets.is_empty() {
            continue;
        }
        for index in backends(&g) {
            let pred = index.pred_probe(&targets);
            let succ = index.succ_probe(&targets);
            for v in g.nodes() {
                let reaches_any = targets
                    .iter()
                    .any(|&t| gtpq::graph::traversal::is_reachable(&g, v, t));
                assert_eq!(
                    pred(v),
                    reaches_any,
                    "seed {seed}: {} pred_probe at {v}",
                    index.name()
                );
                let reached_by_any = targets
                    .iter()
                    .any(|&t| gtpq::graph::traversal::is_reachable(&g, t, v));
                assert_eq!(
                    succ(v),
                    reached_by_any,
                    "seed {seed}: {} succ_probe at {v}",
                    index.name()
                );
            }
        }
    }
}

#[test]
fn formula_transformations_preserve_equivalence() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = random_formula(&mut rng, 3);
        let nnf = to_nnf(&f);
        let simplified = simplify(&f);
        assert!(
            gtpq::logic::sat::brute_force_equivalent(&f, &nnf),
            "seed {seed}: NNF changed meaning of {f}"
        );
        assert!(
            gtpq::logic::sat::brute_force_equivalent(&f, &simplified),
            "seed {seed}: simplify changed meaning of {f}"
        );
        // CNF round-trips through clause rebuilding.
        let cnf = to_cnf(&f);
        let rebuilt = BoolExpr::and(cnf.clauses.iter().map(|clause| {
            BoolExpr::or(clause.iter().map(|lit| {
                if lit.positive {
                    BoolExpr::Var(lit.var)
                } else {
                    BoolExpr::not(BoolExpr::Var(lit.var))
                }
            }))
        }));
        assert!(
            gtpq::logic::sat::brute_force_equivalent(&f, &rebuilt),
            "seed {seed}: CNF changed meaning of {f}"
        );
        assert_eq!(
            is_satisfiable(&f),
            brute_force_satisfiable(&f),
            "seed {seed}"
        );
    }
}

/// A random attribute predicate exercising every access path of the inverted
/// index: equalities, integer ranges, `!=`, string ranges, conjunctions,
/// unknown attributes and the wildcard.
fn random_predicate(rng: &mut StdRng) -> AttrPredicate {
    let mut p = match rng.gen_range(0u8..6) {
        0 => AttrPredicate::any(),
        1 => AttrPredicate::label(&format!("l{}", rng.gen_range(0u8..4))),
        2 => {
            let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.gen_range(0..4usize)];
            AttrPredicate::any().and("year", op, AttrValue::int(rng.gen_range(1995..2010)))
        }
        3 => AttrPredicate::any().and("year", CmpOp::Ne, AttrValue::int(rng.gen_range(1995..2010))),
        4 => AttrPredicate::any().and(
            "label",
            [CmpOp::Ge, CmpOp::Lt][rng.gen_range(0..2usize)],
            AttrValue::str(&format!("l{}", rng.gen_range(0u8..4))),
        ),
        _ => AttrPredicate::eq("nowhere", AttrValue::int(1)),
    };
    if rng.gen_bool(0.4) {
        p = p.and("year", CmpOp::Ge, AttrValue::int(rng.gen_range(1995..2010)));
    }
    p
}

#[test]
fn index_backed_candidates_equal_the_full_scan() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 2..40, seed % 2 == 0);

        // Random queries whose nodes carry random predicates.
        let mut qb = GtpqBuilder::new(random_predicate(&mut rng));
        let root = qb.root_id();
        for _ in 0..rng.gen_range(1..4usize) {
            let c = qb.backbone_child(root, EdgeKind::Descendant, random_predicate(&mut rng));
            qb.mark_output(c);
        }
        qb.mark_output(root);
        let q = qb.build().expect("generated query is valid");

        for u in q.node_ids() {
            let selection = q.candidates_indexed(&g, u);
            assert_eq!(
                selection.nodes,
                q.candidates(&g, u),
                "seed {seed}: index/scan mismatch at {u}"
            );
            if selection.from_index {
                assert_eq!(selection.verified, 0, "seed {seed}");
            }
        }

        // And the engine-level candidate selection agrees too.
        let mut stats = EvalStats::default();
        let mat = gtpq::engine::prune::initial_candidates(&q, &g, &mut stats);
        for u in q.node_ids() {
            assert_eq!(mat[u.index()], q.candidates(&g, u), "seed {seed} at {u}");
        }
        assert!(
            stats.input_nodes <= (q.size() * g.node_count()) as u64,
            "seed {seed}: input_nodes over-counted"
        );
    }
}

/// The tentpole equivalence property: executing *any* physical plan — the
/// planner's default, a shuffled prune order, forced full scans, the upward
/// round disabled, the seed's fixed pipeline — returns a `ResultSet`
/// identical to the default `evaluate`.  Plans may only change performance,
/// never answers.
#[test]
fn planned_evaluation_is_equivalent_to_default_for_perturbed_plans() {
    use gtpq::engine::plan::AccessPath;
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 2..16, seed % 2 == 0);
        let q = random_query(&mut rng);
        let baseline = GteaEngine::new(&g);
        let expected = baseline.evaluate(&q);
        let plan = Planner::new(&g).plan(&q);

        // Randomly shuffled prune order (repaired by the executor).
        let mut shuffled = plan.clone();
        for i in (1..shuffled.prune_down.len()).rev() {
            shuffled.prune_down.swap(i, rng.gen_range(0..=i));
        }
        // Forced full scans on every query node.
        let mut scans = plan.clone();
        for step in &mut scans.candidates {
            step.access = AccessPath::FullScan;
        }
        // The seed's fixed pipeline.
        let fixed = QueryPlan::fixed_pipeline(&q);

        for (name, perturbed) in [
            ("default", &plan),
            ("shuffled", &shuffled),
            ("full-scan", &scans),
            ("fixed", &fixed),
        ] {
            let got = baseline
                .execute(&q, perturbed, ExecOptions::unbounded())
                .expect("unbounded execution cannot be interrupted")
                .results;
            assert!(
                got.same_answer(&expected),
                "seed {seed}: plan `{name}` changed the answer: got {got:?} expected {expected:?}"
            );
        }
    }
}
