//! Pins every baseline arm's Fig. 10 counters on fixed inputs.
//!
//! Counters are deterministic, unlike time, so a refactor of the arms must
//! leave each `(#input, #index, #intermediate, subqueries)` figure, and the
//! number of answer rows, exactly where it was.  A change that moves one on
//! purpose says so and re-pins it here.

use gtpq_baselines::{
    evaluate_gtpq_with, BaselineStats, HgJoin, TpqAlgorithm, Twig2Stack, TwigStack, TwigStackD,
};
use gtpq_datagen::{
    fig11_gtpq, generate_arxiv, generate_xmark, random_queries, xmark_q1, xmark_q2, xmark_q3,
    ArxivConfig, Fig11Predicate, RandomQueryConfig, XmarkConfig,
};
use gtpq_graph::DataGraph;
use gtpq_query::fixtures::example_graph;
use gtpq_query::{AttrPredicate, Gtpq, GtpqBuilder, ResultSet};

/// `(input_nodes, index_lookups, intermediate_results, subqueries, rows)`.
type Pin = (u64, u64, u64, u64, usize);

fn pin((rows, s): (ResultSet, BaselineStats)) -> Pin {
    (
        s.input_nodes,
        s.index_lookups,
        s.intermediate_results,
        s.subqueries,
        rows.len(),
    )
}

fn check(label: &str, actual: Pin, expected: Pin) -> bool {
    if actual != expected {
        eprintln!("{label}: counters {actual:?}, pinned {expected:?}");
    }
    actual == expected
}

/// The five arms, in the order the pins below list them.
fn all_arms(g: &DataGraph) -> [Box<dyn TpqAlgorithm + '_>; 5] {
    [
        Box::new(TwigStack::new(g)),
        Box::new(Twig2Stack::new(g)),
        Box::new(TwigStackD::new(g)),
        Box::new(HgJoin::tuple_based(g)),
        Box::new(HgJoin::graph_based(g)),
    ]
}

#[test]
fn every_arm_reports_its_pinned_counters() {
    let mut ok = true;

    let g = generate_xmark(&XmarkConfig::with_scale(0.1));
    let arms = all_arms(&g);
    let xmark: [(&str, Gtpq); 3] = [
        ("Q1", xmark_q1(0)),
        ("Q2", xmark_q2(0, 0)),
        ("Q3", xmark_q3(0, 0, 0)),
    ];
    // Rows: arms in the order above; columns: Q1, Q2, Q3.
    let expected: [[Pin; 3]; 5] = [
        [
            (0, 140440, 164, 0, 7),
            (0, 155624, 170, 0, 0),
            (0, 155818, 170, 0, 0),
        ],
        [
            (590, 11148, 450, 0, 7),
            (710, 12688, 568, 0, 0),
            (824, 14010, 678, 0, 0),
        ],
        [
            (921, 9791, 74, 0, 7),
            (1153, 9123, 0, 0, 0),
            (1362, 10147, 0, 0, 0),
        ],
        [
            (0, 91764, 587, 0, 7),
            (0, 115156, 592, 0, 0),
            (0, 135918, 608, 0, 0),
        ],
        [
            (0, 83364, 967, 0, 7),
            (0, 98548, 1056, 0, 0),
            (0, 112830, 1129, 0, 0),
        ],
    ];
    for (algo, pins) in arms.iter().zip(&expected) {
        for ((query, q), &want) in xmark.iter().zip(pins) {
            let arm = algo.name();
            ok &= check(&format!("{arm} {query}"), pin(algo.evaluate(q)), want);
        }
    }

    // Decompose-and-merge on a GTPQ with disjunction and negation.
    let q = fig11_gtpq(Fig11Predicate::DisNeg1, 0, 0);
    let twig = TwigStack::new(&g);
    let twig_d = TwigStackD::new(&g);
    ok &= check(
        "TwigStack DIS_NEG1",
        pin(evaluate_gtpq_with(&twig, &q)),
        (0, 38640, 626, 6, 2),
    );
    ok &= check(
        "TwigStackD DIS_NEG1",
        pin(evaluate_gtpq_with(&twig_d, &q)),
        (933, 69339, 842, 6, 2),
    );

    // Random queries on arXiv, the deeper and denser graph of Fig. 9.
    let g = generate_arxiv(&ArxivConfig::small());
    let queries = random_queries(&g, &RandomQueryConfig::with_size(5));
    let arms: [(&str, Box<dyn TpqAlgorithm>); 3] = [
        ("HGJoin*", Box::new(HgJoin::graph_based(&g))),
        ("HGJoin+", Box::new(HgJoin::tuple_based(&g))),
        ("TwigStackD", Box::new(TwigStackD::new(&g))),
    ];
    // Rows: arms in the order above; columns: the first three queries.
    let expected: [[Pin; 3]; 3] = [
        [(0, 215, 23, 0, 2), (0, 137, 38, 0, 1), (0, 109, 13, 0, 24)],
        [(0, 205, 55, 0, 2), (0, 177, 48, 0, 1), (0, 211, 48, 0, 24)],
        [
            (43, 6782, 11, 0, 2),
            (35, 14374, 9, 0, 1),
            (25, 8513, 25, 0, 24),
        ],
    ];
    for ((arm, algo), pins) in arms.iter().zip(&expected) {
        for (i, (q, &want)) in queries.iter().zip(pins).enumerate() {
            ok &= check(&format!("{arm} random #{i}"), pin(algo.evaluate(q)), want);
        }
    }

    assert!(ok, "a baseline's counters moved (details above)");
}

/// A one-node query has no internal node, so no arm may rely on one: each
/// answers the root's candidates, here every node of the running example.
#[test]
fn every_arm_answers_a_one_node_query() {
    let g = example_graph();
    let mut b = GtpqBuilder::new(AttrPredicate::any());
    b.mark_output(b.root_id());
    let q = b.build().expect("a one-node query");
    let arms = all_arms(&g);
    let every_node = arms[0].evaluate(&q).0;
    assert_eq!(every_node.len(), 16);
    for algo in &arms[1..] {
        let (rows, _) = algo.evaluate(&q);
        assert!(rows.same_answer(&every_node), "{}: {rows:?}", algo.name());
    }
}
