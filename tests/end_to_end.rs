//! Cross-crate integration tests: generators → analysis → GTEA → baselines.

use gtpq::analysis::{is_satisfiable, minimize};
use gtpq::baselines::{
    evaluate_gtpq_with, HgJoin, TpqAlgorithm, Twig2Stack, TwigStack, TwigStackD,
};
use gtpq::datagen::{
    dblp_queries, fig11_gtpq, generate_arxiv, generate_dblp, generate_xmark, random_queries,
    xmark_q1, xmark_q2, xmark_templates, ArxivConfig, Fig11Predicate, RandomQueryConfig,
    XmarkConfig,
};
use gtpq::graph::GraphSnapshot;
use gtpq::prelude::*;
use gtpq::query::naive;

#[test]
fn all_algorithms_agree_on_xmark_conjunctive_queries() {
    let graph = generate_xmark(&XmarkConfig::with_scale(0.1));
    let engine = GteaEngine::new(&graph);
    let twig = TwigStack::new(&graph);
    let twig2 = Twig2Stack::new(&graph);
    let twig_d = TwigStackD::new(&graph);
    let hg_plus = HgJoin::tuple_based(&graph);
    let hg_star = HgJoin::graph_based(&graph);
    for group in 0..4 {
        let q = xmark_q1(group);
        let expected = engine.evaluate(&q);
        assert!(
            twig.evaluate(&q).0.same_answer(&expected),
            "TwigStack, group {group}"
        );
        assert!(
            twig2.evaluate(&q).0.same_answer(&expected),
            "Twig2Stack, group {group}"
        );
        assert!(
            twig_d.evaluate(&q).0.same_answer(&expected),
            "TwigStackD, group {group}"
        );
        assert!(
            hg_plus.evaluate(&q).0.same_answer(&expected),
            "HGJoin+, group {group}"
        );
        assert!(
            hg_star.evaluate(&q).0.same_answer(&expected),
            "HGJoin*, group {group}"
        );
    }
}

#[test]
fn gtea_matches_the_naive_oracle_on_random_arxiv_queries() {
    let graph = generate_arxiv(&ArxivConfig::small());
    let engine = GteaEngine::new(&graph);
    let queries = random_queries(
        &graph,
        &RandomQueryConfig {
            count: 6,
            ..RandomQueryConfig::with_size(6)
        },
    );
    assert!(!queries.is_empty());
    for q in &queries {
        let fast = engine.evaluate(q);
        let slow = naive::evaluate(q, &graph);
        assert!(fast.same_answer(&slow));
        assert!(!fast.is_empty(), "sampled queries always have matches");
    }
}

#[test]
fn gtpq_suite_is_consistent_across_engines_and_satisfiable() {
    let graph = generate_xmark(&XmarkConfig::with_scale(0.05));
    let engine = GteaEngine::new(&graph);
    let twig_d = TwigStackD::new(&graph);
    for (name, variant) in Fig11Predicate::table4_suite() {
        let q = fig11_gtpq(variant, 0, 0);
        assert!(is_satisfiable(&q), "{name} must be satisfiable");
        let expected = naive::evaluate(&q, &graph);
        assert!(engine.evaluate(&q).same_answer(&expected), "GTEA on {name}");
        let (merged, _) = evaluate_gtpq_with(&twig_d, &q);
        assert!(
            merged.same_answer(&expected),
            "decompose-and-merge on {name}"
        );
    }
}

#[test]
fn minimized_queries_return_the_same_answers() {
    let graph = generate_dblp(150, 5);
    let engine = GteaEngine::new(&graph);
    for (name, q) in dblp_queries() {
        let m = minimize(&q);
        assert!(m.size() <= q.size());
        assert!(
            engine.evaluate(&m).same_answer(&engine.evaluate(&q)),
            "minimization changed the answer of {name}"
        );
    }
}

#[test]
fn evaluation_statistics_are_plausible() {
    let graph = generate_xmark(&XmarkConfig::with_scale(0.1));
    let engine = GteaEngine::new(&graph);
    let q = xmark_q2(0, 3);
    let (results, stats) = engine.evaluate_with_stats(&q);
    assert_eq!(stats.result_tuples, results.len() as u64);
    assert!(stats.initial_candidates >= stats.candidates_after_downward);
    assert!(stats.prime_subtree_size >= stats.shrunk_subtree_size);
    assert!(stats.total_time() >= stats.filtering_time());
    // Only candidate selection carries an estimate, and it is an upper
    // bound: no estimated operator of a paper template under-estimates.
    for (name, q) in xmark_templates(3, 4, 5) {
        let (_, stats) = engine.evaluate_with_stats(&q);
        for op in &stats.operators {
            let bounded = op.estimated_rows.is_none_or(|est| est >= op.actual_rows);
            assert!(bounded, "{name} {}: {op:?}", op.label);
        }
    }
    // The estimation rollups read the candidate steps only, and Fig. 7's
    // Q1 makes eight label-equality scans, each estimated exactly.
    let (_, stats) = engine.evaluate_with_stats(&xmark_q1(3));
    assert_eq!(stats.estimation_error(), 0.0);
}

#[test]
fn graph_io_round_trips_generated_data() {
    let graph = generate_dblp(40, 9);
    let path = std::env::temp_dir().join(format!("gtpq-e2e-dblp-{}.gtpq", std::process::id()));
    GraphSnapshot::freeze(std::sync::Arc::new(graph.clone()))
        .save(&path)
        .expect("snapshot saves");
    let loaded = GraphSnapshot::open_mmap(&path).expect("snapshot opens");
    assert_eq!(*loaded.graph().as_ref(), graph);
    std::fs::remove_file(&path).ok();
}
