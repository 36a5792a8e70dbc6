//! Property tests for the request/outcome API and its streaming executor:
//!
//! * `submit` with `limit = k, offset = j` returns **exactly** rows
//!   `j..j + k` of the materialized `ResultSet` order — the streaming
//!   enumerator must produce rows in sorted order, or early termination
//!   would return the wrong window,
//! * an unlimited `submit` equals the engine's `evaluate` bit-for-bit,
//! * both hold under every reachability backend, on random DAGs and random
//!   cyclic graphs, and on both the engine-pushdown path (cache disabled)
//!   and the cache-slicing path (pre-warmed cache),
//! * limit pushdown provably bounds enumeration work
//!   (`EvalStats::enumerated_rows ≤ offset + limit + 1`).
//!
//! Same harness as `property_based.rs`: a deterministic seed sweep over the
//! vendored PRNG; every failure message carries the seed.

use std::sync::Arc;

use gtpq::prelude::*;
use gtpq::query::naive;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// A random directed graph: `n` nodes labelled from a 4-letter alphabet and
/// up to `3n` random edges; even seeds are DAG-only.
fn random_graph(rng: &mut StdRng, max_nodes: usize, dag_only: bool) -> DataGraph {
    let n = rng.gen_range(3..max_nodes);
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| b.add_node_with_label(&format!("l{}", rng.gen_range(0u8..4))))
        .collect();
    for _ in 0..rng.gen_range(0..n * 3) {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        if x == y {
            continue;
        }
        let (x, y) = if dag_only && x > y { (y, x) } else { (x, y) };
        b.add_edge(nodes[x], nodes[y]);
    }
    b.build()
}

/// A random small query with one or two output nodes, optionally with a
/// disjunctive or negated structural predicate at the root.
fn random_query(rng: &mut StdRng) -> Gtpq {
    let mut b = GtpqBuilder::new(AttrPredicate::label(&format!("l{}", rng.gen_range(0u8..4))));
    let root = b.root_id();
    let mode = rng.gen_range(0u8..3);
    let mut predicate_vars = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let edge = if rng.gen_bool(0.5) {
            EdgeKind::Child
        } else {
            EdgeKind::Descendant
        };
        let attr = AttrPredicate::label(&format!("l{}", rng.gen_range(0u8..4)));
        if predicate_vars.len() < 2 && mode > 0 {
            let p = b.predicate_child(root, edge, attr);
            predicate_vars.push(BoolExpr::Var(p.var()));
        } else {
            let c = b.backbone_child(root, edge, attr);
            b.mark_output(c);
        }
    }
    match (mode, predicate_vars.as_slice()) {
        (1, [a]) => b.set_structural(root, BoolExpr::not(a.clone())),
        (1, [a, bb]) => b.set_structural(root, BoolExpr::or2(a.clone(), BoolExpr::not(bb.clone()))),
        (2, [a]) => b.set_structural(root, a.clone()),
        (2, [a, bb]) => b.set_structural(root, BoolExpr::or2(a.clone(), bb.clone())),
        _ => {}
    }
    b.mark_output(root);
    b.build().expect("generated queries are valid")
}

/// The window cases exercised per (graph, query, backend): `(offset, limit)`.
fn window_cases(total: usize) -> Vec<(usize, usize)> {
    vec![
        (0, 0),
        (0, 1),
        (0, total),
        (1, 2),
        (total / 2, 3),
        (total, 1),
        (2, total + 5),
    ]
}

fn check_windows(
    service: &QueryService,
    q: &Gtpq,
    all: &[Vec<NodeId>],
    seed: u64,
    kind: BackendKind,
    path: &str,
) {
    for (offset, limit) in window_cases(all.len()) {
        let outcome = service
            .submit(
                &QueryRequest::query(q.clone())
                    .with_limit(limit)
                    .with_offset(offset)
                    .with_stats(),
            )
            .expect("windowed submit cannot fail");
        let got: Vec<Vec<NodeId>> = outcome.rows.iter().cloned().collect();
        let expected: Vec<Vec<NodeId>> = all.iter().skip(offset).take(limit).cloned().collect();
        assert_eq!(
            got,
            expected,
            "seed {seed}, backend {}, {path}: window ({offset}, {limit}) diverged",
            kind.as_str()
        );
        let more_exist = offset.saturating_add(limit) < all.len();
        assert_eq!(
            outcome.truncated,
            more_exist,
            "seed {seed}, backend {}, {path}: truncation flag wrong for ({offset}, {limit})",
            kind.as_str()
        );
        // Pushdown bound: the enumerator never pulls more than the window
        // plus its look-ahead row (engine path only; cache hits report no
        // stats).
        if !outcome.from_cache {
            let stats = outcome.stats.expect("requested stats");
            assert!(
                stats.enumerated_rows <= (offset + limit + 1) as u64,
                "seed {seed}, backend {}: enumerated {} rows for window ({offset}, {limit})",
                kind.as_str(),
                stats.enumerated_rows
            );
        }
    }
}

#[test]
fn submit_windows_match_materialized_order_under_every_backend() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = Arc::new(random_graph(&mut rng, 20, seed % 2 == 0));
        let q = random_query(&mut rng);
        let oracle = naive::evaluate(&q, &graph);
        for kind in BackendKind::ALL {
            // Reference: the engine's unlimited evaluation on this backend.
            let engine =
                GteaEngine::with_backend(&graph, kind.build_shared(&graph), GteaOptions::default());
            let reference = engine.evaluate(&q);
            assert!(
                reference.same_answer(&oracle),
                "seed {seed}, backend {}: engine diverged from naive",
                kind.as_str()
            );
            let all: Vec<Vec<NodeId>> = reference.iter().cloned().collect();

            // Engine-pushdown path: no result cache, windows stream out of
            // the executor.
            let pushdown = QueryService::with_config(
                Arc::clone(&graph),
                ServiceConfig {
                    backend: Some(kind),
                    cache_capacity: 0,
                    ..ServiceConfig::default()
                },
            );
            let unlimited = pushdown
                .submit(&QueryRequest::query(q.clone()))
                .expect("unlimited submit cannot fail");
            assert_eq!(
                *unlimited.rows,
                reference,
                "seed {seed}, backend {}: unlimited submit must equal evaluate bit-for-bit",
                kind.as_str()
            );
            assert!(!unlimited.truncated);
            check_windows(&pushdown, &q, &all, seed, kind, "pushdown");

            // Cache-slicing path: a pre-warmed complete answer serves every
            // window by slicing.
            let cached = QueryService::with_config(
                Arc::clone(&graph),
                ServiceConfig {
                    backend: Some(kind),
                    ..ServiceConfig::default()
                },
            );
            let warm = cached
                .submit(&QueryRequest::query(q.clone()))
                .expect("warm-up submit cannot fail");
            assert_eq!(*warm.rows, reference);
            check_windows(&cached, &q, &all, seed, kind, "cache-slice");
        }
    }
}
