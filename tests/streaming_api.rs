//! Property tests for the request/outcome API and its streaming executor:
//!
//! * `submit` with `limit = k, offset = j` returns **exactly** rows
//!   `j..j + k` of the materialized `ResultSet` order — the streaming
//!   enumerator must produce rows in sorted order, or early termination
//!   would return the wrong window,
//! * an unlimited `submit` equals the engine's `evaluate` bit-for-bit,
//! * both hold on random DAGs and random cyclic graphs, and on both the
//!   engine-pushdown path (cache disabled) and the cache-slicing path
//!   (pre-warmed cache),
//! * limit pushdown pulls exactly the window plus its look-ahead row
//!   (`EvalStats::enumerated_rows = min(offset + limit + 1, |answer|)`), and
//!   the row counters (`enumerated_rows`, `result_tuples`,
//!   `intermediate_size`) repeat exactly for the full run and every window,
//! * the enumerator's order does not depend on the query's shape: depth-3
//!   trees, non-output internal nodes and roots, outputs marked in any order
//!   (child before parent, interleaved siblings), everything shrunk away and
//!   several shrunk components all yield the naive evaluator's `ResultSet`
//!   order, for every window,
//! * a pre-cancelled token and an expired deadline abort with the typed
//!   interrupt, through both `GteaEngine::execute` and `submit`, and a
//!   cancel racing a run either completes with the exact answer or aborts
//!   cleanly,
//! * a cancellation from another thread interrupts a long enumeration —
//!   walked or built — instead of letting it complete.
//!
//! Same harness as `property_based.rs`: a deterministic seed sweep over the
//! vendored PRNG; every failure message carries the seed.  Every case runs
//! once, on the engine's default 3-hop: default options answer on the
//! condensation the graph carries and read no index
//! (`crates/core/tests/work_guard.rs`), so another backend would re-run the
//! same path.

use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The window cases exercised per (graph, query): `(offset, limit)`.
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

fn check_windows(service: &QueryService, q: &Gtpq, all: &[Vec<NodeId>], seed: u64, path: &str) {
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
            got, expected,
            "seed {seed}, {path}: window ({offset}, {limit}) diverged"
        );
        let more_exist = offset.saturating_add(limit) < all.len();
        assert_eq!(
            outcome.truncated, more_exist,
            "seed {seed}, {path}: truncation flag wrong for ({offset}, {limit})"
        );
        // Pushdown: the enumerator pulls the window plus its look-ahead
        // row, or the whole answer when that is shorter (engine path only;
        // cache hits report no stats).
        if !outcome.from_cache {
            let stats = outcome.stats.expect("requested stats");
            assert_eq!(
                stats.enumerated_rows,
                (offset + limit + 1).min(all.len()) as u64,
                "seed {seed}, {path}: rows enumerated for window ({offset}, {limit})"
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
        // Reference: the engine's unlimited evaluation.
        let reference = GteaEngine::new(&graph).evaluate(&q);
        assert!(
            reference.same_answer(&oracle),
            "seed {seed}: engine diverged from naive"
        );
        let all: Vec<Vec<NodeId>> = reference.iter().cloned().collect();

        // Engine-pushdown path: no result cache, windows stream out of the
        // executor.
        let pushdown = QueryService::with_config(
            Arc::clone(&graph),
            ServiceConfig {
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let unlimited = pushdown
            .submit(&QueryRequest::query(q.clone()))
            .expect("unlimited submit cannot fail");
        assert_eq!(
            *unlimited.rows, reference,
            "seed {seed}: unlimited submit must equal evaluate bit-for-bit"
        );
        assert!(!unlimited.truncated);
        check_windows(&pushdown, &q, &all, seed, "pushdown");

        // Cache-slicing path: a pre-warmed complete answer serves every
        // window by slicing.
        let cached = QueryService::new(Arc::clone(&graph));
        let warm = cached
            .submit(&QueryRequest::query(q.clone()))
            .expect("warm-up submit cannot fail");
        assert_eq!(*warm.rows, reference);
        check_windows(&cached, &q, &all, seed, "cache-slice");
    }
}

/// What a run reports about its answer: rows pulled from the enumerator,
/// rows emitted, and the size of the matching graph.
fn row_counters(stats: &EvalStats) -> (u64, u64, u64) {
    (
        stats.enumerated_rows,
        stats.result_tuples,
        stats.intermediate_size,
    )
}

#[test]
fn row_counters_repeat_exactly_for_the_full_run_and_every_window() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, 20, seed % 2 == 0);
        let q = random_query(&mut rng);
        let engine = GteaEngine::new(&graph);
        let plan = Planner::new(&graph).plan(&q);
        let run = |limit: Option<usize>, offset: usize| {
            let ctl = ExecCtl::unbounded();
            let options = ExecOptions { limit, offset, ctl };
            let exec = engine.execute(&q, &plan, options);
            exec.expect("unbounded execution cannot be interrupted")
        };
        let full = run(None, 0);
        let again = run(None, 0);
        assert_eq!(again.results, full.results, "seed {seed}");
        assert_eq!(
            row_counters(&again.stats),
            row_counters(&full.stats),
            "seed {seed}: full-run counters moved"
        );
        // A window pulls itself plus its look-ahead row, emits its slice,
        // and stands on the same matching graph as the full run.
        let total = full.results.len();
        for (offset, limit) in window_cases(total) {
            let emitted = limit.min(total.saturating_sub(offset));
            let expected = (
                (offset + limit + 1).min(total) as u64,
                emitted as u64,
                full.stats.intermediate_size,
            );
            for _ in 0..2 {
                assert_eq!(
                    row_counters(&run(Some(limit), offset).stats),
                    expected,
                    "seed {seed}: counters wrong for window ({offset}, {limit})"
                );
            }
        }
    }
}

#[test]
fn cancelled_and_expired_runs_abort_typed_through_execute_and_submit() {
    let cancelled = || {
        let token = CancelToken::new();
        token.cancel();
        token
    };
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = Arc::new(random_graph(&mut rng, 20, seed % 2 == 0));
        let q = random_query(&mut rng);
        let engine = GteaEngine::new(&graph);
        let plan = Planner::new(&graph).plan(&q);
        let controls = [
            (
                ExecCtl::unbounded().with_cancel(cancelled()),
                Interrupt::Cancelled,
            ),
            (
                ExecCtl::unbounded().with_deadline(Instant::now()),
                Interrupt::Timeout,
            ),
        ];
        for (ctl, interrupt) in controls {
            let aborted = engine
                .execute(&q, &plan, ExecOptions::unbounded().with_ctl(ctl))
                .expect_err("the first poll interrupts");
            assert_eq!(aborted.interrupt, interrupt, "seed {seed}");
            // The partial stats say no candidate was selected and no row
            // pulled.
            let stats = &aborted.stats;
            assert!(stats.operators.is_empty(), "seed {seed}");
            assert_eq!(row_counters(stats), (0, 0, 0), "seed {seed}");
        }

        let service = QueryService::with_config(
            Arc::clone(&graph),
            ServiceConfig {
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let request = QueryRequest::query(q.clone());
        let err = service.submit(&request.clone().with_cancel(cancelled()));
        assert_eq!(err.unwrap_err(), QueryError::Cancelled, "seed {seed}");
        let err = service.submit(&request.with_deadline(Duration::ZERO));
        assert!(
            matches!(err, Err(QueryError::Timeout { .. })),
            "seed {seed}: {err:?}"
        );
        // Both runs fold into the metrics as aborted, neither as a miss.
        let m = service.metrics();
        assert_eq!(
            (m.cancelled, m.timed_out, m.aborted, m.cache_misses),
            (1, 1, 2, 0),
            "seed {seed}"
        );
    }
}

#[test]
fn a_cancel_racing_a_run_completes_exactly_or_aborts_cleanly() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, 20, seed % 2 == 0);
        let q = random_query(&mut rng);
        let engine = GteaEngine::new(&graph);
        let plan = Planner::new(&graph).plan(&q);
        let reference = engine
            .execute(&q, &plan, ExecOptions::unbounded())
            .expect("unbounded execution cannot be interrupted");
        let token = CancelToken::new();
        let racer = {
            let token = token.clone();
            std::thread::spawn(move || {
                // Seed-varied delay so the cancel lands in different stages
                // across the sweep.
                std::thread::sleep(Duration::from_micros(10 * (seed % 7)));
                token.cancel();
            })
        };
        let ctl = ExecCtl::unbounded().with_cancel(token);
        let raced = engine.execute(&q, &plan, ExecOptions::unbounded().with_ctl(ctl));
        racer.join().expect("cancelling thread panicked");
        match raced {
            Ok(exec) => assert_eq!(
                exec.results, reference.results,
                "seed {seed}: raced run completed with a wrong answer"
            ),
            Err(aborted) => assert_eq!(aborted.interrupt, Interrupt::Cancelled, "seed {seed}"),
        }
    }
}

/// A dense random graph for multi-level joins: 8-12 nodes over two labels,
/// every ordered pair an edge with probability 0.3 (forward pairs only when
/// `dag_only`).
fn dense_graph(rng: &mut StdRng, dag_only: bool) -> DataGraph {
    let n = rng.gen_range(8..13usize);
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| b.add_node_with_label(&format!("l{}", rng.gen_range(0u8..2))))
        .collect();
    for x in 0..n {
        for y in 0..n {
            if x != y && (x < y || !dag_only) && rng.gen_bool(0.3) {
                b.add_edge(nodes[x], nodes[y]);
            }
        }
    }
    b.build()
}

/// A random backbone tree of depth up to 3 (at most six nodes) over two
/// labels or the always-true predicate, optionally with a negated predicate child
/// at the root.  Any non-empty subset of up to four backbone nodes is
/// output — so internal nodes and the root may not be — and the outputs are
/// marked in shuffled order, which is what decides the column layouts:
/// parents after children, siblings' subtrees interleaved.
fn random_tree_query(rng: &mut StdRng) -> Gtpq {
    fn attr(rng: &mut StdRng) -> AttrPredicate {
        if rng.gen_bool(0.25) {
            AttrPredicate::any()
        } else {
            AttrPredicate::label(&format!("l{}", rng.gen_range(0u8..2)))
        }
    }
    fn edge(rng: &mut StdRng) -> EdgeKind {
        if rng.gen_bool(0.3) {
            EdgeKind::Child
        } else {
            EdgeKind::Descendant
        }
    }
    let mut b = GtpqBuilder::new(attr(rng));
    let root = b.root_id();
    let mut backbone = vec![(root, 0usize)];
    let mut next = 0;
    while next < backbone.len() && backbone.len() < 6 {
        let (u, depth) = backbone[next];
        next += 1;
        if depth == 3 {
            continue;
        }
        let fanout = rng.gen_range(usize::from(u == root)..3);
        for _ in 0..fanout.min(6 - backbone.len()) {
            let c = b.backbone_child(u, edge(rng), attr(rng));
            backbone.push((c, depth + 1));
        }
    }
    if rng.gen_bool(0.2) {
        let p = b.predicate_child(root, edge(rng), attr(rng));
        b.set_structural(root, BoolExpr::not(BoolExpr::Var(p.var())));
    }
    let mut outputs: Vec<QueryNodeId> = backbone.iter().map(|&(u, _)| u).collect();
    for i in (1..outputs.len()).rev() {
        outputs.swap(i, rng.gen_range(0..=i));
    }
    outputs.truncate(rng.gen_range(1..=outputs.len().min(4)));
    for u in outputs {
        b.mark_output(u);
    }
    b.build().expect("generated queries are valid")
}

/// Checks the engine's full answer and every window against the naive
/// evaluator's `ResultSet` order.  Returns the answer size.
fn check_against_naive(graph: &DataGraph, q: &Gtpq, tag: &str) -> usize {
    let oracle = naive::evaluate(q, graph);
    let all: Vec<Vec<NodeId>> = oracle.iter().cloned().collect();
    let engine = GteaEngine::new(graph);
    let plan = Planner::new(graph).plan(q);
    let windows = window_cases(all.len())
        .into_iter()
        .map(|(offset, limit)| (offset, Some(limit)))
        .chain([(0, None)]);
    for (offset, limit) in windows {
        let ctl = ExecCtl::unbounded();
        let exec = engine
            .execute(q, &plan, ExecOptions { limit, offset, ctl })
            .expect("unbounded execution cannot be interrupted");
        let got: Vec<Vec<NodeId>> = exec.results.iter().cloned().collect();
        let take = limit.unwrap_or(usize::MAX);
        let expected: Vec<Vec<NodeId>> = all.iter().skip(offset).take(take).cloned().collect();
        assert_eq!(
            got, expected,
            "{tag}: window ({offset}, {limit:?}) diverged from naive"
        );
        assert_eq!(
            exec.truncated,
            offset.saturating_add(take) < all.len(),
            "{tag}: truncation flag wrong for ({offset}, {limit:?})"
        );
        let pulled = limit.map_or(all.len(), |l| (offset + l + 1).min(all.len()));
        assert_eq!(
            exec.stats.enumerated_rows, pulled as u64,
            "{tag}: rows enumerated for window ({offset}, {limit:?})"
        );
    }
    all.len()
}

#[test]
fn tree_queries_in_any_output_order_match_naive_order_for_every_window_and_partitioning() {
    let mut answered = 0;
    for seed in 0..2 * CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = dense_graph(&mut rng, seed % 2 == 0);
        let q = random_tree_query(&mut rng);
        let rows = check_against_naive(&graph, &q, &format!("seed {seed}"));
        answered += usize::from(rows > 1);
    }
    assert!(
        answered as u64 >= CASES,
        "only {answered} generated queries had more than one answer: the sweep lost its teeth"
    );
}

/// `fan` root nodes labelled `r`, each with an edge to each of `width`
/// nodes labelled `x` and `width` nodes labelled `y`, and two `z` children
/// under every `x`.
fn fan_graph(fan: usize, width: usize) -> DataGraph {
    let mut b = GraphBuilder::new();
    let roots: Vec<NodeId> = (0..fan).map(|_| b.add_node_with_label("r")).collect();
    for label in ["x", "y"] {
        for _ in 0..width {
            let v = b.add_node_with_label(label);
            for &r in &roots {
                b.add_edge(r, v);
            }
            if label == "x" {
                for _ in 0..2 {
                    let z = b.add_node_with_label("z");
                    b.add_edge(v, z);
                }
            }
        }
    }
    b.build()
}

/// `r { //x { /z }, //y }` with the given nodes output, in the given order.
fn fan_query(outputs: &[&str]) -> Gtpq {
    let mut b = GtpqBuilder::new(AttrPredicate::label("r"));
    let r = b.root_id();
    let x = b.backbone_child(r, EdgeKind::Descendant, AttrPredicate::label("x"));
    let z = b.backbone_child(x, EdgeKind::Child, AttrPredicate::label("z"));
    let y = b.backbone_child(r, EdgeKind::Descendant, AttrPredicate::label("y"));
    for &name in outputs {
        b.mark_output(match name {
            "r" => r,
            "x" => x,
            "y" => y,
            _ => z,
        });
    }
    b.build().expect("fan queries are valid")
}

#[test]
fn shrunk_away_and_multi_component_queries_match_naive_order() {
    // One candidate per node: every output is a constant column, no
    // component is left, and the answer is the one constants row.
    let mut single = GraphBuilder::new();
    let [r, x, y, z] = ["r", "x", "y", "z"].map(|label| single.add_node_with_label(label));
    for (from, to) in [(r, x), (r, y), (x, z)] {
        single.add_edge(from, to);
    }
    let rows = check_against_naive(
        &single.build(),
        &fan_query(&["z", "r", "y"]),
        "everything shrunk away",
    );
    assert_eq!(rows, 1);

    // One root candidate: the root is shrunk away and `x` and `y` become
    // two components.  `y` marked first makes the top-level product walk
    // the components against their tree order; `x, y, z` interleaves their
    // coordinates (x and z around y), the one shape that has to be sorted.
    let split = fan_graph(1, 4);
    for (outputs, expected) in [
        (&["x", "y"][..], 16),
        (&["y", "x"], 16),
        (&["y", "x", "z"], 32),
        (&["x", "y", "z"], 32),
    ] {
        let rows = check_against_naive(
            &split,
            &fan_query(outputs),
            &format!("two components, outputs {outputs:?}"),
        );
        assert_eq!(rows, expected);
    }

    // Three root candidates keep the tree whole; a non-output root and a
    // root marked last both have to merge equal rows of different roots.
    let whole = fan_graph(3, 3);
    for (outputs, expected) in [
        (&["x", "y"][..], 9),
        (&["z", "y", "r"], 54),
        (&["r", "z", "y", "x"], 54),
    ] {
        let rows = check_against_naive(
            &whole,
            &fan_query(outputs),
            &format!("one component, outputs {outputs:?}"),
        );
        assert_eq!(rows, expected);
    }
}

#[test]
fn cancelling_from_another_thread_interrupts_a_long_enumeration() {
    // 10 roots x 150 x 150: 225 000 rows when the root is output (walked in
    // place, one poll per row), and as many rows collected into one sorted
    // run before the first row when it is not (polled inside the build).
    let graph = fan_graph(10, 150);
    let engine = GteaEngine::new(&graph);
    for outputs in [&["r", "x", "y"][..], &["x", "y"]] {
        let q = fan_query(outputs);
        let plan = Planner::new(&graph).plan(&q);
        let token = CancelToken::new();
        let (mut stream, _) = engine
            .match_stream(&q, &plan, ExecCtl::unbounded().with_cancel(token.clone()))
            .expect("the pipeline runs before the token is cancelled");
        let (go, started) = std::sync::mpsc::channel::<()>();
        let canceller = std::thread::spawn(move || {
            started
                .recv()
                .expect("the enumerating thread signals its start");
            token.cancel();
        });
        go.send(()).expect("the canceller is waiting");
        let outcome = loop {
            match stream.next_row() {
                Ok(Some(_)) => {}
                other => break other,
            }
        };
        canceller.join().expect("cancelling thread panicked");
        assert_eq!(
            outcome,
            Err(Interrupt::Cancelled),
            "outputs {outputs:?}: the enumeration completed ({} rows) instead of being cancelled",
            stream.rows_enumerated()
        );
        assert_eq!(
            stream.next_row(),
            Err(Interrupt::Cancelled),
            "an interrupted stream stays interrupted"
        );
    }
}
