//! Property tests for the request/outcome API and its streaming executor:
//!
//! * the enumerator's order does not depend on the query's shape:
//!   everything shrunk away and several shrunk components yield the naive
//!   evaluator's `ResultSet` order for every window, with limit pushdown
//!   pulling exactly the window plus its look-ahead row,
//! * a pre-cancelled token and an expired deadline abort with the typed
//!   interrupt, through both `GteaEngine::execute` and `submit`, and a
//!   cancel racing a run either completes with the exact answer or aborts
//!   cleanly,
//! * a cancellation from another thread interrupts a long enumeration —
//!   walked or built — instead of letting it complete, and so does a
//!   deadline passing between two pulls.
//!
//! Windows over random graphs and queries — every backend arm, the
//! pushdown and cache-slicing service paths, the row counters of the full
//! run and every window, trees with outputs in any order — are the
//! differential oracle's (`tests/differential.rs`).  The random cases here
//! draw from the shared generators in `tests/common`; every failure message
//! carries the seed.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{random_graph, random_query};
use gtpq::prelude::*;
use gtpq::query::naive;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CASES: u64 = 24;

#[test]
fn cancelled_and_expired_runs_abort_typed_through_execute_and_submit() {
    let cancelled = || {
        let token = CancelToken::new();
        token.cancel();
        token
    };
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = Arc::new(random_graph(&mut rng, 3..20, seed % 2 == 0));
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
            let counters = (
                stats.enumerated_rows,
                stats.result_tuples,
                stats.intermediate_size,
            );
            assert_eq!(counters, (0, 0, 0), "seed {seed}");
        }
        // The service rejects an unsatisfiable query before any run starts.
        if !gtpq::analysis::is_satisfiable(&q) {
            continue;
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
        let graph = random_graph(&mut rng, 3..20, seed % 2 == 0);
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

/// Checks the engine's full answer and every window against the naive
/// evaluator's `ResultSet` order.  Returns the answer size.
fn check_against_naive(graph: &DataGraph, q: &Gtpq, tag: &str) -> usize {
    let oracle = naive::evaluate(q, graph);
    let all: Vec<Vec<NodeId>> = oracle.iter().map(<[NodeId]>::to_vec).collect();
    let engine = GteaEngine::new(graph);
    let plan = Planner::new(graph).plan(q);
    let total = all.len();
    let windows = [
        (0, 0),
        (0, 1),
        (0, total),
        (1, 2),
        (total / 2, 3),
        (total, 1),
        (2, total + 5),
    ];
    let windows = windows.map(|(offset, limit)| (offset, Some(limit)));
    for (offset, limit) in windows.into_iter().chain([(0, None)]) {
        let ctl = ExecCtl::unbounded();
        let exec = engine
            .execute(q, &plan, ExecOptions { limit, offset, ctl })
            .expect("unbounded execution cannot be interrupted");
        let got: Vec<Vec<NodeId>> = exec.results.iter().map(<[NodeId]>::to_vec).collect();
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

    // A one-node query: the one component's root is a walked leaf, so
    // every row after the first moves that cursor alone.
    let mut one = GtpqBuilder::new(AttrPredicate::label("r"));
    one.mark_output(one.root_id());
    let one = one.build().expect("a one-node query is valid");
    let rows = check_against_naive(&fan_graph(3, 1), &one, "one node");
    assert_eq!(rows, 3);

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
    // `r, y` leaves `x { z }` zero-width, sorted after `y`: the walk skips
    // it and moves `y` alone.
    for (outputs, expected) in [
        (&["x", "y"][..], 9),
        (&["r", "y"], 9),
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

/// Polls between two clock reads of a control with a deadline
/// (`SAMPLE_EVERY` in `crates/core/src/exec.rs`).
const SAMPLE_EVERY: usize = 64;

#[test]
fn a_deadline_passing_mid_enumeration_interrupts_it() {
    // With `r` output the tail is the walked leaf `y`, so most pulls move
    // that cursor alone and poll the control once.
    let graph = fan_graph(10, 150);
    let engine = GteaEngine::new(&graph);
    let q = fan_query(&["r", "x", "y"]);
    let plan = Planner::new(&graph).plan(&q);
    let deadline = Instant::now() + Duration::from_millis(100);
    let (mut stream, _) = engine
        .match_stream(&q, &plan, ExecCtl::unbounded().with_deadline(deadline))
        .expect("the pipeline runs before the deadline");
    assert!(stream.next_row().expect("before the deadline").is_some());
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
    let outcome = (0..=SAMPLE_EVERY)
        .map(|_| stream.next_row().map(|row| row.is_some()))
        .find(|pulled| *pulled != Ok(true));
    assert_eq!(
        outcome,
        Some(Err(Interrupt::Timeout)),
        "{} rows pulled past the deadline",
        stream.rows_enumerated()
    );
    assert_eq!(
        stream.next_row(),
        Err(Interrupt::Timeout),
        "an interrupted stream stays interrupted"
    );
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
                other => break other.map(|row| row.map(<[NodeId]>::to_vec)),
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
