//! Property tests for morsel-driven intra-query parallelism: at any thread
//! count the engine must return **bit-for-bit** the answer of a serial run —
//! the same rows, in the same order, with the same truncation flag and the
//! same row counters — for full materialization and for every
//! `(offset, limit)` window, under every reachability backend, on random
//! DAGs and random cyclic graphs.
//!
//! Threads fan out the filter stages (candidate selection, both prune
//! rounds, matching-graph construction); enumeration is serial at every
//! degree.  The engine's fan-out gate is structural (any splittable input
//! parallelizes), so these tiny random graphs genuinely exercise the
//! parallel stages; the *cost* gate that keeps cheap production queries
//! serial lives in the planner (`QueryPlan::recommended_threads`) and is
//! tested in `gtpq-core`.
//!
//! Interrupt semantics must survive the fan-out too: a cancelled token and
//! an already-expired deadline abort a parallel run exactly like a serial
//! one, and a cancellation racing mid-run against the morsel workers either
//! completes with the exact answer or aborts cleanly — never a deadlock,
//! never a wrong row.
//!
//! Same harness as `streaming_api.rs`: a deterministic seed sweep over the
//! vendored PRNG; every failure message carries the seed.

use std::time::Instant;

use gtpq::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

const THREADS: [usize; 3] = [1, 2, 8];

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

/// The window cases exercised per (graph, query, backend, degree):
/// `(offset, limit)`.
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

fn exec_options(limit: Option<usize>, offset: usize, threads: usize) -> ExecOptions {
    ExecOptions {
        limit,
        offset,
        ctl: ExecCtl::unbounded(),
        threads,
    }
}

/// The counters that must not depend on the degree: rows pulled from the
/// enumerator, rows emitted, and the size of the matching graph.
fn row_counters(stats: &EvalStats) -> (u64, u64, u64) {
    (
        stats.enumerated_rows,
        stats.result_tuples,
        stats.intermediate_size,
    )
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, 20, seed % 2 == 0);
        let q = random_query(&mut rng);
        for kind in BackendKind::ALL {
            let engine =
                GteaEngine::with_backend(&graph, kind.build_shared(&graph), GteaOptions::default());
            let plan = engine.plan(&q);
            let reference = engine
                .execute(&q, &plan, ExecOptions::unbounded())
                .expect("unbounded execution cannot be interrupted");
            let all: Vec<Vec<NodeId>> = reference.results.iter().cloned().collect();
            for threads in THREADS {
                // Full materialization: the whole answer, same order.
                let full = engine
                    .execute(&q, &plan, exec_options(None, 0, threads))
                    .expect("unbounded execution cannot be interrupted");
                assert_eq!(
                    full.results,
                    reference.results,
                    "seed {seed}, backend {}, {threads} threads: full answer diverged",
                    kind.as_str()
                );
                assert!(!full.truncated);
                assert_eq!(
                    row_counters(&full.stats),
                    row_counters(&reference.stats),
                    "seed {seed}, backend {}, {threads} threads: full-run counters moved",
                    kind.as_str()
                );

                // Every window: the exact slice, the exact truncation flag,
                // and counters that depend on the window alone — the window
                // plus its look-ahead row pulled, the slice emitted, the
                // same matching graph underneath.
                for (offset, limit) in window_cases(all.len()) {
                    let w = engine
                        .execute(&q, &plan, exec_options(Some(limit), offset, threads))
                        .expect("windowed execution cannot be interrupted");
                    let got: Vec<Vec<NodeId>> = w.results.iter().cloned().collect();
                    let expected: Vec<Vec<NodeId>> =
                        all.iter().skip(offset).take(limit).cloned().collect();
                    assert_eq!(
                        got,
                        expected,
                        "seed {seed}, backend {}, {threads} threads: window ({offset}, {limit}) diverged",
                        kind.as_str()
                    );
                    assert_eq!(
                        w.truncated,
                        offset.saturating_add(limit) < all.len(),
                        "seed {seed}, backend {}, {threads} threads: truncation flag wrong for ({offset}, {limit})",
                        kind.as_str()
                    );
                    assert_eq!(
                        row_counters(&w.stats),
                        (
                            (offset + limit + 1).min(all.len()) as u64,
                            expected.len() as u64,
                            reference.stats.intermediate_size
                        ),
                        "seed {seed}, backend {}, {threads} threads: counters wrong for window ({offset}, {limit})",
                        kind.as_str()
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_runs_abort_on_cancellation_and_expired_deadlines() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, 20, seed % 2 == 0);
        let q = random_query(&mut rng);
        for kind in [BackendKind::Closure, BackendKind::ThreeHop] {
            let engine =
                GteaEngine::with_backend(&graph, kind.build_shared(&graph), GteaOptions::default());
            let plan = engine.plan(&q);
            let reference = engine
                .execute(&q, &plan, ExecOptions::unbounded())
                .expect("unbounded execution cannot be interrupted");
            for threads in [2usize, 8] {
                // An already-cancelled token aborts at the first poll, with
                // `Cancelled`.
                let token = CancelToken::new();
                token.cancel();
                let aborted = engine
                    .execute(
                        &q,
                        &plan,
                        ExecOptions {
                            limit: None,
                            offset: 0,
                            ctl: ExecCtl::unbounded().with_cancel(token),
                            threads,
                        },
                    )
                    .expect_err("cancelled run must abort");
                assert_eq!(
                    aborted.interrupt,
                    Interrupt::Cancelled,
                    "seed {seed}, backend {}, {threads} threads",
                    kind.as_str()
                );

                // A deadline that expired before execution started aborts
                // with `Timeout` — the zero-budget path.
                let aborted = engine
                    .execute(
                        &q,
                        &plan,
                        ExecOptions {
                            limit: None,
                            offset: 0,
                            ctl: ExecCtl::unbounded().with_deadline(Instant::now()),
                            threads,
                        },
                    )
                    .expect_err("expired deadline must abort");
                assert_eq!(
                    aborted.interrupt,
                    Interrupt::Timeout,
                    "seed {seed}, backend {}, {threads} threads",
                    kind.as_str()
                );

                // A cancellation racing mid-run against the morsel workers
                // either completes with the exact serial answer or aborts
                // cleanly — and the worker scope always joins.
                let token = CancelToken::new();
                let racer = {
                    let token = token.clone();
                    std::thread::spawn(move || {
                        std::thread::sleep(std::time::Duration::from_micros(
                            // Seed-varied delay so the cancel lands in
                            // different stages across the sweep.
                            10 * (seed % 7),
                        ));
                        token.cancel();
                    })
                };
                let raced = engine.execute(
                    &q,
                    &plan,
                    ExecOptions {
                        limit: None,
                        offset: 0,
                        ctl: ExecCtl::unbounded().with_cancel(token),
                        threads,
                    },
                );
                racer.join().expect("cancelling thread panicked");
                match raced {
                    Ok(exec) => assert_eq!(
                        exec.results,
                        reference.results,
                        "seed {seed}, backend {}, {threads} threads: raced run completed with a wrong answer",
                        kind.as_str()
                    ),
                    Err(aborted) => assert_eq!(
                        aborted.interrupt,
                        Interrupt::Cancelled,
                        "seed {seed}, backend {}, {threads} threads",
                        kind.as_str()
                    ),
                }
            }
        }
    }
}

/// The service-level plumbing: a request's `with_threads` degree reaches the
/// engine without changing any answer, window or flag (the planner's cost
/// gate may serialize these tiny queries — equivalence must hold either way).
#[test]
fn service_requests_are_degree_independent() {
    use std::sync::Arc;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = Arc::new(random_graph(&mut rng, 20, seed % 2 == 0));
        let q = random_query(&mut rng);
        let service = QueryService::with_config(
            Arc::clone(&graph),
            ServiceConfig {
                backend: Some(BackendKind::Closure),
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let serial = service
            .submit(&QueryRequest::query(q.clone()).with_threads(1))
            .expect("serial submit cannot fail");
        for threads in [2usize, 8] {
            let parallel = service
                .submit(
                    &QueryRequest::query(q.clone())
                        .with_threads(threads)
                        .with_limit(3)
                        .with_offset(1),
                )
                .expect("parallel submit cannot fail");
            let expected: Vec<Vec<NodeId>> = serial.rows.iter().skip(1).take(3).cloned().collect();
            let got: Vec<Vec<NodeId>> = parallel.rows.iter().cloned().collect();
            assert_eq!(got, expected, "seed {seed}, {threads} threads");
        }
    }
}
