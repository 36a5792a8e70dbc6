//! Concurrency tests for the query service: answers under concurrent load
//! must be identical to single-threaded evaluation, and the cache-hit path
//! must hand out the same result set as the cold path.  Concurrency is
//! scoped threads calling `submit` on one shared service.

use std::sync::Arc;

use gtpq::datagen::{generate_xmark, XmarkConfig};
use gtpq::datagen::{random_queries, xmark_q1, xmark_q2, xmark_q3, RandomQueryConfig};
use gtpq::prelude::*;
use gtpq::query::fixtures::{example_graph, example_query};
use gtpq::query::naive;
use gtpq::service::{QueryOutcome, QueryRequest};

/// Submits one query through the request API and unwraps the rows.
fn submit_rows(service: &QueryService, q: &Gtpq) -> Arc<ResultSet> {
    service
        .submit(&QueryRequest::query(q.clone()))
        .expect("workload queries are satisfiable")
        .rows
}

/// Serves `requests` from `threads` scoped threads calling `submit` on one
/// shared service, each taking one contiguous share; the outcomes come back
/// in request order.
fn submit_on_threads(
    service: &QueryService,
    requests: &[QueryRequest],
    threads: usize,
) -> Vec<QueryOutcome> {
    let submit = |r| service.submit(r).expect("workload queries evaluate");
    std::thread::scope(|scope| {
        let workers: Vec<_> = requests
            .chunks(requests.len().div_ceil(threads))
            .map(|share| scope.spawn(move || share.iter().map(submit).collect::<Vec<_>>()))
            .collect();
        let joined = workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"));
        joined.flatten().collect()
    })
}

/// A mixed workload over the running-example graph: the paper's example
/// query plus label point-lookups and descendant probes, some of them
/// deliberately repeated so threads race on the cache.
fn fixture_workload() -> Vec<Gtpq> {
    let mut queries = vec![example_query()];
    for label in ["a1", "b1", "c1", "d1", "e1", "f1", "g1"] {
        let mut b = GtpqBuilder::new(AttrPredicate::label(label));
        let root = b.root_id();
        b.mark_output(root);
        queries.push(b.build().unwrap());
        let mut b = GtpqBuilder::new(AttrPredicate::label("a1"));
        let root = b.root_id();
        let child = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label(label));
        b.mark_output(child);
        queries.push(b.build().unwrap());
    }
    let repeats: Vec<Gtpq> = queries.iter().take(4).cloned().collect();
    queries.extend(repeats);
    queries
}

#[test]
fn n_threads_of_mixed_queries_match_single_threaded_naive() {
    let graph = Arc::new(example_graph());
    let service = Arc::new(QueryService::with_config(
        Arc::clone(&graph),
        ServiceConfig::default(),
    ));
    let queries = Arc::new(fixture_workload());
    let threads = 8;
    let answers: Vec<Vec<Arc<ResultSet>>> = std::thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let service = Arc::clone(&service);
                let queries = Arc::clone(&queries);
                scope.spawn(move || {
                    // Each thread walks the workload from a different offset
                    // so different queries are in flight at the same time.
                    (0..queries.len())
                        .map(|i| submit_rows(&service, &queries[(i + t) % queries.len()]))
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    });
    let expected: Vec<ResultSet> = queries.iter().map(|q| naive::evaluate(q, &graph)).collect();
    for (t, per_thread) in answers.iter().enumerate() {
        for (i, got) in per_thread.iter().enumerate() {
            let q = (i + t) % queries.len();
            assert!(
                got.same_answer(&expected[q]),
                "thread {t}, query {q}: concurrent answer diverged from naive"
            );
        }
    }
    let metrics = service.metrics();
    assert_eq!(metrics.queries, (threads * queries.len()) as u64);
    assert!(
        metrics.cache_hits > 0,
        "repeated queries must hit the cache"
    );
}

#[test]
fn batch_over_four_threads_matches_sequential_on_xmark() {
    let graph = Arc::new(generate_xmark(&XmarkConfig::with_scale(0.05)));
    let mut queries = vec![xmark_q1(0), xmark_q2(0, 3), xmark_q3(0, 3, 7)];
    queries.extend(random_queries(&graph, &RandomQueryConfig::with_size(4)));
    assert!(
        queries.len() > 10,
        "workload should mix fixed and random queries"
    );

    // Sequential reference: a cache-less service on this thread.
    let sequential = QueryService::with_config(
        Arc::clone(&graph),
        ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    let expected: Vec<Arc<ResultSet>> = queries
        .iter()
        .map(|q| submit_rows(&sequential, q))
        .collect();

    let service = QueryService::with_config(Arc::clone(&graph), ServiceConfig::default());
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::query(q.clone()))
        .collect();
    let cold = submit_on_threads(&service, &requests, 4);
    assert_eq!(cold.len(), expected.len());
    for ((q, got), want) in queries.iter().zip(&cold).zip(&expected) {
        assert!(
            got.rows.same_answer(want),
            "concurrent answer diverged from sequential for {q:?}"
        );
    }
    // The same requests again: answers unchanged, everything served from
    // the cache.
    let hits_before = service.metrics().cache_hits;
    let warm = submit_on_threads(&service, &requests, 4);
    for (got, want) in warm.iter().zip(&expected) {
        assert!(got.rows.same_answer(want));
        assert!(got.from_cache);
    }
    assert!(service.metrics().cache_hits >= hits_before + queries.len() as u64);
}

#[test]
fn oversubscribed_batch_of_broad_queries_stays_exact() {
    // Contention stress: a thread per request, twelve threads racing on one
    // shared plan cache.  Broad queries (any-label children under wide
    // descendant fans) make every request do real prune and matching work;
    // the assertion is the strongest one available: every request returns
    // *exactly* the rows a one-thread service returns, and every worker
    // joins (no deadlock, no panic in a worker).
    let graph = Arc::new(generate_xmark(&XmarkConfig::with_scale(0.15)));
    let mut queries = Vec::new();
    for label in ["item", "person", "bidder", "category"] {
        let mut b = GtpqBuilder::new(AttrPredicate::label(label));
        let root = b.root_id();
        let child = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::any());
        b.mark_output(root);
        b.mark_output(child);
        queries.push(b.build().unwrap());
    }
    // Triplicate so identical broad queries race each other too.
    let workload: Vec<Gtpq> = queries
        .iter()
        .cycle()
        .take(queries.len() * 3)
        .cloned()
        .collect();
    let requests: Vec<QueryRequest> = workload
        .iter()
        .map(|q| QueryRequest::query(q.clone()).with_limit(25).with_offset(3))
        .collect();
    let cacheless = || {
        QueryService::with_config(
            Arc::clone(&graph),
            ServiceConfig {
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        )
    };

    // Sequential reference: one thread.
    let expected = submit_on_threads(&cacheless(), &requests, 1);
    let oversubscribed = submit_on_threads(&cacheless(), &requests, requests.len());
    assert_eq!(oversubscribed.len(), expected.len());
    for (i, (got, want)) in oversubscribed.iter().zip(&expected).enumerate() {
        assert_eq!(
            got.rows, want.rows,
            "request {i}: oversubscribed workers diverged from serial"
        );
        assert_eq!(got.truncated, want.truncated, "request {i}");
    }
}

#[test]
fn one_writer_eight_readers_never_see_torn_or_stale_answers() {
    // A live service over `a0 → {b1, b2, b3}`; the writer commits EPOCHS
    // epochs, each appending one more `b` child of `a0`.  That makes the
    // oracle *per epoch* deterministic: at epoch `e` the query `a { //b* }`
    // has exactly `3 + e` rows.  Eight reader threads hammer `submit` the
    // whole time; every outcome must be internally consistent — the row
    // count must match the generation the outcome claims to have answered
    // for (`EvalStats::graph_epoch`).  A torn read (rows from one epoch,
    // index or cache entry from another) or a stale cache hit served across
    // a commit breaks that equation.
    use gtpq::graph::GraphHandle;

    const EPOCHS: u64 = 24;
    const READERS: usize = 8;
    const ROUNDS: usize = 30;

    let mut b = GraphBuilder::new();
    let a = b.add_node_with_label("a");
    for _ in 0..3 {
        let v = b.add_node_with_label("b");
        b.add_edge(a, v);
    }
    let handle = Arc::new(GraphHandle::new(b.build()));
    let service = Arc::new(QueryService::live_with_config(
        Arc::clone(&handle),
        ServiceConfig::default(),
    ));

    std::thread::scope(|scope| {
        let writer = {
            let handle = Arc::clone(&handle);
            scope.spawn(move || {
                for _ in 0..EPOCHS {
                    let v = handle.insert_node_with_label("b");
                    handle.insert_edge(NodeId(0), v);
                    handle.commit();
                }
            })
        };
        for reader in 0..READERS {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                let full = QueryRequest::text("a { //b* }").with_stats();
                let limited = QueryRequest::text("a { //b* }").with_limit(2).with_stats();
                let mut last_epoch = 0u64;
                let mut last_gauge = 0u64;
                for round in 0..ROUNDS {
                    let full_out = service.submit(&full).expect("query evaluates");
                    let e = full_out.stats.as_ref().unwrap().graph_epoch;
                    assert!(e <= EPOCHS, "reader {reader}: impossible epoch {e}");
                    assert_eq!(
                        full_out.rows.len() as u64,
                        3 + e,
                        "reader {reader} round {round}: rows disagree with the \
                         epoch the outcome claims (torn read or stale cache hit)"
                    );
                    let limited_out = service.submit(&limited).expect("query evaluates");
                    assert_eq!(limited_out.rows.len(), 2);
                    let limited_e = limited_out.stats.as_ref().unwrap().graph_epoch;
                    assert!(limited_e <= EPOCHS, "reader {reader}: impossible epoch");

                    // Epochs a single reader observes never move backwards:
                    // its requests pin one after the other.
                    assert!(
                        e >= last_epoch && limited_e >= e,
                        "reader {reader} round {round}: epoch went backwards"
                    );
                    last_epoch = limited_e;

                    // The exported gauge is monotone under the writer too.
                    let gauge = service.metrics().graph_epoch;
                    assert!(gauge >= last_gauge, "reader {reader}: gauge regressed");
                    last_gauge = gauge;
                }
            });
        }
        writer.join().expect("writer panicked");
    });

    // Quiesced: a final submit answers for the last epoch with all rows.
    let settled = service
        .submit(&QueryRequest::text("a { //b* }").with_stats())
        .unwrap();
    assert_eq!(settled.stats.as_ref().unwrap().graph_epoch, EPOCHS);
    assert_eq!(settled.rows.len() as u64, 3 + EPOCHS);
    let metrics = service.metrics();
    assert_eq!(metrics.graph_epoch, EPOCHS);
    assert!(metrics.epoch_rotations >= 1 && metrics.epoch_rotations <= EPOCHS);
}

#[test]
fn cache_hit_path_returns_the_same_result_set_as_cold() {
    let service = Arc::new(QueryService::with_config(
        Arc::new(example_graph()),
        ServiceConfig::default(),
    ));
    let q = example_query();
    let cold = submit_rows(&service, &q);
    // Warm hits from many threads at once: all must be the very same set.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let service = Arc::clone(&service);
            let q = q.clone();
            let cold = Arc::clone(&cold);
            scope.spawn(move || {
                let warm = submit_rows(&service, &q);
                assert!(
                    Arc::ptr_eq(&warm, &cold),
                    "cache hit must return the cold result set, not a copy"
                );
            });
        }
    });
    assert_eq!(service.metrics().cache_hits, 8);
    assert_eq!(service.metrics().cache_misses, 1);
}
