//! Mixed read/write workload over a live graph: epoch-commit latency of the
//! incremental maintenance path and service throughput while a writer
//! commits between read batches.
//!
//! A correctness pre-pass runs before any timing: the mutated graph must
//! answer queries exactly like the naive semantic evaluator, and the
//! outcome must report the committed epoch — a benchmark over wrong
//! answers measures nothing.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtpq_bench::workloads::xmark_graph;
use gtpq_datagen::{
    apply_ops, random_queries, update_stream, xmark_q1, xmark_q2, xmark_q3, RandomQueryConfig,
    UpdateOp, UpdateStreamConfig,
};
use gtpq_graph::{DataGraph, GraphHandle};
use gtpq_query::{naive, Gtpq};
use gtpq_service::{QueryRequest, QueryService, ServiceConfig};

fn workload(g: &DataGraph) -> Vec<Gtpq> {
    let mut queries = vec![xmark_q1(0), xmark_q2(0, 3), xmark_q3(0, 3, 7)];
    queries.extend(random_queries(g, &RandomQueryConfig::with_size(4)));
    queries
}

fn requests(queries: &[Gtpq]) -> Vec<QueryRequest> {
    queries
        .iter()
        .map(|q| QueryRequest::query(q.clone()))
        .collect()
}

/// The mutated graph must agree with the naive evaluator and the service
/// must answer for the committed generation.
fn correctness_prepass(base: &DataGraph, epoch_ops: &[UpdateOp], queries: &[Gtpq]) {
    let handle = Arc::new(GraphHandle::new(base.clone()));
    apply_ops(&handle, epoch_ops);
    handle.commit();
    let service = QueryService::live(Arc::clone(&handle));
    for q in queries.iter().take(4) {
        let outcome = service
            .submit(&QueryRequest::query(q.clone()).with_stats())
            .expect("workload is satisfiable");
        let expected = naive::evaluate(q, &service.graph());
        assert!(
            outcome.rows.same_answer(&expected),
            "mutated graph diverged from the naive oracle"
        );
        assert_eq!(outcome.stats.expect("stats requested").graph_epoch, 1);
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixed_workload");
    if std::env::var("GTPQ_BENCH_QUICK").is_ok_and(|v| v != "0") {
        group.sample_size(3);
        group.warm_up_time(std::time::Duration::from_millis(50));
        group.measurement_time(std::time::Duration::from_millis(200));
    } else {
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_millis(800));
    }

    let base = xmark_graph(0.3);
    let queries = workload(&base);
    let reqs = requests(&queries);
    let epoch_ops = update_stream(
        &base,
        &UpdateStreamConfig {
            seed: 11,
            epochs: 1,
            ops_per_epoch: 256,
            ..UpdateStreamConfig::default()
        },
    )
    .remove(0);

    correctness_prepass(&base, &epoch_ops, &queries);

    // Commit latency of one 256-op epoch: sorted-run merges into the CSR and
    // the inverted index, plus the condensation patch or re-run.
    group.bench_with_input(
        BenchmarkId::new("epoch_commit", "incremental"),
        &epoch_ops,
        |b, ops| {
            b.iter(|| {
                let handle = GraphHandle::new(base.clone());
                apply_ops(&handle, ops);
                handle.commit()
            })
        },
    );

    // Read-only reference over a live (but quiescent) service: the cost of
    // the generation bookkeeping alone, cache disabled so every request
    // runs the engine.
    let read_handle = Arc::new(GraphHandle::new(base.clone()));
    let read_service = QueryService::live_with_config(
        Arc::clone(&read_handle),
        ServiceConfig {
            threads: 4,
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    group.bench_with_input(
        BenchmarkId::new("read_batch", "quiescent"),
        &reqs,
        |b, reqs| b.iter(|| read_service.submit_batch(reqs)),
    );

    // The mixed case: every iteration commits one 32-op epoch, then a
    // 4-thread batch of reads answers over the fresh generation (rotation
    // and cache invalidation included; the engine reads the commit's
    // maintained condensation, so no reachability index is built).
    let write_epochs = update_stream(
        &base,
        &UpdateStreamConfig {
            seed: 12,
            epochs: 256,
            ops_per_epoch: 32,
            ..UpdateStreamConfig::default()
        },
    );
    let mixed_handle = Arc::new(GraphHandle::new(base.clone()));
    let mixed_service = QueryService::live_with_config(
        Arc::clone(&mixed_handle),
        ServiceConfig {
            threads: 4,
            ..ServiceConfig::default()
        },
    );
    let mut next = 0usize;
    group.bench_with_input(
        BenchmarkId::new("read_batch", "after_commit"),
        &reqs,
        |b, reqs| {
            b.iter(|| {
                // Wrapping re-applies old ops; their node ids still exist,
                // so the replay stays valid as the graph grows.
                apply_ops(&mixed_handle, &write_epochs[next % write_epochs.len()]);
                next += 1;
                mixed_handle.commit();
                mixed_service.submit_batch(reqs)
            })
        },
    );

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
