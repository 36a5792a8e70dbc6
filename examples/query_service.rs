//! The service layer: share one graph across many queries, fan a batch out
//! over the worker pool, and watch the cache work.
//!
//! Run with `cargo run --release --example query_service`.

use std::sync::Arc;

use gtpq::datagen::{generate_xmark, random_queries, xmark_q1, RandomQueryConfig, XmarkConfig};
use gtpq::prelude::*;

fn main() {
    let graph = Arc::new(generate_xmark(&XmarkConfig::with_scale(0.1)));
    println!(
        "XMark-like graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // Every request answers on the SCC condensation the graph carries: the
    // service builds no reachability index for default-option queries.
    let service = QueryService::new(Arc::clone(&graph));

    // A mixed workload: one of the paper's XMark queries plus random
    // patterns sampled from the graph itself.
    let mut queries = vec![xmark_q1(0)];
    queries.extend(random_queries(&graph, &RandomQueryConfig::with_size(4)));

    // Cold: every request runs the full GTEA pipeline, fanned out over the
    // worker pool; each keeps its own outcome (rows, truncation, stats).
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::query(q.clone()))
        .collect();
    let cold = service.submit_batch(&requests);
    println!(
        "cold batch: {} requests, {} total tuples",
        requests.len(),
        cold.iter()
            .map(|r| r.as_ref().map(|o| o.len()).unwrap_or(0))
            .sum::<usize>()
    );

    // Warm: the same batch is answered from the result cache.
    service.submit_batch(&requests);

    let m = service.metrics();
    println!(
        "metrics: {} queries in {} batches, hit rate {:.0}%, {:.0} q/s",
        m.queries,
        m.batches,
        100.0 * m.hit_rate(),
        m.qps()
    );
    println!(
        "engine time {:?} (candidates {:?}, pruning {:?}, matching {:?}, enumeration {:?})",
        m.eval_time,
        m.stages.candidates.sum_duration(),
        m.stages.prune_down.sum_duration() + m.stages.prune_up.sum_duration(),
        m.stages.matching.sum_duration(),
        m.stages.enumerate.sum_duration()
    );
    // At least the whole warm batch hits; equivalent random queries inside
    // the cold batch can add more.
    assert!(m.cache_hits >= queries.len() as u64);
    assert_eq!(m.index_builds, 0, "no request needed a reachability index");
    println!("index builds: {}", m.index_builds);
}
