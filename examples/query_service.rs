//! The service layer: share one graph across many queries, serve them from
//! several threads calling `submit` on one service, and watch the cache work.
//!
//! Run with `cargo run --release --example query_service`.

use std::sync::Arc;

use gtpq::datagen::{generate_xmark, random_queries, xmark_q1, RandomQueryConfig, XmarkConfig};
use gtpq::prelude::*;

/// Submits every request from its own scoped thread, all sharing `service`;
/// returns the total number of rows answered.  Each request keeps its own
/// outcome (rows, truncation, stats) and runs serially on its thread.
fn serve(service: &QueryService, requests: &[QueryRequest]) -> usize {
    std::thread::scope(|scope| {
        let threads: Vec<_> = requests
            .iter()
            .map(|r| scope.spawn(move || service.submit(r).map_or(0, |o| o.len())))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("request thread panicked"))
            .sum()
    })
}

fn main() {
    let graph = Arc::new(generate_xmark(&XmarkConfig::with_scale(0.1)));
    println!(
        "XMark-like graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // Every request answers on the SCC condensation the graph carries: the
    // service builds no reachability index for default-option queries.
    let service = QueryService::with_config(Arc::clone(&graph), ServiceConfig::default());

    // A mixed workload: one of the paper's XMark queries plus random
    // patterns sampled from the graph itself.
    let mut queries = vec![xmark_q1(0)];
    queries.extend(random_queries(&graph, &RandomQueryConfig::with_size(4)));
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::query(q.clone()))
        .collect();

    // Cold: every request runs the full GTEA pipeline.
    let tuples = serve(&service, &requests);
    println!(
        "cold pass: {} requests, one thread each, {tuples} total tuples",
        requests.len()
    );

    // Warm: the same requests are answered from the result cache.
    serve(&service, &requests);

    let m = service.metrics();
    println!(
        "metrics: {} queries, hit rate {:.0}%, {:.0} q/s",
        m.queries,
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
    // At least the whole warm pass hits; equivalent random queries inside
    // the cold pass can add more.
    assert!(m.cache_hits >= queries.len() as u64);
}
