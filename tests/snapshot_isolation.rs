//! Snapshot isolation of in-flight queries over a live graph.
//!
//! A [`GraphHandle`] publishes immutable snapshots; a reader that pinned one
//! (directly, or implicitly by submitting a request to a live
//! [`QueryService`]) must see **exactly** that snapshot's answer, no matter
//! how many epochs a writer commits while the reader is mid-enumeration.
//! Three layers are proven:
//!
//! * the pull-based [`MatchStream`]: rows pulled *after* a commit complete
//!   the pinned snapshot's answer, not the new graph's,
//! * the executor running in parallel with a free-running writer thread:
//!   every execution against the pinned graph is bit-identical to the
//!   pre-mutation answer,
//! * the service: a request answers from the generation it pinned at
//!   submission, a fresh submit after a commit sees the new epoch (no stale
//!   cache hit), and `EvalStats::graph_epoch` reports which generation
//!   answered.

mod common;

use std::sync::Arc;
use std::thread;

use common::random_graph;
use gtpq::datagen::{apply_ops, update_stream, UpdateStreamConfig};
use gtpq::graph::GraphHandle;
use gtpq::prelude::*;
use gtpq::query::naive;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `a0 → {b1, b2, b3}` — the query `a { //b* }` answers three rows.
fn fanout_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_node_with_label("a");
    for _ in 0..3 {
        let v = b.add_node_with_label("b");
        b.add_edge(a, v);
    }
    b.build()
}

fn fanout_query() -> Gtpq {
    parse_query("a { //b* }").expect("query parses")
}

#[test]
fn match_stream_completes_the_pinned_snapshot_answer_across_commits() {
    let handle = GraphHandle::new(fanout_graph());
    let q = fanout_query();

    let snap = handle.snapshot();
    let pinned = naive::evaluate(&q, snap.graph());
    assert_eq!(pinned.len(), 3);

    let engine = GteaEngine::new(snap.graph());
    let plan = Planner::new(snap.graph()).plan(&q);
    let (mut stream, _stats) = engine
        .match_stream(&q, &plan, ExecCtl::unbounded())
        .expect("unbounded stream cannot be interrupted");

    // Pull one row, then mutate and commit twice mid-enumeration.
    let mut rows = Vec::new();
    rows.push(
        stream
            .next_row()
            .unwrap()
            .expect("three rows exist")
            .to_vec(),
    );
    for _ in 0..2 {
        let v = handle.insert_node_with_label("b");
        handle.insert_edge(NodeId(0), v);
        handle.commit();
    }

    // The rest of the stream is still the pinned snapshot's answer.
    while let Some(row) = stream.next_row().unwrap() {
        rows.push(row.to_vec());
    }
    assert_eq!(rows.len(), 3, "stream leaked rows from a newer epoch");
    let mut streamed = ResultSet::new(pinned.output.clone());
    for row in rows {
        streamed.insert(row);
    }
    assert!(streamed.same_answer(&pinned));

    // A fresh snapshot sees both committed inserts.
    let fresh = handle.snapshot();
    assert_eq!(fresh.epoch(), 2);
    assert_eq!(naive::evaluate(&q, fresh.graph()).len(), 5);
}

#[test]
fn parallel_execution_is_isolated_from_a_racing_writer() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_graph(&mut rng, 6..16, seed % 2 == 0);
        let q = parse_query("l0 { //l1* }").expect("query parses");
        let handle = Arc::new(GraphHandle::new(base));

        let snap = handle.snapshot();
        let pinned = naive::evaluate(&q, snap.graph());

        let writer = {
            let handle = Arc::clone(&handle);
            let stream_cfg = UpdateStreamConfig {
                seed,
                epochs: 32,
                ops_per_epoch: 8,
                ..UpdateStreamConfig::default()
            };
            let epochs = update_stream(snap.graph(), &stream_cfg);
            thread::spawn(move || {
                for epoch in &epochs {
                    apply_ops(&handle, epoch);
                    handle.commit();
                }
            })
        };

        // Race the writer: every execution pins the old snapshot's graph and
        // must reproduce the pre-mutation answer bit-for-bit.
        let engine = GteaEngine::new(snap.graph());
        let plan = Planner::new(snap.graph()).plan(&q);
        for _ in 0..10 {
            let exec = engine
                .execute(&q, &plan, ExecOptions::unbounded())
                .expect("unbounded execution cannot be interrupted");
            assert!(
                exec.results.same_answer(&pinned),
                "seed {seed}: an execution racing the writer saw a torn or newer graph"
            );
        }
        writer.join().unwrap();

        // After the dust settles, a fresh snapshot is internally consistent.
        let fresh = handle.snapshot();
        assert_eq!(fresh.epoch(), 32, "seed {seed}: writer lost commits");
        let fresh_engine = GteaEngine::new(fresh.graph());
        let got = fresh_engine.evaluate(&q);
        assert!(got.same_answer(&naive::evaluate(&q, fresh.graph())));
    }
}

#[test]
fn service_requests_pin_their_submission_epoch() {
    let handle = Arc::new(GraphHandle::new(fanout_graph()));
    let service = QueryService::live_with_config(Arc::clone(&handle), ServiceConfig::default());
    let request = QueryRequest::text("a { //b* }").with_stats();

    let cold = service.submit(&request).unwrap();
    assert_eq!(cold.rows.len(), 3);
    assert_eq!(cold.stats.as_ref().unwrap().graph_epoch, 0);

    // A limited request pushes its window down into the pinned snapshot.
    let first = service
        .submit(&QueryRequest::text("a { //b* }").with_limit(1).with_stats())
        .unwrap();
    assert_eq!(first.rows.len(), 1);
    assert_eq!(first.stats.as_ref().unwrap().graph_epoch, 0);

    let v = handle.insert_node_with_label("b");
    handle.insert_edge(NodeId(0), v);
    handle.commit();

    // A fresh submit sees the new epoch: no stale cache hit, one more row,
    // and the stats name the generation that answered.
    let fresh = service.submit(&request).unwrap();
    assert!(
        !fresh.from_cache,
        "stale cache entry served across an epoch"
    );
    assert_eq!(fresh.rows.len(), 4);
    assert_eq!(fresh.stats.as_ref().unwrap().graph_epoch, 1);
    assert_eq!(service.graph_epoch(), 1);
    let oracle = naive::evaluate(&fanout_query(), &service.graph());
    assert_eq!(fresh.rows.len(), oracle.len());
    for row in fresh.rows.iter() {
        assert!(
            oracle.contains(row),
            "row {row:?} not in the rebuild oracle"
        );
    }
}
