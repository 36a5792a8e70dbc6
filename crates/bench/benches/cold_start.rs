//! Cold start to first query row: zero-copy vs verified snapshot load.
//!
//! The scenario is a process that owns no graph yet and must answer one
//! query: load an arXiv-tier dataset from disk, stand up a service and
//! stream the first result row.  Two load paths compete:
//!
//! * `mmap` — map the `.gtpq` binary snapshot and serve every big run
//!   straight from the mapping: start-up is O(page-fault),
//! * `heap` — read the same snapshot into an aligned heap buffer with full
//!   checksum verification (the portable fallback).
//!
//! A correctness pre-pass runs before any timing: the snapshot written by
//! the streamed writer must load to exactly the graph the in-memory
//! generator builds, and both paths must return the same first row — a
//! benchmark over divergent answers measures nothing.  After timing, the
//! bench reports the resident-set delta of one mapped load vs one heap
//! load (Linux only), making the "index pages stay on disk until touched"
//! claim visible.
//!
//! The dataset tier defaults to `ArxivConfig::tier(10)` (~95k nodes) and
//! can be raised with `GTPQ_COLD_TIER=100` (~950k nodes) for baseline
//! recording; `GTPQ_BENCH_QUICK` drops to the small unit-test config.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtpq_datagen::{generate_arxiv, write_arxiv_snapshot, ArxivConfig};
use gtpq_graph::GraphSnapshot;
use gtpq_reach::BackendKind;
use gtpq_service::{QueryRequest, QueryService, ServiceConfig};

/// The probe query: a selective indexed label equality with `limit 1`
/// pushed down — answered entirely from the inverted index, so the measured
/// time is dominated by *loading*, not matching, and the lazy attribute
/// columns of a mapped snapshot are never materialized.  (`paper3` exists
/// at every datagen tier.)
fn first_row_request() -> QueryRequest {
    QueryRequest::text("[label = paper3]*").with_limit(1)
}

/// Service configuration shared by every path: the backend is pinned to
/// SSPI — the cheapest build at O(V+E).  The service builds it only for the
/// pairwise arm (`GteaOptions::without_contours`), which these default
/// options never take: neither path pays an index construction before its
/// first row.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        backend: Some(BackendKind::Sspi),
        ..ServiceConfig::default()
    }
}

/// Cold start from the binary snapshot in the given mode.
fn first_row_from_snapshot(path: &std::path::Path, mmap: bool) -> usize {
    let snapshot = if mmap {
        GraphSnapshot::open_mmap(path)
    } else {
        GraphSnapshot::open_heap(path)
    }
    .expect("snapshot loads");
    let service = QueryService::from_snapshot(Arc::new(snapshot), service_config());
    let outcome = service
        .submit(&first_row_request())
        .expect("probe query runs");
    outcome.rows.len()
}

/// Resident-set size in bytes from `/proc/self/statm`; `None` off Linux.
fn resident_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Both load paths must answer the probe identically, and the heap load
/// (full verification) must reconstruct exactly the generated graph.
fn correctness_prepass(config: &ArxivConfig, snap_path: &std::path::Path) {
    let loaded = GraphSnapshot::open_heap(snap_path).expect("snapshot loads verified");
    assert_eq!(
        *loaded.graph().as_ref(),
        generate_arxiv(config),
        "snapshot diverged from the generated graph"
    );
    let request = first_row_request();
    let [mapped, heap] = [
        GraphSnapshot::open_mmap(snap_path).expect("snapshot maps"),
        loaded,
    ]
    .map(|snapshot| {
        QueryService::from_snapshot(Arc::new(snapshot), service_config())
            .submit(&request)
            .expect("snapshot path answers")
    });
    assert_eq!(mapped.rows.output, heap.rows.output);
    assert_eq!(mapped.rows.tuples, heap.rows.tuples);
    assert!(!mapped.rows.is_empty(), "probe query must match data");
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("GTPQ_BENCH_QUICK").is_ok_and(|v| v != "0");
    let mut group = c.benchmark_group("cold_start");
    let (config, tier) = if quick {
        group.sample_size(3);
        group.warm_up_time(std::time::Duration::from_millis(50));
        group.measurement_time(std::time::Duration::from_millis(300));
        (ArxivConfig::small(), "small".to_owned())
    } else {
        group.sample_size(5);
        group.warm_up_time(std::time::Duration::from_millis(100));
        group.measurement_time(std::time::Duration::from_secs(60));
        let scale: u32 = std::env::var("GTPQ_COLD_TIER")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10);
        (ArxivConfig::tier(scale), format!("tier{scale}"))
    };

    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("gtpq-cold-start-{}.gtpq", std::process::id()));

    // The snapshot comes from the streamed writer (never materializes the
    // graph).
    let stats = write_arxiv_snapshot(&config, &snap_path).expect("streamed snapshot write");
    let snap_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "cold_start/{tier}: {} nodes, {} edges; snapshot {snap_bytes} bytes",
        stats.nodes, stats.edges
    );

    correctness_prepass(&config, &snap_path);

    group.bench_with_input(BenchmarkId::new("first_row", "mmap"), &(), |b, ()| {
        b.iter(|| first_row_from_snapshot(&snap_path, true))
    });
    group.bench_with_input(BenchmarkId::new("first_row", "heap"), &(), |b, ()| {
        b.iter(|| first_row_from_snapshot(&snap_path, false))
    });

    // Resident-set delta of one cold load per path (informational; the
    // mapped load should grow RSS by the touched pages only).
    if let Some(before) = resident_bytes() {
        let rows = first_row_from_snapshot(&snap_path, true);
        let after_mmap = resident_bytes().unwrap_or(before);
        assert_eq!(rows, 1);
        let rows = first_row_from_snapshot(&snap_path, false);
        let after_heap = resident_bytes().unwrap_or(after_mmap);
        assert_eq!(rows, 1);
        println!(
            "cold_start/{tier}: rss delta mmap {} KiB, heap {} KiB",
            after_mmap.saturating_sub(before) / 1024,
            after_heap.saturating_sub(after_mmap) / 1024,
        );
    }

    std::fs::remove_file(&snap_path).ok();
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
