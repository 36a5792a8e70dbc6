//! Ablation of GTEA's design decisions (upward pruning, set-at-a-time vs
//! pairwise AD pruning on the paper's 3-hop index, prime-subtree shrinking)
//! plus HGJoin+ vs HGJoin* — the graph-vs-tuple intermediate representation
//! comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtpq_baselines::{HgJoin, TpqAlgorithm};
use gtpq_bench::workloads::xmark_graph;
use gtpq_core::{GteaEngine, GteaOptions};
use gtpq_datagen::xmark_q3;
use gtpq_reach::ThreeHop;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    let g = xmark_graph(1.0);
    let q = xmark_q3(0, 3, 7);
    let three_hop = ThreeHop::new(&g);
    for (name, options) in [
        ("full", GteaOptions::default()),
        ("no-upward-pruning", GteaOptions::without_upward_pruning()),
        ("pairwise-pruning", GteaOptions::without_contours()),
        ("no-shrinking", GteaOptions::without_shrinking()),
    ] {
        let engine = GteaEngine::with_backend(&g, &three_hop, options);
        group.bench_with_input(BenchmarkId::new("GTEA", name), &q, |b, q| {
            b.iter(|| engine.evaluate(q))
        });
    }
    let plus = HgJoin::tuple_based(&g);
    let star = HgJoin::graph_based(&g);
    group.bench_with_input(BenchmarkId::new("HGJoin", "tuple"), &q, |b, q| {
        b.iter(|| plus.evaluate(q))
    });
    group.bench_with_input(BenchmarkId::new("HGJoin", "graph"), &q, |b, q| {
        b.iter(|| star.evaluate(q))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
