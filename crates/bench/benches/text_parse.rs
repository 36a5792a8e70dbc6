//! Micro-benchmark of the textual query language front end: tokenising +
//! parsing query texts of growing size, printing the canonical form, and the
//! full parse → display → parse round trip.
//!
//! Parsing sits on the hot path of a textual `QueryService::submit`, so it must
//! stay negligible next to evaluation (microseconds against the engine's
//! milliseconds).  Set `GTPQ_BENCH_QUICK=1` for the CI smoke run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtpq_datagen::random_text_query;
use gtpq_query::{parse_query, Gtpq};

/// Deterministic corpus of canonical query texts around `target` nodes.
fn corpus(target: usize) -> Vec<String> {
    (0..16u64)
        .map(|seed| random_text_query(seed.wrapping_mul(7919) + target as u64, target).to_string())
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("text_parse");
    if std::env::var("GTPQ_BENCH_QUICK").is_ok_and(|v| v != "0") {
        group.sample_size(3);
        group.warm_up_time(std::time::Duration::from_millis(50));
        group.measurement_time(std::time::Duration::from_millis(200));
    } else {
        group.sample_size(20);
        group.warm_up_time(std::time::Duration::from_millis(200));
        group.measurement_time(std::time::Duration::from_millis(600));
    }

    for target in [4usize, 16, 64] {
        let texts = corpus(target);
        let queries: Vec<Gtpq> = texts.iter().map(|t| parse_query(t).unwrap()).collect();
        let total_bytes: usize = texts.iter().map(String::len).sum();
        group.bench_with_input(
            BenchmarkId::new("parse", format!("{target}n/{total_bytes}B")),
            &texts,
            |b, texts| {
                b.iter(|| {
                    texts
                        .iter()
                        .map(|t| parse_query(t).expect("corpus parses").size())
                        .sum::<usize>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("display", format!("{target}n")),
            &queries,
            |b, queries| b.iter(|| queries.iter().map(|q| q.to_string().len()).sum::<usize>()),
        );
        group.bench_with_input(
            BenchmarkId::new("round_trip", format!("{target}n")),
            &queries,
            |b, queries| {
                b.iter(|| {
                    queries
                        .iter()
                        .map(|q| parse_query(&q.to_string()).expect("canonical text").size())
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
