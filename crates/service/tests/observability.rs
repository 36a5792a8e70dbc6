//! End-to-end observability tests at the service boundary: span-tree
//! structure and timing, Chrome `trace_event` JSON round-tripping through
//! the crate's own parser, Prometheus text well-formedness, slow-query-log
//! capture, aborted-run accounting and live reads across commits.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gtpq_core::GteaOptions;
use gtpq_datagen::{
    apply_ops, fig11_gtpq, generate_xmark, update_stream, xmark_q1, xmark_q2, xmark_q3,
    Fig11Predicate, UpdateStreamConfig, XmarkConfig,
};
use gtpq_graph::GraphHandle;
use gtpq_query::fixtures::{example_graph, example_query};
use gtpq_query::naive;
use gtpq_reach::BackendKind;
use gtpq_service::{QueryError, QueryRequest, QueryService, ServiceConfig, SlowOutcome};

fn service() -> QueryService {
    QueryService::with_config(Arc::new(example_graph()), ServiceConfig::default())
}

#[test]
fn traced_stage_spans_nest_and_sum_to_the_request() {
    let svc = service();
    let started = Instant::now();
    let outcome = svc
        .submit(
            &QueryRequest::query(example_query())
                .with_trace()
                .with_stats(),
        )
        .unwrap();
    let elapsed = started.elapsed();
    let trace = outcome.trace.expect("requested a trace");

    let root = trace.root().expect("request root span");
    assert_eq!(root.name, "request");
    // The root span covers (almost) the whole submit, and never more than
    // the latency observed around it.
    assert!(root.dur <= elapsed, "{:?} > {elapsed:?}", root.dur);

    // Every span nests under the root, directly or transitively.
    for span in &trace.spans {
        let mut at = span;
        while let Some(parent) = at.parent {
            at = &trace.spans[parent];
        }
        assert_eq!(
            at.name, "request",
            "{} must descend from the root",
            span.name
        );
    }

    // The engine stages run sequentially, so the direct children of the
    // root sum to no more than the root's own duration.
    let child_sum: Duration = trace.children_of(0).map(|s| s.dur).sum();
    assert!(
        child_sum <= root.dur + Duration::from_micros(50),
        "children sum {child_sum:?} exceeds root {:?}",
        root.dur
    );
    for stage in ["plan", "candidates", "prune_down", "prune_up", "matching"] {
        let span = trace.span(stage).unwrap_or_else(|| panic!("span {stage}"));
        assert_eq!(span.parent, Some(0), "{stage} nests under the root");
        assert!(span.dur <= root.dur);
    }
}

#[test]
fn chrome_trace_json_round_trips_through_a_parser() {
    let svc = service();
    let outcome = svc
        .submit(&QueryRequest::query(example_query()).with_trace())
        .unwrap();
    let trace = outcome.trace.expect("requested a trace");
    let json = trace.to_chrome_json();

    let value = gtpq_obs::json::parse(&json).expect("well-formed JSON");
    let events = value
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), trace.spans.len());
    for event in events {
        assert_eq!(event.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert!(event.get("ts").and_then(|t| t.as_f64()).is_some());
        assert!(event.get("dur").and_then(|d| d.as_f64()).is_some());
        assert!(event.get("name").and_then(|n| n.as_str()).is_some());
    }
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for expected in ["request", "plan", "candidates", "matching"] {
        assert!(names.contains(&expected), "{expected} missing: {names:?}");
    }
}

#[test]
fn prometheus_page_is_well_formed_after_traffic() {
    let svc = service();
    let request = QueryRequest::query(example_query());
    svc.submit(&request).unwrap(); // miss
    svc.submit(&request).unwrap(); // hit
    let page = svc.metrics().render_prometheus();

    // Every non-comment line is `name{labels} value` with a numeric value.
    for line in page
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line: {line}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "non-numeric value in: {line}"
        );
    }
    assert!(page.contains("# TYPE gtpq_queries_total counter"), "{page}");
    assert!(page.contains("gtpq_cache_hits_total 1"), "{page}");
    assert!(page.contains("gtpq_cache_misses_total 1"), "{page}");
    assert!(
        page.contains("gtpq_request_latency_seconds_bucket{le=\"+Inf\"} 2"),
        "{page}"
    );
    assert!(
        page.contains("gtpq_stage_seconds_bucket{stage=\"candidates\""),
        "{page}"
    );
}

#[test]
fn slow_query_log_captures_text_and_plan_at_the_service_level() {
    let svc = QueryService::with_config(
        Arc::new(example_graph()),
        ServiceConfig {
            slow_query_threshold: Some(Duration::ZERO),
            ..ServiceConfig::default()
        },
    );
    svc.submit(&QueryRequest::text("a1 { //d1* }")).unwrap();
    let entries = svc.slow_queries();
    assert_eq!(entries.len(), 1);
    let entry = &entries[0];
    assert!(entry.query.contains("a1"), "{}", entry.query);
    assert!(matches!(
        entry.outcome,
        SlowOutcome::Completed { rows, .. } if rows > 0
    ));
    let plan = entry.plan.as_deref().expect("executed plan recorded");
    assert!(plan.contains("actual"), "{plan}");
}

#[test]
fn aborted_runs_keep_latency_and_stage_accounting_separate() {
    let svc = service();
    let err = svc
        .submit(&QueryRequest::query(example_query()).with_deadline(Duration::ZERO))
        .unwrap_err();
    assert!(matches!(err, QueryError::Timeout { .. }));
    let m = svc.metrics();
    assert_eq!(m.aborted, 1);
    assert_eq!(m.timed_out, 1);
    assert_eq!(m.cache_misses, 0, "an aborted run is not a completed miss");
    assert_eq!(m.latency.count, 1, "the latency histogram sees every exit");
    assert_eq!(m.ttfr.count, 0, "no row was ever produced");
    // The aborted engine time is tracked, and never pollutes `eval_time`.
    assert_eq!(m.eval_time, Duration::ZERO);
}

#[test]
fn latency_and_ttfr_percentiles_surface_through_submit() {
    let svc = service();
    for _ in 0..4 {
        svc.submit(&QueryRequest::query(example_query()).with_bypass_cache())
            .unwrap();
    }
    let m = svc.metrics();
    assert_eq!(m.latency.count, 4);
    assert!(m.latency_percentile(0.5) > Duration::ZERO);
    assert!(m.latency_percentile(0.5) <= m.latency_percentile(0.99));
    // The example query streams rows, so time-to-first-row was sampled.
    assert_eq!(m.ttfr.count, 4);
    assert!(m.ttfr_percentile(0.5) <= m.latency_percentile(0.999));
}

#[test]
fn live_reads_answer_like_the_naive_evaluator_across_commits() {
    // `xmark_live` in miniature: a live handle, and per cycle one 32-op
    // epoch, its commit, then the workload's eleven read shapes (Q1-Q3, the
    // conjunctive query, DIS1-3, NEG1-3, DIS_NEG1) — once unpinned, as the
    // CLI serves `:ingest`, and once with 3-hop pinned.
    let base = generate_xmark(&XmarkConfig::with_scale(0.1));
    let stream = UpdateStreamConfig {
        seed: 42,
        epochs: 5,
        ops_per_epoch: 32,
        ..UpdateStreamConfig::default()
    };
    let epochs = update_stream(&base, &stream);
    let mut reads = vec![
        xmark_q1(1),
        xmark_q2(1, 2),
        xmark_q3(1, 2, 3),
        fig11_gtpq(Fig11Predicate::Conjunctive, 1, 2),
    ];
    let variants = Fig11Predicate::table4_suite().into_iter().take(7);
    reads.extend(variants.map(|(_, variant)| fig11_gtpq(variant, 1, 2)));
    assert_eq!(reads.len(), 11);

    let pinned = |options| ServiceConfig {
        backend: Some(BackendKind::ThreeHop),
        options,
        ..ServiceConfig::default()
    };
    for (name, config) in [
        ("unpinned", ServiceConfig::default()),
        ("pinned", pinned(GteaOptions::default())),
    ] {
        let handle = Arc::new(GraphHandle::new(base.clone()));
        let svc = QueryService::live_with_config(Arc::clone(&handle), config);
        for (cycle, epoch) in epochs.iter().enumerate() {
            apply_ops(&handle, epoch);
            handle.commit();
            // The oracle reads the committed graph from scratch: no index, no
            // condensation, no state carried over from the previous epoch.
            let graph = svc.graph();
            for q in &reads {
                let outcome = svc.submit(&QueryRequest::query(q.clone())).unwrap();
                assert!(!outcome.from_cache, "a commit empties the result cache");
                assert_eq!(
                    *outcome.rows,
                    naive::evaluate(q, &graph),
                    "{name}, cycle {cycle}: {q}"
                );
            }
        }
        let m = svc.metrics();
        assert_eq!((m.epoch_rotations, m.cache_misses), (5, 55), "{name}");
        assert!(
            m.index_lookups > 0,
            "{name}: the reads swept the condensation"
        );
        assert!(svc.built_backends().is_empty(), "{name}");
    }

    // The pairwise arm probes the condensation pair by pair, on the
    // committed generation too.
    let handle = Arc::new(GraphHandle::new(base));
    let config = pinned(GteaOptions::pairwise());
    let pairwise = QueryService::live_with_config(Arc::clone(&handle), config);
    for q in &reads[..2] {
        let outcome = pairwise.submit(&QueryRequest::query(q.clone())).unwrap();
        assert_eq!(*outcome.rows, naive::evaluate(q, &pairwise.graph()));
    }
    apply_ops(&handle, &epochs[0]);
    handle.commit();
    let q = &reads[2];
    let outcome = pairwise.submit(&QueryRequest::query(q.clone())).unwrap();
    assert_eq!(*outcome.rows, naive::evaluate(q, &pairwise.graph()));
}
