//! The textual query language end to end: parse a query from a string,
//! inspect its tree, evaluate it through the service, and see what a parse
//! error diagnostic looks like.
//!
//! Run with `cargo run --release --example query_text`.
//! Full language reference: `docs/QUERY_LANGUAGE.md`.

use std::sync::Arc;

use gtpq::datagen::generate_dblp;
use gtpq::prelude::*;

fn main() {
    let graph = Arc::new(generate_dblp(240, 42));
    let service = QueryService::with_config(Arc::clone(&graph), ServiceConfig::default());
    println!(
        "DBLP-like graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // Example 1 of the paper, written as text: papers with an Alice author
    // but no Bob co-author, returning the title node.
    let text = r#"
        inproceedings {
            / [label = title] as title*
            where (/ [label = author, value = Alice])
                & !(/ [label = author, value = Bob])
        }
    "#;

    // Strings parse into the same `Gtpq` the builder API produces.
    let query: Gtpq = text.parse().expect("query parses");
    println!("\nparsed tree:\n{}", query.to_pretty_string());
    println!("\ncanonical one-liner:\n{query}");

    // `submit` with text = parse + canonical cache key + evaluate.
    let outcome = service
        .submit(&QueryRequest::text(text).with_stats())
        .expect("query parses");
    let (results, stats) = (outcome.rows, outcome.stats.unwrap_or_default());
    println!(
        "\n{} papers by Alice without Bob ({} initial candidates, {:?} total)",
        results.len(),
        stats.initial_candidates,
        stats.total_time()
    );

    // A different spelling of the same pattern hits the same cache slot.
    let respelled = "inproceedings { /[label=title] as title* \
                     where !(/[label=author, value=Bob]) & (/[label=author, value=Alice]) }";
    let again = service
        .submit(&QueryRequest::text(respelled))
        .expect("query parses")
        .rows;
    assert!(Arc::ptr_eq(&results, &again));
    println!(
        "respelled query served from the cache (hit rate {:.0}%)",
        100.0 * service.metrics().hit_rate()
    );

    // Parse errors carry spans and render as caret diagnostics.
    let broken = "inproceedings { where /[value = 3.5] }";
    if let Err(QueryError::Parse(e)) = service.submit(&QueryRequest::text(broken)) {
        println!("\nwhat an error looks like:\n{}", e.render(broken));
    }
}
