//! Anti-rot tests for `docs/OBSERVABILITY.md`:
//!
//! * the Prometheus family table is the block [`family_table`] writes from
//!   a real scrape page's `# HELP` / `# TYPE` lines (which the service's
//!   counter table emits), compared verbatim and printed on mismatch,
//! * the table is also cross-checked against a real
//!   `render_prometheus()` scrape page in **both** directions — a family on
//!   the page but not in the doc fails, and a documented family that the
//!   page no longer emits fails,
//! * the span-tree diagram is cross-checked against a real recorded trace
//!   the same way.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use gtpq::datagen::generate_dblp;
use gtpq::service::{QueryError, QueryRequest, QueryService, ServiceConfig};

const OBSERVABILITY_MD: &str = include_str!("../docs/OBSERVABILITY.md");

const QUERY: &str = "inproceedings { /title* where /[label = author, value = Alice] }";

fn service() -> QueryService {
    QueryService::with_config(Arc::new(generate_dblp(240, 42)), ServiceConfig::default())
}

/// Metric families claimed by the doc's exposition table: every backticked
/// `gtpq_*` token in a table row, stripped of any `{label}` suffix.
fn doc_families() -> BTreeSet<String> {
    let mut families = BTreeSet::new();
    for line in OBSERVABILITY_MD.lines() {
        if !line.trim_start().starts_with("| `gtpq_") {
            continue;
        }
        for (i, piece) in line.split('`').enumerate() {
            if i % 2 == 1 && piece.starts_with("gtpq_") {
                let name = piece.split('{').next().expect("split is non-empty");
                families.insert(name.to_owned());
            }
        }
    }
    families
}

/// The distinct `stage` label values a scrape page emits, in page order.
fn page_stages(page: &str) -> Vec<&str> {
    let mut stages = Vec::new();
    for piece in page.split("stage=\"").skip(1) {
        let stage = piece.split('"').next().expect("label value is closed");
        if !stages.contains(&stage) {
            stages.push(stage);
        }
    }
    stages
}

/// The doc's family table as a scrape page dictates it: one row per
/// `# HELP` / `# TYPE` pair in page order, the `stage` label values listed on
/// the one labelled family.
fn family_table(page: &str) -> String {
    let stages = page_stages(page);
    let mut table = String::from("| family | kind | meaning |\n|---|---|---|\n");
    let mut lines = page.lines();
    while let Some(line) = lines.next() {
        let Some(help) = line.strip_prefix("# HELP ") else {
            continue;
        };
        let (family, help) = help.split_once(' ').expect("HELP lines carry text");
        let kind = lines
            .next()
            .and_then(|l| l.strip_prefix("# TYPE "))
            .and_then(|l| l.strip_prefix(family))
            .expect("a TYPE line follows every HELP line")
            .trim();
        if page.contains(&format!("{family}_bucket{{stage=")) {
            let stages = stages.join("`, `");
            table +=
                &format!("| `{family}{{stage=\"…\"}}` | {kind} | {help} Stages: `{stages}`. |\n");
        } else {
            table += &format!("| `{family}` | {kind} | {help} |\n");
        }
    }
    table
}

/// The block of the doc between the `families:begin` and `families:end`
/// marker lines.
fn doc_family_block() -> &'static str {
    let after = OBSERVABILITY_MD
        .split_once("<!-- families:begin")
        .expect("doc has a families:begin marker")
        .1;
    let body = after.split_once("-->\n").expect("marker line is closed").1;
    body.split_once("<!-- families:end -->")
        .expect("doc has a families:end marker")
        .0
}

/// Stage names promised by the tree diagram in the "Span traces" section:
/// the root line plus every `├── name` / `└── name` line.
fn doc_stage_names() -> Vec<String> {
    let section = OBSERVABILITY_MD
        .split("## Span traces")
        .nth(1)
        .expect("doc has a Span traces section");
    let tree = section
        .split("```text")
        .nth(1)
        .expect("section has a tree diagram")
        .split("```")
        .next()
        .expect("fenced block is terminated");
    let mut names = Vec::new();
    for line in tree.lines() {
        let rest = if let Some(r) = line.strip_prefix("├── ") {
            r
        } else if let Some(r) = line.strip_prefix("└── ") {
            r
        } else if !line.is_empty() && !line.starts_with(['│', ' ']) {
            line // the root line
        } else {
            continue; // wrapped description text
        };
        names.push(
            rest.split_whitespace()
                .next()
                .expect("stage lines carry a name")
                .to_owned(),
        );
    }
    names
}

#[test]
fn prometheus_family_table_matches_a_real_scrape_page() {
    let service = service();
    service.submit(&QueryRequest::text(QUERY)).unwrap(); // miss
    service.submit(&QueryRequest::text(QUERY)).unwrap(); // hit
    match service
        .submit(&QueryRequest::text("inproceedings { //title* }").with_deadline(Duration::ZERO))
    {
        Err(QueryError::Timeout { .. }) => {}
        Ok(_) => panic!("a zero deadline should time out"),
        Err(e) => panic!("expected a timeout, got {e}"),
    }
    let page = service.metrics().render_prometheus();

    let generated = family_table(&page);
    assert!(
        doc_family_block() == generated,
        "the family table in docs/OBSERVABILITY.md is stale; replace the block between the \
         families:begin / families:end markers with:\n\n{generated}"
    );

    let on_page: BTreeSet<String> = page
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| {
            rest.split_whitespace()
                .next()
                .expect("TYPE lines carry a name")
                .to_owned()
        })
        .collect();
    let documented = doc_families();
    assert!(
        documented.len() >= 20,
        "the doc table should list every family (found {})",
        documented.len()
    );
    for family in &on_page {
        assert!(
            documented.contains(family),
            "scrape-page family `{family}` is missing from docs/OBSERVABILITY.md"
        );
    }
    for family in &documented {
        assert!(
            on_page.contains(family),
            "documented family `{family}` is not on the scrape page"
        );
    }

    // Every stage label value the page emits is named (in backticks) in the
    // doc's `gtpq_stage_seconds` row.
    let stages = page_stages(&page);
    assert!(stages.contains(&"candidates"), "stage labels: {stages:?}");
    for stage in &stages {
        assert!(
            OBSERVABILITY_MD.contains(&format!("`{stage}`")),
            "stage label `{stage}` is missing from the doc's stage list"
        );
    }
}

#[test]
fn span_tree_diagram_matches_a_real_trace() {
    let promised = doc_stage_names();
    assert_eq!(
        promised.first().map(String::as_str),
        Some("request"),
        "the diagram roots at `request`: {promised:?}"
    );

    let service = service();
    let outcome = service
        .submit(&QueryRequest::text(QUERY).with_trace())
        .unwrap();
    let trace = outcome.trace.expect("with_trace records a trace");
    assert_eq!(trace.spans[0].name, "request");

    let recorded: BTreeSet<&str> = trace
        .spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| s.name.as_ref())
        .collect();
    // Every stage the diagram promises shows up in a real cold text-query
    // trace (a text request exercises `parse`; a cache miss runs every
    // engine stage)...
    for name in promised.iter().skip(1) {
        assert!(
            recorded.contains(name.as_str()),
            "doc promises a `{name}` span under request; recorded: {recorded:?}"
        );
    }
    // ...and the engine records no top-level stage the diagram omits.
    for name in &recorded {
        assert!(
            promised.iter().any(|p| p == name),
            "recorded span `{name}` is missing from the doc's tree diagram"
        );
    }
}
