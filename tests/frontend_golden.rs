//! The text front end's outputs, pinned byte for byte.
//!
//! For the 14 XMark templates at label triples (3, 4, 5), (0, 9, 2) and the
//! wildcard triple (10, 11, 12), `tests/fixtures/frontend-golden.txt` holds
//! the result-cache key (`canonicalize(q).key`), the query's `Display` text
//! and the planner's `QueryPlan::render` on XMark scale 0.1.  The result and
//! plan caches key on the first and the slow-query log prints the other two,
//! so any rewrite of `canonicalize`, `Display` or the plan renderer must
//! reproduce these bytes: cache and plan-cache behaviour cannot change.

use std::fmt::Write as _;

use gtpq::datagen::{generate_xmark, xmark_templates, XmarkConfig};
use gtpq::prelude::*;
use gtpq::service::canonicalize;

const FIXTURE: &str = include_str!("fixtures/frontend-golden.txt");

const TRIPLES: [(u32, u32, u32); 3] = [(3, 4, 5), (0, 9, 2), (10, 11, 12)];

/// The fixture's text: one `### <template> <triple>` record per query.
fn rendered() -> String {
    let g = generate_xmark(&XmarkConfig::with_scale(0.1));
    let planner = Planner::new(&g);
    let mut out = String::new();
    for (p, i, s) in TRIPLES {
        for (name, q) in xmark_templates(p, i, s) {
            let _ = writeln!(out, "### {name} ({p}, {i}, {s})");
            let _ = writeln!(out, "key: {}", canonicalize(&q).key);
            let _ = writeln!(out, "display: {q}");
            let _ = writeln!(out, "plan:\n{}", planner.plan(&q).render(&q));
        }
    }
    out
}

#[test]
fn front_end_outputs_match_the_checked_in_fixture() {
    let actual = rendered();
    let mut record = "";
    for (n, (want, got)) in FIXTURE.lines().zip(actual.lines()).enumerate() {
        if want.starts_with("### ") {
            record = want;
        }
        assert_eq!(got, want, "line {} of the fixture, in `{record}`", n + 1);
    }
    assert_eq!(actual.lines().count(), FIXTURE.lines().count());
    assert_eq!(actual.lines().filter(|l| l.starts_with("### ")).count(), 42);
}
