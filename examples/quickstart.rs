//! Quickstart: build a small graph, express a GTPQ with conjunction,
//! disjunction and negation, and evaluate it with GTEA.
//!
//! Run with `cargo run --example quickstart`.

use gtpq::prelude::*;

fn main() {
    // A miniature bibliography graph: two papers, three authors, one venue.
    let mut b = GraphBuilder::new();
    let paper1 = b.add_node_with_label("inproceedings");
    let paper2 = b.add_node_with_label("inproceedings");
    let venue = b.add_node_with_attrs([("label", "proceedings".into())]);
    let year = b.add_node_with_attrs([("label", "year".into()), ("year", AttrValue::Int(2005))]);
    let alice1 = b.add_node_with_attrs([("label", "author".into()), ("value", "Alice".into())]);
    let bob1 = b.add_node_with_attrs([("label", "author".into()), ("value", "Bob".into())]);
    let alice2 = b.add_node_with_attrs([("label", "author".into()), ("value", "Alice".into())]);
    for (src, dst) in [
        (paper1, alice1),
        (paper1, bob1),
        (paper2, alice2),
        (paper1, venue),
        (paper2, venue),
        (venue, year),
    ] {
        b.add_edge(src, dst);
    }
    let graph = b.build();

    // "Alice's papers that are NOT co-authored with Bob" — Example 1, Q3.
    let mut qb = GtpqBuilder::new(AttrPredicate::label("inproceedings"));
    let root = qb.root_id();
    let alice = qb.predicate_child(
        root,
        EdgeKind::Child,
        AttrPredicate::label("author").and("value", CmpOp::Eq, "Alice".into()),
    );
    let bob = qb.predicate_child(
        root,
        EdgeKind::Child,
        AttrPredicate::label("author").and("value", CmpOp::Eq, "Bob".into()),
    );
    qb.set_structural(
        root,
        BoolExpr::and2(
            BoolExpr::Var(alice.var()),
            BoolExpr::not(BoolExpr::Var(bob.var())),
        ),
    );
    qb.mark_output(root);
    let query = qb.build().expect("valid query");

    println!("Query:\n{}", query.describe());

    let engine = GteaEngine::new(&graph);
    let (answer, stats) = engine.evaluate_with_stats(&query);
    println!("Answer tuples: {:?}", answer.iter().collect::<Vec<_>>());
    println!(
        "Evaluated in {:?} ({} candidates pruned to {})",
        stats.total_time(),
        stats.initial_candidates,
        stats.candidates_after_downward
    );
    assert_eq!(answer.len(), 1, "only the solo-authored paper qualifies");
    assert!(answer.contains(&[paper2]));
}
