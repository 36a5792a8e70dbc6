//! A small DBLP-like bibliography graph for the motivating example (Example 1).
//!
//! `inproceedings` records have `author`, `title` and `year` children and a
//! `crossref` child whose IDREF edge points to the `proceedings` record the
//! paper appeared in; `proceedings` records have `title` and `year` children.
//! The fixed author pool contains "Alice" and "Bob" so the three queries of
//! Example 1 (conjunction, disjunction, negation over co-authorship) have
//! non-trivial answers.

use gtpq_graph::{AttrValue, DataGraph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a DBLP-like graph with `papers` inproceedings records spread over
/// `papers / 8 + 1` proceedings volumes.
pub fn generate_dblp(papers: usize, seed: u64) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let authors = ["Alice", "Bob", "Carol", "Dave", "Erin", "Frank"];
    let mut b = GraphBuilder::new();
    let dblp = b.add_node_with_label("dblp");

    let volumes: Vec<_> = (0..papers / 8 + 1)
        .map(|i| {
            let proceedings = b.add_node_with_label("proceedings");
            b.add_edge(dblp, proceedings);
            let title = b.add_node_with_attrs([
                ("label", AttrValue::str("title")),
                ("value", AttrValue::Str(format!("Conf{i}"))),
            ]);
            b.add_edge(proceedings, title);
            let year = b.add_node_with_attrs([
                ("label", AttrValue::str("year")),
                ("year", AttrValue::Int(1995 + (i % 20) as i64)),
            ]);
            b.add_edge(proceedings, year);
            proceedings
        })
        .collect();

    for i in 0..papers {
        let paper = b.add_node_with_label("inproceedings");
        b.add_edge(dblp, paper);
        let title = b.add_node_with_attrs([
            ("label", AttrValue::str("title")),
            ("value", AttrValue::Str(format!("Paper{i}"))),
        ]);
        b.add_edge(paper, title);
        let year = b.add_node_with_attrs([
            ("label", AttrValue::str("year")),
            ("year", AttrValue::Int(1995 + rng.gen_range(0..20i64))),
        ]);
        b.add_edge(paper, year);
        // One to three authors.
        let n_authors = rng.gen_range(1..=3usize);
        let mut chosen: Vec<&str> = Vec::new();
        while chosen.len() < n_authors {
            let a = authors[rng.gen_range(0..authors.len())];
            if !chosen.contains(&a) {
                chosen.push(a);
            }
        }
        for name in chosen {
            let author = b.add_node_with_attrs([
                ("label", AttrValue::str("author")),
                ("value", AttrValue::str(name)),
            ]);
            b.add_edge(paper, author);
        }
        // crossref with an IDREF edge to the proceedings volume.
        let crossref = b.add_node_with_label("crossref");
        b.add_edge(paper, crossref);
        let volume = volumes[rng.gen_range(0..volumes.len())];
        b.add_edge(crossref, volume);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_the_expected_structure() {
        let g = generate_dblp(100, 1);
        assert!(!g
            .nodes_with("label", &AttrValue::str("inproceedings"))
            .is_empty());
        assert!(!g
            .nodes_with("label", &AttrValue::str("proceedings"))
            .is_empty());
        assert!(!g.nodes_with("value", &AttrValue::str("Alice")).is_empty());
        assert!(!g.nodes_with("value", &AttrValue::str("Bob")).is_empty());
        // Proceedings are shared: some node has in-degree > 1 (dblp root + crossrefs).
        assert!(g.nodes().any(|v| g.in_degree(v) > 1));
    }

    #[test]
    fn deterministic() {
        let a = generate_dblp(50, 3);
        let b = generate_dblp(50, 3);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
    }
}
