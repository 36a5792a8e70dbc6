//! Storage-layer equivalence tests for the CSR + inverted-index `DataGraph`:
//!
//! * `children`/`parents`/`has_edge`/degrees agree with a naive edge-list
//!   model (the behaviour of the seed's `Vec<Vec<NodeId>>` representation)
//!   on random graphs, and
//! * the inverted index answers exactly like an attribute scan.
//!
//! Round trips through the `.gtpq` snapshot, and commits on a mapped copy,
//! are the differential oracle's (`tests/differential.rs`).  The graphs
//! come from the shared generator in `tests/common`.

mod common;

use std::collections::BTreeSet;

use common::{graph_epochs, random_graph, replay};
use gtpq::datagen::UpdateOp;
use gtpq::graph::{AttrValue, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CASES: u64 = 32;

/// The seed-equivalent adjacency model: sorted, de-duplicated neighbour sets
/// recomputed straight from the edge inserts of `ops`.
fn naive_adjacency(n: usize, ops: &[UpdateOp]) -> (Vec<BTreeSet<u32>>, Vec<BTreeSet<u32>>) {
    let mut fwd = vec![BTreeSet::new(); n];
    let mut rev = vec![BTreeSet::new(); n];
    for op in ops {
        if let UpdateOp::InsertEdge { from, to } = op {
            fwd[from.index()].insert(to.0);
            rev[to.index()].insert(from.0);
        }
    }
    (fwd, rev)
}

#[test]
fn csr_adjacency_matches_the_naive_edge_list_model() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = graph_epochs(&mut rng, 2..40, seed % 2 == 0).concat();
        let g = replay(&ops);
        let (fwd, rev) = naive_adjacency(g.node_count(), &ops);
        let expected_edges: usize = fwd.iter().map(BTreeSet::len).sum();
        assert_eq!(g.edge_count(), expected_edges, "seed {seed}");
        for v in g.nodes() {
            let children: Vec<u32> = g.children(v).iter().map(|c| c.0).collect();
            let parents: Vec<u32> = g.parents(v).iter().map(|p| p.0).collect();
            let want_children: Vec<u32> = fwd[v.index()].iter().copied().collect();
            let want_parents: Vec<u32> = rev[v.index()].iter().copied().collect();
            assert_eq!(children, want_children, "seed {seed}, children of {v}");
            assert_eq!(parents, want_parents, "seed {seed}, parents of {v}");
            assert_eq!(g.out_degree(v), want_children.len(), "seed {seed}");
            assert_eq!(g.in_degree(v), want_parents.len(), "seed {seed}");
        }
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    g.has_edge(u, v),
                    fwd[u.index()].contains(&v.0),
                    "seed {seed}, has_edge({u}, {v})"
                );
            }
        }
    }
}

#[test]
fn inverted_index_answers_like_an_attribute_scan() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let g = random_graph(&mut rng, 2..40, false);
        for label in 0u8..4 {
            let value = AttrValue::str(&format!("l{label}"));
            let scanned: Vec<NodeId> = g
                .nodes()
                .filter(|&v| g.attribute_value(v, "label") == Some(&value))
                .collect();
            assert_eq!(g.nodes_with("label", &value), scanned, "seed {seed}");
        }
        let carriers: Vec<NodeId> = g
            .nodes()
            .filter(|&v| g.attribute_value(v, "year").is_some())
            .collect();
        assert_eq!(g.nodes_with_attr_name("year"), carriers, "seed {seed}");
        let in_range: Vec<NodeId> = g
            .nodes()
            .filter(|&v| {
                matches!(g.attribute_value(v, "year"), Some(AttrValue::Int(y)) if (1995..=2005).contains(y))
            })
            .collect();
        assert_eq!(
            g.nodes_with_int_range("year", 1995, 2005),
            in_range,
            "seed {seed}"
        );
    }
}
