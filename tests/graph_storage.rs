//! Storage-layer equivalence tests for the CSR + inverted-index `DataGraph`:
//!
//! * `children`/`parents`/`has_edge`/degrees agree with a naive edge-list
//!   model (the behaviour of the seed's `Vec<Vec<NodeId>>` representation)
//!   on random graphs,
//! * the graph round-trips through its `.gtpq` snapshot, heap-loaded and
//!   mapped, with adjacency and inverted index intact, and the mapped copy
//!   accepts a commit, and
//! * the inverted index answers exactly like an attribute scan.

use std::collections::BTreeSet;
use std::sync::Arc;

use gtpq::graph::{AttrValue, DataGraph, GraphBuilder, GraphHandle, GraphSnapshot, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 32;

/// A random attributed multigraph plus the raw edge list it was built from.
fn random_graph(rng: &mut StdRng) -> (DataGraph, usize, Vec<(u32, u32)>) {
    let n = rng.gen_range(2..40usize);
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        let v = b.add_node_with_label(&format!("l{}", rng.gen_range(0u8..5)));
        if rng.gen_bool(0.7) {
            b.set_attr(v, "year", AttrValue::int(rng.gen_range(1990..2015)));
        }
        if rng.gen_bool(0.2) {
            b.set_attr(
                v,
                "tag",
                AttrValue::str(&format!("t{}", rng.gen_range(0u8..3))),
            );
        }
    }
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(0..n * 4) {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        b.add_edge(NodeId(u), NodeId(v));
        edges.push((u, v));
    }
    (b.build(), n, edges)
}

/// The seed-equivalent adjacency model: sorted, de-duplicated neighbour sets
/// recomputed straight from the edge list.
fn naive_adjacency(n: usize, edges: &[(u32, u32)]) -> (Vec<BTreeSet<u32>>, Vec<BTreeSet<u32>>) {
    let mut fwd = vec![BTreeSet::new(); n];
    let mut rev = vec![BTreeSet::new(); n];
    for &(u, v) in edges {
        fwd[u as usize].insert(v);
        rev[v as usize].insert(u);
    }
    (fwd, rev)
}

#[test]
fn csr_adjacency_matches_the_naive_edge_list_model() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, n, edges) = random_graph(&mut rng);
        let (fwd, rev) = naive_adjacency(n, &edges);
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
fn serialization_round_trip_preserves_csr_and_inverted_index() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let (g, _, _) = random_graph(&mut rng);
        let path =
            std::env::temp_dir().join(format!("gtpq-storage-{}-{seed}.gtpq", std::process::id()));
        GraphSnapshot::freeze(Arc::new(g.clone()))
            .save(&path)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let heap = GraphSnapshot::open_heap(&path).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mapped = GraphSnapshot::open_mmap(&path).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for loaded in [&heap, &mapped] {
            let g2 = loaded.graph();
            assert_eq!(g2.node_count(), g.node_count(), "seed {seed}");
            assert_eq!(g2.edge_count(), g.edge_count(), "seed {seed}");
            for v in g.nodes() {
                assert_eq!(g2.children(v), g.children(v), "seed {seed}, children {v}");
                assert_eq!(g2.parents(v), g.parents(v), "seed {seed}, parents {v}");
                assert_eq!(g2.attributes(v).len(), g.attributes(v).len(), "seed {seed}");
            }
            // The loaded inverted index serves the same posting lists.
            for label in 0u8..5 {
                let value = AttrValue::str(&format!("l{label}"));
                assert_eq!(
                    g2.nodes_with("label", &value),
                    g.nodes_with("label", &value),
                    "seed {seed}, label posting l{label}"
                );
            }
            for year in [1990i64, 2000, 2014] {
                assert_eq!(
                    g2.nodes_with_int_range("year", year, year + 7),
                    g.nodes_with_int_range("year", year, year + 7),
                    "seed {seed}, year range from {year}"
                );
            }
        }

        // A commit on the mapped graph copies on write and leaves the
        // pinned epoch as loaded.
        let (u, v) = (NodeId(g.node_count() as u32 - 1), NodeId(0));
        let handle = GraphHandle::from_snapshot(mapped);
        let pinned = handle.snapshot();
        handle.insert_edge(u, v);
        handle.commit();
        let fresh = handle.snapshot();
        assert!(fresh.graph().has_edge(u, v), "seed {seed}");
        assert_eq!(
            fresh.graph().edge_count(),
            g.edge_count() + usize::from(!g.has_edge(u, v)),
            "seed {seed}"
        );
        assert_eq!(*pinned.graph().as_ref(), g, "seed {seed}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn inverted_index_answers_like_an_attribute_scan() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let (g, _, _) = random_graph(&mut rng);
        for label in 0u8..5 {
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
