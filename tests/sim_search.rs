//! Property suite for the pivot-based similarity access path:
//!
//! * **filter completeness** — over a deterministic seed sweep, the pivot
//!   filter's candidate set is always a superset of the exact within-radius
//!   answer (the triangle inequality at work), sorted and correctly
//!   accounted (`pruned + candidates == table len`),
//! * **verification exactness** — [`SimTable::within_l2`] /
//!   [`SimTable::above_cosine`] postings are bit-identical to a brute-force
//!   scan using the same `gtpq::sim` distance kernels, for strict and
//!   inclusive thresholds alike, and the planner's selectivity estimate
//!   upper-bounds the filter's survivor count,
//! * **degenerate radii and rows** — an L2 radius of `+∞` (reachable only
//!   through the builder; the parser rejects the literal) selects every
//!   indexed vector on the index side exactly as the oracle's `d < ∞` does,
//!   NaN or negative radii select nothing on both sides, and a stored row
//!   with a NaN or infinite component matches no comparison on either side.
//!
//! Full `sim(...)` queries against the naive oracle — across serving
//! paths, with the sim counters accounting for every indexed vector, and
//! through snapshot round trips — are the differential oracle's
//! (`tests/differential.rs`).  The graphs here come from the shared
//! generator in `tests/common`.
//!
//! [`SimTable::within_l2`]: gtpq::graph::SimTable::within_l2
//! [`SimTable::above_cosine`]: gtpq::graph::SimTable::above_cosine

mod common;

use std::sync::Arc;

use common::{emb_vector, random_graph, EMB_DIM};
use gtpq::datagen::{generate_embed, EmbedConfig};
use gtpq::graph::{GraphHandle, SimTable, LABEL_ATTR};
use gtpq::prelude::*;
use gtpq::query::naive;
use gtpq::sim;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 24;

/// The brute-force L2 posting over the table's own packed rows, using the
/// same `gtpq::sim` kernel the verify path uses — any divergence from
/// `within_l2` is a real bug, not float noise.
fn brute_l2(table: &SimTable, query: &[f32], t: f32, inclusive: bool) -> Vec<NodeId> {
    (0..table.len())
        .filter(|&i| {
            let d = sim::l2(table.vector(i), query);
            d < t || (inclusive && d == t)
        })
        .map(|i| table.indexed_nodes()[i])
        .collect()
}

fn brute_cosine(table: &SimTable, query: &[f32], t: f32, inclusive: bool) -> Vec<NodeId> {
    (0..table.len())
        .filter(|&i| {
            let c = sim::cosine(table.vector(i), query);
            c > t || (inclusive && c == t)
        })
        .map(|i| table.indexed_nodes()[i])
        .collect()
}

#[test]
fn pivot_filter_candidates_are_a_superset_of_the_exact_answer() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 14..36, seed % 2 == 0);
        let table = g.sim_table("emb").expect("emb indexes");
        let dim = table.dim();
        assert_eq!(dim, EMB_DIM, "seed {seed}: modal dimensionality");
        let n = table.len();

        // Rebuild a filter over the table's own packed rows with an
        // independent pivot selection: completeness must hold for *any*
        // pivot set, not just the one the catalog happened to choose.
        let data: Vec<f32> = (0..n).flat_map(|i| table.vector(i).to_vec()).collect();
        let picked = sim::select_pivots(&data, dim, 4, seed);
        let pivots: Vec<f32> = picked
            .iter()
            .flat_map(|&i| data[i * dim..(i + 1) * dim].to_vec())
            .collect();
        let dists = sim::pivot_distances(&data, dim, &pivots);
        let filter = sim::PivotFilter::new(dim, &pivots, &dists);
        assert_eq!(filter.len(), n);

        // Both a random probe and an exact data row (distance-0 edge case).
        let probes = [emb_vector(&mut rng, dim), table.vector(0).to_vec()];
        for query in &probes {
            for radius in [0.25f32, 1.0, 2.5, 5.0] {
                let res = filter.candidates_within(query, radius);
                assert!(
                    res.candidates.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: candidates unsorted"
                );
                assert_eq!(
                    res.pruned as usize + res.candidates.len(),
                    n,
                    "seed {seed}: pruning accounting"
                );
                for i in 0..n {
                    if sim::l2(&data[i * dim..(i + 1) * dim], query) <= radius {
                        assert!(
                            res.candidates.contains(&(i as u32)),
                            "seed {seed} radius {radius}: row {i} is a false negative"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn verified_postings_are_bit_identical_to_brute_force() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 14..36, seed % 2 == 0);
        let table = g.sim_table("emb").expect("emb indexes");
        let probes = [emb_vector(&mut rng, table.dim()), table.vector(1).to_vec()];
        for query in &probes {
            for t in [0.25f32, 1.0, 2.5, 5.0] {
                for inclusive in [false, true] {
                    let got = table.within_l2(query, t, inclusive);
                    assert_eq!(
                        got.nodes,
                        brute_l2(table, query, t, inclusive),
                        "seed {seed} l2 t={t} inclusive={inclusive}"
                    );
                    assert_eq!(got.pruned + got.verified, table.len() as u64);
                    assert!(got.nodes.len() as u64 <= got.verified);
                    assert!(
                        table.estimate_within_l2(query, t) as u64 >= got.verified,
                        "seed {seed}: the estimate must upper-bound the filter"
                    );
                }
            }
            for t in [-0.5f32, 0.0, 0.375, 0.875] {
                for inclusive in [false, true] {
                    let got = table.above_cosine(query, t, inclusive);
                    assert_eq!(
                        got.nodes,
                        brute_cosine(table, query, t, inclusive),
                        "seed {seed} cosine t={t} inclusive={inclusive}"
                    );
                    assert_eq!(got.pruned + got.verified, table.len() as u64);
                    assert!(
                        table.estimate_above_cosine(query, t) as u64 >= got.verified,
                        "seed {seed}: the cosine estimate must upper-bound the filter"
                    );
                }
            }
        }
    }
}

#[test]
fn degenerate_l2_radii_agree_with_the_oracle() {
    let corpus = generate_embed(&EmbedConfig {
        dim: 8,
        ..Default::default()
    });
    // Two documents' rows get a NaN and an infinite component: such a row
    // matches no comparison, so neither the table nor the oracle counts it.
    let docs = corpus
        .nodes_with(LABEL_ATTR, &AttrValue::str("doc"))
        .to_vec();
    let handle = GraphHandle::new(corpus);
    for (doc, bad) in docs.into_iter().zip([f32::NAN, f32::INFINITY]) {
        let mut row = vec![0.5; 8];
        row[3] = bad;
        handle.set_attr(doc, "emb", AttrValue::Vec(row));
    }
    let g = Arc::clone(handle.commit().graph());
    let documents = g.sim_table("emb").expect("emb indexes").len();
    let engine = GteaEngine::new(&g);
    let center = vec![8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
    // (operator, query vector, threshold, the oracle's row count where the
    // threshold alone decides it).
    let mut cases: Vec<(CmpOp, Vec<f32>, f32, Option<usize>)> = Vec::new();
    for (radius, all) in [
        (f32::INFINITY, true),
        (f32::NAN, false),
        (-1.0, false),
        (f32::NEG_INFINITY, false),
    ] {
        for op in [CmpOp::Lt, CmpOp::Le] {
            let rows = if all { documents } else { 0 };
            cases.push((op, center.clone(), radius, Some(rows)));
        }
    }
    // Cosine thresholds outside [-1, 1] and a zero-norm query (cosine 0 to
    // everything): the conservative L2 radius must stay conservative.
    for query in [vec![0.0; 8], center] {
        for threshold in [
            -2.0,
            -1.0,
            -0.5,
            0.0,
            1.0,
            2.0,
            f32::INFINITY,
            f32::NAN,
            f32::NEG_INFINITY,
        ] {
            let rows = match threshold {
                t if t == f32::NEG_INFINITY => Some(documents),
                t if t == f32::INFINITY || t.is_nan() => Some(0),
                _ => None,
            };
            for op in [CmpOp::Gt, CmpOp::Ge] {
                cases.push((op, query.clone(), threshold, rows));
            }
        }
    }
    for (op, query, threshold, rows) in cases {
        let what = format!("{op:?} {threshold} around {query:?}");
        let mut b =
            GtpqBuilder::new(AttrPredicate::label("doc").and_sim("emb", op, query, threshold));
        let root = b.root_id();
        b.mark_output(root);
        let q = b.build().unwrap();
        let expected = naive::evaluate(&q, &g);
        if let Some(rows) = rows {
            assert_eq!(expected.len(), rows, "{what}: the oracle itself");
        }
        assert!(
            engine.evaluate(&q).same_answer(&expected),
            "{what}: engine diverges from the oracle"
        );
    }
}
