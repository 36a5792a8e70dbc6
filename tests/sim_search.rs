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
//! * **engine agreement** — full `sim(...)` queries return the same answer
//!   as the naive semantic oracle (the engine's default path reads no
//!   reachability index, so one backend stands for all), with the sim
//!   counters accounting for every indexed vector,
//! * **degenerate radii** — an L2 radius of `+∞` (reachable only through
//!   the builder; the parser rejects the literal) selects every indexed
//!   vector on the index side exactly as the oracle's `d < ∞` does, and NaN
//!   or negative radii select nothing on both sides,
//! * **snapshot round trips** — after `save` + `open_mmap` the mapped
//!   (zero-copy) tables produce bit-identical [`SimMatches`] and the engine
//!   answers do not move.
//!
//! [`SimTable::within_l2`]: gtpq::graph::SimTable::within_l2
//! [`SimTable::above_cosine`]: gtpq::graph::SimTable::above_cosine
//! [`SimMatches`]: gtpq::graph::SimMatches

use std::path::PathBuf;

use gtpq::datagen::{generate_embed, EmbedConfig};
use gtpq::graph::{GraphHandle, GraphSnapshot, SimTable};
use gtpq::prelude::*;
use gtpq::query::naive;
use gtpq::sim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 24;

/// A unique temp path per test-and-seed so parallel test binaries never
/// collide; removed at the end of each case.
fn temp_snapshot(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("gtpq-sim-{tag}-{}-{seed}.gtpq", std::process::id()))
}

/// A random component quantized to eighths in `[-2, 2)`: exactly
/// representable in f32 *and* in the textual query form, so display
/// round-trips and brute-force comparisons are bit-exact by construction.
fn coord(rng: &mut StdRng) -> f32 {
    rng.gen_range(-16i64..16) as f32 / 8.0
}

fn qvec(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| coord(rng)).collect()
}

/// A random attributed graph whose `emb` attribute indexes at dimensionality
/// `dim`: the first 8 nodes always carry a dim-`dim` vector, later nodes
/// carry one with probability 0.6, a few nodes carry an off-dimensionality
/// vector (so the modal-dim rule is exercised — those rows never index),
/// and labels alternate so the sim posting intersects a label posting
/// non-trivially.  Odd seeds allow cycles.
fn embedded_graph(rng: &mut StdRng, seed: u64) -> (DataGraph, usize) {
    let dim = 3 + (seed % 5) as usize;
    let n: usize = rng.gen_range(14..36);
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_with_label(if i % 3 == 0 { "aux" } else { "doc" }))
        .collect();
    for (i, &v) in nodes.iter().enumerate() {
        if i < 8 || rng.gen_bool(0.6) {
            b.set_attr(v, "emb", AttrValue::Vec(qvec(rng, dim)));
        } else if rng.gen_bool(0.3) {
            b.set_attr(v, "emb", AttrValue::Vec(qvec(rng, dim + 2)));
        }
    }
    for _ in 0..rng.gen_range(0..n * 2) {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        if x == y {
            continue;
        }
        let (x, y) = if seed.is_multiple_of(2) && x > y {
            (y, x)
        } else {
            (x, y)
        };
        b.add_edge(nodes[x], nodes[y]);
    }
    (b.build(), dim)
}

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
        let (g, dim) = embedded_graph(&mut rng, seed);
        let table = g.sim_table("emb").expect("emb always indexes");
        assert_eq!(table.dim(), dim, "seed {seed}: modal dimensionality");
        let n = table.len();
        assert!(n >= 8, "seed {seed}: the first 8 nodes always carry dim-d");

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
        let probes = [qvec(&mut rng, dim), table.vector(0).to_vec()];
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
        let (g, dim) = embedded_graph(&mut rng, seed);
        let table = g.sim_table("emb").expect("emb always indexes");
        let probes = [qvec(&mut rng, dim), table.vector(1).to_vec()];
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
fn sim_queries_agree_with_the_oracle_across_backends_and_snapshots() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, dim) = embedded_graph(&mut rng, seed);
        let table_len = g.sim_table("emb").expect("emb always indexes").len();
        let query_vec = qvec(&mut rng, dim);

        let path = temp_snapshot("roundtrip", seed);
        GraphHandle::new(g.clone()).snapshot().save(&path).unwrap();
        let mapped = GraphSnapshot::open_mmap(&path).unwrap();
        let lg = mapped.graph();

        // One query per predicate form: strict / inclusive L2 and cosine.
        let forms = [
            (CmpOp::Lt, 2.5f32),
            (CmpOp::Le, 1.0),
            (CmpOp::Gt, 0.375),
            (CmpOp::Ge, -0.25),
        ];
        for (op, threshold) in forms {
            let mut b = GtpqBuilder::new(AttrPredicate::label("doc").and_sim(
                "emb",
                op,
                query_vec.clone(),
                threshold,
            ));
            let root = b.root_id();
            b.mark_output(root);
            let q = b.build().unwrap();

            // Quantized components print exactly, so the textual form
            // round-trips to the same query.
            let text = q.to_string();
            assert_eq!(
                text.parse::<Gtpq>().expect("canonical form parses"),
                q,
                "seed {seed} {op:?}: `{text}`"
            );

            let expected = naive::evaluate(&q, &g);
            let mapped_got = GteaEngine::new(lg).evaluate(&q);
            assert!(
                mapped_got.same_answer(&expected),
                "seed {seed} {op:?}: answer moved after save + open_mmap"
            );

            // The sim counters account for every indexed vector: each one is
            // either pruned by the pivot tests or exactly verified.
            let (res, stats) = GteaEngine::new(&g).evaluate_with_stats(&q);
            assert!(
                res.same_answer(&expected),
                "seed {seed} {op:?}: engine diverges from the oracle"
            );
            assert_eq!(
                stats.sim_pivot_filtered + stats.sim_verified,
                table_len as u64,
                "seed {seed} {op:?}: counter accounting"
            );
        }

        // The mapped (zero-copy) table and the built (owned) table answer
        // bit-identically — nodes, pruned and verified counts alike.
        let built = g.sim_table("emb").unwrap();
        let loaded = lg.sim_table("emb").expect("mapped graph keeps the table");
        assert_eq!(loaded.len(), built.len(), "seed {seed}");
        assert_eq!(
            loaded.within_l2(&query_vec, 2.5, false),
            built.within_l2(&query_vec, 2.5, false),
            "seed {seed}: mapped l2 posting differs"
        );
        assert_eq!(
            loaded.above_cosine(&query_vec, 0.375, true),
            built.above_cosine(&query_vec, 0.375, true),
            "seed {seed}: mapped cosine posting differs"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn degenerate_l2_radii_agree_with_the_oracle() {
    let g = generate_embed(&EmbedConfig {
        dim: 8,
        ..Default::default()
    });
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
