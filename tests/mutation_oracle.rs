//! Rebuild-oracle tests for the live-graph mutation path.
//!
//! The mutation path maintains the CSR adjacency, the attribute inverted
//! index and the SCC condensation *incrementally* across commits; these
//! tests prove the maintained structures are **bit-identical** to a
//! from-scratch rebuild after every single epoch, over a deterministic seed
//! sweep of random update streams (the vendored PRNG — every failure
//! message carries the seed).
//!
//! Two oracle flavours:
//!
//! * **ops-from-empty** — the handle starts from an empty graph and replays
//!   a generated op stream; the oracle is a fresh `GraphBuilder` replaying
//!   the same ops.  Because symbols are interned in first-appearance order
//!   on both sides, `==` on `DataGraph` (and on a freshly condensed
//!   `Condensation`) is exact bit-identity.  Every commit merges into the
//!   CSR and the inverted index, and the early epochs of a graph grown from
//!   nothing add more than the graph already holds, so this flavour proves
//!   the merge on deltas larger than their base.
//! * **generator base** — the handle starts from a small XMark-like graph;
//!   after each commit the maintained condensation must equal
//!   `Condensation::new` of the committed graph, and the engine must answer
//!   queries exactly like the naive semantic evaluator on that graph.
//!
//! Each seed's `MutationStats` must show one CSR merge and one index merge
//! per epoch; across the sweep the condensation must both take its
//! topological fast path and re-run Tarjan.

use gtpq::datagen::{
    apply_ops, apply_ops_to_builder, generate_xmark, update_stream, xmark_q1, UpdateStreamConfig,
    XmarkConfig,
};
use gtpq::graph::{Condensation, GraphHandle, MutationStats};
use gtpq::prelude::*;
use gtpq::query::naive;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every commit merged its CSR and its inverted index; none rebuilt them.
fn assert_every_commit_merged(ctx: &str, stats: &MutationStats) {
    assert_eq!(stats.csr_merges, stats.epochs, "{ctx}: {stats:?}");
    assert_eq!(stats.index_merges, stats.epochs, "{ctx}: {stats:?}");
    assert_eq!(stats.csr_rebuilds, 0, "{ctx}: {stats:?}");
    assert_eq!(stats.index_rebuilds, 0, "{ctx}: {stats:?}");
}

/// A random small query over the update stream's fallback `a..d` label
/// palette — same shape as the property-based suite's generator.
fn random_query(rng: &mut StdRng) -> Gtpq {
    const LABELS: [&str; 4] = ["a", "b", "c", "d"];
    let n_children = rng.gen_range(1..4usize);
    let mode = rng.gen_range(0u8..3);
    let mut b = GtpqBuilder::new(AttrPredicate::label(LABELS[rng.gen_range(0..4usize)]));
    let root = b.root_id();
    let mut predicate_vars = Vec::new();
    for _ in 0..n_children {
        let edge = if rng.gen_bool(0.5) {
            EdgeKind::Child
        } else {
            EdgeKind::Descendant
        };
        let attr = AttrPredicate::label(LABELS[rng.gen_range(0..4usize)]);
        if predicate_vars.len() < 2 && mode > 0 {
            let p = b.predicate_child(root, edge, attr);
            predicate_vars.push(BoolExpr::Var(p.var()));
        } else {
            let c = b.backbone_child(root, edge, attr);
            b.mark_output(c);
        }
    }
    match (mode, predicate_vars.as_slice()) {
        (1, [a]) => b.set_structural(root, BoolExpr::not(a.clone())),
        (1, [a, bb]) => b.set_structural(root, BoolExpr::or2(a.clone(), BoolExpr::not(bb.clone()))),
        (2, [a]) => b.set_structural(root, a.clone()),
        (2, [a, bb]) => b.set_structural(root, BoolExpr::or2(a.clone(), bb.clone())),
        _ => {}
    }
    b.mark_output(root);
    b.build().expect("generated queries are valid")
}

/// The engine's answer on the committed snapshot must match the naive
/// evaluator run against the oracle graph.  One run on the default 3-hop
/// stands for every backend: default options answer on the maintained
/// condensation and read no index.
fn assert_backends_match_naive(ctx: &str, g: &DataGraph, oracle_graph: &DataGraph, q: &Gtpq) {
    let expected = naive::evaluate(q, oracle_graph);
    let got = GteaEngine::new(g).evaluate(q);
    assert!(
        got.same_answer(&expected),
        "{ctx}: diverged from the rebuild oracle: got {:?} expected {:?}",
        got.tuples,
        expected.tuples
    );
}

#[test]
fn incremental_maintenance_is_bit_identical_to_rebuild() {
    let (mut condensation_fast, mut condensation_rebuilds) = (0, 0);
    for seed in 0..16u64 {
        let stream_cfg = UpdateStreamConfig {
            seed,
            epochs: 5,
            ops_per_epoch: 30,
            backward_edge_fraction: if seed % 3 == 0 { 0.5 } else { 0.05 },
            ..UpdateStreamConfig::default()
        };
        let empty = GraphBuilder::new().build();
        let stream = update_stream(&empty, &stream_cfg);

        let handle = GraphHandle::new(GraphBuilder::new().build());
        let mut all_ops = Vec::new();
        for (i, epoch) in stream.iter().enumerate() {
            apply_ops(&handle, epoch);
            all_ops.extend(epoch.iter().cloned());
            handle.commit();
            let snap = handle.snapshot();

            // From-scratch oracle: a fresh builder replaying every op so far.
            let mut oracle = GraphBuilder::new();
            apply_ops_to_builder(&mut oracle, &all_ops);
            let rebuilt = oracle.build();

            assert_eq!(
                **snap.graph(),
                rebuilt,
                "seed {seed} epoch {i}: maintained graph != from-scratch rebuild"
            );
            assert_eq!(
                **snap.condensation(),
                Condensation::new(&rebuilt),
                "seed {seed} epoch {i}: maintained condensation != from-scratch condensation"
            );
        }
        let stats = handle.stats();
        assert_eq!(stats.epochs as usize, stream.len(), "seed {seed}");
        assert_every_commit_merged(&format!("seed {seed}"), &stats);
        condensation_fast += stats.condensation_fast;
        condensation_rebuilds += stats.condensation_rebuilds;
    }
    // The sweep must have pushed commits down both condensation paths —
    // otherwise the oracle proved only half the code.
    assert!(
        condensation_fast > 0,
        "no commit took the topological condensation fast path"
    );
    assert!(
        condensation_rebuilds > 0,
        "no commit re-ran Tarjan on a backward edge"
    );
}

#[test]
fn all_backends_answer_like_the_rebuild_oracle_after_every_epoch() {
    for seed in 0..4u64 {
        let stream_cfg = UpdateStreamConfig {
            seed: 100 + seed,
            epochs: 4,
            ops_per_epoch: 25,
            backward_edge_fraction: 0.3,
            ..UpdateStreamConfig::default()
        };
        let empty = GraphBuilder::new().build();
        let stream = update_stream(&empty, &stream_cfg);

        let handle = GraphHandle::new(GraphBuilder::new().build());
        let mut all_ops = Vec::new();
        let mut qrng = StdRng::seed_from_u64(seed);
        for (i, epoch) in stream.iter().enumerate() {
            apply_ops(&handle, epoch);
            all_ops.extend(epoch.iter().cloned());
            handle.commit();
            let snap = handle.snapshot();

            let mut oracle = GraphBuilder::new();
            apply_ops_to_builder(&mut oracle, &all_ops);
            let rebuilt = oracle.build();

            for _ in 0..3 {
                let q = random_query(&mut qrng);
                assert_backends_match_naive(
                    &format!("seed {seed} epoch {i}"),
                    snap.graph(),
                    &rebuilt,
                    &q,
                );
            }
        }
        assert_every_commit_merged(&format!("seed {seed}"), &handle.stats());
    }
}

#[test]
fn generator_base_graphs_stay_consistent_under_mutation() {
    for seed in 0..4u64 {
        let base = generate_xmark(&XmarkConfig {
            scale: 0.01,
            seed: 7 + seed,
            label_groups: 4,
        });
        let stream_cfg = UpdateStreamConfig {
            seed: 200 + seed,
            epochs: 3,
            ops_per_epoch: 40,
            backward_edge_fraction: 0.25,
            ..UpdateStreamConfig::default()
        };
        let stream = update_stream(&base, &stream_cfg);

        let handle = GraphHandle::new(base);
        for (i, epoch) in stream.iter().enumerate() {
            apply_ops(&handle, epoch);
            handle.commit();
            let snap = handle.snapshot();

            // On a generator base the ops-from-empty oracle does not apply;
            // a fresh condensation of the committed graph is still an exact
            // from-scratch rebuild of the maintained structure.
            assert_eq!(
                **snap.condensation(),
                Condensation::new(snap.graph()),
                "seed {seed} epoch {i}: maintained condensation != fresh condensation"
            );

            let q = xmark_q1((seed % 4) as u32);
            assert_backends_match_naive(
                &format!("xmark seed {seed} epoch {i}"),
                snap.graph(),
                snap.graph(),
                &q,
            );
        }
        let stats = handle.stats();
        assert_eq!(stats.epochs as usize, stream.len(), "xmark seed {seed}");
        assert_every_commit_merged(&format!("xmark seed {seed}"), &stats);
    }
}
