//! Integration suite for the `.gtpq` binary snapshot format
//! (`gtpq::graph::snap`):
//!
//! * **round-trip fidelity** — a deterministic seed sweep builds random
//!   attributed graphs (labels, integer attributes, free-text attributes,
//!   cycles on odd seeds), saves them, and reloads through every
//!   [`LoadMode`]; the loaded graph must compare equal field-for-field,
//!   the stored condensation must equal a fresh Tarjan run, and full query
//!   evaluation must return identical answers (once, on the engine's
//!   default 3-hop: default options read no index, so every backend runs
//!   the same condensation path),
//! * **copy-on-write commits** — mutating a graph served from a mapped
//!   snapshot must never write through to the file, and pinned mapped
//!   snapshots must keep reading the old epoch,
//! * **corruption robustness** — systematic single-byte flips and
//!   truncations must surface as typed [`SnapshotError`]s (or load a graph
//!   identical to the original when the flip only touched padding), never
//!   as a panic or garbage data.

use std::path::PathBuf;
use std::sync::Arc;

use gtpq::graph::condensation::CompId;
use gtpq::graph::{Condensation, GraphHandle, GraphSnapshot, LoadMode, LABEL_ATTR};
use gtpq::prelude::*;
use gtpq::query::{AttrPredicate, EdgeKind, Gtpq, GtpqBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 24;

/// A unique temp path per test-and-seed so parallel test binaries never
/// collide; removed at the end of each case.
fn temp_snapshot(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gtpq-snap-{tag}-{}-{seed}.gtpq",
        std::process::id()
    ))
}

/// A random attributed graph exercising every serialized surface: labels
/// from a 4-letter alphabet, an integer attribute on most nodes (negative
/// values included, so the `i64` payload encoding is covered), a free-text
/// attribute on some, an embedding-vector attribute on some (so the v2
/// vector dictionary and the similarity catalog's pivot tables serialize
/// non-trivially), and random edges (restricted to a DAG on request).
fn random_graph(rng: &mut StdRng, max_nodes: usize, dag_only: bool) -> DataGraph {
    let n = rng.gen_range(2..max_nodes);
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| b.add_node_with_label(&format!("l{}", rng.gen_range(0u8..4))))
        .collect();
    for &v in &nodes {
        if rng.gen_bool(0.8) {
            b.set_attr(v, "year", AttrValue::int(rng.gen_range(-3i64..2010)));
        }
        if rng.gen_bool(0.3) {
            b.set_attr(
                v,
                "note",
                AttrValue::str(&format!("t{}", rng.gen_range(0u8..6))),
            );
        }
        if rng.gen_bool(0.4) {
            let dim = rng.gen_range(2usize..5);
            let emb: Vec<f32> = (0..dim)
                .map(|_| (rng.gen::<f64>() * 4.0 - 2.0) as f32)
                .collect();
            b.set_attr(v, "emb", AttrValue::Vec(emb));
        }
    }
    for _ in 0..rng.gen_range(0..n * 3) {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        if x == y {
            continue;
        }
        let (x, y) = if dag_only && x > y { (y, x) } else { (x, y) };
        b.add_edge(nodes[x], nodes[y]);
    }
    b.build()
}

/// A fixed two-pattern query battery touching label equality, descendant
/// edges and integer range predicates.
fn query_battery() -> Vec<Gtpq> {
    let mut queries = Vec::new();
    for root in ["l0", "l1"] {
        let mut b = GtpqBuilder::new(AttrPredicate::label(root));
        let r = b.root_id();
        let c = b.backbone_child(r, EdgeKind::Descendant, AttrPredicate::label("l2"));
        b.mark_output(r);
        b.mark_output(c);
        queries.push(b.build().expect("battery query is valid"));
    }
    let mut b = GtpqBuilder::new(AttrPredicate::any().and("year", CmpOp::Ge, AttrValue::int(1000)));
    let r = b.root_id();
    let c = b.backbone_child(r, EdgeKind::Child, AttrPredicate::any());
    b.mark_output(r);
    b.mark_output(c);
    queries.push(b.build().expect("battery query is valid"));
    queries
}

#[test]
fn saved_graphs_reload_bit_identically_through_every_mode() {
    let queries = query_battery();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 28, seed % 2 == 0);
        let handle = GraphHandle::new(g.clone());
        let snap = handle.snapshot();
        let path = temp_snapshot("roundtrip", seed);
        snap.save(&path).expect("save succeeds");

        for mode in [LoadMode::Mmap, LoadMode::MmapVerified, LoadMode::Heap] {
            let loaded = GraphSnapshot::open(&path, mode).expect("load succeeds");
            assert_eq!(
                *loaded.graph().as_ref(),
                g,
                "seed {seed}, mode {mode:?}: loaded graph differs"
            );
            assert_eq!(
                *loaded.condensation().as_ref(),
                Condensation::new(&g),
                "seed {seed}, mode {mode:?}: stored condensation differs from Tarjan"
            );
            assert_eq!(loaded.epoch(), snap.epoch(), "seed {seed}, mode {mode:?}");

            for (qi, q) in queries.iter().enumerate() {
                let want = GteaEngine::new(&g).evaluate(q);
                let got = GteaEngine::new(loaded.graph()).evaluate(q);
                assert!(
                    got.same_answer(&want),
                    "seed {seed}, mode {mode:?}, query {qi}: answers diverge after reload"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn mutating_a_mapped_graph_never_touches_the_file() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 24, seed % 2 == 0);
        let path = temp_snapshot("cow", seed);
        GraphHandle::new(g.clone()).snapshot().save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        let mapped = GraphSnapshot::open_mmap(&path).unwrap();
        let handle = GraphHandle::from_snapshot(mapped);
        let pinned = handle.snapshot();
        let base_nodes = pinned.graph().node_count();

        // Mutate through every op kind, enough rounds to force several
        // commits on top of the mapped base.
        let mut last = NodeId(0);
        for round in 0..3 {
            let v = handle.insert_node_with_label(&format!("new{round}"));
            handle.set_attr(v, "year", AttrValue::int(3000 + round));
            handle.set_attr(last, "note", AttrValue::str("rewritten"));
            handle.insert_edge(last, v);
            handle.commit();
            last = v;
        }

        // The file on disk is byte-for-byte what the writer produced.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            pristine,
            "seed {seed}: commit wrote through to the snapshot file"
        );
        // The pinned mapped snapshot still reads the old epoch.
        assert_eq!(pinned.graph().node_count(), base_nodes, "seed {seed}");
        assert_eq!(*pinned.graph().as_ref(), g, "seed {seed}");
        // The new epoch carries the mutations.
        let fresh = handle.snapshot();
        assert_eq!(fresh.graph().node_count(), base_nodes + 3, "seed {seed}");
        // And a re-open of the untouched file round-trips the original.
        let reopened = GraphSnapshot::open_heap(&path).unwrap();
        assert_eq!(*reopened.graph().as_ref(), g, "seed {seed}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn mapped_snapshots_serve_queries_while_the_handle_advances() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = random_graph(&mut rng, 20, false);
    let path = temp_snapshot("serve", 7);
    GraphHandle::new(g.clone()).snapshot().save(&path).unwrap();

    let handle = Arc::new(GraphHandle::from_snapshot(
        GraphSnapshot::open_mmap(&path).unwrap(),
    ));
    let q = &query_battery()[0];
    let pinned = handle.snapshot();
    let before = GteaEngine::new(pinned.graph().as_ref()).evaluate(q);
    let root = handle.insert_node_with_label("l0");
    let child = handle.insert_node_with_label("l2");
    handle.insert_edge(root, child);
    handle.commit();
    let advanced = handle.snapshot();
    let after = GteaEngine::new(advanced.graph().as_ref()).evaluate(q);
    assert_eq!(after.tuples.len(), before.tuples.len() + 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn checked_in_v1_fixture_opens_in_every_load_mode() {
    // `tests/fixtures/v1-tiny.gtpq` is a genuine version-1 file (written
    // before the vector dictionary and the similarity catalog existed).
    // Forward compatibility is a promise, not a hope: every load mode must
    // keep opening it, with no vectors and an empty sim catalog.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1-tiny.gtpq");
    let bytes = std::fs::read(path).expect("fixture is checked in");
    assert_eq!(&bytes[..8], b"GTPQSNAP");
    assert_eq!(
        bytes[8], 1,
        "the fixture must stay a version-1 file; regenerate deliberately, \
         never by re-saving (that would silently upgrade it to v2)"
    );

    for mode in [LoadMode::Mmap, LoadMode::MmapVerified, LoadMode::Heap] {
        let snap = GraphSnapshot::open(path, mode)
            .unwrap_or_else(|e| panic!("v1 fixture fails to open in {mode:?}: {e}"));
        let g = snap.graph();
        assert_eq!(g.node_count(), 3, "{mode:?}");
        assert_eq!(g.edge_count(), 3, "{mode:?}");
        let labels: Vec<&AttrValue> = g
            .nodes()
            .map(|v| g.attribute_value(v, LABEL_ATTR).expect("labelled"))
            .collect();
        assert_eq!(
            labels,
            [
                &AttrValue::str("paper"),
                &AttrValue::str("paper"),
                &AttrValue::str("author")
            ],
            "{mode:?}"
        );
        assert_eq!(g.children(NodeId(0)), &[NodeId(1), NodeId(2)], "{mode:?}");
        assert_eq!(g.children(NodeId(1)), &[NodeId(2)], "{mode:?}");
        assert!(
            g.sim_catalog().is_empty(),
            "{mode:?}: a v1 file cannot carry sim tables"
        );
        assert!(g.sim_table("emb").is_none(), "{mode:?}");
    }
}

/// The graph behind `tests/fixtures/v2-tiny.gtpq`, built inline (not from
/// `gtpq-datagen`, so generator changes cannot invalidate the fixture): int
/// and string attributes, one vector value shared by two nodes, one
/// off-dimension vector, and a cycle.
fn tiny_v2_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    let p0 = b.add_node_with_label("paper");
    let p1 = b.add_node_with_label("paper");
    let a0 = b.add_node_with_label("author");
    let a1 = b.add_node_with_label("author");
    b.set_attr(p0, "year", AttrValue::int(2001));
    b.set_attr(p1, "year", AttrValue::int(-7));
    b.set_attr(a0, "name", AttrValue::str("knuth"));
    b.set_attr(a1, "name", AttrValue::str("erdős"));
    b.set_attr(p0, "emb", AttrValue::Vec(vec![0.0, 0.25, -0.5, 1.0]));
    b.set_attr(p1, "emb", AttrValue::Vec(vec![0.0, 0.25, -0.5, 1.0]));
    b.set_attr(a0, "emb", AttrValue::Vec(vec![1.0, 0.5, 0.25, -2.0]));
    b.set_attr(a1, "emb", AttrValue::Vec(vec![3.0, -1.0]));
    b.add_edge(p0, p1);
    b.add_edge(p1, a0);
    b.add_edge(a0, p0);
    b.add_edge(p1, a1);
    b.build()
}

#[test]
fn checked_in_v2_fixture_is_what_save_writes_today() {
    // Round trips cannot see a writer and a reader drifting together; a
    // checked-in file can.  The fixture was written by the writer as it
    // stood before the format became table-driven: a fresh save of the same
    // graph must reproduce it byte for byte.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v2-tiny.gtpq");
    let want = std::fs::read(fixture).expect("fixture is checked in");
    assert_eq!(want[8], 2, "the fixture is a version-2 file");

    let g = tiny_v2_graph();
    assert!(!g.sim_catalog().is_empty() && !Condensation::new(&g).input_was_dag());
    let path = temp_snapshot("v2-fixture", 0);
    GraphSnapshot::freeze(Arc::new(g.clone()))
        .save(&path)
        .expect("save succeeds");
    let got = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        got == want,
        "save no longer writes the bytes of v2-tiny.gtpq"
    );

    for mode in [LoadMode::Mmap, LoadMode::MmapVerified, LoadMode::Heap] {
        let snap = GraphSnapshot::open(fixture, mode)
            .unwrap_or_else(|e| panic!("v2 fixture fails to open in {mode:?}: {e}"));
        assert_eq!(*snap.graph().as_ref(), g, "{mode:?}");
        assert_eq!(
            *snap.condensation().as_ref(),
            Condensation::new(&g),
            "{mode:?}"
        );
    }
}

#[test]
fn corrupted_snapshots_fail_typed_and_clean_flips_stay_identical() {
    let mut rng = StdRng::seed_from_u64(11);
    let g = random_graph(&mut rng, 22, false);
    assert!(
        !g.sim_catalog().is_empty(),
        "the corruption sweep must run over a v2 file with vectors and \
         sim tables (pick another seed)"
    );
    let path = temp_snapshot("corrupt", 11);
    GraphHandle::new(g.clone()).snapshot().save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let victim = temp_snapshot("corrupt-victim", 11);

    // Single-byte flips at a stride that still covers the header, the TOC
    // and every section at least once.  A flip either surfaces as a typed
    // error or — when it only touched inter-section padding, which no
    // checksum covers — loads a graph identical to the original.  Heap
    // mode verifies every checksum, so nothing corrupt can slip through.
    let stride = (pristine.len() / 512).max(1);
    for pos in (0..pristine.len()).step_by(stride) {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 0xA5;
        std::fs::write(&victim, &bytes).unwrap();
        match GraphSnapshot::open_heap(&victim) {
            Ok(loaded) => assert_eq!(
                *loaded.graph().as_ref(),
                g,
                "flip at byte {pos} changed the graph yet loaded cleanly"
            ),
            Err(e) => {
                // Exercise Display on every variant — a panic here is a bug.
                let _ = e.to_string();
            }
        }
    }

    // Every truncation point fails with a typed error.
    for cut in [
        0,
        1,
        7,
        8,
        63,
        64,
        65,
        pristine.len() / 2,
        pristine.len() - 1,
    ] {
        std::fs::write(&victim, &pristine[..cut]).unwrap();
        let err = GraphSnapshot::open_heap(&victim)
            .err()
            .unwrap_or_else(|| panic!("truncation to {cut} bytes loaded successfully"));
        let _ = err.to_string();
    }

    // Mmap mode (lazy data checksums) must reject the same structural
    // damage: header, TOC and every materialized section stay verified.
    let mut bad_magic = pristine.clone();
    bad_magic[0] ^= 0xFF;
    std::fs::write(&victim, &bad_magic).unwrap();
    assert!(
        GraphSnapshot::open_mmap(&victim).is_err(),
        "bad magic accepted"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&victim).ok();
}

#[test]
fn plain_mmap_flips_load_typed_or_stay_panic_free_at_access_time() {
    // Plain `Mmap` skips the CRC pass over the big data runs, so a flipped
    // byte there *can* load — the contract is weaker but still hard: a load
    // either fails with a typed error (structural damage: header, TOC,
    // counts, any offsets run) or yields a graph whose every accessor is
    // memory-safe and panic-free, even though the data may be wrong.
    let mut rng = StdRng::seed_from_u64(17);
    let g = random_graph(&mut rng, 22, false);
    assert!(
        !g.sim_catalog().is_empty(),
        "the mmap flip sweep must cover the vector and sim sections"
    );
    let path = temp_snapshot("mmap-corrupt", 17);
    GraphHandle::new(g).snapshot().save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let victim = temp_snapshot("mmap-corrupt-victim", 17);

    let stride = (pristine.len() / 512).max(1);
    for pos in (0..pristine.len()).step_by(stride) {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 0xA5;
        std::fs::write(&victim, &bytes).unwrap();
        let loaded = match GraphSnapshot::open_mmap(&victim) {
            Ok(loaded) => loaded,
            Err(e) => {
                let _ = e.to_string();
                continue;
            }
        };
        // Exhaustively touch every slice-served accessor: adjacency in both
        // directions, the lazily decoded attribute tuples, the postings and
        // the condensation arrays.  None of these may panic, whatever the
        // flip hit.
        let dg = loaded.graph();
        for v in dg.nodes() {
            let _ = dg.children(v);
            let _ = dg.parents(v);
            let _ = dg.attributes(v);
        }
        let _ = dg.nodes_with(LABEL_ATTR, &AttrValue::str("l1"));
        let _ = dg.nodes_with_attr_name("year");
        let _ = dg.nodes_with_int_range("year", -3, 2010);
        // The similarity surface: pivot-filtered queries and raw vector
        // reads must stay panic-free over whatever data survived the flip.
        if let Some(table) = dg.sim_table("emb") {
            let probe = vec![0.25f32; table.dim()];
            let _ = table.within_l2(&probe, 1.5, true);
            let _ = table.above_cosine(&probe, 0.5, false);
            for i in 0..table.len() {
                let _ = table.vector(i);
            }
        }
        let cond = loaded.condensation();
        for c in 0..cond.component_count() {
            let c = CompId(c as u32);
            let _ = cond.members(c);
            let _ = cond.successors(c);
            let _ = cond.predecessors(c);
        }
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&victim).ok();
}
