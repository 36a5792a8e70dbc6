//! Integration suite for the `.gtpq` binary snapshot format
//! (`gtpq::graph::snap`):
//!
//! * **checked-in fixtures** — a version-1 file keeps opening in every
//!   [`LoadMode`], and a fresh save of the version-2 fixture's graph
//!   reproduces its bytes,
//! * **corruption robustness** — systematic single-byte flips and
//!   truncations must surface as typed [`SnapshotError`]s (or load a graph
//!   identical to the original when the flip only touched padding), never
//!   as a panic or garbage data.
//!
//! Round trips through every load mode, commits on a mapped base that
//! must not write through, and queries served from loaded graphs are the
//! differential oracle's (`tests/differential.rs`).  The corrupted graphs
//! come from the shared generator in `tests/common`.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use common::random_graph;
use gtpq::graph::condensation::CompId;
use gtpq::graph::{Condensation, GraphHandle, GraphSnapshot, LoadMode, LABEL_ATTR};
use gtpq::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A unique temp path per test-and-seed so parallel test binaries never
/// collide; removed at the end of each case.
fn temp_snapshot(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gtpq-snap-{tag}-{}-{seed}.gtpq",
        std::process::id()
    ))
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

    for mode in [LoadMode::Mmap, LoadMode::Heap] {
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

    for mode in [LoadMode::Mmap, LoadMode::Heap] {
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
    let g = random_graph(&mut rng, 2..22, false);
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
    let g = random_graph(&mut rng, 2..22, false);
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
