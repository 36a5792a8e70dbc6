//! Deterministic work guard for result enumeration: what `MatchStream`
//! allocates is counted, not timed.  Walking a list in place allocates
//! nothing per row (the row is lent, and a `ResultSet` grows by doubling),
//! nothing is set up per (query node, candidate) before the first pull, and
//! a product is never materialised — so a fall-back to per-row copies or
//! partials, up-front list trees or built products fails here without
//! timing anything.  The matching graph it walks is held
//! to the same standard: its PC branches allocate nothing per candidate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gtpq_core::matching::MatchingGraph;
use gtpq_core::plan::execute_candidates;
use gtpq_core::prime::{PrimeSubtree, ShrunkPrime};
use gtpq_core::prune::{prune_downward, prune_upward};
use gtpq_core::{EvalStats, ExecCtl, GteaOptions, MatchStream, Planner, StreamSource};
use gtpq_datagen::{generate_arxiv, ArxivConfig};
use gtpq_graph::{DataGraph, GraphBuilder, NodeId};
use gtpq_query::{parse_query, Gtpq, ResultSet};
use gtpq_reach::Sspi;

thread_local! {
    /// Allocations and allocated bytes of the current thread (tests of one
    /// binary run on parallel threads).
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a `const`-initialised thread-local `Cell` of plain integers, so
// touching it neither allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| {
            let (count, bytes) = a.get();
            a.set((count + 1, bytes + layout.size() as u64));
        });
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` the current thread made while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (count, bytes) = ALLOCATED.get();
    let out = f();
    let (count_after, bytes_after) = ALLOCATED.get();
    (out, count_after - count, bytes_after - bytes)
}

/// Runs the pipeline through the matching graph: the candidate sets and
/// shrunk prime subtree it was built from, the graph, and the allocations
/// `MatchingGraph::build` alone made.
fn build_matching(g: &DataGraph, q: &Gtpq) -> (Vec<Vec<NodeId>>, ShrunkPrime, MatchingGraph, u64) {
    let index = Sspi::new(g);
    let options = GteaOptions::default();
    let ctl = ExecCtl::unbounded();
    let mut stats = EvalStats::default();
    let plan = Planner::new(g).plan(q);
    let mut mat = execute_candidates(q, g, &plan, &mut stats, &ctl).unwrap();
    let steps = plan.normalized_prune_down(q);
    prune_downward(q, g, &index, &options, steps, &mut mat, &mut stats, &ctl).unwrap();
    let prime = PrimeSubtree::new(q);
    prune_upward(
        q, g, &index, &options, &prime, 0, &mut mat, &mut stats, &ctl,
    )
    .unwrap();
    let shrunk = ShrunkPrime::new(q, &prime, &mat, true);
    let (matching, allocations, _) = allocated_by(|| {
        MatchingGraph::build(q, g, &index, &shrunk, &mat, &mut stats, &ctl).unwrap()
    });
    (mat, shrunk, matching, allocations)
}

/// Runs the pipeline up to the matching graph: what enumeration starts from,
/// and how many candidates the query root kept.
fn source(g: &DataGraph, text: &str) -> (Arc<StreamSource>, usize) {
    let q = parse_query(text).expect("guard queries parse");
    let (mat, shrunk, matching, _) = build_matching(g, &q);
    let root_candidates = mat[q.root().index()].len();
    (
        Arc::new(StreamSource::new(&q, shrunk, matching, mat)),
        root_candidates,
    )
}

/// Opens a stream and pulls up to `limit` rows, dropping each.
fn pull(source: &Arc<StreamSource>, limit: usize) -> u64 {
    let mut stream = MatchStream::from_source(Arc::clone(source), ExecCtl::unbounded());
    while stream.rows_enumerated() < limit as u64 && stream.next_row().unwrap().is_some() {}
    stream.rows_enumerated()
}

/// Two of `arxiv_enum`'s year-window citation joins: 12 125 and 2 102 rows
/// on its graph.
const WINDOW_1995: &str = "[year >= 1995, year <= 1997]* { //[year >= 1990]* }";
const WINDOW_2002: &str = "[year >= 2002, year <= 2004]* { //[year >= 1997]* }";

#[test]
fn a_walked_join_allocates_nothing_per_row() {
    let g = generate_arxiv(&ArxivConfig::small());
    let drain = |text: &str| {
        let (source, _) = source(&g, text);
        let (rows, allocations, _) = allocated_by(|| pull(&source, usize::MAX));
        let (_, again, _) = allocated_by(|| pull(&source, usize::MAX));
        assert_eq!(allocations, again, "the count repeats exactly");
        (rows, allocations)
    };
    let (rows_1995, allocations_1995) = drain(WINDOW_1995);
    let (rows_2002, allocations_2002) = drain(WINDOW_2002);
    assert_eq!(
        (rows_1995, rows_2002),
        (12_125, 2_102),
        "the windows' joins"
    );
    assert_eq!(
        allocations_1995, allocations_2002,
        "{rows_1995} rows allocate as often as {rows_2002}"
    );
}

#[test]
fn draining_a_join_into_a_result_set_allocates_amortised_nothing_per_row() {
    let g = generate_arxiv(&ArxivConfig::small());
    let (source, _) = source(&g, WINDOW_1995);
    let output = parse_query(WINDOW_1995)
        .expect("guard queries parse")
        .output_nodes()
        .to_vec();
    let (rows, allocations, _) = allocated_by(|| {
        let mut stream = MatchStream::from_source(Arc::clone(&source), ExecCtl::unbounded());
        let mut results = ResultSet::new(output);
        while let Some(row) = stream.next_row().unwrap() {
            results.insert(row);
        }
        results.len()
    });
    assert_eq!(rows, 12_125);
    assert!(
        allocations <= 64,
        "{allocations} allocations for {rows} rows"
    );
}

/// `roots` nodes labelled `r`, each with edges to `width` nodes labelled `x`
/// and `width` labelled `y` of its own.
fn forest(roots: usize, width: usize) -> DataGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..roots {
        let r = b.add_node_with_label("r");
        for label in ["x", "y"] {
            for _ in 0..width {
                let v = b.add_node_with_label(label);
                b.add_edge(r, v);
            }
        }
    }
    b.build()
}

#[test]
fn the_first_row_costs_the_same_whatever_the_number_of_root_candidates() {
    let first_row = |roots: usize| {
        let (source, root_candidates) = source(
            &forest(roots, 2),
            "[label = r]* { /[label = x]* //[label = y]* }",
        );
        assert_eq!(root_candidates, roots);
        let (rows, allocations, bytes) = allocated_by(|| pull(&source, 1));
        assert_eq!(rows, 1);
        (allocations, bytes)
    };
    assert_eq!(first_row(50), first_row(200), "lists are created on touch");
}

#[test]
fn pc_branches_allocate_the_same_whatever_the_number_of_parent_candidates() {
    // Only PC edges: every branch is an adjacency intersection, written
    // straight into the flat target buffer — no vector per candidate.
    let q = parse_query("[label = r]* { /[label = x]* }").expect("guard queries parse");
    let build = |roots: usize| {
        let (mat, _, matching, allocations) = build_matching(&forest(roots, 2), &q);
        assert_eq!(mat[q.root().index()].len(), roots);
        assert_eq!(matching.edge_count, 2 * roots);
        allocations
    };
    assert_eq!(build(100), build(1000), "branches are built in place");
}

#[test]
fn ten_rows_of_a_million_row_product_fit_a_fixed_byte_budget() {
    // Two root candidates, each pointing at its own 1000 x 1000 product.
    let (source, _) = source(
        &forest(2, 1000),
        "[label = r]* { /[label = x]* //[label = y]* }",
    );
    let (rows, _, bytes) = allocated_by(|| pull(&source, 10));
    assert_eq!(rows, 10);
    assert!(bytes <= 4096, "{bytes} bytes allocated: products stay lazy");
}
