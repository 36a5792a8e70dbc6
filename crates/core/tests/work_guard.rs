//! Deterministic work guard for the prune rounds: set-at-a-time AD pruning
//! must cost one condensation sweep per (prune step, AD child), which shows
//! in a lookup count that repeats exactly — so a silent fall-back to
//! pairwise probing fails here without timing anything.

use gtpq_core::prime::PrimeSubtree;
use gtpq_core::prune::{initial_candidates, prune_downward, prune_upward};
use gtpq_core::{EvalStats, ExecCtl, GteaOptions, PruneStep};
use gtpq_datagen::{fig11_gtpq, generate_xmark, Fig11Predicate, XmarkConfig};
use gtpq_graph::{Condensation, DataGraph};
use gtpq_query::{EdgeKind, Gtpq};
use gtpq_reach::Sspi;

/// `#index` of the two prune rounds of `q` on `g` (candidate selection's
/// posting-list reads excluded).
fn prune_index_lookups(g: &DataGraph, q: &Gtpq, index: &Sspi, options: &GteaOptions) -> u64 {
    let mut mat = initial_candidates(q, g, &mut EvalStats::default());
    let mut stats = EvalStats::default();
    let ctl = ExecCtl::unbounded();
    let steps = PruneStep::bottom_up(q);
    prune_downward(q, g, index, options, &steps, &mut mat, &mut stats, &ctl).unwrap();
    let prime = PrimeSubtree::new(q);
    prune_upward(q, g, index, options, &prime, 0, &mut mat, &mut stats, &ctl).unwrap();
    stats.index_lookups
}

#[test]
fn prune_rounds_sweep_once_per_ad_edge_on_xmark_under_sspi() {
    let g = generate_xmark(&XmarkConfig::with_scale(1.0));
    let cond = Condensation::new(&g);
    let cond_edges: usize = cond
        .topological_order()
        .iter()
        .map(|&c| cond.successors(c).len())
        .sum();
    let index = Sspi::with_condensation(cond.clone());

    // Table 4's NEG1: three AD edges, `fs(person) = ¬education`.
    let q = fig11_gtpq(Fig11Predicate::Neg1, 0, 0);
    let ad_edges = q
        .node_ids()
        .filter(|&u| q.incoming_edge(u) == Some(EdgeKind::Descendant))
        .count();
    assert_eq!(ad_edges, 3);
    // Each AD edge is swept at most once per round and a sweep visits each
    // condensation edge at most once; the `components` term leaves room for
    // the PC edges' adjacency reads, which `index_lookups` also counts.
    let bound = (2 * ad_edges * (cond.component_count() + cond_edges)) as u64;

    let swept = prune_index_lookups(&g, &q, &index, &GteaOptions::default());
    assert!(swept <= bound, "{swept} lookups > bound {bound}");
    assert_eq!(
        swept,
        prune_index_lookups(&g, &q, &index, &GteaOptions::default()),
        "the count repeats exactly"
    );
    // The bound has teeth: pairwise probing of the same query breaks it.
    let pairwise = prune_index_lookups(&g, &q, &index, &GteaOptions::without_contours());
    assert!(pairwise > bound, "{pairwise} pairwise lookups <= {bound}");
}
