//! Decompose-and-merge: evaluating general GTPQs with a conjunctive baseline.
//!
//! The baselines only understand conjunctive tree patterns.  To run them on
//! queries with disjunction and negation (the Fig. 12 experiments), the paper
//! decomposes the GTPQ into conjunctive sub-queries and merges/differences
//! their results.  This wrapper implements that strategy: for every query
//! node, the satisfaction set of each child subtree is computed with a small
//! conjunctive probe query executed by the baseline, the node's structural
//! predicate is then evaluated per candidate over those memberships (the
//! merge/difference step), and finally the backbone skeleton of the query is
//! evaluated by the baseline with its candidates restricted to the surviving
//! sets.  The number of baseline invocations grows with the number of query
//! nodes carrying predicates — the overhead the paper attributes to this
//! approach.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use gtpq_graph::NodeId;
use gtpq_logic::valuation::eval_with;
use gtpq_query::{AttrPredicate, Gtpq, GtpqBuilder, QueryNodeId, ResultSet};

use crate::stats::BaselineStats;
use crate::{restricted_candidates, Restrictions, TpqAlgorithm};

/// Evaluates a general GTPQ through the decompose-and-merge strategy on top
/// of a conjunctive baseline algorithm.
pub fn evaluate_gtpq_with(algo: &dyn TpqAlgorithm, q: &Gtpq) -> (ResultSet, BaselineStats) {
    let start = Instant::now();
    let g = algo.graph();
    let mut stats = BaselineStats::default();

    // Downward satisfaction sets, bottom-up.
    let mut mat = restricted_candidates(q, g, None, &mut stats);
    let mut sat: Vec<HashSet<NodeId>> = vec![HashSet::new(); q.size()];
    for u in q.bottom_up_order() {
        let candidates = std::mem::take(&mut mat[u.index()]);
        if q.node(u).is_leaf() {
            sat[u.index()] = candidates.into_iter().collect();
            continue;
        }
        // Membership sets per child, each obtained from one probe sub-query.
        let mut memberships: HashMap<QueryNodeId, HashSet<NodeId>> = HashMap::new();
        for &child in q.children(u) {
            let (probe, restrictions) = probe_query(q, u, child, &sat[child.index()]);
            let (result, sub_stats) = algo.evaluate_restricted(&probe, Some(&restrictions));
            stats.absorb(&sub_stats);
            let members: HashSet<NodeId> = result.iter().map(|t| t[0]).collect();
            memberships.insert(child, members);
        }
        let fext = q.fext(u);
        sat[u.index()] = candidates
            .into_iter()
            .filter(|&v| {
                eval_with(&fext, &mut |var| {
                    memberships
                        .get(&QueryNodeId::from_var(var))
                        .is_some_and(|m| m.contains(&v))
                })
            })
            .collect();
    }

    // Backbone skeleton with restricted candidates.
    let (skeleton, mapping) = backbone_skeleton(q);
    let mut restrictions: Restrictions = vec![None; skeleton.size()];
    for (old, new) in &mapping {
        restrictions[new.index()] = Some(sat[old.index()].iter().copied().collect());
    }
    let (skeleton_results, sub_stats) = algo.evaluate_restricted(&skeleton, Some(&restrictions));
    stats.absorb(&sub_stats);

    // The skeleton marks its output nodes in `q`'s order, so its rows are
    // `q`'s rows.
    let rows = skeleton_results.iter().flatten().copied().collect();
    let results = ResultSet::from_rows(q.output_nodes().to_vec(), rows);
    stats.total_time = start.elapsed();
    (results, stats)
}

/// Builds the 2-node probe query "candidates of `u` that have a matching
/// `child`" together with the restriction pinning the child's candidates to
/// the already-computed satisfaction set.
fn probe_query(
    q: &Gtpq,
    u: QueryNodeId,
    child: QueryNodeId,
    child_sat: &HashSet<NodeId>,
) -> (Gtpq, Restrictions) {
    let mut b = GtpqBuilder::new(q.node(u).attr.clone());
    let root = b.root_id();
    let edge = q
        .incoming_edge(child)
        .expect("children have incoming edges");
    let probe_child = b.backbone_child(root, edge, AttrPredicate::any());
    b.mark_output(root);
    let probe = b.build().expect("probe queries are valid");
    let mut restrictions: Restrictions = vec![None; probe.size()];
    restrictions[probe_child.index()] = Some(child_sat.iter().copied().collect());
    (probe, restrictions)
}

/// Extracts the backbone skeleton of `q` (backbone nodes only, trivial
/// structural predicates, the original output nodes), returning the query and
/// the mapping from original to skeleton node ids.
fn backbone_skeleton(q: &Gtpq) -> (Gtpq, Vec<(QueryNodeId, QueryNodeId)>) {
    let mut b = GtpqBuilder::new(q.node(q.root()).attr.clone());
    let mut mapping: Vec<(QueryNodeId, QueryNodeId)> = vec![(q.root(), b.root_id())];
    for u in q.node_ids().skip(1) {
        if !q.is_backbone(u) {
            continue;
        }
        let parent_old = q.parent(u).expect("non-root");
        let parent_new = mapping
            .iter()
            .find(|(old, _)| *old == parent_old)
            .map(|&(_, new)| new)
            .expect("backbone parents precede their children");
        let new = b.backbone_child(
            parent_new,
            q.incoming_edge(u).expect("non-root"),
            q.node(u).attr.clone(),
        );
        mapping.push((u, new));
    }
    for &o in q.output_nodes() {
        let new = mapping
            .iter()
            .find(|(old, _)| *old == o)
            .map(|&(_, new)| new)
            .expect("output nodes are backbone nodes");
        b.mark_output(new);
    }
    (b.build().expect("skeletons are valid"), mapping)
}

#[cfg(test)]
mod tests {
    use gtpq_core::GteaEngine;
    use gtpq_datagen::{fig11_gtpq, generate_xmark, Fig11Predicate, XmarkConfig};
    use gtpq_query::fixtures::{example_graph, example_query};
    use gtpq_query::naive;

    use crate::twig_stack::TwigStack;
    use crate::twigstack_d::TwigStackD;

    use super::*;

    #[test]
    fn decomposed_twigstack_matches_the_oracle_on_the_running_example() {
        let g = example_graph();
        let q = example_query();
        let expected = naive::evaluate(&q, &g);
        let twig = TwigStack::new(&g);
        let (result, stats) = evaluate_gtpq_with(&twig, &q);
        assert!(result.same_answer(&expected));
        assert!(
            stats.subqueries > 1,
            "decomposition must run several subqueries"
        );
    }

    #[test]
    fn decomposed_baselines_match_gtea_on_fig11_gtpqs() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.05));
        let engine = GteaEngine::new(&g);
        let twig = TwigStack::new(&g);
        let twig_d = TwigStackD::new(&g);
        for (name, variant) in [
            ("DIS1", Fig11Predicate::Dis1),
            ("NEG1", Fig11Predicate::Neg1),
            ("DIS_NEG2", Fig11Predicate::DisNeg2),
        ] {
            let q = fig11_gtpq(variant, 0, 0);
            let expected = engine.evaluate(&q);
            let (a, _) = evaluate_gtpq_with(&twig, &q);
            assert!(a.same_answer(&expected), "TwigStack on {name}");
            let (b, _) = evaluate_gtpq_with(&twig_d, &q);
            assert!(b.same_answer(&expected), "TwigStackD on {name}");
        }
    }

    #[test]
    fn skeleton_preserves_backbone_structure() {
        let q = example_query();
        let (skeleton, mapping) = backbone_skeleton(&q);
        assert!(skeleton.is_conjunctive());
        assert_eq!(skeleton.size(), 4, "four backbone nodes in the example");
        assert_eq!(mapping.len(), 4);
        assert_eq!(skeleton.output_nodes().len(), q.output_nodes().len());
    }
}
