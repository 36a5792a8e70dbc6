//! Prime subtree and shrunk prime subtree (§4.2.3, §4.3).

use gtpq_graph::NodeId;
use gtpq_query::{Gtpq, QueryNodeId};

/// The *prime subtree*: the subtree of backbone nodes induced by the paths
/// from the query root to every output node.  Only these nodes matter for
/// deriving the relationships among output-node candidates; predicate
/// subtrees and backbone branches without output nodes have already been
/// folded into the downward pruning round.
#[derive(Clone, Debug)]
pub struct PrimeSubtree {
    /// Member nodes, in ascending id order (which is top-down because child
    /// ids are always larger than their parent's).
    pub nodes: Vec<QueryNodeId>,
    /// Children of each member restricted to the prime subtree, indexed by
    /// query node id (empty for non-members).
    pub(crate) children: Vec<Vec<QueryNodeId>>,
}

impl PrimeSubtree {
    /// Computes the prime subtree of `q`.
    pub fn new(q: &Gtpq) -> Self {
        let mut member = vec![false; q.size()];
        for &o in q.output_nodes() {
            let mut cursor = Some(o);
            while let Some(u) = cursor {
                if member[u.index()] {
                    break;
                }
                member[u.index()] = true;
                cursor = q.parent(u);
            }
        }
        let nodes: Vec<QueryNodeId> = q.node_ids().filter(|u| member[u.index()]).collect();
        // A member's parent is a member, so a non-member keeps no children.
        let children = q
            .node_ids()
            .map(|u| {
                let kids = q.children(u).iter().copied();
                kids.filter(|c| member[c.index()]).collect()
            })
            .collect();
        Self { nodes, children }
    }

    /// Whether `u` belongs to the prime subtree.
    pub fn contains(&self, u: QueryNodeId) -> bool {
        self.nodes.binary_search(&u).is_ok()
    }

    /// The prime-subtree children of `u`.
    pub(crate) fn children_of(&self, u: QueryNodeId) -> &[QueryNodeId] {
        &self.children[u.index()]
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the prime subtree is empty (never happens for a valid query).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The *shrunk prime subtree*: the prime subtree with the ancestors of the
/// output-nodes' lowest common ancestor removed and (optionally) every node
/// with a single remaining candidate removed.  Removal can split the tree
/// into a forest; results of the components are combined by Cartesian
/// product, and removed output nodes contribute constant columns.
#[derive(Clone, Debug)]
pub struct ShrunkPrime {
    /// Roots of the remaining components, top-down order.
    pub roots: Vec<QueryNodeId>,
    /// Remaining nodes (ascending id order).
    pub nodes: Vec<QueryNodeId>,
    /// Children of each remaining node restricted to remaining nodes,
    /// indexed by query node id (empty for removed nodes).
    pub(crate) children: Vec<Vec<QueryNodeId>>,
    /// Output nodes that were removed because they had exactly one candidate,
    /// together with that candidate.
    pub(crate) constant_outputs: Vec<(QueryNodeId, NodeId)>,
}

impl ShrunkPrime {
    /// Computes the shrunk prime subtree given the pruned candidate sets.
    ///
    /// `shrink` disables the single-candidate removal when false (ablation).
    /// Both removals assume upward-pruned candidate sets; without the
    /// upward round the engine keeps the whole prime subtree instead.
    pub fn new(q: &Gtpq, prime: &PrimeSubtree, mat: &[Vec<NodeId>], shrink: bool) -> Self {
        // Restrict to descendants of the LCA of all output nodes.
        let outputs = q.output_nodes();
        let lca = outputs
            .iter()
            .copied()
            .reduce(|a, b| q.lowest_common_ancestor(a, b))
            .unwrap_or_else(|| q.root());
        let in_scope = |u: QueryNodeId| u == lca || q.is_ancestor(lca, u);

        let mut keep: Vec<QueryNodeId> = Vec::new();
        let mut constant_outputs: Vec<(QueryNodeId, NodeId)> = Vec::new();
        for &u in &prime.nodes {
            if !in_scope(u) {
                continue;
            }
            let single = mat[u.index()].len() == 1;
            if shrink && single {
                if q.is_output(u) {
                    constant_outputs.push((u, mat[u.index()][0]));
                }
                continue;
            }
            keep.push(u);
        }

        // Rebuild the child relation among kept nodes: a kept node's shrunk
        // parent is its nearest kept prime ancestor *with no removed node in
        // between that breaks the chain*; since removal of an intermediate
        // node always disconnects (the paper enumerates components
        // separately), a kept node whose prime parent was removed or out of
        // scope becomes a component root.
        let kept_set: Vec<bool> = {
            let mut s = vec![false; q.size()];
            for &u in &keep {
                s[u.index()] = true;
            }
            s
        };
        let mut children: Vec<Vec<QueryNodeId>> = vec![Vec::new(); q.size()];
        let mut roots: Vec<QueryNodeId> = Vec::new();
        for &u in &keep {
            let parent_kept = q
                .parent(u)
                .filter(|p| prime.contains(*p) && in_scope(*p))
                .filter(|p| kept_set[p.index()]);
            match parent_kept {
                Some(p) => children[p.index()].push(u),
                None => roots.push(u),
            }
        }

        Self {
            roots,
            nodes: keep,
            children,
            constant_outputs,
        }
    }

    /// The whole prime subtree, nothing removed: what the matching graph
    /// must cover when the upward round did not run.  Both removals of
    /// [`new`](Self::new) — the ancestors of the outputs' LCA, and nodes
    /// with a single candidate — assume that every remaining candidate
    /// extends upward to a match, which only upward pruning guarantees.
    pub(crate) fn unshrunk(q: &Gtpq, prime: &PrimeSubtree) -> Self {
        Self {
            roots: vec![q.root()],
            nodes: prime.nodes.clone(),
            children: prime.children.clone(),
            constant_outputs: Vec::new(),
        }
    }

    /// The shrunk children of `u`.
    pub(crate) fn children_of(&self, u: QueryNodeId) -> &[QueryNodeId] {
        &self.children[u.index()]
    }

    /// Number of remaining nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether everything was shrunk away (all outputs had a single candidate).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use gtpq_query::fixtures::example_query;

    use super::*;

    #[test]
    fn prime_subtree_of_example_query() {
        let q = example_query();
        let prime = PrimeSubtree::new(&q);
        // Outputs are u2 and u4 (ids 1 and 3); paths add the root and u3 (id 2).
        let expected: Vec<QueryNodeId> = vec![0, 1, 2, 3].into_iter().map(QueryNodeId).collect();
        assert_eq!(prime.nodes, expected);
        assert_eq!(prime.len(), 4);
        assert!(prime.contains(QueryNodeId(2)));
        assert!(!prime.contains(QueryNodeId(5)));
        assert_eq!(
            prime.children_of(QueryNodeId(0)),
            &[QueryNodeId(1), QueryNodeId(2)]
        );
        assert_eq!(prime.children_of(QueryNodeId(2)), &[QueryNodeId(3)]);
        assert!(!prime.is_empty());
    }

    #[test]
    fn shrinking_removes_single_candidate_nodes() {
        let q = example_query();
        let prime = PrimeSubtree::new(&q);
        // Fake candidate sets: root has 1 candidate, u2 has 2, u3 has 1, u4 has 3.
        let mut mat: Vec<Vec<NodeId>> = vec![Vec::new(); q.size()];
        mat[0] = vec![NodeId(0)];
        mat[1] = vec![NodeId(2), NodeId(7)];
        mat[2] = vec![NodeId(2)];
        mat[3] = vec![NodeId(10), NodeId(11), NodeId(13)];
        let shrunk = ShrunkPrime::new(&q, &prime, &mat, true);
        // Root and u3 disappear; u2 and u4 become separate component roots.
        assert_eq!(shrunk.nodes, vec![QueryNodeId(1), QueryNodeId(3)]);
        assert_eq!(shrunk.roots, vec![QueryNodeId(1), QueryNodeId(3)]);
        assert!(shrunk.constant_outputs.is_empty());
        // Without shrinking, the LCA of outputs is the root so everything stays.
        let unshrunk = ShrunkPrime::new(&q, &prime, &mat, false);
        assert_eq!(unshrunk.len(), 4);
        assert_eq!(unshrunk.roots, vec![QueryNodeId(0)]);
    }

    #[test]
    fn removed_output_nodes_become_constant_columns() {
        let q = example_query();
        let prime = PrimeSubtree::new(&q);
        let mut mat: Vec<Vec<NodeId>> = vec![Vec::new(); q.size()];
        mat[0] = vec![NodeId(0)];
        mat[1] = vec![NodeId(2)];
        mat[2] = vec![NodeId(2), NodeId(4)];
        mat[3] = vec![NodeId(10), NodeId(11)];
        let shrunk = ShrunkPrime::new(&q, &prime, &mat, true);
        assert_eq!(shrunk.constant_outputs, vec![(QueryNodeId(1), NodeId(2))]);
        assert!(shrunk.nodes.contains(&QueryNodeId(3)));
    }

    #[test]
    fn single_output_query_roots_at_the_output_lca() {
        use gtpq_logic::BoolExpr;
        use gtpq_query::{AttrPredicate, EdgeKind, GtpqBuilder};
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let mid = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let out = b.backbone_child(mid, EdgeKind::Descendant, AttrPredicate::label("c"));
        let pred = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("d"));
        b.set_structural(root, BoolExpr::Var(pred.var()));
        b.mark_output(out);
        let q = b.build().unwrap();
        let prime = PrimeSubtree::new(&q);
        assert_eq!(prime.len(), 3, "root, mid and out are on the path");
        let mut mat: Vec<Vec<NodeId>> = vec![Vec::new(); q.size()];
        mat[root.index()] = vec![NodeId(0), NodeId(1)];
        mat[mid.index()] = vec![NodeId(2), NodeId(3)];
        mat[out.index()] = vec![NodeId(4), NodeId(5)];
        let shrunk = ShrunkPrime::new(&q, &prime, &mat, true);
        // The LCA of the single output is the output itself: ancestors drop out.
        assert_eq!(shrunk.nodes, vec![out]);
        assert_eq!(shrunk.roots, vec![out]);
    }
}
