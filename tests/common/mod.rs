//! The seeded scenario generators every integration suite draws from: one
//! graph generator, which emits its graph as `UpdateOp` epochs, one query
//! generator over those graphs, and its text-form sibling for the parser's
//! tests.  All are deterministic in the caller's `StdRng`, so a failure
//! message that names its seed reproduces the case exactly.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use std::ops::Range;

use gtpq::datagen::{apply_ops_to_builder, UpdateOp};
use gtpq::graph::LABEL_ATTR;
use gtpq::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// The dimensionality of the `emb` vectors the graphs carry and the
/// `sim()` conjuncts probe.
pub const EMB_DIM: usize = 4;

/// A random attributed graph as one to four epochs of update ops:
///
/// * `n ∈ nodes` nodes labelled `l0`–`l3`;
/// * a `year` int in `1995..2010` on most nodes and a `note` string
///   `t0`–`t3` on some;
/// * an `emb` vector on most (see [`emb_row`]);
/// * `n` to `4n` random edges, from the lower id to the higher one when
///   `dag`, otherwise in either direction with the odd self-loop.
///
/// Each edge is staged as soon as both its endpoints exist, and now and then
/// an existing node gets a new label, year or vector, so later epochs both
/// extend and rewrite what earlier ones committed.  Concatenated, the
/// epochs are one valid op stream from the empty graph.
pub fn graph_epochs(rng: &mut StdRng, nodes: Range<usize>, dag: bool) -> Vec<Vec<UpdateOp>> {
    let n = rng.gen_range(nodes);
    let mut edges_at: Vec<Vec<UpdateOp>> = vec![Vec::new(); n];
    for _ in 0..rng.gen_range(n..n * 4) {
        let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if dag && x == y {
            continue;
        }
        let (from, to) = if dag { (x.min(y), x.max(y)) } else { (x, y) };
        edges_at[x.max(y)].push(UpdateOp::InsertEdge {
            from: NodeId(from as u32),
            to: NodeId(to as u32),
        });
    }
    let set = |node: usize, name: &str, value: AttrValue| UpdateOp::SetAttr {
        node: NodeId(node as u32),
        name: name.to_owned(),
        value,
    };
    let mut ops = Vec::new();
    for (v, edges) in edges_at.into_iter().enumerate() {
        ops.push(UpdateOp::InsertNode { label: label(rng) });
        if rng.gen_bool(0.8) {
            ops.push(set(v, "year", year(rng)));
        }
        if rng.gen_bool(0.3) {
            let note = format!("t{}", rng.gen_range(0..4));
            ops.push(set(v, "note", AttrValue::str(&note)));
        }
        if rng.gen_bool(0.7) {
            ops.push(set(v, "emb", AttrValue::Vec(emb_row(rng))));
        }
        ops.extend(edges);
        if rng.gen_bool(0.15) {
            let u = rng.gen_range(0..=v);
            ops.push(match rng.gen_range(0..3) {
                0 => set(u, LABEL_ATTR, AttrValue::str(&label(rng))),
                1 => set(u, "year", year(rng)),
                _ => set(u, "emb", AttrValue::Vec(emb_row(rng))),
            });
        }
    }
    // Up to three cuts, all in the second half: the first epoch is the
    // base, the later ones are deltas on it.
    let mut cuts: Vec<usize> = (0..rng.gen_range(0..4))
        .map(|_| rng.gen_range(ops.len() / 2..ops.len()))
        .chain([0, ops.len()])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2).map(|w| ops[w[0]..w[1]].to_vec()).collect()
}

/// The graph a `GraphBuilder` builds from `ops`: the from-scratch rebuild.
pub fn replay(ops: &[UpdateOp]) -> DataGraph {
    let mut b = GraphBuilder::new();
    apply_ops_to_builder(&mut b, ops);
    b.build()
}

/// A random graph of [`graph_epochs`], built in one go.
pub fn random_graph(rng: &mut StdRng, nodes: Range<usize>, dag: bool) -> DataGraph {
    replay(&graph_epochs(rng, nodes, dag).concat())
}

fn label(rng: &mut StdRng) -> String {
    format!("l{}", rng.gen_range(0..4))
}

fn year(rng: &mut StdRng) -> AttrValue {
    AttrValue::int(rng.gen_range(1995..2010))
}

/// `dim` components quantized to eighths in `[-2, 2)`: exact in `f32` and in
/// the query text, so printed queries round-trip and brute-force distances
/// are bit-exact.
pub fn emb_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| rng.gen_range(-16i64..16) as f32 / 8.0)
        .collect()
}

/// A stored `emb` row: mostly an [`emb_vector`] of [`EMB_DIM`]; now and then
/// an off-dimension row, one with a NaN or infinite component, or the zero
/// vector.  None of the odd ones may match a `sim()` comparison the regular
/// rows would not.
fn emb_row(rng: &mut StdRng) -> Vec<f32> {
    match rng.gen_range(0..20) {
        0 => emb_vector(rng, EMB_DIM + 2),
        1 => {
            let mut v = emb_vector(rng, EMB_DIM);
            v[rng.gen_range(0..EMB_DIM)] =
                [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
            v
        }
        2 => vec![0.0; EMB_DIM],
        _ => emb_vector(rng, EMB_DIM),
    }
}

/// A random query over the graphs of [`graph_epochs`], in one of three
/// shapes:
///
/// * **flat** — a root with one to three children: backbone outputs, or
///   predicate children combined by AND / OR / NOT;
/// * **tree** — a backbone tree of depth up to 3 whose outputs are marked in
///   shuffled order, sometimes with a negated predicate child at the root;
/// * **sim** — a root carrying a `sim()` conjunct, sometimes with one
///   backbone child.
///
/// Nodes are created in the text form's order (pre-order, backbone children
/// before predicate children), so a query whose outputs are marked in node
/// order prints to text that parses back to it exactly.
pub fn random_query(rng: &mut StdRng) -> Gtpq {
    let b = random_query_builder(rng);
    b.build().expect("generated queries are valid")
}

fn random_query_builder(rng: &mut StdRng) -> GtpqBuilder {
    match rng.gen_range(0..3) {
        0 => flat_query(rng),
        1 => tree_query(rng),
        _ => sim_query(rng),
    }
}

/// Every comparison operator; `node_attr` draws from sub-ranges of it,
/// `text_attr` from all of it.
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Le,
    CmpOp::Ge,
    CmpOp::Lt,
    CmpOp::Gt,
];

/// A node pattern: any node, a label, or a label range or inequality (so
/// half the nodes match on average), now and then narrowed by a `year` or
/// `note` comparison.
fn node_attr(rng: &mut StdRng) -> AttrPredicate {
    let label = AttrValue::str(&label(rng));
    let p = match rng.gen_range(0..8) {
        0..=2 => AttrPredicate::any(),
        3 | 4 => AttrPredicate::any().and(LABEL_ATTR, CmpOp::Eq, label),
        _ => AttrPredicate::any().and(LABEL_ATTR, OPS[rng.gen_range(1..4usize)], label),
    };
    match rng.gen_range(0..16) {
        0 => p.and("year", OPS[rng.gen_range(0..6usize)], year(rng)),
        1 => {
            let note = AttrValue::str(&format!("t{}", rng.gen_range(0..4)));
            p.and("note", OPS[rng.gen_range(0..2usize)], note)
        }
        _ => p,
    }
}

/// The pattern of a predicate child: one label, narrow enough that its
/// negation keeps some nodes.
fn label_attr(rng: &mut StdRng) -> AttrPredicate {
    AttrPredicate::label(&label(rng))
}

fn edge(rng: &mut StdRng, child_share: f64) -> EdgeKind {
    if rng.gen_bool(child_share) {
        EdgeKind::Child
    } else {
        EdgeKind::Descendant
    }
}

fn flat_query(rng: &mut StdRng) -> GtpqBuilder {
    let mut b = GtpqBuilder::new(node_attr(rng));
    let root = b.root_id();
    let children = rng.gen_range(1..4usize);
    let mode = rng.gen_range(0u8..4);
    let predicates = if mode > 0 { children.min(2) } else { 0 };
    let backbone = children - predicates;
    // The root is an output unless a backbone child is and a coin says
    // otherwise; at most three nodes are.
    if backbone == 0 || (backbone < 3 && rng.gen_bool(0.5)) {
        b.mark_output(root);
    }
    for _ in 0..backbone {
        let c = b.backbone_child(root, edge(rng, 0.5), node_attr(rng));
        b.mark_output(c);
    }
    let mut vars = Vec::new();
    for _ in 0..predicates {
        let p = b.predicate_child(root, edge(rng, 0.5), label_attr(rng));
        vars.push(BoolExpr::Var(p.var()));
    }
    let fs = match (mode, vars.as_slice()) {
        (1, [a]) | (3, [a]) => BoolExpr::not(a.clone()),
        (1, [a, c]) => BoolExpr::or2(a.clone(), BoolExpr::not(c.clone())),
        (2, [a]) => a.clone(),
        (2, [a, c]) => BoolExpr::or2(a.clone(), c.clone()),
        (3, [a, c]) => BoolExpr::and2(a.clone(), BoolExpr::not(c.clone())),
        _ => BoolExpr::True,
    };
    b.set_structural(root, fs);
    b
}

fn tree_query(rng: &mut StdRng) -> GtpqBuilder {
    fn grow(
        b: &mut GtpqBuilder,
        rng: &mut StdRng,
        u: QueryNodeId,
        depth: usize,
        nodes: &mut Vec<QueryNodeId>,
    ) {
        if depth == 3 {
            return;
        }
        for _ in 0..rng.gen_range(usize::from(depth == 0)..3) {
            if nodes.len() == 5 {
                return;
            }
            let c = b.backbone_child(u, edge(rng, 0.2), node_attr(rng));
            nodes.push(c);
            grow(b, rng, c, depth + 1, nodes);
        }
    }
    let mut b = GtpqBuilder::new(node_attr(rng));
    let root = b.root_id();
    let mut outputs = vec![root];
    grow(&mut b, rng, root, 0, &mut outputs);
    if rng.gen_bool(0.2) {
        let p = b.predicate_child(root, edge(rng, 0.3), label_attr(rng));
        b.set_structural(root, BoolExpr::not(BoolExpr::Var(p.var())));
    }
    // Any non-empty subset of up to three backbone nodes, marked in shuffled
    // order: that order decides the column layout the enumerator must
    // produce, parents after children and sibling subtrees interleaved.
    for i in (1..outputs.len()).rev() {
        outputs.swap(i, rng.gen_range(0..=i));
    }
    outputs.truncate(rng.gen_range(1..=outputs.len().min(3)));
    for u in outputs {
        b.mark_output(u);
    }
    b
}

fn sim_query(rng: &mut StdRng) -> GtpqBuilder {
    // Now and then a query vector of another dimensionality than the
    // indexed rows, which no table serves.
    let dim = EMB_DIM + 2 * usize::from(rng.gen_bool(0.1));
    let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.gen_range(0..4usize)];
    // L2 radii for `<` / `<=`, cosine similarities for `>` / `>=`.
    let thresholds = match op {
        CmpOp::Lt | CmpOp::Le => [2.0, 3.0, 4.5],
        _ => [-0.5, 0.0, 0.5],
    };
    let threshold = thresholds[rng.gen_range(0..3usize)];
    let query = emb_vector(rng, dim);
    let attr = if rng.gen_bool(0.5) {
        AttrPredicate::any()
    } else {
        node_attr(rng)
    };
    let mut b = GtpqBuilder::new(attr.and_sim("emb", op, query, threshold));
    let root = b.root_id();
    b.mark_output(root);
    if rng.gen_bool(0.5) {
        let c = b.backbone_child(root, edge(rng, 0.5), node_attr(rng));
        b.mark_output(c);
    }
    b
}

/// A random query whose printed text parses back to it exactly, for the
/// parser's round-trip and fuzz tests.  It has at most `max_nodes` nodes
/// (at least one an output), created in the text form's canonical order:
/// pre-order, each node's backbone children before its predicate children,
/// each formula mentioning its children in creation order.  Some nodes are
/// named (`as n0`), and a formula may refer back to a named child.
pub fn text_query(rng: &mut StdRng, max_nodes: usize) -> Gtpq {
    let b = GtpqBuilder::new(text_attr(rng));
    let mut gen = TextQuery {
        rng,
        budget: max_nodes.max(1) - 1,
        names: 0,
        b,
    };
    let root = gen.b.root_id();
    gen.decorate(root, true);
    gen.populate(root, true, 0);
    let mut b = gen.b;
    // `decorate` marks outputs at random; fall back to the root so the query
    // validates.
    match b.clone().build() {
        Ok(q) => q,
        Err(_) => {
            b.mark_output(root);
            b.build().expect("root output makes the query valid")
        }
    }
}

/// A [`node_attr`], or a pattern only the lexer cares about: a label that
/// needs quoting, or a comparison of any operator against a negative or
/// large int or a string.
fn text_attr(rng: &mut StdRng) -> AttrPredicate {
    match rng.gen_range(0..10) {
        0 => AttrPredicate::label("two words"),
        1 | 2 => {
            let attr = ["year", "value", "price"][rng.gen_range(0..3usize)];
            let value = if rng.gen_bool(0.6) {
                AttrValue::int(rng.gen_range(-5..2020))
            } else {
                AttrValue::str(&label(rng))
            };
            AttrPredicate::any().and(attr, OPS[rng.gen_range(0..6usize)], value)
        }
        _ => node_attr(rng),
    }
}

struct TextQuery<'r> {
    rng: &'r mut StdRng,
    budget: usize,
    names: usize,
    b: GtpqBuilder,
}

impl TextQuery<'_> {
    /// Names and output-marks a freshly created node (names feed the
    /// formula back-references; output marks must happen in pre-order to
    /// match the parser).  Returns whether it was named.
    fn decorate(&mut self, u: QueryNodeId, backbone: bool) -> bool {
        let named = self.rng.gen_bool(0.15);
        if named {
            self.b.set_name(u, &format!("n{}", self.names));
            self.names += 1;
        }
        if backbone && self.rng.gen_bool(0.4) {
            self.b.mark_output(u);
        }
        named
    }

    /// Creates one child of `u` and its subtree, unless the node budget is
    /// spent; returns the child and whether it was named.
    fn child(
        &mut self,
        u: QueryNodeId,
        backbone: bool,
        depth: usize,
    ) -> Option<(QueryNodeId, bool)> {
        self.budget = self.budget.checked_sub(1)?;
        let (edge, attr) = (edge(self.rng, 0.5), text_attr(self.rng));
        let c = if backbone {
            self.b.backbone_child(u, edge, attr)
        } else {
            self.b.predicate_child(u, edge, attr)
        };
        let named = self.decorate(c, backbone);
        self.populate(c, backbone, depth + 1);
        Some((c, named))
    }

    /// Creates the children of `u` in canonical order: backbone subtrees
    /// first (depth-first), then the predicate children woven into a random
    /// structural predicate.
    fn populate(&mut self, u: QueryNodeId, backbone: bool, depth: usize) {
        if depth >= 4 {
            return;
        }
        if backbone {
            for _ in 0..self.rng.gen_range(0..=2u32) {
                self.child(u, true, depth);
            }
        }
        let mut leaves = Vec::new();
        for _ in 0..self.rng.gen_range(0..=2u32) {
            leaves.extend(self.child(u, false, depth));
        }
        if !leaves.is_empty() {
            // A named child may be referenced a second time (the parser's
            // back-reference form); a repeat must come after the first
            // occurrence, so it is appended to the leaf sequence.
            let mut vars: Vec<QueryNodeId> = leaves.iter().map(|(c, _)| *c).collect();
            if let Some((c, _)) = leaves.iter().find(|(_, named)| *named) {
                if self.rng.gen_bool(0.2) {
                    vars.push(*c);
                }
            }
            let fs = self.formula(&vars);
            self.b.set_structural(u, fs);
        }
    }

    /// A random formula whose leaves are exactly `vars`, in order (split
    /// recursively, negate leaves now and then).  Built through the folding
    /// `BoolExpr` constructors, so the AST is in the flattened form the
    /// parser produces.
    fn formula(&mut self, vars: &[QueryNodeId]) -> BoolExpr {
        match vars {
            [] => BoolExpr::True,
            [v] => {
                let leaf = BoolExpr::Var(v.var());
                if self.rng.gen_bool(0.25) {
                    BoolExpr::not(leaf)
                } else {
                    leaf
                }
            }
            _ => {
                let split = self.rng.gen_range(1..vars.len());
                let left = self.formula(&vars[..split]);
                let right = self.formula(&vars[split..]);
                if self.rng.gen_bool(0.5) {
                    BoolExpr::and2(left, right)
                } else {
                    BoolExpr::or2(left, right)
                }
            }
        }
    }
}
