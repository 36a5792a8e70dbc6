//! Canonicalization of GTPQs for result-cache keys.
//!
//! Two syntactically different queries often denote the same pattern: sibling
//! subtrees listed in a different order, structural predicates written
//! `p ∨ q` vs `q ∨ p`, double negations, and so on.  The cache should hit in
//! all those cases, so queries are keyed by a *canonical rendering*:
//!
//! * children of every node are sorted by their own canonical rendering,
//! * structural predicates are renumbered to the sorted child order, put in
//!   NNF, simplified, and rendered with sorted, deduplicated operands,
//! * output nodes are recorded as positions in the canonical pre-order,
//!   separately from the tree shape.
//!
//! The rendering is sound for caching (equal key ⇒ same pattern up to the
//! normalizations above) but deliberately not complete — deeply different
//! but logically equivalent formulas may render differently.  The cache
//! therefore additionally confirms candidate hits with
//! [`gtpq_analysis::equivalent`], which decides true query equivalence
//! (Theorem 4); a missed normalization only costs a cache miss, never a
//! wrong answer.

use std::fmt::Write as _;

use gtpq_graph::AttrValue;
use gtpq_logic::transform::simplify;
use gtpq_logic::{BoolExpr, VarId};
use gtpq_query::{AttrComparison, AttrPredicate, CmpOp, EdgeKind, Gtpq, QueryNodeId};

/// The canonical form of a query, as used by the result cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalQuery {
    /// Full cache key: the skeleton (tree shape and predicates) plus the
    /// output positions in coordinate order.
    pub key: String,
    /// Length of the skeleton prefix of `key`.
    skeleton_len: usize,
    /// For each output coordinate of the query, the position of its node in
    /// the canonical pre-order of the tree.
    pub(crate) output_positions: Vec<usize>,
}

impl CanonicalQuery {
    /// Canonical rendering of the tree shape and predicates — identical for
    /// queries that differ only in sibling order / formula spelling.  Output
    /// marks are *not* part of the skeleton so result tuples can be permuted
    /// between queries sharing it.
    pub(crate) fn skeleton(&self) -> &str {
        &self.key[..self.skeleton_len]
    }
}

/// Computes the canonical form of `q`.
///
/// The key is written into one buffer.  Each node's subtree is rendered at
/// the buffer's end, its children first; the children are sorted as byte
/// ranges of the buffer, and the node's own rendering, followed by copies of
/// the sorted children, then replaces them.
pub fn canonicalize(q: &Gtpq) -> CanonicalQuery {
    let mut w = Canon {
        q,
        buf: String::with_capacity(128 * q.size()),
        ranges: Vec::new(),
        rank: vec![0; q.size()],
        offset: vec![0; q.size()],
    };
    w.subtree(q.root());
    // A node's canonical pre-order position is its parent's plus its offset
    // among the sorted siblings; ids number parents before their children.
    let mut position = w.offset;
    for u in q.node_ids().skip(1) {
        let parent = q.parent(u).expect("non-root");
        position[u.index()] += position[parent.index()];
    }
    let output_positions: Vec<usize> = q
        .output_nodes()
        .iter()
        .map(|u| position[u.index()])
        .collect();
    let mut key = w.buf;
    let skeleton_len = key.len();
    key.push_str("|out:");
    for (i, p) in output_positions.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{p}");
    }
    CanonicalQuery {
        key,
        skeleton_len,
        output_positions,
    }
}

/// The state of one [`canonicalize`] call.
struct Canon<'q> {
    q: &'q Gtpq,
    /// The key being written.
    buf: String,
    /// Scratch stack of `(start, end, tag, nodes)` byte ranges of `buf`
    /// being sorted: one node's children (tagged with their id, and holding
    /// `nodes` nodes), a predicate's conjuncts or a formula's operands.
    ranges: Vec<(usize, usize, u32, usize)>,
    /// Each node's position among its sorted siblings: its variable's
    /// number in the parent's canonical formula.
    rank: Vec<u32>,
    /// Each node's canonical pre-order position relative to its parent's.
    offset: Vec<usize>,
}

impl Canon<'_> {
    /// Appends `(kind edge [predicate] {formula} children)` for the subtree
    /// rooted at `u`; returns its node count.
    fn subtree(&mut self, u: QueryNodeId) -> usize {
        let q = self.q;
        let start = self.buf.len();
        let base = self.ranges.len();
        for &c in q.children(u) {
            let child_start = self.buf.len();
            let nodes = self.subtree(c);
            self.ranges.push((child_start, self.buf.len(), c.0, nodes));
        }
        // Sort children by canonical rendering; ties (structurally identical
        // siblings) are broken by original id for determinism.
        self.sort_ranges(base);
        let mut nodes = 1;
        for (rank, &(_, _, c, size)) in self.ranges[base..].iter().enumerate() {
            self.rank[c as usize] = rank as u32;
            self.offset[c as usize] = nodes;
            nodes += size;
        }
        let own = self.buf.len();
        self.buf.push('(');
        self.buf.push(if q.is_backbone(u) { 'B' } else { 'P' });
        self.buf.push_str(match q.incoming_edge(u) {
            Some(EdgeKind::Child) => "/",
            Some(EdgeKind::Descendant) => "//",
            None => ".",
        });
        self.buf.push('[');
        self.attr(&q.node(u).attr);
        self.buf.push_str("]{");
        self.formula(q.fs(u));
        self.buf.push('}');
        for i in base..self.ranges.len() {
            let (s, e, _, _) = self.ranges[i];
            self.buf.extend_from_within(s..e);
        }
        self.buf.push(')');
        self.ranges.truncate(base);
        self.buf.drain(start..own);
        nodes
    }

    /// Appends an attribute predicate, rendered *injectively*.
    ///
    /// The cache treats equal keys as proof of equivalence, so this must
    /// never map two different predicates to one string.  `Display` is not
    /// injective (`Int(5)` and `Str("5")` both render `x = 5`, and unescaped
    /// names can smuggle in the key's own delimiters), so each comparison
    /// and each `sim()` conjunct is written in its `Debug` form — type-tagged,
    /// with escaped strings and round-tripping floats.  The conjuncts are
    /// sorted and deduplicated so their order does not change the key.
    fn attr(&mut self, p: &AttrPredicate) {
        let (base, from) = (self.ranges.len(), self.buf.len());
        for c in &p.comparisons {
            let s = self.buf.len();
            comparison_debug(&mut self.buf, c);
            self.ranges.push((s, self.buf.len(), 0, 0));
        }
        for sim in &p.sims {
            let s = self.buf.len();
            let _ = write!(self.buf, "{sim:?}");
            self.ranges.push((s, self.buf.len(), 0, 0));
        }
        self.join_sorted(base, from);
    }

    /// Appends a node's structural predicate with its variables renumbered
    /// to the sorted child order, put in NNF, simplified, and written with
    /// sorted, deduplicated operands.  A constant or a literal needs none of
    /// that and is written directly.
    fn formula(&mut self, fs: &BoolExpr) {
        match fs {
            BoolExpr::True => self.buf.push('1'),
            BoolExpr::False => self.buf.push('0'),
            BoolExpr::Var(v) => self.var(*v),
            BoolExpr::Not(inner) if matches!(**inner, BoolExpr::Var(_)) => {
                self.buf.push('!');
                self.formula(inner);
            }
            _ => {
                let canonical = simplify(&self.nnf(fs, false));
                self.expr(&canonical);
            }
        }
    }

    /// Appends `v<rank>` for a child's variable.
    fn var(&mut self, v: VarId) {
        let _ = write!(self.buf, "v{}", self.rank[v.index()]);
    }

    /// Negation normal form of `e` (negated when `negated`), with each
    /// child's variable renumbered to its rank.
    fn nnf(&self, e: &BoolExpr, negated: bool) -> BoolExpr {
        match e {
            BoolExpr::True | BoolExpr::False => {
                if (*e == BoolExpr::True) != negated {
                    BoolExpr::True
                } else {
                    BoolExpr::False
                }
            }
            BoolExpr::Var(v) => {
                let renamed = BoolExpr::Var(VarId(self.rank[v.index()]));
                if negated {
                    BoolExpr::Not(Box::new(renamed))
                } else {
                    renamed
                }
            }
            BoolExpr::Not(inner) => self.nnf(inner, !negated),
            BoolExpr::And(items) | BoolExpr::Or(items) => {
                let converted = items.iter().map(|item| self.nnf(item, negated));
                if matches!(e, BoolExpr::And(_)) != negated {
                    BoolExpr::and(converted)
                } else {
                    BoolExpr::or(converted)
                }
            }
        }
    }

    /// Appends a renumbered, NNF, simplified formula, the operands of each
    /// connective sorted and deduplicated so commutative and idempotent
    /// spellings coincide.
    fn expr(&mut self, e: &BoolExpr) {
        match e {
            BoolExpr::True => self.buf.push('1'),
            BoolExpr::False => self.buf.push('0'),
            BoolExpr::Var(v) => {
                let _ = write!(self.buf, "v{}", v.0);
            }
            BoolExpr::Not(inner) => {
                self.buf.push('!');
                self.expr(inner);
            }
            BoolExpr::And(items) | BoolExpr::Or(items) => {
                self.buf.push_str(if matches!(e, BoolExpr::And(_)) {
                    "&("
                } else {
                    "|("
                });
                let (base, from) = (self.ranges.len(), self.buf.len());
                for item in items {
                    let s = self.buf.len();
                    self.expr(item);
                    self.ranges.push((s, self.buf.len(), 0, 0));
                }
                self.join_sorted(base, from);
                self.buf.push(')');
            }
        }
    }

    /// Replaces the parts `ranges[base..]`, written from byte `from` on, by
    /// their sorted, deduplicated, comma-separated join.
    fn join_sorted(&mut self, base: usize, from: usize) {
        if self.ranges.len() - base > 1 {
            self.sort_ranges(base);
            let joined = self.buf.len();
            let mut last: Option<(usize, usize)> = None;
            for i in base..self.ranges.len() {
                let (s, e, _, _) = self.ranges[i];
                let bytes = self.buf.as_bytes();
                if last.is_some_and(|(ls, le)| bytes[ls..le] == bytes[s..e]) {
                    continue;
                }
                if last.is_some() {
                    self.buf.push(',');
                }
                self.buf.extend_from_within(s..e);
                last = Some((s, e));
            }
            self.buf.drain(from..joined);
        }
        self.ranges.truncate(base);
    }

    /// Sorts `ranges[base..]` by the bytes they cover, then by tag.
    fn sort_ranges(&mut self, base: usize) {
        let buf = self.buf.as_bytes();
        self.ranges[base..].sort_by(|a, b| buf[a.0..a.1].cmp(&buf[b.0..b.1]).then(a.2.cmp(&b.2)));
    }
}

/// Appends `c`'s derived `Debug` form, such as
/// `AttrComparison { attr: "label", op: Eq, value: Str("a") }`, handing only
/// the strings to the formatting machinery (a derived `Debug` costs more than
/// the rest of a node's key).
fn comparison_debug(buf: &mut String, c: &AttrComparison) {
    if !matches!(c.value, AttrValue::Str(_) | AttrValue::Int(_)) {
        let _ = write!(buf, "{c:?}");
        return;
    }
    buf.push_str("AttrComparison { attr: ");
    let _ = write!(buf, "{:?}", c.attr);
    buf.push_str(match c.op {
        CmpOp::Lt => ", op: Lt",
        CmpOp::Le => ", op: Le",
        CmpOp::Eq => ", op: Eq",
        CmpOp::Ne => ", op: Ne",
        CmpOp::Gt => ", op: Gt",
        CmpOp::Ge => ", op: Ge",
    });
    let _ = match &c.value {
        AttrValue::Str(s) => write!(buf, ", value: Str({s:?}) }}"),
        value => write!(buf, ", value: {value:?} }}"),
    };
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use gtpq_logic::transform::{rename_vars, to_nnf};
    use gtpq_query::{AttrPredicate, CmpOp, EdgeKind, GtpqBuilder};

    use super::*;

    /// The reference key, rendered recursively with a `String`, a
    /// `HashMap` and a `Vec` per node; `canonicalize` must match it byte for
    /// byte.
    fn reference_key(q: &Gtpq) -> String {
        fn subtree(q: &Gtpq, u: QueryNodeId) -> (String, Vec<QueryNodeId>) {
            let mut rendered: Vec<(String, Vec<QueryNodeId>, QueryNodeId)> = q
                .children(u)
                .iter()
                .map(|&c| {
                    let (s, order) = subtree(q, c);
                    (s, order, c)
                })
                .collect();
            rendered.sort_by(|a, b| a.0.cmp(&b.0).then(a.2.cmp(&b.2)));
            let var_map: HashMap<_, _> = rendered
                .iter()
                .enumerate()
                .map(|(i, (_, _, c))| (c.var(), VarId(i as u32)))
                .collect();
            let fs = simplify(&to_nnf(&rename_vars(q.fs(u), &var_map)));
            let kind = if q.is_backbone(u) { 'B' } else { 'P' };
            let edge = match q.incoming_edge(u) {
                Some(EdgeKind::Child) => "/",
                Some(EdgeKind::Descendant) => "//",
                None => ".",
            };
            let node = q.node(u);
            let mut parts: Vec<String> = node
                .attr
                .comparisons
                .iter()
                .map(|c| format!("{c:?}"))
                .collect();
            parts.extend(node.attr.sims.iter().map(|s| format!("{s:?}")));
            parts.sort_unstable();
            parts.dedup();
            let mut s = format!("({kind}{edge}[{}]{{{}}}", parts.join(","), expr(&fs));
            let mut preorder = vec![u];
            for (child_s, child_order, _) in rendered {
                s.push_str(&child_s);
                preorder.extend(child_order);
            }
            s.push(')');
            (s, preorder)
        }
        fn expr(e: &BoolExpr) -> String {
            let joined = |items: &[BoolExpr]| {
                let mut parts: Vec<String> = items.iter().map(expr).collect();
                parts.sort_unstable();
                parts.dedup();
                parts.join(",")
            };
            match e {
                BoolExpr::True => "1".into(),
                BoolExpr::False => "0".into(),
                BoolExpr::Var(v) => format!("v{}", v.0),
                BoolExpr::Not(inner) => format!("!{}", expr(inner)),
                BoolExpr::And(items) => format!("&({})", joined(items)),
                BoolExpr::Or(items) => format!("|({})", joined(items)),
            }
        }
        let (skeleton, preorder) = subtree(q, q.root());
        let positions: Vec<String> = q
            .output_nodes()
            .iter()
            .map(|u| preorder.iter().position(|x| x == u).unwrap().to_string())
            .collect();
        format!("{skeleton}|out:{}", positions.join(","))
    }

    /// A xorshift generator: the tests need no more than reproducible noise.
    struct Noise(u64);

    impl Noise {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        /// Zero to three (sometimes duplicate) comparisons.
        fn attr(&mut self) -> AttrPredicate {
            let mut p = AttrPredicate::any();
            for _ in 0..self.below(4) {
                p = match self.below(3) {
                    0 => p.and(
                        "label",
                        CmpOp::Eq,
                        format!("l{}", self.below(3)).as_str().into(),
                    ),
                    1 => p.and("year", CmpOp::Ge, (self.below(3) as i64).into()),
                    _ => p.and("x", CmpOp::Ne, "5".into()),
                };
            }
            p
        }

        /// A formula over `vars`, built raw or folded, with constants,
        /// negations and repeated variables.
        fn formula(&mut self, vars: &[BoolExpr]) -> BoolExpr {
            let pick = |n: &mut Self| vars[n.below(vars.len())].clone();
            let mut items: Vec<BoolExpr> = (0..1 + self.below(3)).map(|_| pick(self)).collect();
            items.push(match self.below(5) {
                0 => BoolExpr::True,
                1 => BoolExpr::False,
                2 => BoolExpr::Not(Box::new(pick(self))),
                3 => BoolExpr::Or(vec![pick(self), BoolExpr::not(pick(self))]),
                _ => BoolExpr::And(vec![pick(self), pick(self)]),
            });
            match self.below(4) {
                0 => BoolExpr::And(items),
                1 => BoolExpr::or(items),
                2 => BoolExpr::Not(Box::new(BoolExpr::Or(items))),
                _ => BoolExpr::Or(vec![BoolExpr::And(items), pick(self)]),
            }
        }

        /// A query of up to nine nodes, with repeated sibling patterns.
        fn query(&mut self) -> Gtpq {
            let mut b = GtpqBuilder::new(self.attr());
            let mut nodes = vec![(b.root_id(), true)];
            let mut predicates: Vec<Vec<BoolExpr>> = vec![Vec::new()];
            for _ in 0..self.below(9) {
                let (parent, backbone) = nodes[self.below(nodes.len())];
                let edge = [EdgeKind::Child, EdgeKind::Descendant][self.below(2)];
                let attr = self.attr();
                let child = if backbone && self.below(2) == 0 {
                    let child = b.backbone_child(parent, edge, attr);
                    if self.below(2) == 0 {
                        b.mark_output(child);
                    }
                    nodes.push((child, true));
                    child
                } else {
                    let child = b.predicate_child(parent, edge, attr);
                    predicates[parent.index()].push(BoolExpr::Var(child.var()));
                    nodes.push((child, false));
                    child
                };
                debug_assert_eq!(child.index(), predicates.len());
                predicates.push(Vec::new());
            }
            b.mark_output(b.root_id());
            for (u, vars) in predicates.iter().enumerate() {
                if !vars.is_empty() {
                    let fs = self.formula(vars);
                    b.set_structural(QueryNodeId(u as u32), fs);
                }
            }
            b.build().expect("formulas name predicate children only")
        }
    }

    #[test]
    fn comparisons_are_written_as_their_derived_debug_form() {
        let strings = [
            "",
            "label",
            "a\"b\\c\n\t",
            "ü",
            "\u{7f}",
            "\u{200b}",
            "🦀",
            "'",
        ];
        let values = strings
            .iter()
            .map(|&s| AttrValue::str(s))
            .chain([i64::MIN, -5, 0, 42, i64::MAX].map(AttrValue::Int))
            .chain([AttrValue::Vec(vec![0.5, -1.0])]);
        for value in values {
            for attr in strings {
                for op in [
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ] {
                    let c = AttrComparison {
                        attr: attr.to_owned(),
                        op,
                        value: value.clone(),
                    };
                    let mut buf = String::new();
                    comparison_debug(&mut buf, &c);
                    assert_eq!(buf, format!("{c:?}"));
                }
            }
        }
    }

    #[test]
    fn keys_are_byte_identical_to_the_recursive_renderer() {
        let mut noise = Noise(0x2545_F491_4F6C_DD1D);
        for case in 0..3000 {
            let q = noise.query();
            let canon = canonicalize(&q);
            assert_eq!(canon.key, reference_key(&q), "case {case}: {q}");
            assert!(canon.key.starts_with(canon.skeleton()));
        }
    }

    #[test]
    fn sibling_order_does_not_change_the_key() {
        let build = |swap: bool| {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let labels = if swap { ["c", "b"] } else { ["b", "c"] };
            for l in labels {
                let n = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label(l));
                b.mark_output(n);
            }
            b.build().unwrap()
        };
        let (q1, q2) = (build(false), build(true));
        let (c1, c2) = (canonicalize(&q1), canonicalize(&q2));
        assert_eq!(c1.skeleton(), c2.skeleton());
        // Output coordinates follow mark order, which differs between the two
        // spellings — captured by the positions, not the skeleton.
        assert_eq!(c1.output_positions.len(), 2);
        assert_eq!(
            c1.output_positions
                .iter()
                .rev()
                .copied()
                .collect::<Vec<_>>(),
            c2.output_positions
        );
    }

    #[test]
    fn disjunct_order_does_not_change_the_key() {
        let build = |swap: bool| {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let p1 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
            let p2 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
            let (x, y) = if swap { (p2, p1) } else { (p1, p2) };
            b.set_structural(
                root,
                BoolExpr::or2(BoolExpr::Var(x.var()), BoolExpr::Var(y.var())),
            );
            b.mark_output(root);
            b.build().unwrap()
        };
        assert_eq!(
            canonicalize(&build(false)).key,
            canonicalize(&build(true)).key
        );
    }

    #[test]
    fn different_patterns_get_different_keys() {
        let build = |label: &str| {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let n = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label(label));
            b.mark_output(n);
            b.build().unwrap()
        };
        assert_ne!(canonicalize(&build("b")).key, canonicalize(&build("c")).key);
    }

    #[test]
    fn attr_value_type_is_part_of_the_key() {
        // `Int(5)` and `Str("5")` render identically under `Display`; the
        // key must distinguish them or the cache's "equal key ⇒ equivalent"
        // fast path would serve one query's results to the other.
        let build = |value: gtpq_graph::AttrValue| {
            let mut b = GtpqBuilder::new(AttrPredicate::eq("x", value));
            let root = b.root_id();
            b.mark_output(root);
            b.build().unwrap()
        };
        assert_ne!(
            canonicalize(&build(gtpq_graph::AttrValue::Int(5))).key,
            canonicalize(&build(gtpq_graph::AttrValue::str("5"))).key
        );
    }

    #[test]
    fn sim_conjuncts_are_part_of_the_key() {
        // Two queries that differ only in a `sim()` conjunct must not share
        // a key: the result cache would serve one query's rows to the other.
        let build = |query: Vec<f32>, threshold: f32| {
            let attr = AttrPredicate::any().and_sim("emb", gtpq_query::CmpOp::Lt, query, threshold);
            let mut b = GtpqBuilder::new(attr);
            let root = b.root_id();
            b.mark_output(root);
            canonicalize(&b.build().unwrap()).key
        };
        let key = build(vec![0.5, 1.0], 2.5);
        assert_eq!(key, build(vec![0.5, 1.0], 2.5));
        assert_ne!(key, build(vec![0.5, -1.0], 2.5));
        assert_ne!(key, build(vec![0.5, 1.0], 4.5));
    }

    #[test]
    fn conjunct_order_does_not_change_the_key() {
        let build = |swap: bool| {
            let attr = if swap {
                AttrPredicate::label("a").and("x", gtpq_query::CmpOp::Eq, 1.into())
            } else {
                AttrPredicate::eq("x", 1.into()).and(
                    gtpq_graph::LABEL_ATTR,
                    gtpq_query::CmpOp::Eq,
                    "a".into(),
                )
            };
            let mut b = GtpqBuilder::new(attr);
            let root = b.root_id();
            b.mark_output(root);
            b.build().unwrap()
        };
        assert_eq!(
            canonicalize(&build(false)).key,
            canonicalize(&build(true)).key
        );
    }

    #[test]
    fn edge_kind_is_part_of_the_key() {
        let build = |edge: EdgeKind| {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let n = b.backbone_child(root, edge, AttrPredicate::label("b"));
            b.mark_output(n);
            b.build().unwrap()
        };
        assert_ne!(
            canonicalize(&build(EdgeKind::Child)).key,
            canonicalize(&build(EdgeKind::Descendant)).key
        );
    }
}
