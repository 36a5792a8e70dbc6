//! Attribute predicates: conjunctions of `attribute op constant` comparisons
//! and `sim(...)` conjuncts.
//!
//! One private classification, `AttrPredicate::probes`, decides which
//! index probes select a predicate's candidates: exact `=` postings, one
//! merged integer range per attribute, the carriers of an attribute whose
//! comparisons are verified per node, and pivot tables.  Candidate
//! selection materialises those probes and its estimate reads their
//! lengths, so the two cannot disagree on what the index answers.

use gtpq_graph::{intersect_many, AttrValue, DataGraph, NodeId, SimTable, Symbol};
use serde::{Deserialize, Serialize};

/// The six comparison operators of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering of `left` relative to `right`.
    pub(crate) fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A single atomic comparison `attr op value`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttrComparison {
    /// Attribute name.
    pub attr: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant compared against.
    pub value: AttrValue,
}

impl AttrComparison {
    /// Writes the `Display` form to any writer; into a `String` the pieces
    /// are plain appends.
    fn write_to<W: std::fmt::Write>(&self, w: &mut W) -> std::fmt::Result {
        w.write_str(&self.attr)?;
        w.write_str(" ")?;
        write!(w, "{}", self.op)?;
        w.write_str(" ")?;
        match &self.value {
            AttrValue::Str(s) => w.write_str(s),
            value => write!(w, "{value}"),
        }
    }
}

impl std::fmt::Display for AttrComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write_to(f)
    }
}

/// A similarity conjunct `sim(attr, [q0, q1, ...]) op t` over an
/// embedding-valued attribute.
///
/// `<` / `<=` compare the **L2 distance** between the stored vector and
/// `query` against `t` (a radius query); `>` / `>=` compare the **cosine
/// similarity** (a nearness query).  `=` / `!=` are rejected by the parser
/// and never match.  A node whose attribute is missing, non-vector, of a
/// different dimensionality than `query`, or carries a non-finite component
/// (NaN or ±∞) does not match.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimComparison {
    /// Attribute name.
    pub attr: String,
    /// The query vector.
    pub query: Vec<f32>,
    /// Comparison operator applied to the distance (`<`, `<=`) or cosine
    /// similarity (`>`, `>=`).
    pub op: CmpOp,
    /// Threshold compared against.
    pub threshold: f32,
}

impl SimComparison {
    /// Whether a stored attribute value satisfies this conjunct.  This is
    /// the exact semantics the pivot-filtered access path must reproduce
    /// bit for bit (same [`gtpq_sim::l2`] / [`gtpq_sim::cosine`] kernels as
    /// [`gtpq_graph::SimTable`]'s verification step).
    pub(crate) fn matches_value(&self, value: &AttrValue) -> bool {
        let Some(x) = value.as_vec() else {
            return false;
        };
        if x.len() != self.query.len() || !x.iter().all(|c| c.is_finite()) {
            return false;
        }
        match self.op {
            CmpOp::Lt => gtpq_sim::l2(x, &self.query) < self.threshold,
            CmpOp::Le => gtpq_sim::l2(x, &self.query) <= self.threshold,
            CmpOp::Gt => gtpq_sim::cosine(x, &self.query) > self.threshold,
            CmpOp::Ge => gtpq_sim::cosine(x, &self.query) >= self.threshold,
            CmpOp::Eq | CmpOp::Ne => false,
        }
    }

    /// Whether some vector could satisfy this conjunct at all: L2 distances
    /// are non-negative and cosine similarity never exceeds 1.
    fn is_satisfiable(&self) -> bool {
        match self.op {
            CmpOp::Lt => self.threshold > 0.0,
            CmpOp::Le => self.threshold >= 0.0,
            CmpOp::Gt => self.threshold < 1.0,
            CmpOp::Ge => self.threshold <= 1.0,
            CmpOp::Eq | CmpOp::Ne => false,
        }
    }

    /// Bit-exact query-vector equality (NaN-safe, used by entailment).
    fn same_query(&self, other: &SimComparison) -> bool {
        self.query.len() == other.query.len()
            && self
                .query
                .iter()
                .zip(&other.query)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl std::fmt::Display for SimComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sim({}, [", self.attr)?;
        for (i, x) in self.query.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "]) {} {}", self.op, self.threshold)
    }
}

/// The outcome of index-backed candidate selection
/// (`AttrPredicate::select_candidates`).
#[derive(Clone, Debug, Default)]
pub struct CandidateSelection {
    /// The selected candidates, sorted by node id.
    pub nodes: Vec<NodeId>,
    /// Whether the set was served without scanning per-node attribute data
    /// (posting-list intersections, or trivially for the wildcard).
    pub from_index: bool,
    /// Number of nodes whose attribute tuples were individually checked
    /// (zero when `from_index`).
    pub verified: u64,
    /// Number of inverted-index posting entries read.
    pub posting_entries: u64,
    /// Indexed vectors dismissed by the pivot filter's triangle-inequality
    /// screen without an exact distance computation.
    pub sim_pivot_filtered: u64,
    /// Pivot-filter survivors whose exact distance / cosine was computed.
    pub sim_verified: u64,
}

/// An attribute predicate `fa(u)`: a conjunction of atomic comparisons and
/// similarity conjuncts.
///
/// The empty predicate is satisfied by every data node (wildcard / `*`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AttrPredicate {
    /// The plain comparison conjuncts.
    pub comparisons: Vec<AttrComparison>,
    /// The similarity conjuncts.
    pub sims: Vec<SimComparison>,
}

impl AttrPredicate {
    /// The wildcard predicate satisfied by every node.
    pub fn any() -> Self {
        Self::default()
    }

    /// Predicate `label = value` — the common case in the synthetic datasets.
    pub fn label(value: &str) -> Self {
        Self::eq(gtpq_graph::LABEL_ATTR, AttrValue::str(value))
    }

    /// Predicate `attr = value`.
    pub fn eq(attr: &str, value: AttrValue) -> Self {
        Self {
            comparisons: vec![AttrComparison {
                attr: attr.to_owned(),
                op: CmpOp::Eq,
                value,
            }],
            sims: Vec::new(),
        }
    }

    /// Adds a comparison, returning `self` for chaining.
    pub fn and(mut self, attr: &str, op: CmpOp, value: AttrValue) -> Self {
        self.comparisons.push(AttrComparison {
            attr: attr.to_owned(),
            op,
            value,
        });
        self
    }

    /// Adds a similarity conjunct `sim(attr, query) op threshold`, returning
    /// `self` for chaining (`<`/`<=` = L2 distance, `>`/`>=` = cosine).
    pub fn and_sim(mut self, attr: &str, op: CmpOp, query: Vec<f32>, threshold: f32) -> Self {
        self.sims.push(SimComparison {
            attr: attr.to_owned(),
            query,
            op,
            threshold,
        });
        self
    }

    /// Whether data node `v` of graph `g` satisfies the predicate (`v ∼ u`).
    ///
    /// Every comparison must find an attribute of the same name whose value
    /// compares as required; comparisons across value kinds fail.
    pub fn matches(&self, g: &DataGraph, v: NodeId) -> bool {
        self.comparisons.iter().all(|cmp| {
            g.attribute_value(v, &cmp.attr)
                .and_then(|actual| actual.partial_cmp_same_kind(&cmp.value))
                .is_some_and(|ord| cmp.op.eval(ord))
        }) && self.sims.iter().all(|sim| {
            g.attribute_value(v, &sim.attr)
                .is_some_and(|actual| sim.matches_value(actual))
        })
    }

    /// Whether the predicate is satisfiable *in isolation*: no two comparisons
    /// on the same attribute contradict each other.
    ///
    /// Used by the satisfiability and minimization algorithms (§3), which
    /// remove query nodes whose attribute predicate can never hold.
    pub fn is_satisfiable(&self) -> bool {
        // A similarity conjunct asking for a negative distance or a cosine
        // above 1 can never hold (NaN thresholds fail every comparison).
        if self.sims.iter().any(|s| !s.is_satisfiable()) {
            return false;
        }
        // Group comparisons by attribute and check that the implied interval /
        // (in)equality constraints are consistent.  A group is gathered at
        // its first comparison; a lone one needs no gathering.
        let comparisons = &self.comparisons;
        comparisons.iter().enumerate().all(|(i, c)| {
            let same = |d: &&AttrComparison| d.attr == c.attr;
            if comparisons[..i].iter().any(|d| same(&d)) {
                return true;
            }
            if !comparisons[i + 1..].iter().any(|d| same(&d)) {
                return Self::attr_group_satisfiable(&[c]);
            }
            let cs: Vec<&AttrComparison> = comparisons[i..].iter().filter(same).collect();
            Self::attr_group_satisfiable(&cs)
        })
    }

    fn attr_group_satisfiable(cs: &[&AttrComparison]) -> bool {
        // Mixed kinds on one attribute can never all hold.
        let all_int = cs.iter().all(|c| matches!(c.value, AttrValue::Int(_)));
        let all_str = cs.iter().all(|c| matches!(c.value, AttrValue::Str(_)));
        if !all_int && !all_str {
            return false;
        }
        if all_str {
            // Only handle equality-style reasoning for strings.
            let eqs = cs.iter().filter(|c| c.op == CmpOp::Eq).map(|c| &c.value);
            if let Some(eq) = eqs.clone().next() {
                if eqs.clone().any(|other| other != eq) {
                    return false;
                }
                if cs.iter().any(|c| c.op == CmpOp::Ne && &c.value == eq) {
                    return false;
                }
                // Range operators over strings: conservatively treat as
                // satisfiable unless they directly contradict an equality.
                for c in cs {
                    if let Some(ord) = eq.partial_cmp_same_kind(&c.value) {
                        if !c.op.eval(ord) {
                            return false;
                        }
                    }
                }
            }
            return true;
        }
        // Integers: compute the feasible interval plus not-equal points.
        let mut lo = i64::MIN;
        let mut hi = i64::MAX;
        let mut eq: Option<i64> = None;
        let mut ne: Vec<i64> = Vec::new();
        for c in cs {
            let AttrValue::Int(val) = c.value else {
                unreachable!("kind checked above")
            };
            match c.op {
                CmpOp::Lt => hi = hi.min(val.saturating_sub(1)),
                CmpOp::Le => hi = hi.min(val),
                CmpOp::Gt => lo = lo.max(val.saturating_add(1)),
                CmpOp::Ge => lo = lo.max(val),
                CmpOp::Eq => match eq {
                    Some(e) if e != val => return false,
                    _ => eq = Some(val),
                },
                CmpOp::Ne => ne.push(val),
            }
        }
        if lo > hi {
            return false;
        }
        if let Some(e) = eq {
            if e < lo || e > hi || ne.contains(&e) {
                return false;
            }
            return true;
        }
        // The interval must contain a point not excluded by !=.
        let width = (hi as i128) - (lo as i128) + 1;
        ne.sort_unstable();
        ne.dedup();
        let excluded = ne.iter().filter(|&&x| x >= lo && x <= hi).count() as i128;
        width > excluded
    }

    /// The index probes that select `{v | v ∼ self}` in `g`: the one place
    /// that decides which conjuncts the inverted index and the pivot tables
    /// answer.  Postings come first, then one range per attribute whose
    /// integer `<`, `<=`, `>`, `>=` bounds merge into it, then the `sim`
    /// conjuncts; each probe resolves its attribute's symbol once.  The
    /// wildcard lists no probe.
    fn probes<'a>(&'a self, g: &'a DataGraph) -> impl Iterator<Item = Probe<'a>> + 'a {
        let index = g.attr_index();
        let comparisons = &self.comparisons;
        let postings = comparisons
            .iter()
            .filter(|c| int_bounds(c).is_none())
            .map(move |c| match g.symbols().get(&c.attr) {
                None => Probe::Exact(&[]), // the graph never carries it
                Some(sym) if c.op == CmpOp::Eq => Probe::Exact(index.nodes_eq(sym, &c.value)),
                Some(sym) => Probe::Carriers(index.nodes_with_name(sym)),
            });
        let ranges = comparisons.iter().enumerate().filter_map(move |(i, c)| {
            let bounded = |d: &AttrComparison| d.attr == c.attr && int_bounds(d).is_some();
            if !bounded(c) || comparisons[..i].iter().any(bounded) {
                return None;
            }
            let (lo, hi) = comparisons[i..]
                .iter()
                .filter(|d| d.attr == c.attr)
                .filter_map(int_bounds)
                .fold((i128::MIN, i128::MAX), |(lo, hi), (l, h)| {
                    (lo.max(l), hi.min(h))
                });
            let sym = g.symbols().get(&c.attr);
            Some(match (sym, i64::try_from(lo), i64::try_from(hi)) {
                (Some(sym), Ok(lo), Ok(hi)) if lo <= hi => Probe::IntRange(sym, lo, hi),
                _ => Probe::Exact(&[]), // an unknown attribute or contradictory bounds
            })
        });
        let sims = self.sims.iter().map(move |s| match g.sim_table(&s.attr) {
            _ if matches!(s.op, CmpOp::Eq | CmpOp::Ne) => Probe::Exact(&[]), // never matches
            Some(table) if table.dim() == s.query.len() => Probe::Pivot(s, table),
            _ => Probe::Carriers(g.nodes_with_attr_name(&s.attr)),
        });
        postings.chain(ranges).chain(sims)
    }

    /// Selects the candidate set `{v | v ∼ self}` by materialising and
    /// intersecting the [`probes`](Self::probes) (a galloping merge,
    /// smallest list first).  An empty posting ends the selection before
    /// anything is materialised.  When a probe lists an attribute's
    /// carriers, the survivors are verified with [`matches`](Self::matches).
    /// The wildcard selects every node without touching any attribute data.
    pub(crate) fn select_candidates(&self, g: &DataGraph) -> CandidateSelection {
        let index = g.attr_index();
        let mut sel = CandidateSelection {
            from_index: true,
            ..CandidateSelection::default()
        };
        let mut postings: Vec<&[NodeId]> = Vec::new();
        let mut built: Vec<Vec<NodeId>> = Vec::new();
        for probe in self.probes(g) {
            match probe {
                Probe::Exact([]) => return sel,
                Probe::Exact(posting) => postings.push(posting),
                Probe::Carriers(posting) => {
                    sel.from_index = false;
                    postings.push(posting);
                }
                Probe::IntRange(sym, lo, hi) => {
                    let run = index.nodes_int_range(sym, lo, hi);
                    sel.posting_entries += run.len() as u64;
                    built.push(run);
                }
                Probe::Pivot(sim, table) => {
                    let m = match sim.op {
                        CmpOp::Lt | CmpOp::Le => {
                            table.within_l2(&sim.query, sim.threshold, sim.op == CmpOp::Le)
                        }
                        _ => table.above_cosine(&sim.query, sim.threshold, sim.op == CmpOp::Ge),
                    };
                    sel.sim_pivot_filtered += m.pruned;
                    sel.sim_verified += m.verified;
                    built.push(m.nodes);
                }
            }
        }
        sel.posting_entries += postings.iter().map(|p| p.len() as u64).sum::<u64>();
        postings.extend(built.iter().map(Vec::as_slice));
        sel.nodes = intersect_many(&postings, g.node_count());
        if !sel.from_index {
            sel.verified = sel.nodes.len() as u64;
            sel.nodes.retain(|&v| self.matches(g, v));
        }
        sel
    }

    /// Estimates `|{v | v ∼ self}|` as the shortest of the
    /// [`probes`](Self::probes)' lengths, without materialising any: a
    /// conjunction only shrinks its sets, so this upper-bounds the
    /// selection.  An integer range is counted with two binary searches and
    /// a pivot table bounds its `sim` conjunct by the first-pivot distance
    /// band.  The wildcard estimates `|V|` exactly.
    pub(crate) fn estimate_candidates(&self, g: &DataGraph) -> usize {
        let index = g.attr_index();
        self.probes(g)
            .map(|probe| match probe {
                Probe::Exact(posting) | Probe::Carriers(posting) => posting.len(),
                Probe::IntRange(sym, lo, hi) => index.count_int_range(sym, lo, hi),
                Probe::Pivot(sim, table) if matches!(sim.op, CmpOp::Lt | CmpOp::Le) => {
                    table.estimate_within_l2(&sim.query, sim.threshold)
                }
                Probe::Pivot(sim, table) => table.estimate_above_cosine(&sim.query, sim.threshold),
            })
            .fold(g.node_count(), usize::min)
    }

    /// The paper's `u2 ⊢ u1` test: for every comparison `A op a1` of `self`    /// (playing `u1`) there is a comparison `A op a2` of `other` (playing
    /// `u2`) such that any node satisfying `other`'s comparison also satisfies
    /// this one (a2 ≤ a1 for `<`/`<=`, a2 ≥ a1 for `>`/`>=`, equal values for
    /// `=`/`!=`).
    pub fn entailed_by(&self, other: &AttrPredicate) -> bool {
        self.comparisons.iter().all(|c1| {
            other.comparisons.iter().any(|c2| {
                if c1.attr != c2.attr || c1.op != c2.op {
                    return false;
                }
                let Some(ord) = c2.value.partial_cmp_same_kind(&c1.value) else {
                    return false;
                };
                match c1.op {
                    CmpOp::Lt | CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt | CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    CmpOp::Eq | CmpOp::Ne => ord == std::cmp::Ordering::Equal,
                }
            })
        }) && self.sims.iter().all(|s1| {
            // A sim conjunct is entailed by one on the same attribute with a
            // bit-identical query vector and a threshold at least as tight:
            // a smaller radius for distance, a larger floor for cosine.
            other.sims.iter().any(|s2| {
                s1.attr == s2.attr
                    && s1.op == s2.op
                    && s1.same_query(s2)
                    && match s1.op {
                        CmpOp::Lt | CmpOp::Le => s2.threshold <= s1.threshold,
                        CmpOp::Gt | CmpOp::Ge => s2.threshold >= s1.threshold,
                        CmpOp::Eq | CmpOp::Ne => false,
                    }
            })
        })
    }
}

/// One index probe of candidate selection: a sorted node set the
/// candidates are drawn from.
enum Probe<'a> {
    /// A posting list holding exactly the nodes that satisfy its conjuncts:
    /// an `=` posting, or empty for an attribute the graph never carries,
    /// contradictory integer bounds or a `sim` `=` / `!=`.
    Exact(&'a [NodeId]),
    /// An attribute's merged integer bounds `[lo, hi]`, answered from its
    /// sorted value run.
    IntRange(Symbol, i64, i64),
    /// Every node carrying an attribute, for a `!=`, a string range or a
    /// `sim` conjunct no pivot table of its dimensionality answers: the
    /// selection is verified per node.
    Carriers(&'a [NodeId]),
    /// A `sim` conjunct answered by the pivot table of its dimensionality.
    Pivot(&'a SimComparison, &'a SimTable),
}

/// The interval an integer `<`, `<=`, `>` or `>=` admits, in `i128` so
/// that the ±1 cannot overflow at the `i64` extremes.
fn int_bounds(c: &AttrComparison) -> Option<(i128, i128)> {
    let AttrValue::Int(v) = c.value else {
        return None;
    };
    let (v, min, max) = (i128::from(v), i128::from(i64::MIN), i128::from(i64::MAX));
    match c.op {
        CmpOp::Lt => Some((min, v - 1)),
        CmpOp::Le => Some((min, v)),
        CmpOp::Gt => Some((v + 1, max)),
        CmpOp::Ge => Some((v, max)),
        CmpOp::Eq | CmpOp::Ne => None,
    }
}

impl AttrPredicate {
    /// Writes the `Display` form to any writer; into a `String` the pieces
    /// are plain appends, which is what a plan rendering wants for each of
    /// its lines.
    pub fn write_to<W: std::fmt::Write>(&self, w: &mut W) -> std::fmt::Result {
        if self.comparisons.is_empty() && self.sims.is_empty() {
            return w.write_str("*");
        }
        let mut first = true;
        for c in &self.comparisons {
            if !first {
                w.write_str(" & ")?;
            }
            first = false;
            c.write_to(w)?;
        }
        for s in &self.sims {
            if !first {
                w.write_str(" & ")?;
            }
            first = false;
            write!(w, "{s}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for AttrPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use gtpq_graph::GraphBuilder;

    use super::*;

    #[test]
    fn matches_label_and_ranges() {
        let mut b = GraphBuilder::new();
        let v = b.add_node_with_attrs([
            ("label", AttrValue::str("proceedings")),
            ("year", AttrValue::int(2005)),
        ]);
        let g = b.build();
        assert!(AttrPredicate::label("proceedings").matches(&g, v));
        assert!(!AttrPredicate::label("inproceedings").matches(&g, v));
        let range = AttrPredicate::any()
            .and("year", CmpOp::Ge, AttrValue::int(2000))
            .and("year", CmpOp::Le, AttrValue::int(2010));
        assert!(range.matches(&g, v));
        let range_miss = AttrPredicate::any().and("year", CmpOp::Gt, AttrValue::int(2005));
        assert!(!range_miss.matches(&g, v));
        assert!(AttrPredicate::any().matches(&g, v));
        // Missing attribute or kind mismatch fails.
        assert!(!AttrPredicate::eq("missing", AttrValue::int(1)).matches(&g, v));
        assert!(!AttrPredicate::eq("year", AttrValue::str("2005")).matches(&g, v));
    }

    #[test]
    fn satisfiability_of_integer_ranges() {
        let ok = AttrPredicate::any()
            .and("year", CmpOp::Ge, AttrValue::int(2000))
            .and("year", CmpOp::Le, AttrValue::int(2010));
        assert!(ok.is_satisfiable());
        let empty = AttrPredicate::any()
            .and("year", CmpOp::Gt, AttrValue::int(2010))
            .and("year", CmpOp::Lt, AttrValue::int(2000));
        assert!(!empty.is_satisfiable());
        let pinched = AttrPredicate::any()
            .and("year", CmpOp::Ge, AttrValue::int(5))
            .and("year", CmpOp::Le, AttrValue::int(5))
            .and("year", CmpOp::Ne, AttrValue::int(5));
        assert!(!pinched.is_satisfiable());
        let eq_conflict = AttrPredicate::any()
            .and("year", CmpOp::Eq, AttrValue::int(3))
            .and("year", CmpOp::Eq, AttrValue::int(4));
        assert!(!eq_conflict.is_satisfiable());
    }

    #[test]
    fn satisfiability_of_string_predicates() {
        let ok = AttrPredicate::label("person");
        assert!(ok.is_satisfiable());
        let conflict = AttrPredicate::label("a").and("label", CmpOp::Eq, AttrValue::str("b"));
        assert!(!conflict.is_satisfiable());
        let ne_conflict = AttrPredicate::label("a").and("label", CmpOp::Ne, AttrValue::str("a"));
        assert!(!ne_conflict.is_satisfiable());
        let mixed_kind =
            AttrPredicate::eq("x", AttrValue::int(1)).and("x", CmpOp::Eq, AttrValue::str("1"));
        assert!(!mixed_kind.is_satisfiable());
    }

    fn scan(p: &AttrPredicate, g: &gtpq_graph::DataGraph) -> Vec<gtpq_graph::NodeId> {
        g.nodes().filter(|&v| p.matches(g, v)).collect()
    }

    #[test]
    fn index_selection_agrees_with_the_scan() {
        let mut b = GraphBuilder::new();
        for (label, year) in [
            ("a", 1999),
            ("b", 2003),
            ("a", 2005),
            ("c", 2005),
            ("a", 2011),
        ] {
            let v = b.add_node_with_label(label);
            b.set_attr(v, "year", AttrValue::int(year));
        }
        let extra = b.add_node(); // carries no attributes at all
        let _ = extra;
        let g = b.build();
        let predicates = [
            AttrPredicate::any(),
            AttrPredicate::label("a"),
            AttrPredicate::label("a").and("year", CmpOp::Ge, AttrValue::int(2005)),
            AttrPredicate::any()
                .and("year", CmpOp::Gt, AttrValue::int(2000))
                .and("year", CmpOp::Lt, AttrValue::int(2011)),
            AttrPredicate::any().and("year", CmpOp::Ne, AttrValue::int(2005)),
            AttrPredicate::any().and("label", CmpOp::Ge, AttrValue::str("b")),
            AttrPredicate::eq("missing", AttrValue::int(1)),
            AttrPredicate::label("a").and("label", CmpOp::Eq, AttrValue::str("b")),
        ];
        for p in &predicates {
            let sel = p.select_candidates(&g);
            assert_eq!(sel.nodes, scan(p, &g), "predicate {p}");
            if sel.from_index {
                assert_eq!(sel.verified, 0, "predicate {p}");
            }
        }
    }

    #[test]
    fn index_selection_reports_its_access_path() {
        let mut b = GraphBuilder::new();
        let v = b.add_node_with_label("x");
        b.set_attr(v, "year", AttrValue::int(2000));
        let g = b.build();
        // Pure equality: fully index-served.
        let sel = AttrPredicate::label("x").select_candidates(&g);
        assert!(sel.from_index);
        assert!(sel.posting_entries > 0);
        // An integer range is answered by the sorted value run.
        let sel = AttrPredicate::any()
            .and("year", CmpOp::Ge, AttrValue::int(2000))
            .select_candidates(&g);
        assert!(sel.from_index);
        assert_eq!(sel.nodes, vec![v]);
        // `!=` needs verification against the name posting list.
        let sel = AttrPredicate::any()
            .and("year", CmpOp::Ne, AttrValue::int(1))
            .select_candidates(&g);
        assert!(!sel.from_index);
        assert_eq!(sel.verified, 1);
        assert_eq!(sel.nodes, vec![v]);
        // So does a string range, even one every carrier satisfies.
        let sel = AttrPredicate::any()
            .and("label", CmpOp::Ge, AttrValue::str(""))
            .select_candidates(&g);
        assert!(!sel.from_index);
        assert_eq!(sel.nodes, vec![v]);
        // Wildcard: every node, no attribute data touched — counts as served
        // without scanning.
        let sel = AttrPredicate::any().select_candidates(&g);
        assert!(sel.from_index);
        assert_eq!(sel.verified, 0);
        assert_eq!(sel.posting_entries, 0);
    }

    #[test]
    fn index_selection_handles_extreme_integer_bounds() {
        let mut b = GraphBuilder::new();
        let v = b.add_node();
        b.set_attr(v, "w", AttrValue::int(i64::MIN));
        let g = b.build();
        let lt_min = AttrPredicate::any().and("w", CmpOp::Lt, AttrValue::int(i64::MIN));
        assert!(lt_min.select_candidates(&g).nodes.is_empty());
        let gt_max = AttrPredicate::any().and("w", CmpOp::Gt, AttrValue::int(i64::MAX));
        assert!(gt_max.select_candidates(&g).nodes.is_empty());
        let le_min = AttrPredicate::any().and("w", CmpOp::Le, AttrValue::int(i64::MIN));
        assert_eq!(le_min.select_candidates(&g).nodes, vec![v]);
    }

    #[test]
    fn estimates_upper_bound_the_selection() {
        let mut b = GraphBuilder::new();
        for (label, year) in [
            ("a", 1999),
            ("b", 2003),
            ("a", 2005),
            ("c", 2005),
            ("a", 2011),
        ] {
            let v = b.add_node_with_label(label);
            b.set_attr(v, "year", AttrValue::int(year));
        }
        let _bare = b.add_node();
        let g = b.build();
        let predicates = [
            AttrPredicate::any(),
            AttrPredicate::label("a"),
            AttrPredicate::label("a").and("year", CmpOp::Ge, AttrValue::int(2005)),
            AttrPredicate::any()
                .and("year", CmpOp::Gt, AttrValue::int(2000))
                .and("year", CmpOp::Lt, AttrValue::int(2011)),
            AttrPredicate::any().and("year", CmpOp::Ne, AttrValue::int(2005)),
            AttrPredicate::any().and("label", CmpOp::Ge, AttrValue::str("b")),
            AttrPredicate::eq("missing", AttrValue::int(1)),
            AttrPredicate::any()
                .and("year", CmpOp::Gt, AttrValue::int(2010))
                .and("year", CmpOp::Lt, AttrValue::int(2000)),
        ];
        for p in &predicates {
            let est = p.estimate_candidates(&g);
            let actual = p.select_candidates(&g).nodes.len();
            assert!(est >= actual, "estimate {est} < actual {actual} for {p}");
            assert!(est <= g.node_count(), "estimate blew past |V| for {p}");
        }
        // Estimates from exact postings are exact (posting lengths are exact
        // and the min over conjuncts only over-approximates multi-attribute
        // conjunctions).
        assert_eq!(AttrPredicate::label("a").estimate_candidates(&g), 3);
        assert_eq!(AttrPredicate::any().estimate_candidates(&g), 6);
    }

    #[test]
    fn entailment_follows_the_paper_rules() {
        // u1 asks year <= 2010, u2 asks year <= 2005: u2 ⊢ u1.
        let u1 = AttrPredicate::any().and("year", CmpOp::Le, AttrValue::int(2010));
        let u2 = AttrPredicate::any().and("year", CmpOp::Le, AttrValue::int(2005));
        assert!(u1.entailed_by(&u2));
        assert!(!u2.entailed_by(&u1));
        // Equal labels entail each other.
        let a = AttrPredicate::label("x");
        assert!(a.entailed_by(&a.clone()));
        // Wildcard is entailed by everything.
        assert!(AttrPredicate::any().entailed_by(&a));
        assert!(!a.entailed_by(&AttrPredicate::any()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttrPredicate::any().to_string(), "*");
        let p = AttrPredicate::label("person").and("age", CmpOp::Ge, AttrValue::int(18));
        assert_eq!(p.to_string(), "label = person & age >= 18");
        let p = p.and_sim("emb", CmpOp::Gt, vec![0.5, -1.0, 2.25], 0.9);
        assert_eq!(
            p.to_string(),
            "label = person & age >= 18 & sim(emb, [0.5, -1, 2.25]) > 0.9"
        );
        let solo = AttrPredicate::any().and_sim("emb", CmpOp::Lt, vec![1.0], 2.0);
        assert_eq!(solo.to_string(), "sim(emb, [1]) < 2");
    }

    /// A small embedded graph: clustered 4-dim vectors on `emb`, one
    /// off-dimension vector and one non-vector node.
    fn embedded_graph() -> gtpq_graph::DataGraph {
        let mut b = GraphBuilder::new();
        for i in 0..20u32 {
            let v = b.add_node_with_label("doc");
            let base = if i % 2 == 0 { 0.0 } else { 4.0 };
            let emb: Vec<f32> = (0..4).map(|j| base + (i * 4 + j) as f32 * 0.01).collect();
            b.set_attr(v, "emb", AttrValue::Vec(emb));
        }
        let odd = b.add_node_with_label("doc");
        b.set_attr(odd, "emb", AttrValue::Vec(vec![0.0, 0.0]));
        b.add_node_with_label("doc"); // no emb at all
        b.build()
    }

    #[test]
    fn sim_selection_agrees_with_the_scan() {
        let g = embedded_graph();
        let q = vec![0.05f32, 0.06, 0.07, 0.08];
        let predicates = [
            AttrPredicate::any().and_sim("emb", CmpOp::Lt, q.clone(), 1.0),
            AttrPredicate::any().and_sim("emb", CmpOp::Le, q.clone(), 0.5),
            AttrPredicate::any().and_sim("emb", CmpOp::Gt, q.clone(), 0.99),
            AttrPredicate::any().and_sim("emb", CmpOp::Ge, q.clone(), 0.8),
            AttrPredicate::label("doc").and_sim("emb", CmpOp::Lt, q.clone(), 1.0),
            // Off-dimension query: served by the name-posting fallback.
            AttrPredicate::any().and_sim("emb", CmpOp::Lt, vec![0.0, 0.0, 0.0], 10.0),
            AttrPredicate::any().and_sim("emb", CmpOp::Le, vec![0.1, 0.1], 1.0),
            // Unknown attribute: nothing matches.
            AttrPredicate::any().and_sim("missing", CmpOp::Lt, q.clone(), 5.0),
        ];
        for p in &predicates {
            let sel = p.select_candidates(&g);
            assert_eq!(sel.nodes, scan(p, &g), "predicate {p}");
            let est = p.estimate_candidates(&g);
            assert!(
                est >= sel.nodes.len(),
                "estimate {est} < actual {} for {p}",
                sel.nodes.len()
            );
        }
        // A table-served sim reports its filter counters and stays exact
        // without per-node verification.
        let sel = AttrPredicate::any()
            .and_sim("emb", CmpOp::Lt, q.clone(), 1.0)
            .select_candidates(&g);
        assert!(sel.from_index);
        assert_eq!(sel.verified, 0);
        assert!(sel.sim_verified > 0);
        assert_eq!(sel.sim_verified + sel.sim_pivot_filtered, 20);
        // The dimension-fallback path verifies per node instead.
        let sel = AttrPredicate::any()
            .and_sim("emb", CmpOp::Le, vec![0.1, 0.1], 1.0)
            .select_candidates(&g);
        assert!(!sel.from_index);
        assert_eq!(sel.sim_verified, 0);
    }

    #[test]
    fn sim_satisfiability() {
        let q = vec![1.0f32];
        assert!(!AttrPredicate::any()
            .and_sim("e", CmpOp::Lt, q.clone(), 0.0)
            .is_satisfiable());
        assert!(!AttrPredicate::any()
            .and_sim("e", CmpOp::Le, q.clone(), -0.1)
            .is_satisfiable());
        assert!(!AttrPredicate::any()
            .and_sim("e", CmpOp::Gt, q.clone(), 1.0)
            .is_satisfiable());
        assert!(!AttrPredicate::any()
            .and_sim("e", CmpOp::Ge, q.clone(), 1.5)
            .is_satisfiable());
        assert!(!AttrPredicate::any()
            .and_sim("e", CmpOp::Lt, q.clone(), f32::NAN)
            .is_satisfiable());
        let ok = AttrPredicate::any().and_sim("e", CmpOp::Ge, q.clone(), 1.0);
        assert!(ok.is_satisfiable());
    }

    #[test]
    fn sim_entailment_orders_thresholds() {
        let q = vec![0.5f32, 0.25];
        let loose = AttrPredicate::any().and_sim("e", CmpOp::Lt, q.clone(), 2.0);
        let tight = AttrPredicate::any().and_sim("e", CmpOp::Lt, q.clone(), 1.0);
        assert!(loose.entailed_by(&tight));
        assert!(!tight.entailed_by(&loose));
        let cos_loose = AttrPredicate::any().and_sim("e", CmpOp::Ge, q.clone(), 0.5);
        let cos_tight = AttrPredicate::any().and_sim("e", CmpOp::Ge, q.clone(), 0.9);
        assert!(cos_loose.entailed_by(&cos_tight));
        assert!(!cos_tight.entailed_by(&cos_loose));
        // Different query vectors never entail.
        let other = AttrPredicate::any().and_sim("e", CmpOp::Lt, vec![0.5, 0.26], 1.0);
        assert!(!loose.entailed_by(&other));
        // Wildcard is entailed by a sim predicate, not vice versa.
        assert!(AttrPredicate::any().entailed_by(&tight));
        assert!(!tight.entailed_by(&AttrPredicate::any()));
    }
}
