//! Query workloads of the paper's evaluation.
//!
//! * [`xmark_q1`]/[`xmark_q2`]/[`xmark_q3`] — the conjunctive TPQs of Fig. 7
//!   used in §5.1 (all query nodes are backbone and output nodes),
//! * [`fig11_gtpq`] — the Fig. 11 query structure with the structural
//!   predicates of Table 4 (DIS*/NEG*/DIS_NEG*) used in Appendix C.2,
//! * [`fig11_output_variant`] — the Fig. 11 conjunctive query with the output
//!   node sets of Table 3 (Q4–Q8) used in Exp-1,
//! * [`dblp_queries`] — Q1–Q3 of Example 1 over the DBLP-like graph,
//! * [`random_queries`] — the random query generator of §5.2: patterns are
//!   sampled from the data graph itself so they always have matches.

use gtpq_graph::{DataGraph, NodeId};
use gtpq_logic::BoolExpr;
use gtpq_query::{AttrPredicate, CmpOp, EdgeKind, Gtpq, GtpqBuilder, NodeKind, QueryNodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `label = person<group>` predicate for XMark person nodes; groups of 10 or
/// more act as a wildcard matching every person group.
fn person_label(group: u32) -> AttrPredicate {
    if group >= 10 {
        gtpq_query::fixtures::label_prefix("person")
    } else {
        AttrPredicate::label(&format!("person{group}"))
    }
}

/// `label = item<group>` predicate for XMark item nodes; groups of 10 or more
/// act as a wildcard matching every item group.
fn item_label(group: u32) -> AttrPredicate {
    if group >= 10 {
        gtpq_query::fixtures::label_prefix("item")
    } else {
        AttrPredicate::label(&format!("item{group}"))
    }
}

/// Fig. 7(a): auctions with a bidder by a `person<group>` person (with an
/// education and a city) and a current price.  Conjunctive; every node is a
/// backbone output node.
pub fn xmark_q1(person_group: u32) -> Gtpq {
    let mut b = GtpqBuilder::new(AttrPredicate::label("open_auction"));
    let root = b.root_id();
    let bidder = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("bidder"));
    let person_ref = b.backbone_child(bidder, EdgeKind::Child, AttrPredicate::label("person_ref"));
    let person = b.backbone_child(person_ref, EdgeKind::Child, person_label(person_group));
    let _education = b.backbone_child(
        person,
        EdgeKind::Descendant,
        AttrPredicate::label("education"),
    );
    let address = b.backbone_child(person, EdgeKind::Child, AttrPredicate::label("address"));
    let _city = b.backbone_child(address, EdgeKind::Child, AttrPredicate::label("city"));
    let _current = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("current"));
    b.mark_all_backbone_output();
    b.build().expect("Q1 is well formed")
}

/// Fig. 7(b): Q1 plus an `item<group>` item reference with a location.
pub fn xmark_q2(person_group: u32, item_group: u32) -> Gtpq {
    let mut b = GtpqBuilder::new(AttrPredicate::label("open_auction"));
    let root = b.root_id();
    let bidder = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("bidder"));
    let person_ref = b.backbone_child(bidder, EdgeKind::Child, AttrPredicate::label("person_ref"));
    let person = b.backbone_child(person_ref, EdgeKind::Child, person_label(person_group));
    let _education = b.backbone_child(
        person,
        EdgeKind::Descendant,
        AttrPredicate::label("education"),
    );
    let address = b.backbone_child(person, EdgeKind::Child, AttrPredicate::label("address"));
    let _city = b.backbone_child(address, EdgeKind::Child, AttrPredicate::label("city"));
    let _current = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("current"));
    let item_ref = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("item_ref"));
    let item = b.backbone_child(item_ref, EdgeKind::Child, item_label(item_group));
    let _location = b.backbone_child(item, EdgeKind::Child, AttrPredicate::label("location"));
    b.mark_all_backbone_output();
    b.build().expect("Q2 is well formed")
}

/// Fig. 7(c): Q2 plus a seller person with a profile.
pub fn xmark_q3(person_group: u32, item_group: u32, seller_group: u32) -> Gtpq {
    let mut b = GtpqBuilder::new(AttrPredicate::label("open_auction"));
    let root = b.root_id();
    let bidder = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("bidder"));
    let person_ref = b.backbone_child(bidder, EdgeKind::Child, AttrPredicate::label("person_ref"));
    let person = b.backbone_child(person_ref, EdgeKind::Child, person_label(person_group));
    let _education = b.backbone_child(
        person,
        EdgeKind::Descendant,
        AttrPredicate::label("education"),
    );
    let address = b.backbone_child(person, EdgeKind::Child, AttrPredicate::label("address"));
    let _city = b.backbone_child(address, EdgeKind::Child, AttrPredicate::label("city"));
    let _current = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("current"));
    let item_ref = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("item_ref"));
    let item = b.backbone_child(item_ref, EdgeKind::Child, item_label(item_group));
    let _location = b.backbone_child(item, EdgeKind::Child, AttrPredicate::label("location"));
    let seller = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("seller"));
    let seller_person = b.backbone_child(seller, EdgeKind::Child, person_label(seller_group));
    let _profile = b.backbone_child(
        seller_person,
        EdgeKind::Child,
        AttrPredicate::label("profile"),
    );
    b.mark_all_backbone_output();
    b.build().expect("Q3 is well formed")
}

/// The structural-predicate variants of Table 4 over the Fig. 11 structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig11Predicate {
    /// Conjunctive version (used by Exp-1 / Table 3).
    Conjunctive,
    /// `fs(open_auction) = bidder ∨ seller`
    Dis1,
    /// `fs(open_auction) = bidder ∨ seller`, `fs(item) = mailbox ∨ location`
    Dis2,
    /// `fs(open_auction) = bidder ∨ seller ∨ item`
    Dis3,
    /// `fs(person) = ¬education`
    Neg1,
    /// `fs(open_auction) = ¬bidder`, `fs(person) = ¬education`
    Neg2,
    /// `fs(open_auction) = ¬bidder ∧ ¬seller`, `fs(person) = ¬education`
    Neg3,
    /// `fs(open_auction) = ¬bidder ∨ seller`, `fs(person) = ¬education`
    DisNeg1,
    /// `fs(open_auction) = (¬bidder ∧ seller) ∨ (bidder ∧ ¬seller)`
    DisNeg2,
    /// `DisNeg2` plus `fs(person) = ¬education`
    DisNeg3,
    /// `fs(open_auction) = (¬bidder ∧ seller ∧ item) ∨ (bidder ∧ ¬seller ∧ ¬item)`,
    /// `fs(person) = ¬education`
    DisNeg4,
}

impl Fig11Predicate {
    /// All Table 4 variants with their paper names, in presentation order.
    pub fn table4_suite() -> Vec<(&'static str, Fig11Predicate)> {
        use Fig11Predicate::*;
        vec![
            ("DIS1", Dis1),
            ("DIS2", Dis2),
            ("DIS3", Dis3),
            ("NEG1", Neg1),
            ("NEG2", Neg2),
            ("NEG3", Neg3),
            ("DIS_NEG1", DisNeg1),
            ("DIS_NEG2", DisNeg2),
            ("DIS_NEG3", DisNeg3),
            ("DIS_NEG4", DisNeg4),
        ]
    }

    fn root_formula_mentions(self) -> (bool, bool, bool) {
        // (bidder, seller, item) appearing in fs(open_auction)?
        use Fig11Predicate::*;
        match self {
            Conjunctive | Neg1 => (false, false, false),
            Dis1 | Dis2 | DisNeg1 | DisNeg2 | DisNeg3 => (true, true, false),
            Dis3 | DisNeg4 => (true, true, true),
            Neg2 => (true, false, false),
            Neg3 => (true, true, false),
        }
    }

    fn negates_education(self) -> bool {
        use Fig11Predicate::*;
        matches!(self, Neg1 | Neg2 | Neg3 | DisNeg1 | DisNeg3 | DisNeg4)
    }

    fn splits_item_children(self) -> bool {
        matches!(self, Fig11Predicate::Dis2)
    }
}

/// Builds the Fig. 11 query with the structural predicates of `variant`
/// (Table 4).  Branches mentioned in `fs(open_auction)` become predicate
/// subtrees; every remaining backbone node is an output node, as in the
/// paper's Exp-2 setup.
pub fn fig11_gtpq(variant: Fig11Predicate, person_group: u32, item_group: u32) -> Gtpq {
    let (bidder_pred, seller_pred, item_pred) = variant.root_formula_mentions();
    let education_pred = variant.negates_education();
    let item_children_pred = variant.splits_item_children();

    let mut b = GtpqBuilder::new(AttrPredicate::label("open_auction"));
    let root = b.root_id();

    // Bidder branch: bidder -> person -> {education, address -> city}.
    let add_bidder =
        |b: &mut GtpqBuilder, predicate: bool| -> (QueryNodeId, QueryNodeId, QueryNodeId) {
            let add_child = |b: &mut GtpqBuilder, parent, edge, attr, pred: bool| {
                if pred {
                    b.predicate_child(parent, edge, attr)
                } else {
                    b.backbone_child(parent, edge, attr)
                }
            };
            let bidder = add_child(
                b,
                root,
                EdgeKind::Child,
                AttrPredicate::label("bidder"),
                predicate,
            );
            let person = add_child(
                b,
                bidder,
                EdgeKind::Descendant,
                person_label(person_group),
                predicate,
            );
            let education = b.predicate_child(
                person,
                EdgeKind::Descendant,
                AttrPredicate::label("education"),
            );
            // Education is always a predicate child; whether `fs(person)`
            // negates it or keeps it conjunctive is decided by `person_fs`
            // below.
            let education_node = education;
            let address = add_child(
                b,
                person,
                EdgeKind::Child,
                AttrPredicate::label("address"),
                predicate,
            );
            let _city = add_child(
                b,
                address,
                EdgeKind::Child,
                AttrPredicate::label("city"),
                predicate,
            );
            (bidder, person, education_node)
        };
    let (bidder, bidder_person, bidder_education) = add_bidder(&mut b, bidder_pred);

    // Item branch: item -> {location, mailbox -> mail}.
    let item = if item_pred {
        b.predicate_child(root, EdgeKind::Descendant, item_label(item_group))
    } else {
        b.backbone_child(root, EdgeKind::Descendant, item_label(item_group))
    };
    let location = if item_pred || item_children_pred {
        b.predicate_child(item, EdgeKind::Child, AttrPredicate::label("location"))
    } else {
        b.backbone_child(item, EdgeKind::Child, AttrPredicate::label("location"))
    };
    let mailbox = b.predicate_child(item, EdgeKind::Child, AttrPredicate::label("mailbox"));
    let _mail = b.predicate_child(mailbox, EdgeKind::Child, AttrPredicate::label("mail"));
    b.set_structural(mailbox, BoolExpr::True);

    // Seller branch: seller -> person -> profile.
    let seller = if seller_pred {
        b.predicate_child(root, EdgeKind::Child, AttrPredicate::label("seller"))
    } else {
        b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("seller"))
    };
    let seller_person = if seller_pred {
        b.predicate_child(seller, EdgeKind::Child, person_label(person_group))
    } else {
        b.backbone_child(seller, EdgeKind::Child, person_label(person_group))
    };
    let profile = if seller_pred {
        b.predicate_child(
            seller_person,
            EdgeKind::Child,
            AttrPredicate::label("profile"),
        )
    } else {
        b.backbone_child(
            seller_person,
            EdgeKind::Child,
            AttrPredicate::label("profile"),
        )
    };
    let _ = profile;

    // Structural predicates.
    let vb = BoolExpr::Var(bidder.var());
    let vs = BoolExpr::Var(seller.var());
    let vi = BoolExpr::Var(item.var());
    use Fig11Predicate::*;
    let root_fs = match variant {
        Conjunctive | Neg1 => BoolExpr::True,
        Dis1 | Dis2 => BoolExpr::or2(vb.clone(), vs.clone()),
        Dis3 => BoolExpr::or([vb.clone(), vs.clone(), vi.clone()]),
        Neg2 => BoolExpr::not(vb.clone()),
        Neg3 => BoolExpr::and2(BoolExpr::not(vb.clone()), BoolExpr::not(vs.clone())),
        DisNeg1 => BoolExpr::or2(BoolExpr::not(vb.clone()), vs.clone()),
        DisNeg2 | DisNeg3 => BoolExpr::or2(
            BoolExpr::and2(BoolExpr::not(vb.clone()), vs.clone()),
            BoolExpr::and2(vb.clone(), BoolExpr::not(vs.clone())),
        ),
        DisNeg4 => BoolExpr::or2(
            BoolExpr::and([BoolExpr::not(vb.clone()), vs.clone(), vi.clone()]),
            BoolExpr::and([
                vb.clone(),
                BoolExpr::not(vs.clone()),
                BoolExpr::not(vi.clone()),
            ]),
        ),
    };
    // Only mention variables of children that are predicate nodes.
    b.set_structural(root, root_fs);

    // fs(person): negation of education where the variant requires it; for the
    // other GTPQ variants the education child is a conjunctive filter, and the
    // purely conjunctive (Table 3) variant leaves it unconstrained so the
    // query keeps a healthy number of matches.
    let person_fs = |education: QueryNodeId| {
        if education_pred {
            BoolExpr::not(BoolExpr::Var(education.var()))
        } else if variant == Conjunctive {
            BoolExpr::True
        } else {
            BoolExpr::Var(education.var())
        }
    };
    b.set_structural(bidder_person, person_fs(bidder_education));

    // fs(item) for DIS2: mailbox ∨ location; unconstrained for the conjunctive
    // variant, a conjunctive mailbox filter otherwise.
    if item_children_pred {
        b.set_structural(
            item,
            BoolExpr::or2(BoolExpr::Var(mailbox.var()), BoolExpr::Var(location.var())),
        );
    } else if variant == Conjunctive {
        b.set_structural(item, BoolExpr::True);
    } else {
        b.set_structural(item, BoolExpr::Var(mailbox.var()));
    }

    b.mark_all_backbone_output();
    b.build().expect("Fig. 11 query is well formed")
}

/// The Exp-1 (Table 3) variants: the conjunctive Fig. 11 query with the
/// output-node sets Q4–Q8.  `which` must be in `4..=8`.
pub fn fig11_output_variant(which: u32, person_group: u32, item_group: u32) -> Gtpq {
    assert!((4..=8).contains(&which), "Table 3 defines Q4..Q8");
    // Rebuild the conjunctive query but mark outputs selectively.  Node ids
    // follow the construction order in `fig11_gtpq`.
    let base = fig11_gtpq(Fig11Predicate::Conjunctive, person_group, item_group);
    let find = |label: &str| -> Vec<QueryNodeId> {
        base.node_ids()
            .filter(|&u| {
                base.node(u)
                    .attr
                    .comparisons
                    .iter()
                    .any(|c| c.value == gtpq_graph::AttrValue::str(label))
            })
            .collect()
    };
    let mut outputs: Vec<QueryNodeId> = match which {
        4 => vec![base.root()],
        5 => {
            let mut v = vec![base.root()];
            v.extend(find("bidder"));
            v.extend(find("seller"));
            v
        }
        6 => {
            let mut v = vec![base.root()];
            v.extend(find("bidder"));
            v.extend(find("seller"));
            v.extend(find("city"));
            v.extend(find("profile"));
            v
        }
        7 => {
            let mut v = vec![base.root()];
            v.extend(find(&format!("item{item_group}")));
            v.extend(find("location"));
            v
        }
        _ => base.node_ids().filter(|&u| base.is_backbone(u)).collect(),
    };
    outputs.retain(|&u| base.is_backbone(u));
    outputs.sort_unstable();
    outputs.dedup();

    // Rebuild with the same structure but the chosen outputs.
    rebuild_with_outputs(&base, &outputs)
}

/// Clones a query, replacing its output-node set.
fn rebuild_with_outputs(q: &Gtpq, outputs: &[QueryNodeId]) -> Gtpq {
    let mut b = GtpqBuilder::new(q.node(q.root()).attr.clone());
    // Node ids are preserved because children are added in id order.
    for u in q.node_ids().skip(1) {
        let node = q.node(u);
        let parent = node.parent.expect("non-root nodes have parents");
        let edge = node.incoming.expect("non-root nodes have incoming edges");
        let id = if q.is_backbone(u) {
            b.backbone_child(parent, edge, node.attr.clone())
        } else {
            b.predicate_child(parent, edge, node.attr.clone())
        };
        debug_assert_eq!(id, u);
    }
    for u in q.node_ids() {
        b.set_structural(u, q.fs(u).clone());
        if let Some(name) = &q.node(u).name {
            b.set_name(u, name);
        }
    }
    for &o in outputs {
        b.mark_output(o);
    }
    b.build().expect("rebuilt query preserves validity")
}

/// The three DBLP queries of Example 1: conjunction (papers by Alice *and*
/// Bob), disjunction (Alice *or* Bob) and negation (Alice but *not* Bob), all
/// restricted to proceedings published between 2000 and 2010.
pub fn dblp_queries() -> Vec<(&'static str, Gtpq)> {
    let build = |fs_builder: &dyn Fn(QueryNodeId, QueryNodeId) -> BoolExpr| -> Gtpq {
        let mut b = GtpqBuilder::new(AttrPredicate::label("inproceedings"));
        let root = b.root_id();
        let alice = b.predicate_child(
            root,
            EdgeKind::Child,
            AttrPredicate::label("author").and("value", CmpOp::Eq, "Alice".into()),
        );
        let bob = b.predicate_child(
            root,
            EdgeKind::Child,
            AttrPredicate::label("author").and("value", CmpOp::Eq, "Bob".into()),
        );
        let title = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("title"));
        let year = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("year"));
        let proceedings = b.backbone_child(
            root,
            EdgeKind::Descendant,
            AttrPredicate::label("proceedings"),
        );
        let conf_title =
            b.backbone_child(proceedings, EdgeKind::Child, AttrPredicate::label("title"));
        let conf_year = b.predicate_child(
            proceedings,
            EdgeKind::Child,
            AttrPredicate::label("year")
                .and("year", CmpOp::Ge, 2000.into())
                .and("year", CmpOp::Le, 2010.into()),
        );
        b.set_structural(root, fs_builder(alice, bob));
        b.set_structural(proceedings, BoolExpr::Var(conf_year.var()));
        b.mark_output(title);
        b.mark_output(year);
        b.mark_output(conf_title);
        b.build().expect("DBLP query is well formed")
    };
    vec![
        (
            "Q1",
            build(&|a, bb| BoolExpr::and2(BoolExpr::Var(a.var()), BoolExpr::Var(bb.var()))),
        ),
        (
            "Q2",
            build(&|a, bb| BoolExpr::or2(BoolExpr::Var(a.var()), BoolExpr::Var(bb.var()))),
        ),
        (
            "Q3",
            build(&|a, bb| {
                BoolExpr::and2(
                    BoolExpr::Var(a.var()),
                    BoolExpr::not(BoolExpr::Var(bb.var())),
                )
            }),
        ),
    ]
}

/// Configuration of the random query generator (§5.2).
#[derive(Clone, Copy, Debug)]
pub struct RandomQueryConfig {
    /// Number of query nodes.
    pub size: usize,
    /// Number of queries to generate.
    pub count: usize,
    /// Probability that an edge is AD rather than PC.
    pub descendant_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RandomQueryConfig {
    /// Queries of a given size with the default parameters.
    pub fn with_size(size: usize) -> Self {
        Self {
            size,
            count: 15,
            descendant_probability: 0.35,
            seed: 7,
        }
    }
}

/// Generates `config.count` random conjunctive queries of `config.size` nodes
/// by sampling tree patterns embedded in `g`, so every query has at least one
/// match.  Labels of the sampled data nodes become the attribute predicates;
/// all query nodes are backbone output nodes.
pub fn random_queries(g: &DataGraph, config: &RandomQueryConfig) -> Vec<Gtpq> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut queries = Vec::with_capacity(config.count);
    let mut attempts = 0;
    while queries.len() < config.count && attempts < config.count * 200 {
        attempts += 1;
        if let Some(q) = sample_query(g, config, &mut rng) {
            queries.push(q);
        }
    }
    queries
}

fn sample_query(g: &DataGraph, config: &RandomQueryConfig, rng: &mut StdRng) -> Option<Gtpq> {
    // Pick a start node with enough reachable structure.
    let start = NodeId(rng.gen_range(0..g.node_count() as u32));
    if g.out_degree(start) == 0 {
        return None;
    }
    let label_of = |v: NodeId| -> Option<AttrPredicate> {
        g.attribute_value(v, gtpq_graph::LABEL_ATTR)
            .map(|l| AttrPredicate::eq(gtpq_graph::LABEL_ATTR, l.clone()))
    };
    let mut b = GtpqBuilder::new(label_of(start)?);
    // Pool of (query node, data node) pairs that can still be expanded.
    let mut pool: Vec<(QueryNodeId, NodeId)> = vec![(b.root_id(), start)];
    let mut added = 1;
    let mut guard = 0;
    while added < config.size && guard < config.size * 50 {
        guard += 1;
        let (qnode, dnode) = pool[rng.gen_range(0..pool.len())];
        let children = g.children(dnode);
        if children.is_empty() {
            continue;
        }
        let use_descendant = rng.gen_bool(config.descendant_probability);
        let (edge, target) = if use_descendant {
            // Walk two hops when possible to get a genuine descendant.
            let mid = children[rng.gen_range(0..children.len())];
            let grandchildren = g.children(mid);
            if grandchildren.is_empty() {
                (EdgeKind::Descendant, mid)
            } else {
                (
                    EdgeKind::Descendant,
                    grandchildren[rng.gen_range(0..grandchildren.len())],
                )
            }
        } else {
            (EdgeKind::Child, children[rng.gen_range(0..children.len())])
        };
        let Some(attr) = label_of(target) else {
            continue;
        };
        let child = b.backbone_child(qnode, edge, attr);
        pool.push((child, target));
        added += 1;
    }
    if added < config.size {
        return None;
    }
    b.mark_all_backbone_output();
    b.build().ok()
}

/// Generates one random GTPQ in the *canonical textual form* of the query
/// language (`gtpq_query::parse`): nodes are created in pre-order, each
/// node's backbone children come before its predicate children, structural
/// predicates mention their children in creation order, and orphan predicate
/// children (ones `fs` never mentions) come last.
///
/// For such queries `parse(q.to_string()) == q` holds exactly, which is what
/// the round-trip property test in `tests/query_text.rs` exercises.  Fully
/// deterministic in `seed`; `max_nodes` bounds the query size (the result
/// has at least one node and at least one output node).
pub fn random_text_query(seed: u64, max_nodes: usize) -> Gtpq {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = TextQueryGen {
        rng: &mut rng,
        budget: max_nodes.max(1) - 1,
        names: 0,
        builder: GtpqBuilder::new(AttrPredicate::label("seed")), // replaced below
    };
    let root_attr = gen.random_attr();
    gen.builder = GtpqBuilder::new(root_attr);
    let root = gen.builder.root_id();
    gen.decorate(root, NodeKind::Backbone);
    gen.populate(root, NodeKind::Backbone, 0);
    let mut builder = gen.builder;
    // `decorate` marks outputs in pre-order; fall back to the root so the
    // query validates.
    match builder.clone().build() {
        Ok(q) => q,
        Err(_) => {
            builder.mark_output(root);
            builder.build().expect("root output makes the query valid")
        }
    }
}

struct TextQueryGen<'r> {
    rng: &'r mut StdRng,
    budget: usize,
    names: usize,
    builder: GtpqBuilder,
}

impl TextQueryGen<'_> {
    fn random_attr(&mut self) -> AttrPredicate {
        const LABELS: [&str; 8] = [
            "a",
            "b",
            "paper3",
            "open_auction",
            "person",
            "item_ref",
            "bidder",
            "auth7",
        ];
        const ATTRS: [&str; 3] = ["year", "value", "price"];
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        match self.rng.gen_range(0..10u32) {
            0 => AttrPredicate::any(),
            1 => AttrPredicate::label("two words"), // non-identifier label
            2..=6 => AttrPredicate::label(LABELS[self.rng.gen_range(0..LABELS.len())]),
            _ => {
                let mut p = AttrPredicate::any();
                for _ in 0..self.rng.gen_range(1..=2u32) {
                    let attr = ATTRS[self.rng.gen_range(0..ATTRS.len())];
                    let op = OPS[self.rng.gen_range(0..OPS.len())];
                    let value = if self.rng.gen_bool(0.6) {
                        gtpq_graph::AttrValue::Int(self.rng.gen_range(-5..2020i64))
                    } else {
                        gtpq_graph::AttrValue::str(LABELS[self.rng.gen_range(0..LABELS.len())])
                    };
                    p = p.and(attr, op, value);
                }
                p
            }
        }
    }

    fn random_edge(&mut self) -> EdgeKind {
        if self.rng.gen_bool(0.5) {
            EdgeKind::Descendant
        } else {
            EdgeKind::Child
        }
    }

    /// Names and output-marks a freshly created node (names feed the
    /// formula back-references; output marks must happen in pre-order to
    /// match the parser).  Returns the name, if one was assigned.
    fn decorate(&mut self, u: QueryNodeId, kind: NodeKind) -> Option<String> {
        let mut name = None;
        if self.rng.gen_bool(0.15) {
            let n = format!("n{}", self.names);
            self.names += 1;
            self.builder.set_name(u, &n);
            name = Some(n);
        }
        if kind == NodeKind::Backbone && self.rng.gen_bool(0.4) {
            self.builder.mark_output(u);
        }
        name
    }

    /// Creates the children of `u` in canonical order: backbone subtrees
    /// first (depth-first), then the predicate children woven into a random
    /// structural predicate, then possibly one orphan predicate child.
    fn populate(&mut self, u: QueryNodeId, kind: NodeKind, depth: usize) {
        if depth >= 4 {
            return;
        }
        if kind == NodeKind::Backbone {
            let n_backbone = self.rng.gen_range(0..=2u32);
            for _ in 0..n_backbone {
                if self.budget == 0 {
                    break;
                }
                self.budget -= 1;
                let edge = self.random_edge();
                let attr = self.random_attr();
                let child = self.builder.backbone_child(u, edge, attr);
                self.decorate(child, NodeKind::Backbone);
                self.populate(child, NodeKind::Backbone, depth + 1);
            }
        }
        let n_pred = self.rng.gen_range(0..=2u32);
        let mut leaves: Vec<(QueryNodeId, Option<String>)> = Vec::new();
        for _ in 0..n_pred {
            if self.budget == 0 {
                break;
            }
            self.budget -= 1;
            let edge = self.random_edge();
            let attr = self.random_attr();
            let child = self.builder.predicate_child(u, edge, attr);
            let name = self.decorate(child, NodeKind::Predicate);
            self.populate(child, NodeKind::Predicate, depth + 1);
            leaves.push((child, name));
        }
        if !leaves.is_empty() {
            // Named children may be referenced a second time (the parser's
            // back-reference form); repeats must come after the first
            // occurrence, so they are appended to the leaf sequence.
            let mut vars: Vec<QueryNodeId> = leaves.iter().map(|(c, _)| *c).collect();
            if let Some((c, Some(_))) = leaves.iter().find(|(_, n)| n.is_some()) {
                if self.rng.gen_bool(0.2) {
                    vars.push(*c);
                }
            }
            let fs = self.random_formula(&vars);
            self.builder.set_structural(u, fs);
        }
        // Occasionally add a predicate child the formula never mentions.
        if self.budget > 0 && self.rng.gen_bool(0.1) {
            self.budget -= 1;
            let edge = self.random_edge();
            let attr = self.random_attr();
            let child = self.builder.predicate_child(u, edge, attr);
            self.decorate(child, NodeKind::Predicate);
            self.populate(child, NodeKind::Predicate, depth + 1);
        }
    }

    /// A random formula whose leaves are exactly `vars`, in order (split
    /// recursively, negate leaves occasionally).  Built through the folding
    /// `BoolExpr` constructors so the AST is in the same flattened form the
    /// parser produces.
    fn random_formula(&mut self, vars: &[QueryNodeId]) -> BoolExpr {
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
                let left = self.random_formula(&vars[..split]);
                let right = self.random_formula(&vars[split..]);
                if self.rng.gen_bool(0.5) {
                    BoolExpr::and2(left, right)
                } else {
                    BoolExpr::or2(left, right)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use gtpq_core::GteaEngine;
    use gtpq_query::naive;

    use crate::arxiv::{generate_arxiv, ArxivConfig};
    use crate::dblp::generate_dblp;
    use crate::xmark::{generate_xmark, XmarkConfig};

    use super::*;

    #[test]
    fn random_text_queries_round_trip_through_the_parser() {
        for seed in 0..64 {
            let q = random_text_query(seed, 12);
            assert!(q.size() <= 12);
            assert!(!q.output_nodes().is_empty());
            let text = q.to_string();
            let reparsed: Gtpq = text
                .parse()
                .unwrap_or_else(|e| panic!("seed {seed}: `{text}` failed to re-parse: {e}"));
            assert_eq!(reparsed, q, "seed {seed}: `{text}`");
        }
    }

    #[test]
    fn xmark_queries_have_expected_sizes_and_are_conjunctive() {
        let q1 = xmark_q1(0);
        let q2 = xmark_q2(0, 1);
        let q3 = xmark_q3(0, 1, 2);
        assert_eq!(q1.size(), 8);
        assert_eq!(q2.size(), 11);
        assert_eq!(q3.size(), 14);
        for q in [&q1, &q2, &q3] {
            assert!(q.is_conjunctive());
            assert_eq!(q.output_nodes().len(), q.size());
        }
    }

    #[test]
    fn xmark_q1_has_matches_on_generated_data() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.2));
        let engine = GteaEngine::new(&g);
        let mut total = 0usize;
        for group in 0..10 {
            total += engine.evaluate(&xmark_q1(group)).len();
        }
        assert!(total > 0, "Q1 should match for at least one person group");
    }

    #[test]
    fn fig11_variants_build_and_classify_correctly() {
        use Fig11Predicate::*;
        let conj = fig11_gtpq(Conjunctive, 0, 0);
        assert!(conj.is_union_conjunctive());
        let dis = fig11_gtpq(Dis1, 0, 0);
        assert!(dis.is_union_conjunctive());
        assert!(!dis.is_conjunctive());
        let neg = fig11_gtpq(Neg1, 0, 0);
        assert!(!neg.is_union_conjunctive());
        for (_, variant) in Fig11Predicate::table4_suite() {
            let q = fig11_gtpq(variant, 1, 1);
            assert!(q.size() >= 10, "Fig. 11 queries are non-trivial");
            assert!(!q.output_nodes().is_empty());
        }
    }

    #[test]
    fn fig11_gtpqs_agree_with_the_naive_oracle_on_a_small_graph() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.05));
        let engine = GteaEngine::new(&g);
        for (name, variant) in Fig11Predicate::table4_suite() {
            let q = fig11_gtpq(variant, 0, 0);
            let fast = engine.evaluate(&q);
            let slow = naive::evaluate(&q, &g);
            assert!(fast.same_answer(&slow), "{name} disagrees with the oracle");
        }
    }

    #[test]
    fn table3_output_variants() {
        let q4 = fig11_output_variant(4, 0, 0);
        assert_eq!(q4.output_nodes().len(), 1);
        let q5 = fig11_output_variant(5, 0, 0);
        assert_eq!(q5.output_nodes().len(), 3);
        let q8 = fig11_output_variant(8, 0, 0);
        assert!(q8.output_nodes().len() > q5.output_nodes().len());
        // Output sets grow monotonically from Q4 to Q6.
        let q6 = fig11_output_variant(6, 0, 0);
        assert!(q6.output_nodes().len() > q5.output_nodes().len());
    }

    #[test]
    #[should_panic(expected = "Table 3")]
    fn table3_variant_out_of_range_panics() {
        let _ = fig11_output_variant(9, 0, 0);
    }

    #[test]
    fn dblp_queries_express_example1() {
        let queries = dblp_queries();
        assert_eq!(queries.len(), 3);
        let g = generate_dblp(200, 11);
        let engine = GteaEngine::new(&g);
        let sizes: Vec<usize> = queries
            .iter()
            .map(|(_, q)| engine.evaluate(q).len())
            .collect();
        // Disjunction returns at least as much as conjunction; conjunction and
        // negation partition the Alice-papers.
        assert!(sizes[1] >= sizes[0]);
        assert!(sizes[1] >= sizes[2]);
        for (name, q) in &queries {
            let fast = engine.evaluate(q);
            let slow = naive::evaluate(q, &g);
            assert!(fast.same_answer(&slow), "{name} disagrees with the oracle");
        }
    }

    #[test]
    fn random_queries_are_valid_and_have_matches() {
        let g = generate_arxiv(&ArxivConfig::small());
        let config = RandomQueryConfig {
            count: 5,
            ..RandomQueryConfig::with_size(5)
        };
        let queries = random_queries(&g, &config);
        assert_eq!(queries.len(), 5);
        let engine = GteaEngine::new(&g);
        for q in &queries {
            assert_eq!(q.size(), 5);
            assert!(q.is_conjunctive());
            assert!(
                !engine.evaluate(q).is_empty(),
                "sampled queries must have at least one match"
            );
        }
    }

    #[test]
    fn random_query_generation_is_deterministic() {
        let g = generate_arxiv(&ArxivConfig::small());
        let a = random_queries(&g, &RandomQueryConfig::with_size(7));
        let b = random_queries(&g, &RandomQueryConfig::with_size(7));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.describe(), y.describe());
        }
    }
}
