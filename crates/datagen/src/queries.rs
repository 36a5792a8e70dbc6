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
//!
//! The paper's queries are query text (`docs/QUERY_LANGUAGE.md`) filled in
//! with their label groups and parsed; only the random generator builds its
//! queries node by node.

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{parse_query, AttrPredicate, EdgeKind, Gtpq, GtpqBuilder, QueryNodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parses a filled-in workload template.  A template that does not parse is
/// a bug in this module, reported with a caret diagnostic.
fn parse_template(text: &str) -> Gtpq {
    parse_query(text).unwrap_or_else(|e| panic!("bad workload template\n{}", e.render(text)))
}

/// The pattern of an XMark `person` or `item` node of label group `group`,
/// such as `person3`.  Groups of 10 or more are a wildcard over every group:
/// the label range from `person` up to `person~`.
fn group_label(kind: &str, group: u32) -> String {
    if group >= 10 {
        format!("[label >= {kind}, label < \"{kind}~\"]")
    } else {
        format!("{kind}{group}")
    }
}

/// Fig. 7(a)'s query with `more` appended to the root's children.
fn fig7(person_group: u32, more: &str) -> Gtpq {
    let person = group_label("person", person_group);
    parse_template(&format!(
        "open_auction* {{ /bidder* {{ /person_ref* {{ /{person}* \
         {{ //education* /address* {{ /city* }} }} }} }} /current*{more} }}"
    ))
}

/// Fig. 7(b)'s addition to Q1: an `item<group>` item reference with a
/// location.
fn item_ref(item_group: u32) -> String {
    let item = group_label("item", item_group);
    format!(" /item_ref* {{ /{item}* {{ /location* }} }}")
}

/// Fig. 7(a): auctions with a bidder by a `person<group>` person (with an
/// education and a city) and a current price.  Conjunctive; every node is a
/// backbone output node.
pub fn xmark_q1(person_group: u32) -> Gtpq {
    fig7(person_group, "")
}

/// Fig. 7(b): Q1 plus an `item<group>` item reference with a location.
pub fn xmark_q2(person_group: u32, item_group: u32) -> Gtpq {
    fig7(person_group, &item_ref(item_group))
}

/// Fig. 7(c): Q2 plus a seller person with a profile.
pub fn xmark_q3(person_group: u32, item_group: u32, seller_group: u32) -> Gtpq {
    let seller = group_label("person", seller_group);
    let more = format!(
        "{} /seller* {{ /{seller}* {{ /profile* }} }}",
        item_ref(item_group)
    );
    fig7(person_group, &more)
}

/// The paper's 14 XMark templates for one (person, item, seller) label-group
/// triple, named: Fig. 7's Q1–Q3, the Fig. 11 conjunctive query (`CONJ`)
/// and the ten Table 4 variants, in that order.
pub fn xmark_templates(
    person_group: u32,
    item_group: u32,
    seller_group: u32,
) -> Vec<(&'static str, Gtpq)> {
    let (p, i) = (person_group, item_group);
    let mut all = vec![
        ("Q1", xmark_q1(p)),
        ("Q2", xmark_q2(p, i)),
        ("Q3", xmark_q3(p, i, seller_group)),
        ("CONJ", fig11_gtpq(Fig11Predicate::Conjunctive, p, i)),
    ];
    let table4 = Fig11Predicate::table4_suite().into_iter();
    all.extend(table4.map(|(name, variant)| (name, fig11_gtpq(variant, p, i))));
    all
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
}

/// The backbone nodes of the Fig. 11 query below its root, by label; `person`
/// names both the bidder's and the seller's person.
const FIG11_BACKBONE: [&str; 8] = [
    "bidder", "person", "address", "city", "item", "location", "seller", "profile",
];

/// Builds the Fig. 11 query with the structural predicates of `variant`
/// (Table 4).  Branches mentioned in `fs(open_auction)` are predicate
/// subtrees; every remaining backbone node is an output node, as in the
/// paper's Exp-2 setup.  Outside those branches, `fs(person)` tests
/// `education` (negated where the variant says so) and `fs(item)` tests
/// `mailbox`; the conjunctive variant leaves both unconstrained so the query
/// keeps a healthy number of matches.
///
/// The benchmark sends these texts as its requests and pins checksums of
/// their answers, so they must not change by a byte.  That keeps two odd
/// spellings:
///
/// * a predicate child that its parent's formula does not mention is an
///   inert `((x) | 1)` term.  Inside a predicate branch this makes
///   `fs(bidder)`, `fs(seller)` and `fs(mailbox)` true, so those branches
///   test only their root label;
/// * the back-reference names of bidder, seller and item are `u1`, `u10`
///   and `u6`.
pub fn fig11_gtpq(variant: Fig11Predicate, person_group: u32, item_group: u32) -> Gtpq {
    use Fig11Predicate::*;
    let person = group_label("person", person_group);
    let item = group_label("item", item_group);
    let education = match variant {
        Dis1 | Dis2 | Dis3 | DisNeg2 => "(//education)",
        _ => "!(//education)",
    };
    let mailbox = "(/mailbox { where ((/mail) | 1) })";
    let bidder = |name: &str| {
        format!(
            "(/bidder{name} {{ where ((//{person} {{ where {education} & \
             ((/address {{ where ((/city) | 1) }}) | 1) }}) | 1) }})"
        )
    };
    let seller = |name: &str| {
        format!("(/seller{name} {{ where ((/{person} {{ where ((/profile) | 1) }}) | 1) }})")
    };
    let item_branch =
        |name: &str| format!("(//{item}{name} {{ where {mailbox} & ((/location) | 1) }})");
    let backbone_item = format!("//{item}* {{ /location* where {mailbox} }}");
    let backbone_seller = format!("/seller* {{ /{person}* {{ /profile* }} }}");
    let body = match variant {
        Conjunctive => return fig11_conjunctive(person_group, item_group, &FIG11_BACKBONE),
        Dis1 => format!("{backbone_item} where {} | {}", bidder(""), seller("")),
        Dis2 => format!(
            "//{item}* {{ where {mailbox} | (/location) }} where {} | {}",
            bidder(""),
            seller("")
        ),
        Dis3 => format!(
            "where {} | {} | {}",
            bidder(""),
            seller(""),
            item_branch("")
        ),
        Neg1 => format!(
            "/bidder* {{ //{person}* {{ /address* {{ /city* }} where {education} }} }} \
             {backbone_item} {backbone_seller}"
        ),
        Neg2 => format!("{backbone_item} {backbone_seller} where !{}", bidder("")),
        Neg3 => format!("{backbone_item} where !{} & !{}", bidder(""), seller("")),
        DisNeg1 => format!("{backbone_item} where !{} | {}", bidder(""), seller("")),
        DisNeg2 | DisNeg3 => format!(
            "{backbone_item} where !{} & {} | u1 & !u10",
            bidder(" as u1"),
            seller(" as u10")
        ),
        DisNeg4 => format!(
            "where !{} & {} & {} | u1 & !u10 & !u6",
            bidder(" as u1"),
            seller(" as u10"),
            item_branch(" as u6")
        ),
    };
    parse_template(&format!("open_auction* {{ {body} }}"))
}

/// The conjunctive Fig. 11 query, with output marks on the root and on the
/// [`FIG11_BACKBONE`] nodes named in `outputs`.
fn fig11_conjunctive(person_group: u32, item_group: u32, outputs: &[&str]) -> Gtpq {
    let person = group_label("person", person_group);
    let item = group_label("item", item_group);
    let o = |node: &str| if outputs.contains(&node) { "*" } else { "" };
    parse_template(&format!(
        "open_auction* {{ /bidder{} {{ //{person}{} {{ /address{} {{ /city{} }} \
         where ((//education) | 1) }} }} //{item}{} {{ /location{} \
         where ((/mailbox {{ where ((/mail) | 1) }}) | 1) }} \
         /seller{} {{ /{person}{} {{ /profile{} }} }} }}",
        o("bidder"),
        o("person"),
        o("address"),
        o("city"),
        o("item"),
        o("location"),
        o("seller"),
        o("person"),
        o("profile"),
    ))
}

/// The Exp-1 (Table 3) variants: the conjunctive Fig. 11 query with the
/// output-node sets Q4–Q8.  `which` must be in `4..=8`.
pub fn fig11_output_variant(which: u32, person_group: u32, item_group: u32) -> Gtpq {
    let outputs: &[&str] = match which {
        4 => &[],
        5 => &["bidder", "seller"],
        6 => &["bidder", "seller", "city", "profile"],
        7 => &["item", "location"],
        8 => &FIG11_BACKBONE,
        _ => panic!("Table 3 defines Q4..Q8"),
    };
    fig11_conjunctive(person_group, item_group, outputs)
}

/// The three DBLP queries of Example 1: conjunction (papers by Alice *and*
/// Bob), disjunction (Alice *or* Bob) and negation (Alice but *not* Bob), all
/// restricted to proceedings published between 2000 and 2010.
pub fn dblp_queries() -> Vec<(&'static str, Gtpq)> {
    let alice = "(/[label = author, value = Alice])";
    let bob = "(/[label = author, value = Bob])";
    [
        ("Q1", format!("{alice} & {bob}")),
        ("Q2", format!("{alice} | {bob}")),
        ("Q3", format!("{alice} & !{bob}")),
    ]
    .into_iter()
    .map(|(name, fs)| {
        let text = format!(
            "inproceedings {{ /title* /year* //proceedings {{ /title* \
             where (/[label = year, year >= 2000, year <= 2010]) }} where {fs} }}"
        );
        (name, parse_template(&text))
    })
    .collect()
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

#[cfg(test)]
mod tests {
    use gtpq_core::GteaEngine;
    use gtpq_query::naive;

    use crate::arxiv::{generate_arxiv, ArxivConfig};
    use crate::dblp::generate_dblp;
    use crate::xmark::{generate_xmark, XmarkConfig};

    use super::*;

    /// The paper's 22 templates at one (person, item, seller) label-group
    /// triple: Q1–Q3, the Fig. 11 conjunctive query and its ten Table 4
    /// variants, Table 3's Q4–Q8 and Example 1's three queries.
    fn templates(p: u32, i: u32, s: u32) -> Vec<Gtpq> {
        let mut all: Vec<Gtpq> = xmark_templates(p, i, s)
            .into_iter()
            .map(|(_, q)| q)
            .collect();
        all.extend((4..=8).map(|which| fig11_output_variant(which, p, i)));
        all.extend(dblp_queries().into_iter().map(|(_, q)| q));
        all
    }

    /// `to_string()` of `templates` at label groups (3, 4, 5).
    const PLAIN: [&str; 22] = [
        r#"open_auction* { /bidder* { /person_ref* { /person3* { //education* /address* { /city* } } } } /current* }"#,
        r#"open_auction* { /bidder* { /person_ref* { /person3* { //education* /address* { /city* } } } } /current* /item_ref* { /item4* { /location* } } }"#,
        r#"open_auction* { /bidder* { /person_ref* { /person3* { //education* /address* { /city* } } } } /current* /item_ref* { /item4* { /location* } } /seller* { /person5* { /profile* } } }"#,
        r#"open_auction* { /bidder* { //person3* { /address* { /city* } where ((//education) | 1) } } //item4* { /location* where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller* { /person3* { /profile* } } }"#,
        r#"open_auction* { //item4* { /location* where (/mailbox { where ((/mail) | 1) }) } where (/bidder { where ((//person3 { where (//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) | (/seller { where ((/person3 { where ((/profile) | 1) }) | 1) }) }"#,
        r#"open_auction* { //item4* { where (/mailbox { where ((/mail) | 1) }) | (/location) } where (/bidder { where ((//person3 { where (//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) | (/seller { where ((/person3 { where ((/profile) | 1) }) | 1) }) }"#,
        r#"open_auction* { where (/bidder { where ((//person3 { where (//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) | (/seller { where ((/person3 { where ((/profile) | 1) }) | 1) }) | (//item4 { where (/mailbox { where ((/mail) | 1) }) & ((/location) | 1) }) }"#,
        r#"open_auction* { /bidder* { //person3* { /address* { /city* } where !(//education) } } //item4* { /location* where (/mailbox { where ((/mail) | 1) }) } /seller* { /person3* { /profile* } } }"#,
        r#"open_auction* { //item4* { /location* where (/mailbox { where ((/mail) | 1) }) } /seller* { /person3* { /profile* } } where !(/bidder { where ((//person3 { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) }"#,
        r#"open_auction* { //item4* { /location* where (/mailbox { where ((/mail) | 1) }) } where !(/bidder { where ((//person3 { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) & !(/seller { where ((/person3 { where ((/profile) | 1) }) | 1) }) }"#,
        r#"open_auction* { //item4* { /location* where (/mailbox { where ((/mail) | 1) }) } where !(/bidder { where ((//person3 { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) | (/seller { where ((/person3 { where ((/profile) | 1) }) | 1) }) }"#,
        r#"open_auction* { //item4* { /location* where (/mailbox { where ((/mail) | 1) }) } where !(/bidder as u1 { where ((//person3 { where (//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) & (/seller as u10 { where ((/person3 { where ((/profile) | 1) }) | 1) }) | u1 & !u10 }"#,
        r#"open_auction* { //item4* { /location* where (/mailbox { where ((/mail) | 1) }) } where !(/bidder as u1 { where ((//person3 { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) & (/seller as u10 { where ((/person3 { where ((/profile) | 1) }) | 1) }) | u1 & !u10 }"#,
        r#"open_auction* { where !(/bidder as u1 { where ((//person3 { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) & (/seller as u10 { where ((/person3 { where ((/profile) | 1) }) | 1) }) & (//item4 as u6 { where (/mailbox { where ((/mail) | 1) }) & ((/location) | 1) }) | u1 & !u10 & !u6 }"#,
        r#"open_auction* { /bidder { //person3 { /address { /city } where ((//education) | 1) } } //item4 { /location where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller { /person3 { /profile } } }"#,
        r#"open_auction* { /bidder* { //person3 { /address { /city } where ((//education) | 1) } } //item4 { /location where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller* { /person3 { /profile } } }"#,
        r#"open_auction* { /bidder* { //person3 { /address { /city* } where ((//education) | 1) } } //item4 { /location where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller* { /person3 { /profile* } } }"#,
        r#"open_auction* { /bidder { //person3 { /address { /city } where ((//education) | 1) } } //item4* { /location* where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller { /person3 { /profile } } }"#,
        r#"open_auction* { /bidder* { //person3* { /address* { /city* } where ((//education) | 1) } } //item4* { /location* where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller* { /person3* { /profile* } } }"#,
        r#"inproceedings { /title* /year* //proceedings { /title* where (/[label = year, year >= 2000, year <= 2010]) } where (/[label = author, value = Alice]) & (/[label = author, value = Bob]) }"#,
        r#"inproceedings { /title* /year* //proceedings { /title* where (/[label = year, year >= 2000, year <= 2010]) } where (/[label = author, value = Alice]) | (/[label = author, value = Bob]) }"#,
        r#"inproceedings { /title* /year* //proceedings { /title* where (/[label = year, year >= 2000, year <= 2010]) } where (/[label = author, value = Alice]) & !(/[label = author, value = Bob]) }"#,
    ];

    /// `to_string()` of `templates` at label groups (12, 11, 10).
    const WILDCARD: [&str; 22] = [
        r#"open_auction* { /bidder* { /person_ref* { /[label >= person, label < "person~"]* { //education* /address* { /city* } } } } /current* }"#,
        r#"open_auction* { /bidder* { /person_ref* { /[label >= person, label < "person~"]* { //education* /address* { /city* } } } } /current* /item_ref* { /[label >= item, label < "item~"]* { /location* } } }"#,
        r#"open_auction* { /bidder* { /person_ref* { /[label >= person, label < "person~"]* { //education* /address* { /city* } } } } /current* /item_ref* { /[label >= item, label < "item~"]* { /location* } } /seller* { /[label >= person, label < "person~"]* { /profile* } } }"#,
        r#"open_auction* { /bidder* { //[label >= person, label < "person~"]* { /address* { /city* } where ((//education) | 1) } } //[label >= item, label < "item~"]* { /location* where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller* { /[label >= person, label < "person~"]* { /profile* } } }"#,
        r#"open_auction* { //[label >= item, label < "item~"]* { /location* where (/mailbox { where ((/mail) | 1) }) } where (/bidder { where ((//[label >= person, label < "person~"] { where (//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) | (/seller { where ((/[label >= person, label < "person~"] { where ((/profile) | 1) }) | 1) }) }"#,
        r#"open_auction* { //[label >= item, label < "item~"]* { where (/mailbox { where ((/mail) | 1) }) | (/location) } where (/bidder { where ((//[label >= person, label < "person~"] { where (//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) | (/seller { where ((/[label >= person, label < "person~"] { where ((/profile) | 1) }) | 1) }) }"#,
        r#"open_auction* { where (/bidder { where ((//[label >= person, label < "person~"] { where (//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) | (/seller { where ((/[label >= person, label < "person~"] { where ((/profile) | 1) }) | 1) }) | (//[label >= item, label < "item~"] { where (/mailbox { where ((/mail) | 1) }) & ((/location) | 1) }) }"#,
        r#"open_auction* { /bidder* { //[label >= person, label < "person~"]* { /address* { /city* } where !(//education) } } //[label >= item, label < "item~"]* { /location* where (/mailbox { where ((/mail) | 1) }) } /seller* { /[label >= person, label < "person~"]* { /profile* } } }"#,
        r#"open_auction* { //[label >= item, label < "item~"]* { /location* where (/mailbox { where ((/mail) | 1) }) } /seller* { /[label >= person, label < "person~"]* { /profile* } } where !(/bidder { where ((//[label >= person, label < "person~"] { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) }"#,
        r#"open_auction* { //[label >= item, label < "item~"]* { /location* where (/mailbox { where ((/mail) | 1) }) } where !(/bidder { where ((//[label >= person, label < "person~"] { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) & !(/seller { where ((/[label >= person, label < "person~"] { where ((/profile) | 1) }) | 1) }) }"#,
        r#"open_auction* { //[label >= item, label < "item~"]* { /location* where (/mailbox { where ((/mail) | 1) }) } where !(/bidder { where ((//[label >= person, label < "person~"] { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) | (/seller { where ((/[label >= person, label < "person~"] { where ((/profile) | 1) }) | 1) }) }"#,
        r#"open_auction* { //[label >= item, label < "item~"]* { /location* where (/mailbox { where ((/mail) | 1) }) } where !(/bidder as u1 { where ((//[label >= person, label < "person~"] { where (//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) & (/seller as u10 { where ((/[label >= person, label < "person~"] { where ((/profile) | 1) }) | 1) }) | u1 & !u10 }"#,
        r#"open_auction* { //[label >= item, label < "item~"]* { /location* where (/mailbox { where ((/mail) | 1) }) } where !(/bidder as u1 { where ((//[label >= person, label < "person~"] { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) & (/seller as u10 { where ((/[label >= person, label < "person~"] { where ((/profile) | 1) }) | 1) }) | u1 & !u10 }"#,
        r#"open_auction* { where !(/bidder as u1 { where ((//[label >= person, label < "person~"] { where !(//education) & ((/address { where ((/city) | 1) }) | 1) }) | 1) }) & (/seller as u10 { where ((/[label >= person, label < "person~"] { where ((/profile) | 1) }) | 1) }) & (//[label >= item, label < "item~"] as u6 { where (/mailbox { where ((/mail) | 1) }) & ((/location) | 1) }) | u1 & !u10 & !u6 }"#,
        r#"open_auction* { /bidder { //[label >= person, label < "person~"] { /address { /city } where ((//education) | 1) } } //[label >= item, label < "item~"] { /location where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller { /[label >= person, label < "person~"] { /profile } } }"#,
        r#"open_auction* { /bidder* { //[label >= person, label < "person~"] { /address { /city } where ((//education) | 1) } } //[label >= item, label < "item~"] { /location where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller* { /[label >= person, label < "person~"] { /profile } } }"#,
        r#"open_auction* { /bidder* { //[label >= person, label < "person~"] { /address { /city* } where ((//education) | 1) } } //[label >= item, label < "item~"] { /location where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller* { /[label >= person, label < "person~"] { /profile* } } }"#,
        r#"open_auction* { /bidder { //[label >= person, label < "person~"] { /address { /city } where ((//education) | 1) } } //[label >= item, label < "item~"]* { /location* where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller { /[label >= person, label < "person~"] { /profile } } }"#,
        r#"open_auction* { /bidder* { //[label >= person, label < "person~"]* { /address* { /city* } where ((//education) | 1) } } //[label >= item, label < "item~"]* { /location* where ((/mailbox { where ((/mail) | 1) }) | 1) } /seller* { /[label >= person, label < "person~"]* { /profile* } } }"#,
        r#"inproceedings { /title* /year* //proceedings { /title* where (/[label = year, year >= 2000, year <= 2010]) } where (/[label = author, value = Alice]) & (/[label = author, value = Bob]) }"#,
        r#"inproceedings { /title* /year* //proceedings { /title* where (/[label = year, year >= 2000, year <= 2010]) } where (/[label = author, value = Alice]) | (/[label = author, value = Bob]) }"#,
        r#"inproceedings { /title* /year* //proceedings { /title* where (/[label = year, year >= 2000, year <= 2010]) } where (/[label = author, value = Alice]) & !(/[label = author, value = Bob]) }"#,
    ];

    #[test]
    fn templates_print_their_pinned_texts() {
        for (triple, expected) in [((3, 4, 5), PLAIN), ((12, 11, 10), WILDCARD)] {
            let (p, i, s) = triple;
            let printed: Vec<String> = templates(p, i, s).iter().map(Gtpq::to_string).collect();
            assert_eq!(printed, expected, "{triple:?}");
        }
    }

    #[test]
    fn template_texts_parse_back_to_themselves_for_every_label_group() {
        for p in 0..=12 {
            for i in 0..=12 {
                for q in templates(p, i, (p + i) % 13) {
                    let text = q.to_string();
                    let reparsed =
                        parse_query(&text).unwrap_or_else(|e| panic!("{}", e.render(&text)));
                    assert_eq!(reparsed.to_string(), text);
                }
            }
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
