//! XMark-like auction graph generator.
//!
//! Mirrors the part of the XMark schema exercised by the paper's queries
//! (Figs. 7 and 11): `open_auction` elements with bidders, a current price, a
//! seller and an item reference; `person` elements with addresses and
//! profiles (optionally an education element); `item` elements with a
//! location and a mailbox of mails.  Internal parent-child edges form a
//! shallow tree (average depth ≈ 5, as the paper notes for XMark) and IDREF
//! references add cross edges, so the result is a graph, not a tree.
//!
//! `person` and `item` nodes are partitioned into ten label groups
//! (`person0..person9`, `item0..item9`), reproducing the paper's labelling
//! scheme; all other nodes are labelled with their tag.

use gtpq_graph::{AttrValue, DataGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the XMark-like generator.
#[derive(Clone, Copy, Debug)]
pub struct XmarkConfig {
    /// Scale factor; 1.0 produces roughly 26k nodes (the paper's scale-1
    /// dataset has 1.29M nodes — we scale down ~50× so the full sweep runs in
    /// seconds, keeping the relative sizes of the sweep identical).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of label groups for `person`/`item` nodes.
    pub label_groups: u32,
}

impl XmarkConfig {
    /// Config for a given scale factor with the default seed and ten groups.
    pub fn with_scale(scale: f64) -> Self {
        Self {
            scale,
            seed: 42,
            label_groups: 10,
        }
    }

    fn persons(&self) -> usize {
        (800.0 * self.scale).round().max(4.0) as usize
    }

    fn items(&self) -> usize {
        (1000.0 * self.scale).round().max(4.0) as usize
    }

    fn open_auctions(&self) -> usize {
        (1200.0 * self.scale).round().max(4.0) as usize
    }
}

/// Generates the XMark-like data graph.
pub fn generate_xmark(config: &XmarkConfig) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = GraphBuilder::with_capacity(
        config.open_auctions() * 12 + config.persons() * 8 + config.items() * 6,
        config.open_auctions() * 14 + config.persons() * 8 + config.items() * 7,
    );

    let site = b.add_node_with_label("site");
    let people = b.add_node_with_label("people");
    let items_region = b.add_node_with_label("regions");
    let auctions = b.add_node_with_label("open_auctions");
    b.add_edge(site, people);
    b.add_edge(site, items_region);
    b.add_edge(site, auctions);

    // Persons.
    let mut person_nodes: Vec<NodeId> = Vec::with_capacity(config.persons());
    for i in 0..config.persons() {
        let group = rng.gen_range(0..config.label_groups);
        let person = b.add_node_with_attrs([
            ("label", AttrValue::Str(format!("person{group}"))),
            ("id", AttrValue::Int(i as i64)),
        ]);
        b.add_edge(people, person);
        person_nodes.push(person);
        let name = b.add_node_with_label("name");
        b.add_edge(person, name);
        let email = b.add_node_with_label("emailaddress");
        b.add_edge(person, email);
        let address = b.add_node_with_label("address");
        b.add_edge(person, address);
        let city = b.add_node_with_label("city");
        b.add_edge(address, city);
        let country = b.add_node_with_label("country");
        b.add_edge(address, country);
        let profile = b.add_node_with_label("profile");
        b.add_edge(person, profile);
        let interest = b.add_node_with_label("interest");
        b.add_edge(profile, interest);
        // Education is optional: it drives the NEG* queries of Table 4.
        if rng.gen_bool(0.4) {
            let education = b.add_node_with_label("education");
            b.add_edge(profile, education);
        }
    }

    // Items.
    let mut item_nodes: Vec<NodeId> = Vec::with_capacity(config.items());
    for i in 0..config.items() {
        let group = rng.gen_range(0..config.label_groups);
        let item = b.add_node_with_attrs([
            ("label", AttrValue::Str(format!("item{group}"))),
            ("id", AttrValue::Int(i as i64)),
        ]);
        b.add_edge(items_region, item);
        item_nodes.push(item);
        let location = b.add_node_with_label("location");
        b.add_edge(item, location);
        let name = b.add_node_with_label("name");
        b.add_edge(item, name);
        let quantity = b.add_node_with_label("quantity");
        b.add_edge(item, quantity);
        // Mailbox with zero to two mails: drives the DIS2 query.
        if rng.gen_bool(0.5) {
            let mailbox = b.add_node_with_label("mailbox");
            b.add_edge(item, mailbox);
            for _ in 0..rng.gen_range(0..=2u32) {
                let mail = b.add_node_with_label("mail");
                b.add_edge(mailbox, mail);
                let date = b.add_node_with_label("date");
                b.add_edge(mail, date);
            }
        }
    }

    // Open auctions.
    for i in 0..config.open_auctions() {
        let auction = b.add_node_with_attrs([
            ("label", AttrValue::str("open_auction")),
            ("id", AttrValue::Int(i as i64)),
        ]);
        b.add_edge(auctions, auction);
        // Bidders (possibly none: drives the NEG2/NEG3 queries).
        for _ in 0..rng.gen_range(0..=3u32) {
            let bidder = b.add_node_with_label("bidder");
            b.add_edge(auction, bidder);
            let date = b.add_node_with_label("date");
            b.add_edge(bidder, date);
            let increase = b.add_node_with_label("increase");
            b.add_edge(bidder, increase);
            let person_ref = b.add_node_with_label("person_ref");
            b.add_edge(bidder, person_ref);
            let person = person_nodes[rng.gen_range(0..person_nodes.len())];
            b.add_edge(person_ref, person); // IDREF cross edge
        }
        // Current price.
        let current = b.add_node_with_label("current");
        b.add_edge(auction, current);
        // Seller (present with high probability).
        if rng.gen_bool(0.9) {
            let seller = b.add_node_with_label("seller");
            b.add_edge(auction, seller);
            let person = person_nodes[rng.gen_range(0..person_nodes.len())];
            b.add_edge(seller, person); // IDREF cross edge
        }
        // Item reference.
        if rng.gen_bool(0.95) {
            let item_ref = b.add_node_with_label("item_ref");
            b.add_edge(auction, item_ref);
            let item = item_nodes[rng.gen_range(0..item_nodes.len())];
            b.add_edge(item_ref, item); // IDREF cross edge
        }
        let quantity = b.add_node_with_label("quantity");
        b.add_edge(auction, quantity);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use gtpq_graph::GraphStats;

    use super::*;

    #[test]
    fn scale_controls_size() {
        let small = generate_xmark(&XmarkConfig::with_scale(0.1));
        let large = generate_xmark(&XmarkConfig::with_scale(0.5));
        assert!(large.node_count() > 3 * small.node_count());
        assert!(small.node_count() > 500);
        assert!(small.edge_count() >= small.node_count() - 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_xmark(&XmarkConfig::with_scale(0.1));
        let b = generate_xmark(&XmarkConfig::with_scale(0.1));
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let c = generate_xmark(&XmarkConfig {
            seed: 7,
            ..XmarkConfig::with_scale(0.1)
        });
        // A different seed produces a graph of comparable but not identical size.
        let ratio = c.node_count() as f64 / a.node_count() as f64;
        assert!((0.8..1.2).contains(&ratio));
    }

    #[test]
    fn graph_is_shallow_and_cross_linked() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.2));
        let stats = GraphStats::compute(&g);
        assert!(stats.max_depth <= 8, "XMark-like graphs are shallow");
        // Cross edges give person nodes in-degree > 1.
        let has_multi_parent = g.nodes().any(|v| g.in_degree(v) > 1);
        assert!(has_multi_parent, "IDREF edges must create shared nodes");
        assert!(stats.distinct_labels > 20);
    }

    #[test]
    fn expected_element_types_are_present() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.1));
        for label in [
            "open_auction",
            "bidder",
            "person_ref",
            "current",
            "seller",
            "item_ref",
            "location",
            "city",
            "profile",
            "education",
            "mailbox",
        ] {
            assert!(
                !g.nodes_with("label", &AttrValue::str(label)).is_empty(),
                "missing element type {label}"
            );
        }
        // Grouped labels exist.
        assert!(!g.nodes_with("label", &AttrValue::str("person0")).is_empty());
        assert!(!g.nodes_with("label", &AttrValue::str("item0")).is_empty());
    }
}
