//! Embedded-text corpus generator: documents carrying deterministic
//! pseudo-embeddings with planted near-duplicate clusters.
//!
//! The similarity access path (`gtpq-sim`) needs a workload whose ground
//! truth is checkable *by construction*, not just by brute force: every
//! document belongs to exactly one cluster, cluster centers are pairwise at
//! least `CENTER_SEPARATION` apart in L2, and each member sits within
//! `noise · √dim` of its center.  A radius query at a cluster center with
//! any radius between those two bounds therefore retrieves *exactly* the
//! cluster's members — perfect recall and precision are provable from the
//! generator parameters alone ([`EmbedConfig::recall_radius`] picks such a
//! radius).
//!
//! The graph is bipartite on top of the embeddings so tree-pattern queries
//! have structure to bite on: `topics` topic nodes come first, then
//! `clusters · cluster_size` document nodes, each with an edge to its topic
//! (`doc → topic`).  Documents carry `label = doc`, an integer `cluster`
//! attribute (the planted ground truth) and the `emb` vector; topics carry
//! `label = topic` and an integer `topic` attribute.

use gtpq_graph::{AttrValue, DataGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Guaranteed minimum L2 distance between any two distinct cluster centers.
///
/// Center `c` is a random vector with every coordinate in `[-1, 1)` except
/// coordinate `c mod dim`, which is overridden to `8 · (⌊c / dim⌋ + 1)`.
/// Two centers on the same axis differ by at least 8 there; two centers on
/// different axes differ by at least `8 − 1 = 7` on either spike axis.
pub(crate) const CENTER_SEPARATION: f32 = 7.0;

/// Configuration of the embedded-text generator.
#[derive(Clone, Copy, Debug)]
pub struct EmbedConfig {
    /// Number of planted near-duplicate clusters (every document belongs to
    /// exactly one).
    pub clusters: usize,
    /// Documents per cluster.
    pub cluster_size: usize,
    /// Number of topic nodes the documents link to.
    pub topics: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Per-coordinate noise bound: each member coordinate is its center
    /// coordinate plus a uniform offset in `[-noise, noise]`.
    pub noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        Self {
            clusters: 64,
            cluster_size: 16,
            topics: 8,
            dim: 32,
            noise: 0.02,
            seed: 7,
        }
    }
}

impl EmbedConfig {
    /// A smaller configuration used by fast unit tests.
    pub fn small() -> Self {
        Self {
            clusters: 12,
            cluster_size: 5,
            topics: 3,
            dim: 8,
            ..Self::default()
        }
    }

    /// Total number of document nodes.
    pub fn docs(&self) -> usize {
        self.clusters * self.cluster_size
    }

    /// Upper bound on the L2 distance between a member and its cluster
    /// center: per-coordinate noise is at most `noise`, so the distance is
    /// at most `noise · √dim`.
    pub(crate) fn member_radius(&self) -> f32 {
        self.noise * (self.dim as f32).sqrt()
    }

    /// A radius with *provably* perfect recall and precision for a query at
    /// a cluster center: strictly larger than the member radius
    /// `noise · √dim` (every member retrieved) and strictly smaller than
    /// `CENTER_SEPARATION` minus that radius (no foreign member can come
    /// close).  Generators whose parameters violate that window (huge
    /// `noise`) panic rather than silently losing the guarantee.
    pub fn recall_radius(&self) -> f32 {
        let r = self.member_radius() * 2.0 + 0.125;
        assert!(
            r < CENTER_SEPARATION - self.member_radius(),
            "noise {} too large for planted-cluster separation",
            self.noise
        );
        r
    }

    /// The deterministic cluster centers (one per cluster, recomputed from
    /// the seed) — the natural query vectors for the workload.
    pub fn centers(&self) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.clusters)
            .map(|c| {
                let v = center(self, &mut rng, c);
                // Keep the RNG stream aligned with `generate_embed`, which
                // draws one noise seed per cluster after the center.
                let _: u64 = rng.gen();
                v
            })
            .collect()
    }
}

/// One cluster center: random base coordinates in `[-1, 1)` with the spike
/// coordinate overridden (see [`CENTER_SEPARATION`]).
fn center(config: &EmbedConfig, rng: &mut StdRng, c: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..config.dim)
        .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) as f32)
        .collect();
    v[c % config.dim] = 8.0 * ((c / config.dim) as f32 + 1.0);
    v
}

/// Generates the embedded-text data graph: `topics` topic nodes first, then
/// the documents in cluster order (cluster `c` owns documents
/// `topics + c·cluster_size .. topics + (c+1)·cluster_size`).
pub fn generate_embed(config: &EmbedConfig) -> DataGraph {
    assert!(config.dim > 0, "embeddings need at least one dimension");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = GraphBuilder::with_capacity(config.topics + config.docs(), config.docs());
    for t in 0..config.topics {
        b.add_node_with_attrs([
            ("label", AttrValue::str("topic")),
            ("topic", AttrValue::Int(t as i64)),
        ]);
    }
    for c in 0..config.clusters {
        // Must match `EmbedConfig::centers`: one center draw per cluster
        // from the same RNG stream, member noise drawn afterwards.
        let center = center(config, &mut rng, c);
        let noise_rng_seed = rng.gen::<u64>();
        let mut noise_rng = StdRng::seed_from_u64(noise_rng_seed);
        for m in 0..config.cluster_size {
            let emb: Vec<f32> = center
                .iter()
                .map(|&x| x + ((noise_rng.gen::<f64>() * 2.0 - 1.0) as f32) * config.noise)
                .collect();
            let doc = b.add_node_with_attrs([
                ("label", AttrValue::str("doc")),
                ("cluster", AttrValue::Int(c as i64)),
                ("emb", AttrValue::Vec(emb)),
            ]);
            if config.topics > 0 {
                let topic = (c * config.cluster_size + m) % config.topics;
                b.add_edge(doc, NodeId(topic as u32));
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let cfg = EmbedConfig::small();
        let a = generate_embed(&cfg);
        let b = generate_embed(&cfg);
        assert_eq!(a, b);
        let c = generate_embed(&EmbedConfig { seed: 99, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn planted_clusters_are_recoverable_by_construction() {
        let cfg = EmbedConfig::small();
        let g = generate_embed(&cfg);
        let centers = cfg.centers();
        let radius = cfg.recall_radius();
        for (c, center) in centers.iter().enumerate() {
            // Brute-force radius query at the center: exactly the cluster.
            let hits: Vec<u32> = g
                .nodes()
                .filter(|&v| {
                    g.attribute_value(v, "emb")
                        .and_then(AttrValue::as_vec)
                        .is_some_and(|emb| l2(emb, center) < radius)
                })
                .map(|v| v.0)
                .collect();
            let first = (cfg.topics + c * cfg.cluster_size) as u32;
            let expected: Vec<u32> = (first..first + cfg.cluster_size as u32).collect();
            assert_eq!(hits, expected, "cluster {c} must be exactly recovered");
            // And the ground-truth attribute agrees.
            for &v in &hits {
                assert_eq!(
                    g.attribute_value(NodeId(v), "cluster"),
                    Some(&AttrValue::Int(c as i64))
                );
            }
        }
    }

    #[test]
    fn centers_are_separated_and_members_are_close() {
        let cfg = EmbedConfig::small();
        let centers = cfg.centers();
        for i in 0..centers.len() {
            for j in i + 1..centers.len() {
                assert!(
                    l2(&centers[i], &centers[j]) >= CENTER_SEPARATION,
                    "centers {i} and {j} too close"
                );
            }
        }
        let g = generate_embed(&cfg);
        for (c, center) in centers.iter().enumerate() {
            for m in 0..cfg.cluster_size {
                let v = NodeId((cfg.topics + c * cfg.cluster_size + m) as u32);
                let emb = g.attribute_value(v, "emb").unwrap().as_vec().unwrap();
                assert!(l2(emb, center) <= cfg.member_radius() + 1e-5);
            }
        }
    }

    #[test]
    fn documents_link_to_topics() {
        let cfg = EmbedConfig::small();
        let g = generate_embed(&cfg);
        assert_eq!(g.node_count(), cfg.topics + cfg.docs());
        for v in g.nodes().skip(cfg.topics) {
            let children = g.children(v);
            assert_eq!(children.len(), 1, "every doc links to one topic");
            assert!(children[0].index() < cfg.topics);
        }
    }
}
