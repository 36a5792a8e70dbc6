//! Deterministic update-stream generator for live-graph experiments.
//!
//! Produces batches ("epochs") of graph mutations — node inserts, attribute
//! upserts and edge inserts — that can be replayed identically against a
//! [`GraphHandle`] (the incremental mutation path) and against a
//! [`GraphBuilder`] (a from-scratch rebuild).  That replayability is what the
//! mutation-oracle test suite leans on: the same op sequence applied both
//! ways must yield bit-identical graphs.
//!
//! Ops reference nodes by absolute [`NodeId`]; the generator tracks the
//! running node count so every referenced id exists by the time its op is
//! applied, regardless of where epoch boundaries (commits) fall.  The
//! [`UpdateStreamConfig::backward_edge_fraction`] knob orients a tunable
//! share of edge inserts from the higher id to the lower one, which creates
//! cycles against the insertion order, so the condensation each commit
//! re-derives sees strongly connected components form and merge.

use gtpq_graph::{AttrValue, DataGraph, GraphBuilder, GraphHandle, NodeId, LABEL_ATTR, VALUE_ATTR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One graph mutation, replayable on a handle or a builder.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// Append a node labelled `label`; it receives the next dense id.
    InsertNode {
        /// Label attribute of the new node.
        label: String,
    },
    /// Upsert attribute `name` on an existing (or just-inserted) node.
    SetAttr {
        /// Target node; always below the running node count.
        node: NodeId,
        /// Attribute name.
        name: String,
        /// New value; replaces any previous value of `name`.
        value: AttrValue,
    },
    /// Insert the directed edge `from → to` (`from != to`).
    InsertEdge {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
}

/// Configuration of [`update_stream`].
#[derive(Clone, Copy, Debug)]
pub struct UpdateStreamConfig {
    /// RNG seed; same seed and base graph → same stream.
    pub seed: u64,
    /// Number of epochs (commit batches) to generate.
    pub epochs: usize,
    /// Ops per epoch.
    pub ops_per_epoch: usize,
    /// Fraction of ops that insert a node.
    pub insert_node_fraction: f64,
    /// Fraction of ops that upsert an attribute.  The remainder
    /// (`1 − insert_node_fraction − set_attr_fraction`) inserts edges.
    pub set_attr_fraction: f64,
    /// Fraction of edge inserts oriented from the higher node id to the
    /// lower one — against insertion order, so they can close cycles.
    pub backward_edge_fraction: f64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            epochs: 4,
            ops_per_epoch: 32,
            insert_node_fraction: 0.35,
            set_attr_fraction: 0.25,
            backward_edge_fraction: 0.3,
        }
    }
}

/// Generates `cfg.epochs` batches of mutations for a graph currently equal
/// to `g`.  Labels of inserted nodes are sampled from the labels present in
/// `g` (falling back to a small palette on unlabelled or empty graphs), so
/// the stream stays within the base graph's vocabulary and mutated graphs
/// keep answering the same query workloads.
pub fn update_stream(g: &DataGraph, cfg: &UpdateStreamConfig) -> Vec<Vec<UpdateOp>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut palette: Vec<String> = Vec::new();
    for v in g.nodes() {
        if let Some(AttrValue::Str(s)) = g.attribute_value(v, LABEL_ATTR) {
            if !palette.contains(s) {
                palette.push(s.clone());
            }
        }
        if palette.len() >= 16 {
            break;
        }
    }
    if palette.is_empty() {
        palette = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
    }

    let mut n = g.node_count();
    let mut epochs = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let mut ops = Vec::with_capacity(cfg.ops_per_epoch);
        for _ in 0..cfg.ops_per_epoch {
            let roll: f64 = rng.gen();
            if roll < cfg.insert_node_fraction || n < 2 {
                let label = palette[rng.gen_range(0..palette.len())].clone();
                ops.push(UpdateOp::InsertNode { label });
                n += 1;
            } else if roll < cfg.insert_node_fraction + cfg.set_attr_fraction {
                let node = NodeId(rng.gen_range(0..n) as u32);
                let (name, value) = if rng.gen_bool(0.7) {
                    (
                        VALUE_ATTR.to_string(),
                        AttrValue::int(rng.gen_range(0..100)),
                    )
                } else {
                    let label = palette[rng.gen_range(0..palette.len())].clone();
                    (LABEL_ATTR.to_string(), AttrValue::Str(label))
                };
                ops.push(UpdateOp::SetAttr { node, name, value });
            } else {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                if a == b {
                    b = (b + 1) % n;
                }
                let (lo, hi) = (a.min(b), a.max(b));
                let (from, to) = if rng.gen_bool(cfg.backward_edge_fraction) {
                    (hi, lo)
                } else {
                    (lo, hi)
                };
                ops.push(UpdateOp::InsertEdge {
                    from: NodeId(from as u32),
                    to: NodeId(to as u32),
                });
            }
        }
        epochs.push(ops);
    }
    epochs
}

/// Replays `ops` against a live [`GraphHandle`] (staged; call
/// `handle.commit()` to publish).  Panics if an op references a node the
/// handle has not seen — streams from [`update_stream`] never do when
/// replayed in order.
pub fn apply_ops(handle: &GraphHandle, ops: &[UpdateOp]) {
    for op in ops {
        match op {
            UpdateOp::InsertNode { label } => {
                handle.insert_node_with_label(label);
            }
            UpdateOp::SetAttr { node, name, value } => {
                handle.set_attr(*node, name, value.clone());
            }
            UpdateOp::InsertEdge { from, to } => {
                handle.insert_edge(*from, *to);
            }
        }
    }
}

/// Replays `ops` against a [`GraphBuilder`] — the from-scratch rebuild half
/// of the oracle comparison.
pub fn apply_ops_to_builder(builder: &mut GraphBuilder, ops: &[UpdateOp]) {
    for op in ops {
        match op {
            UpdateOp::InsertNode { label } => {
                builder.add_node_with_label(label);
            }
            UpdateOp::SetAttr { node, name, value } => {
                builder.set_attr(*node, name, value.clone());
            }
            UpdateOp::InsertEdge { from, to } => {
                builder.add_edge(*from, *to);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_ops() -> Vec<UpdateOp> {
        vec![
            UpdateOp::InsertNode { label: "a".into() },
            UpdateOp::InsertNode { label: "b".into() },
            UpdateOp::InsertNode { label: "c".into() },
            UpdateOp::InsertEdge {
                from: NodeId(0),
                to: NodeId(1),
            },
            UpdateOp::InsertEdge {
                from: NodeId(1),
                to: NodeId(2),
            },
        ]
    }

    fn base_graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        apply_ops_to_builder(&mut b, &base_ops());
        b.build()
    }

    #[test]
    fn streams_are_deterministic_and_sized() {
        let g = base_graph();
        let cfg = UpdateStreamConfig::default();
        let s1 = update_stream(&g, &cfg);
        let s2 = update_stream(&g, &cfg);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), cfg.epochs);
        assert!(s1.iter().all(|e| e.len() == cfg.ops_per_epoch));
        let s3 = update_stream(&g, &UpdateStreamConfig { seed: 8, ..cfg });
        assert_ne!(s1, s3);
    }

    #[test]
    fn ops_reference_only_existing_nodes() {
        let g = base_graph();
        let cfg = UpdateStreamConfig {
            epochs: 6,
            ops_per_epoch: 50,
            ..UpdateStreamConfig::default()
        };
        let mut n = g.node_count();
        for epoch in update_stream(&g, &cfg) {
            for op in epoch {
                match op {
                    UpdateOp::InsertNode { .. } => n += 1,
                    UpdateOp::SetAttr { node, .. } => assert!(node.index() < n),
                    UpdateOp::InsertEdge { from, to } => {
                        assert!(from.index() < n && to.index() < n);
                        assert_ne!(from, to);
                    }
                }
            }
        }
    }

    #[test]
    fn handle_and_builder_replays_are_bit_identical() {
        let g = base_graph();
        let cfg = UpdateStreamConfig {
            epochs: 3,
            ops_per_epoch: 40,
            ..UpdateStreamConfig::default()
        };
        let stream = update_stream(&g, &cfg);

        let handle = GraphHandle::new(base_graph());
        let mut oracle = GraphBuilder::new();
        apply_ops_to_builder(&mut oracle, &base_ops());
        for epoch in &stream {
            apply_ops(&handle, epoch);
            apply_ops_to_builder(&mut oracle, epoch);
            handle.commit();
        }
        let rebuilt = oracle.build();
        let snap = handle.snapshot();
        assert_eq!(**snap.graph(), rebuilt);
        assert_eq!(snap.epoch(), stream.len() as u64);
    }

    #[test]
    fn empty_graph_uses_fallback_palette() {
        let empty = GraphBuilder::new().build();
        let cfg = UpdateStreamConfig {
            epochs: 2,
            ops_per_epoch: 20,
            ..UpdateStreamConfig::default()
        };
        let stream = update_stream(&empty, &cfg);
        let handle = GraphHandle::new(empty);
        for epoch in &stream {
            apply_ops(&handle, epoch);
            handle.commit();
        }
        assert!(handle.snapshot().graph().node_count() > 0);
    }

    #[test]
    fn backward_edges_appear_when_requested() {
        let g = base_graph();
        let cfg = UpdateStreamConfig {
            epochs: 4,
            ops_per_epoch: 60,
            backward_edge_fraction: 1.0,
            ..UpdateStreamConfig::default()
        };
        let backward = update_stream(&g, &cfg)
            .iter()
            .flatten()
            .filter(|op| matches!(op, UpdateOp::InsertEdge { from, to } if from > to))
            .count();
        assert!(backward > 0);
    }
}
