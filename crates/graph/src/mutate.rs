//! Live graphs: a mutation path over the immutable [`DataGraph`].
//!
//! A [`GraphHandle`] stages inserts and attribute upserts (the *delta
//! overlay*) and compacts them into a fresh, fully flat [`DataGraph`] at each
//! [`commit`](GraphHandle::commit) — one epoch per commit.  Compaction is
//! *incremental*: every commit extends the CSR adjacency and the three
//! posting families of the attribute inverted index with one sorted-run
//! merge, `run::merge_run` (per source in `Csr::merge_additions`, per key
//! in `AttrIndex::merge_updates`), whatever the size of the delta.  The SCC
//! condensation is patched in place whenever
//! every new edge goes forward in the topological order
//! (`Condensation::apply_insertions`) and re-runs Tarjan otherwise.  The
//! result is **bit-identical** to rebuilding the graph from scratch over the
//! same logical operation sequence — the differential oracle
//! (`tests/differential.rs`) compares the two with `==` after every epoch,
//! on heap bases and on mapped snapshots alike.
//!
//! Reads are snapshot isolated for free: committed graphs are never mutated,
//! so a [`GraphSnapshot`] (an `Arc` pair pinning one epoch's graph and
//! condensation) keeps serving a consistent view to in-flight requests and
//! match streams while writers race ahead.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use crate::attr::{AttrValue, Attribute};
use crate::condensation::Condensation;
use crate::graph::{DataGraph, NodeId};
use crate::symbol::Symbol;
use crate::LABEL_ATTR;

/// One immutable epoch of a live graph: the compacted [`DataGraph`] (which
/// carries its SCC condensation) pinned under one epoch number.
///
/// Snapshots are handed out as `Arc<GraphSnapshot>` — cloning is one
/// refcount, and the underlying arrays are shared with every other reader of
/// the same epoch.
#[derive(Clone, Debug)]
pub struct GraphSnapshot {
    epoch: u64,
    graph: Arc<DataGraph>,
}

impl GraphSnapshot {
    /// Wraps an already-built immutable graph as epoch 0, condensing it now
    /// unless it already carries its condensation.  This is how static,
    /// never-mutated deployments enter the snapshot world.
    pub fn freeze(graph: Arc<DataGraph>) -> Self {
        Self::new(0, graph)
    }

    /// Pins `graph` under `epoch`.  The condensation is forced here, so the
    /// O(V + E) pass is paid by whoever publishes the epoch (a no-op for the
    /// commit path and the snapshot loader, which install theirs) and never
    /// by the first query that reads it.
    pub(crate) fn new(epoch: u64, graph: Arc<DataGraph>) -> Self {
        graph.condensation();
        Self { epoch, graph }
    }

    /// The epoch this snapshot pins.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The compacted data graph of this epoch.
    #[inline]
    pub fn graph(&self) -> &Arc<DataGraph> {
        &self.graph
    }

    /// The maintained SCC condensation of this epoch's graph — the same
    /// `Arc` as [`DataGraph::condensation`] of [`graph`](Self::graph).
    #[inline]
    pub fn condensation(&self) -> &Arc<Condensation> {
        self.graph.condensation()
    }
}

/// A staged mutation, recorded in operation order so a replay through
/// [`GraphBuilder`](crate::GraphBuilder) interns symbols identically.
#[derive(Debug)]
pub(crate) enum PendingOp {
    /// Append a fresh node (ids are dense, continuing the committed range).
    AddNode,
    /// Set (or overwrite) one attribute on a committed or staged node.
    SetAttr {
        /// The node receiving the attribute.
        node: NodeId,
        /// Attribute name (interned at commit time).
        name: String,
        /// New attribute value.
        value: AttrValue,
    },
    /// Insert a directed edge between committed or staged nodes.
    AddEdge {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
}

/// Counters describing the work the mutation path has done — how many
/// commits patched the condensation and how many re-ran Tarjan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MutationStats {
    /// Committed epochs (commits with at least one staged operation).
    pub epochs: u64,
    /// Nodes inserted across all epochs.
    pub nodes_inserted: u64,
    /// Distinct new edges committed (duplicates are dropped at commit).
    pub edges_inserted: u64,
    /// `set_attr` operations committed.
    pub attrs_upserted: u64,
    /// Commits that extended the CSR by linear sorted-run merge: every
    /// commit does, so this equals [`epochs`](Self::epochs).
    pub csr_merges: u64,
    /// Always 0: no commit re-sorts the edge list.  Kept while a benchmark
    /// metric (`graph.commit_rebuild_share`) still reads it.
    pub csr_rebuilds: u64,
    /// Commits that merged the inverted index incrementally: every commit
    /// does, so this equals [`epochs`](Self::epochs).
    pub index_merges: u64,
    /// Always 0: no commit rebuilds the inverted index.  Kept while a
    /// benchmark metric (`graph.commit_rebuild_share`) still reads it.
    pub index_rebuilds: u64,
    /// Commits where the condensation took the topological fast path.
    pub condensation_fast: u64,
    /// Commits that re-ran Tarjan (an edge went backward in topo order).
    pub condensation_rebuilds: u64,
}

struct Pending {
    ops: Vec<PendingOp>,
    /// Committed node count the staged ids are relative to.
    base_nodes: usize,
    /// Nodes staged since the last commit.
    staged_nodes: usize,
}

/// A mutable handle over a live graph: stage inserts/upserts, then
/// [`commit`](Self::commit) them as one epoch.
///
/// Staging calls and commits serialize on an internal lock (writers are
/// single-file); [`snapshot`](Self::snapshot) never blocks behind a commit's
/// heavy phase and readers always observe a fully-built epoch — there are no
/// torn reads by construction, because epochs are immutable once published.
///
/// A panic never leaves the handle unusable.  The documented staging panics
/// fire before anything is written, and a commit takes its staged operations
/// before it merges them, so the locks are read through poisoning: a later
/// call sees the state as of the last successful call.  A commit that panics
/// drops the operations it had taken, and the published epoch stays as it
/// was.
pub struct GraphHandle {
    pending: Mutex<Pending>,
    current: RwLock<Arc<GraphSnapshot>>,
    epoch: AtomicU64,
    stats: Mutex<MutationStats>,
}

impl std::fmt::Debug for GraphHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphHandle")
            .field("epoch", &self.epoch())
            .field("pending_ops", &self.pending_op_count())
            .finish_non_exhaustive()
    }
}

impl GraphHandle {
    /// Wraps `graph` as the epoch-0 image of a live graph.
    pub fn new(graph: DataGraph) -> Self {
        Self::from_snapshot(GraphSnapshot::new(0, Arc::new(graph)))
    }

    /// Wraps a loaded snapshot as a live graph *without* recomputing the
    /// condensation (the snapshot already pins the canonical one) — the
    /// `.gtpq` fast path.  Commits on the returned handle copy-on-write the
    /// mapped runs into owned storage; the backing file is never modified.
    pub fn from_snapshot(snapshot: GraphSnapshot) -> Self {
        let epoch = snapshot.epoch();
        let base_nodes = snapshot.graph().node_count();
        Self {
            pending: Mutex::new(Pending {
                ops: Vec::new(),
                base_nodes,
                staged_nodes: 0,
            }),
            current: RwLock::new(Arc::new(snapshot)),
            epoch: AtomicU64::new(epoch),
            stats: Mutex::new(MutationStats::default()),
        }
    }

    /// The committed epoch number (0 before the first commit).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the current epoch: the returned snapshot keeps serving exactly
    /// this graph no matter how many commits land afterwards.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Work counters accumulated across all commits.
    pub fn stats(&self) -> MutationStats {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of staged, not-yet-committed operations.
    pub(crate) fn pending_op_count(&self) -> usize {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .ops
            .len()
    }

    /// Stages a node carrying only a `label` attribute.
    pub fn insert_node_with_label(&self, label: &str) -> NodeId {
        self.insert_node_with_attrs([(LABEL_ATTR, AttrValue::str(label))])
    }

    /// Stages a node with the given `(name, value)` attribute pairs.
    pub(crate) fn insert_node_with_attrs<'a, I>(&self, attrs: I) -> NodeId
    where
        I: IntoIterator<Item = (&'a str, AttrValue)>,
    {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let id = NodeId((pending.base_nodes + pending.staged_nodes) as u32);
        pending.ops.push(PendingOp::AddNode);
        pending.staged_nodes += 1;
        for (name, value) in attrs {
            pending.ops.push(PendingOp::SetAttr {
                node: id,
                name: name.to_owned(),
                value,
            });
        }
        id
    }

    /// Stages an attribute upsert on a committed or staged node: sets `name`
    /// to `value`, overwriting any existing value.
    ///
    /// # Panics
    /// Panics when `v` is neither committed nor staged.
    pub fn set_attr(&self, v: NodeId, name: &str, value: AttrValue) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(
            v.index() < pending.base_nodes + pending.staged_nodes,
            "set_attr on unknown node {v}"
        );
        pending.ops.push(PendingOp::SetAttr {
            node: v,
            name: name.to_owned(),
            value,
        });
    }

    /// Stages a directed edge.  Duplicates of existing edges are tolerated
    /// and dropped at commit, mirroring [`GraphBuilder`](crate::GraphBuilder)
    /// de-duplication.
    ///
    /// # Panics
    /// Panics when either endpoint is neither committed nor staged.
    pub fn insert_edge(&self, u: NodeId, v: NodeId) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let bound = pending.base_nodes + pending.staged_nodes;
        assert!(
            u.index() < bound && v.index() < bound,
            "edge endpoints must be existing nodes"
        );
        pending.ops.push(PendingOp::AddEdge { from: u, to: v });
    }

    /// Compacts every staged operation into a new epoch and publishes it.
    /// With nothing staged this is a no-op returning the current snapshot —
    /// the epoch number only advances when the graph actually changes.  If
    /// the merge panics, the staged operations are dropped and the current
    /// epoch is left in place.
    pub fn commit(&self) -> Arc<GraphSnapshot> {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        if pending.ops.is_empty() {
            return self.snapshot();
        }
        let base = self.snapshot();
        let bg: &DataGraph = base.graph();
        let old_n = bg.node_count();
        debug_assert_eq!(pending.base_nodes, old_n, "pending desynced from epoch");
        let ops = std::mem::take(&mut pending.ops);
        let staged_nodes = std::mem::replace(&mut pending.staged_nodes, 0);

        // Replay the staged operations over clones of the committed state, in
        // staging order — symbol interning order therefore matches a from-
        // scratch replay through `GraphBuilder`, which is what keeps the
        // result bit-comparable to the rebuild oracle.
        let mut symbols = bg.symbols.clone();
        let mut attrs = bg.attrs.to_tuples_vec();
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        let mut raw_edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut upserts = 0u64;
        for op in &ops {
            match op {
                PendingOp::AddNode => attrs.push(Vec::new()),
                PendingOp::SetAttr { node, name, value } => {
                    let sym = symbols.intern(name);
                    if node.index() < old_n {
                        touched.insert(node.0);
                    }
                    let tuple = &mut attrs[node.index()];
                    if let Some(existing) = tuple.iter_mut().find(|a| a.name == sym) {
                        existing.value = value.clone();
                    } else {
                        tuple.push(Attribute::new(sym, value.clone()));
                    }
                    upserts += 1;
                }
                PendingOp::AddEdge { from, to } => raw_edges.push((*from, *to)),
            }
        }
        let n_total = attrs.len();
        debug_assert_eq!(n_total, old_n + staged_nodes);

        // The true edge delta: staged edges, de-duplicated against each other
        // and against the committed adjacency.
        raw_edges.sort_unstable();
        raw_edges.dedup();
        raw_edges.retain(|&(u, v)| u.index() >= old_n || !bg.has_edge(u, v));
        let added_edges = raw_edges;
        let edge_count = bg.edge_count + added_edges.len();

        // CSR adjacency: linear sorted-run merge of the delta, both ways.
        let fwd_adds: Vec<(u32, NodeId)> = added_edges.iter().map(|&(u, v)| (u.0, v)).collect();
        let mut rev_adds: Vec<(u32, NodeId)> = added_edges
            .iter()
            .map(|&(u, v)| (v.0, NodeId(u.0)))
            .collect();
        rev_adds.sort_unstable();
        let fwd = bg.fwd.merge_additions(n_total, &fwd_adds);
        let rev = bg.rev.merge_additions(n_total, &rev_adds);

        // Inverted index: sorted-run merge of the per-epoch posting deltas.
        let mut removed: Vec<(Symbol, AttrValue, NodeId)> = Vec::new();
        let mut added: Vec<(Symbol, AttrValue, NodeId)> = Vec::new();
        let mut name_added: Vec<(Symbol, NodeId)> = Vec::new();
        // A new node's old tuple is empty.
        for t in touched.into_iter().chain(old_n as u32..n_total as u32) {
            let v = NodeId(t);
            let old_tuple = bg
                .attrs
                .tuples()
                .get(t as usize)
                .map_or(&[][..], Vec::as_slice);
            let new_tuple = &attrs[t as usize];
            for a in old_tuple.iter().filter(|a| !new_tuple.contains(a)) {
                removed.push((a.name, a.value.clone(), v));
            }
            for b in new_tuple {
                if !old_tuple.contains(b) {
                    added.push((b.name, b.value.clone(), v));
                }
                if !old_tuple.iter().any(|a| a.name == b.name) {
                    name_added.push((b.name, v));
                }
            }
        }
        let index = bg.index.merge_updates(removed, added, name_added);

        // The sim catalog rebuilds from the tuples every epoch: pivot
        // selection is global (farthest-point over all rows), so there is no
        // incremental merge that stays bit-identical to a from-scratch build.
        // Vector attributes are rare in mutation-heavy workloads; with none
        // present this is a no-op scan.
        let sims = crate::sim_index::SimCatalog::build(&attrs);

        let graph = DataGraph {
            symbols,
            fwd,
            rev,
            attrs: attrs.into(),
            index,
            sims,
            edge_count,
            // SCC condensation: patched from the base epoch's while every new
            // edge goes forward in the topological order; otherwise left for
            // `GraphSnapshot::new` to re-run Tarjan.
            condensation: base
                .condensation()
                .apply_insertions(n_total, &added_edges)
                .map_or_else(OnceLock::new, |c| Arc::new(c).into()),
        };
        let cond_fast = graph.condensation.get().is_some();

        let epoch = base.epoch + 1;
        let snapshot = Arc::new(GraphSnapshot::new(epoch, Arc::new(graph)));
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = snapshot.clone();
        self.epoch.store(epoch, Ordering::Release);
        pending.base_nodes = n_total;

        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        stats.epochs += 1;
        stats.nodes_inserted += staged_nodes as u64;
        stats.edges_inserted += added_edges.len() as u64;
        stats.attrs_upserted += upserts;
        stats.csr_merges += 1;
        stats.index_merges += 1;
        if cond_fast {
            stats.condensation_fast += 1;
        } else {
            stats.condensation_rebuilds += 1;
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    use super::*;

    fn base_builder() -> GraphBuilder {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("a");
        let c = b.add_node_with_label("b");
        let d = b.add_node_with_label("b");
        b.add_edge(a, c);
        b.add_edge(c, d);
        b
    }

    fn base() -> DataGraph {
        base_builder().build()
    }

    #[test]
    fn commit_is_bit_identical_to_replay() {
        let handle = GraphHandle::new(base());
        let x = handle.insert_node_with_label("c");
        handle.insert_edge(NodeId(2), x);
        handle.set_attr(NodeId(0), "year", AttrValue::int(2001));
        let snap = handle.commit();

        let mut b = base_builder();
        let x2 = b.add_node();
        b.set_attr(x2, crate::LABEL_ATTR, AttrValue::str("c"));
        b.add_edge(NodeId(2), x2);
        b.set_attr(NodeId(0), "year", AttrValue::int(2001));
        let oracle = b.build();

        assert_eq!(**snap.graph(), oracle);
        assert_eq!(**snap.condensation(), Condensation::new(&oracle));
        // The patched condensation rides on the published graph: the
        // snapshot hands out that one `Arc`, nothing is condensed again.
        assert_eq!(handle.stats().condensation_fast, 1);
        assert!(Arc::ptr_eq(
            snap.condensation(),
            snap.graph().condensation()
        ));
        assert_eq!(snap.epoch(), 1);
        assert_eq!(handle.epoch(), 1);
    }

    #[test]
    fn snapshots_pin_their_epoch() {
        let handle = GraphHandle::new(base());
        let before = handle.snapshot();
        let x = handle.insert_node_with_label("z");
        handle.insert_edge(NodeId(0), x);
        handle.commit();
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.graph().node_count(), 3);
        assert_eq!(handle.snapshot().epoch(), 1);
        assert_eq!(handle.snapshot().graph().node_count(), 4);
    }

    #[test]
    fn empty_commit_does_not_advance_the_epoch() {
        let handle = GraphHandle::new(base());
        let snap = handle.commit();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(handle.epoch(), 0);
        assert_eq!(handle.stats().epochs, 0);
    }

    #[test]
    fn duplicate_edges_are_dropped_at_commit() {
        let handle = GraphHandle::new(base());
        handle.insert_edge(NodeId(0), NodeId(1)); // already committed
        handle.insert_edge(NodeId(0), NodeId(2));
        handle.insert_edge(NodeId(0), NodeId(2)); // staged twice
        let snap = handle.commit();
        assert_eq!(snap.graph().edge_count(), 3);
        assert_eq!(handle.stats().edges_inserted, 1);
    }

    #[test]
    fn backward_edge_falls_back_to_recondense() {
        let handle = GraphHandle::new(base());
        handle.insert_edge(NodeId(2), NodeId(0)); // closes the 0->1->2 chain
        let snap = handle.commit();
        let stats = handle.stats();
        assert_eq!(stats.condensation_rebuilds, 1);
        assert_eq!(stats.condensation_fast, 0);
        assert_eq!(snap.condensation().component_count(), 1);
        assert_eq!(**snap.condensation(), Condensation::new(snap.graph()));
    }

    #[test]
    fn a_staging_panic_leaves_the_handle_usable() {
        let handle = GraphHandle::new(base());
        let x = handle.insert_node_with_label("c");
        let bad = std::panic::catch_unwind(|| {
            handle.set_attr(NodeId(9), "year", AttrValue::int(1));
        });
        assert!(bad.is_err(), "set_attr on an unknown node panics");
        handle.insert_edge(NodeId(2), x);
        assert_eq!(handle.pending_op_count(), 3);
        let snap = handle.commit();

        let mut b = base_builder();
        let x2 = b.add_node_with_label("c");
        b.add_edge(NodeId(2), x2);
        let oracle = b.build();
        assert_eq!(**snap.graph(), oracle);
        assert_eq!(**snap.condensation(), Condensation::new(&oracle));
        assert_eq!(handle.stats().epochs, 1);
    }

    #[test]
    fn a_delta_larger_than_its_base_merges_bit_identically() {
        // 240 nodes and 486 edges onto a 3-node, 2-edge base, plus
        // overwrites and new attributes on every base node: the delta
        // dwarfs the graph it lands on, and the commit still merges.
        let handle = GraphHandle::new(base());
        let mut oracle = base_builder();
        let n = 3 + 240;
        for i in 0..240u32 {
            let attrs = [
                (LABEL_ATTR, AttrValue::str(&format!("n{}", i % 7))),
                ("year", AttrValue::int(1990 + i64::from(i % 13))),
            ];
            let x = handle.insert_node_with_attrs(attrs.clone());
            let y = oracle.add_node_with_attrs(attrs);
            assert_eq!(x, y);
        }
        for u in 0..n {
            for step in [1, 12] {
                let (u, v) = (NodeId(u), NodeId((7 * u + step) % n));
                handle.insert_edge(u, v);
                oracle.add_edge(u, v);
            }
        }
        for (v, name, value) in [
            (0, LABEL_ATTR, AttrValue::str("z")),
            (1, "year", AttrValue::int(1999)),
            (2, LABEL_ATTR, AttrValue::str("a")),
            (2, "year", AttrValue::int(2005)),
        ] {
            handle.set_attr(NodeId(v), name, value.clone());
            oracle.set_attr(NodeId(v), name, value);
        }
        let snap = handle.commit();
        let oracle = oracle.build();

        assert_eq!(**snap.graph(), oracle);
        assert_eq!(**snap.condensation(), Condensation::new(&oracle));
        let stats = handle.stats();
        assert_eq!(stats.nodes_inserted, 240);
        assert!(stats.edges_inserted >= 400, "{stats:?}");
        assert_eq!(stats.csr_merges, 1);
        assert_eq!(stats.index_merges, 1);
        assert_eq!(stats.csr_rebuilds + stats.index_rebuilds, 0);
    }

    #[test]
    fn a_commit_that_empties_postings_matches_a_replay() {
        // Node 3 alone carries label `c`, and two nodes alone carry an
        // integer `rank`.  One commit relabels node 3 and turns both ranks
        // into strings: a value posting and a whole integer run empty out.
        let setup = || {
            let mut b = base_builder();
            let c = b.add_node_with_label("c");
            b.set_attr(NodeId(0), "rank", AttrValue::int(1));
            b.set_attr(c, "rank", AttrValue::int(2));
            b
        };
        let handle = GraphHandle::new(setup().build());
        let mut oracle = setup();
        for (v, name, value) in [
            (3, LABEL_ATTR, AttrValue::str("b")),
            (0, "rank", AttrValue::str("first")),
            (3, "rank", AttrValue::str("second")),
        ] {
            handle.set_attr(NodeId(v), name, value.clone());
            oracle.set_attr(NodeId(v), name, value);
        }
        let snap = handle.commit();
        let oracle = oracle.build();

        let g = snap.graph();
        let index = g.attr_index();
        assert_eq!(index, oracle.attr_index());
        let label = g.symbols().get(LABEL_ATTR).unwrap();
        let rank = g.symbols().get("rank").unwrap();
        assert_eq!(index.nodes_eq(label, &AttrValue::str("c")), &[]);
        assert_eq!(index.nodes_int_range(rank, i64::MIN, i64::MAX), []);
        assert!(!index.int_syms.contains(&rank));
        assert_eq!(index.nodes_with_name(rank), &[NodeId(0), NodeId(3)]);

        let path = std::env::temp_dir().join("gtpq-mutate-emptied-postings.gtpq");
        snap.save(&path).unwrap();
        let loaded = GraphSnapshot::open_heap(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(**loaded.graph(), **g);
    }
}
