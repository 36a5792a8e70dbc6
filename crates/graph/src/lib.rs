//! Attributed directed data-graph model used throughout the GTPQ system.
//!
//! A *data graph* (paper §2) is a directed graph `G = (V, E, f)` where every
//! node carries a tuple of attribute/value pairs.  Two nodes are in a
//! *parent-child* (PC) relationship when connected by an edge and in an
//! *ancestor-descendant* (AD) relationship when connected by a non-empty
//! directed path.
//!
//! The crate provides:
//! * [`DataGraph`] — an immutable graph with flat CSR adjacency, interned
//!   attribute names, per-node attribute tuples and a build-time attribute
//!   inverted index ([`AttrIndex`]),
//! * [`GraphBuilder`] — batch construction of a [`DataGraph`],
//! * [`GraphHandle`] — the live-graph mutation path: staged inserts and
//!   attribute upserts compact into immutable epochs with incrementally
//!   maintained CSR/index/condensation, read through copy-on-write
//!   [`GraphSnapshot`]s,
//! * the `.gtpq` snapshot format ([`GraphSnapshot::save`] /
//!   [`GraphSnapshot::open_mmap`] / [`GraphSnapshot::open_heap`]) — the one
//!   way a graph is persisted and reloaded,
//! * [`Condensation`] — Tarjan SCC condensation producing the DAG that
//!   query evaluation sweeps to answer reachability (also CSR-packed), and
//!   the set-at-a-time kernels that walk it ([`sweep`](sweep::sweep) and
//!   [`branches`](sweep::branches)),
//! * [`NodeBitSet`] and galloping sorted-slice intersection — the scratch
//!   structures of the pruning hot path,
//! * traversal helpers (BFS descendants/ancestors, naive reachability used as
//!   a test oracle), and
//! * simple statistics.
//!
//! # Memory layout
//!
//! Adjacency is *compressed sparse row*: a `u32` offset array of length
//! `|V| + 1` plus one flat `NodeId` array of length `|E|`, stored twice
//! (forward and reverse).  The neighbourhood of `v` is the contiguous sorted
//! slice `targets[offsets[v] .. offsets[v+1]]`; there are exactly four
//! adjacency allocations per graph, independent of `|V|`.  The attribute
//! inverted index uses the same offsets-plus-flat-array shape for its posting
//! lists, keyed by interned `(attribute, value)` pairs, with a per-attribute
//! sorted `(int value, node)` run for integer range predicates.
//!
//! | operation | seed (`Vec<Vec<NodeId>>` + scans) | CSR + inverted index |
//! |-----------|-----------------------------------|----------------------|
//! | `children(v)` / `parents(v)` | pointer chase into a per-node heap `Vec` | slice into one flat array |
//! | `has_edge(u, v)` | `O(log deg u)` | `O(log deg u)` (same, better locality) |
//! | nodes with `attr = value` | `O(\|V\| · \|f(v)\|)` scan | `O(1)` probe + `O(k)` posting slice |
//! | nodes with `attr` in `[lo, hi]` (int) | `O(\|V\| · \|f(v)\|)` scan | `O(log \|run\| + k)` |
//! | conjunction of predicates | full scan testing each node | galloping posting intersection, `O(k_min · log k_max)` |
//! | build | `O(\|V\|)` allocations | `O(\|E\| log \|E\|)` sort, `O(1)` allocations |

pub mod attr;
pub mod bitset;
pub mod builder;
pub mod condensation;
pub mod csr;
pub mod graph;
pub mod index;
pub mod mutate;
pub mod run;
pub mod sim_index;
pub mod snap;
pub mod stats;
pub mod sweep;
pub mod symbol;
pub mod traversal;
pub mod tuples;

pub use attr::{AttrValue, Attribute};
pub use bitset::{intersect_many, intersect_sorted_into, NodeBitSet};
pub use builder::GraphBuilder;
pub use condensation::Condensation;
pub use graph::{DataGraph, NodeId};
pub use index::AttrIndex;
pub use mutate::{GraphHandle, GraphSnapshot, MutationStats};
pub use run::RunElem;
pub use sim_index::{SimCatalog, SimMatches, SimTable};
pub use snap::{LoadMode, SnapshotColumns, SnapshotError, ValueColumns};
pub use stats::GraphStats;
pub use symbol::{Symbol, SymbolTable};

/// Attribute name conventionally used for the single "label" of a node in the
/// synthetic datasets (XMark tags, arXiv label groups, ...).
pub const LABEL_ATTR: &str = "label";

/// Attribute name conventionally used for free-text values (author names,
/// titles, ...) in the DBLP-style examples.
pub const VALUE_ATTR: &str = "value";
