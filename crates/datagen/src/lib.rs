//! Synthetic data and query generators for the GTPQ experiments.
//!
//! The paper evaluates on three data sources that are not redistributable
//! here: the XMark XML benchmark (modelled as a graph with ID/IDREF cross
//! edges), the arXiv HEP-Th citation/authorship graph, and a DBLP fragment
//! for the motivating example.  This crate generates deterministic synthetic
//! stand-ins with the same schema shape and the structural properties the
//! algorithms are sensitive to (see "Substitutions" in
//! `docs/ARCHITECTURE.md`):
//!
//! * [`xmark`] — auction-site graphs: a shallow tree skeleton of typed
//!   elements (`open_auction`, `bidder`, `person`, `item`, ...) plus IDREF
//!   cross edges (`person_ref → person`, `item_ref → item`, `seller →
//!   person`), parameterized by a scale factor,
//! * [`arxiv`] — denser and deeper citation/authorship graphs with labelled
//!   papers (area/journal group) and authors (email-domain group),
//! * [`dblp`] — the small bibliography graph of Example 1,
//! * [`embed`] — embedded-text corpora for the similarity access path:
//!   documents carrying deterministic pseudo-embeddings with planted
//!   near-duplicate clusters whose recall is checkable by construction,
//! * [`queries`] — the paper's query workloads: Q1–Q3 of Fig. 7, the Fig. 11
//!   GTPQ suite of Tables 3–4, the DBLP queries of Example 1, and the random
//!   query generator of §5.2,
//! * [`updates`] — deterministic mutation streams (node/attribute/edge
//!   inserts batched into epochs) replayable on both the live-graph handle
//!   and a from-scratch builder, for the mutation-oracle tests and the
//!   mixed read/write benchmark.
//!
//! Every generator takes an explicit seed and is fully deterministic.

pub mod arxiv;
pub mod dblp;
pub mod embed;
pub mod queries;
pub mod stream;
pub mod updates;
pub mod xmark;

pub use arxiv::{generate_arxiv, ArxivConfig};
pub use dblp::generate_dblp;
pub use embed::{generate_embed, EmbedConfig};
pub use queries::{
    dblp_queries, fig11_gtpq, fig11_output_variant, random_queries, xmark_q1, xmark_q2, xmark_q3,
    xmark_templates, Fig11Predicate, RandomQueryConfig,
};
pub use stream::{write_arxiv_snapshot, SnapshotStats};
pub use updates::{apply_ops, apply_ops_to_builder, update_stream, UpdateOp, UpdateStreamConfig};
pub use xmark::{generate_xmark, XmarkConfig};
