//! # gtpq — Generalized Tree Pattern Queries over graph-structured data
//!
//! A reproduction of *"Adding Logical Operators to Tree Pattern Queries on
//! Graph-Structured Data"* (Zeng, Jiang, Zhuge; 2012): tree pattern queries
//! whose structural constraints are full propositional formulas
//! (AND / OR / NOT) evaluated over general directed, attributed graphs, plus
//! the GTEA evaluation algorithm: two-round pruning and a graph
//! representation of intermediate results, with every reachability question
//! answered by sweeping the graph's SCC condensation (the paper's 3-hop
//! index remains for the pairwise ablation and the baselines).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`graph`] | `gtpq-graph` | attributed data graphs, SCC condensation, traversal |
//! | [`logic`] | `gtpq-logic` | propositional formulas, transforms, DPLL SAT |
//! | [`query`] | `gtpq-query` | the GTPQ model, structural predicates, naive oracle |
//! | [`reach`] | `gtpq-reach` | condensation sweeps, 3-hop, SSPI |
//! | [`sim`] | `gtpq-sim` | pivot-based vector-similarity filtering (block-and-verify) |
//! | [`analysis`] | `gtpq-analysis` | satisfiability, containment, minimization |
//! | [`engine`] | `gtpq-core` | the GTEA evaluation engine |
//! | [`baselines`] | `gtpq-baselines` | TwigStack, Twig2Stack, TwigStackD, HGJoin, decompose-and-merge |
//! | [`datagen`] | `gtpq-datagen` | XMark-like / arXiv-like / DBLP-like generators and query workloads |
//! | [`obs`] | `gtpq-obs` | tracing spans, log-bucketed latency histograms, Prometheus text encoder |
//! | [`service`] | `gtpq-service` | concurrent query service: epoch snapshots, result cache, metrics |
//!
//! ## Quickstart
//!
//! ```
//! use gtpq::prelude::*;
//!
//! // A tiny bibliography-like graph.
//! let mut b = GraphBuilder::new();
//! let paper = b.add_node_with_label("inproceedings");
//! let alice = b.add_node_with_attrs([("label", "author".into()), ("value", "Alice".into())]);
//! let title = b.add_node_with_label("title");
//! b.add_edge(paper, alice);
//! b.add_edge(paper, title);
//! let graph = b.build();
//!
//! // Papers by Alice, returning their title element.
//! let mut q = GtpqBuilder::new(AttrPredicate::label("inproceedings"));
//! let root = q.root_id();
//! let author = q.predicate_child(
//!     root,
//!     EdgeKind::Child,
//!     AttrPredicate::label("author").and("value", CmpOp::Eq, "Alice".into()),
//! );
//! let title_node = q.backbone_child(root, EdgeKind::Child, AttrPredicate::label("title"));
//! q.set_structural(root, BoolExpr::Var(author.var()));
//! q.mark_output(title_node);
//! let query = q.build().unwrap();
//!
//! let engine = GteaEngine::new(&graph);
//! let answer = engine.evaluate(&query);
//! assert_eq!(answer.len(), 1);
//! ```

pub use gtpq_analysis as analysis;
pub use gtpq_baselines as baselines;
pub use gtpq_core as engine;
pub use gtpq_datagen as datagen;
pub use gtpq_graph as graph;
pub use gtpq_logic as logic;
pub use gtpq_obs as obs;
pub use gtpq_query as query;
pub use gtpq_reach as reach;
pub use gtpq_service as service;
pub use gtpq_sim as sim;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use gtpq_core::{
        CancelToken, EvalStats, ExecCtl, ExecOptions, Execution, GteaEngine, GteaOptions,
        Interrupt, MatchStream, Planner, QueryPlan,
    };
    pub use gtpq_graph::{AttrValue, DataGraph, GraphBuilder, NodeId};
    pub use gtpq_logic::BoolExpr;
    pub use gtpq_query::{
        parse_query, AttrPredicate, CmpOp, EdgeKind, Gtpq, GtpqBuilder, ParseError, QueryNodeId,
        ResultSet, TextSpan,
    };
    pub use gtpq_reach::{BackendKind, Reachability};
    pub use gtpq_service::{QueryError, QueryOutcome, QueryRequest, QueryService, ServiceConfig};
}
