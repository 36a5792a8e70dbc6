//! GTEA — the GTPQ evaluation algorithm of the paper (§4), behind a
//! cost-based query planner.
//!
//! Evaluation is split into *planning* and *execution*: the [`plan`] module
//! builds an explicit physical-operator plan ([`QueryPlan`]) from data-graph
//! statistics (inverted-index posting lengths predict per-query-node
//! candidate counts), and the engine executes it.  [`GteaEngine::evaluate`]
//! is exactly "build the default plan ([`Planner::plan`]), execute it";
//! [`GteaEngine::execute`] executes an explicit plan, which the query
//! service uses for plan caching and the tests use to prove that any plan
//! returns the same answer.  [`GteaEngine::match_stream`] stops before
//! enumeration and hands back the [`MatchStream`] that `execute` drains.
//!
//! The executed pipeline evaluates a [`Gtpq`](gtpq_query::Gtpq) over a
//! [`DataGraph`](gtpq_graph::DataGraph) in four steps:
//!
//! 1. **Candidate selection** — `mat(u) = {v | v ∼ u}` for every query node,
//!    each through the plan's access path (index scan or full scan).
//! 2. **Two-round pruning** — [`prune::prune_downward`] removes candidates
//!    that violate *downward* structural constraints (the subtree pattern
//!    below their query node, including disjunction and negation), then
//!    [`prune::prune_upward`] removes candidates of the *prime subtree* that
//!    are not reachable from any candidate of their parent.  Both rounds are
//!    set-at-a-time, as the paper's contour merging (Procedure 2) intends.
//!    A downward step reads only the children its formula `fext(u)`
//!    mentions (none: the formula is a constant and decides every candidate
//!    at once); each is resolved into one bit per candidate — an AD child
//!    by one race between a sweep of the condensation the graph carries
//!    from the child's candidates and a memoised search from the step's
//!    own, costing at most about twice the cheaper of the two; a PC child
//!    by marking its candidates' parents or scanning the step's candidates'
//!    children, whichever reads fewer adjacency entries — and `fext(u)` is
//!    then evaluated 64 candidates per word.  No pairwise reachability
//!    probes.
//! 3. **Maximal matching graph** — matches of the *shrunk prime subtree* are
//!    represented as a graph (each data node stored once, one edge per
//!    matched query edge) rather than as tuples, the paper's key device for
//!    keeping intermediate results small.  All edges of one AD query edge
//!    are built in one pass over the condensation as well.
//! 4. **Result enumeration** — [`stream`] walks the matching graph on
//!    demand: [`MatchStream`] yields distinct output tuples in `ResultSet`
//!    order, so limits push down.  Each shrunk query node has a fixed column
//!    layout (its subtree's output coordinates, ascending); an output node
//!    whose own column leads is walked in place — candidates concatenated in
//!    branch order, children combined by an odometer — while a non-output
//!    node, a non-leading own column or interleaved child layouts collect
//!    their rows into a sorted, deduplicated run, built on first touch and
//!    memoised per (node, parent candidate).  The constant columns of output
//!    nodes that were shrunk away are written once.
//!
//! None of the steps asks a reachability *index* anything under default
//! options, and the engine builds none.  The pairwise ablation arm
//! ([`GteaOptions::pairwise`]) probes a
//! [`Reachability`](gtpq_reach::Reachability) pair by pair: the graph's
//! condensation unless the caller passes an index to
//! [`GteaEngine::with_backend`].
//!
//! Every step runs on the calling thread: the filter stages take tens to
//! hundreds of microseconds per query, less than starting worker threads
//! would cost ("No intra-query parallelism" in `docs/ARCHITECTURE.md`).
//! Different requests run on whichever threads call the query service's
//! `submit`.
//!
//! Parent-child (PC) query edges are checked exactly through the adjacency
//! lists, in both prune rounds and when the matching graph is built.
//!
//! [`EvalStats`] records the counters behind the paper's I/O-cost experiment
//! (Fig. 10): data nodes accessed, index elements looked up, and the size of
//! the intermediate representation.

pub mod engine;
pub mod exec;
pub mod matching;
pub mod options;
pub mod plan;
pub mod prime;
pub mod prune;
pub mod stats;
pub mod stream;

pub use engine::{Aborted, ExecOptions, Execution, GteaEngine};
pub use exec::{CancelToken, ExecCtl, Interrupt};
// Re-exported so `ExecCtl::with_tracer` callers need no direct `gtpq-obs`
// dependency.
pub use gtpq_obs::{Trace, Tracer};
pub use options::GteaOptions;
pub use plan::{AccessPath, CandidateStep, Planner, PruneStep, QueryPlan};
pub use stats::{EvalStats, OperatorStats};
pub use stream::{MatchStream, StreamSource};
