//! # gtpq-service — a concurrent query service over the GTEA engine
//!
//! The evaluation crates answer one query at a time against one graph; this
//! crate is the multi-tenant front end the ROADMAP's production scenario
//! needs.  A [`QueryService`]:
//!
//! * serves every query through **one request/outcome pair** —
//!   [`QueryService::submit`] takes a [`QueryRequest`] (query tree or text,
//!   row window, deadline, cancellation, stats/plan/trace switches) and
//!   returns `Result<`[`QueryOutcome`]`, `[`QueryError`]`>`;
//!   `limit`/`offset` and deadlines push down into the engine's streaming
//!   enumerator, so a limited request stops after its window instead of
//!   materializing the answer,
//! * owns a graph **snapshot** per graph generation: the graph carries the
//!   SCC condensation every evaluation runs on, the pairwise ablation arm's
//!   included, so the service builds no reachability index,
//! * serves **live graphs** — [`QueryService::live_with_config`] wraps a
//!   `gtpq_graph::GraphHandle`, and every committed epoch rotates the
//!   service's generation state: the result and plan caches are
//!   invalidated (counted as `stale_evictions`), the epoch is
//!   exported as the `graph_epoch` gauge, and in-flight requests keep
//!   answering from the snapshot they pinned at submission,
//! * evaluates requests **concurrently** — all methods take `&self`, so any
//!   number of threads can call [`QueryService::submit`] on one shared
//!   service; a lock that a panicking request poisoned is recovered, not
//!   propagated to the requests after it,
//! * answers repeated queries from an **equivalence-aware LRU result cache**
//!   ([`ResultCache`]): queries are keyed by a canonical form
//!   ([`canonicalize`]) so syntactically different spellings of one pattern
//!   hit the same slot, with `gtpq_analysis::equivalent` confirming every
//!   hit; only *complete* answers are cached, and windows are sliced out of
//!   hits,
//! * aggregates **service metrics** ([`MetricsSnapshot`]): QPS, cache hit
//!   rate, per-stage timing rollups, the request-API counters (`timed_out`,
//!   `cancelled`, `rows_truncated`, `aborted`), lock-free latency/TTFR
//!   histograms with percentile queries, windowed recent rates, and a
//!   Prometheus text encoder ([`MetricsSnapshot::render_prometheus`]),
//! * records **per-request span traces** on demand
//!   ([`QueryRequest::with_trace`] → [`QueryOutcome::trace`], exportable as
//!   Chrome `trace_event` JSON) and keeps a **slow-query log**
//!   ([`QueryService::slow_queries`]) of requests that crossed
//!   [`ServiceConfig::slow_query_threshold`], each with its canonical text,
//!   outcome and executed plan with actual row counts.
//!
//! ```
//! use std::sync::Arc;
//! use gtpq_query::fixtures::{example_graph, example_query};
//! use gtpq_service::{QueryRequest, QueryService, ServiceConfig};
//!
//! let service = QueryService::with_config(Arc::new(example_graph()), ServiceConfig::default());
//! let request = QueryRequest::query(example_query());
//! let cold = service.submit(&request).unwrap();
//! let warm = service.submit(&request).unwrap(); // served from the cache
//! assert!(Arc::ptr_eq(&cold.rows, &warm.rows));
//! assert_eq!(service.metrics().cache_hits, 1);
//!
//! // Limit pushdown: ask for one row, stop enumerating after it.
//! let first = service.submit(&QueryRequest::text("a1 { //d1* }").with_limit(1)).unwrap();
//! assert_eq!(first.rows.len(), 1);
//! ```
//!
//! [`QueryService::submit`] is the only evaluation entry point.

#![warn(missing_docs)]

pub mod cache;
pub mod canon;
pub mod metrics;
pub mod request;
pub mod service;
pub mod slowlog;

pub use cache::ResultCache;
pub use canon::{canonicalize, CanonicalQuery};
pub use metrics::{MetricsSnapshot, StageHistograms};
pub use request::{QueryError, QueryOutcome, QueryRequest, QuerySource};
pub use service::{QueryService, ServiceConfig};
pub use slowlog::{SlowOutcome, SlowQueryEntry};

use std::sync::{Mutex, MutexGuard};

/// The crate's one mutex policy: a lock whose holder panicked is recovered
/// instead of turning every later request into a panic.  `repair` first
/// restores what the panic may have left half-written, then the poison flag
/// is cleared.
fn lock<T, R>(mutex: &Mutex<T>, repair: impl FnOnce(&mut T) -> R) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        repair(&mut guard);
        mutex.clear_poison();
        guard
    })
}
