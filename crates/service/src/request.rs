//! The request/outcome query API: [`QueryRequest`] in,
//! `Result<`[`QueryOutcome`]`, `[`QueryError`]`>` out.
//!
//! This is the single public evaluation surface of the service:
//! [`QueryService::submit`](crate::QueryService::submit), called from as
//! many threads as there are requests in flight.  Build a request:
//!
//! ```
//! use std::sync::Arc;
//! use gtpq_query::fixtures::example_graph;
//! use gtpq_service::{QueryRequest, QueryService, ServiceConfig};
//!
//! let service = QueryService::with_config(Arc::new(example_graph()), ServiceConfig::default());
//! let outcome = service
//!     .submit(&QueryRequest::text("a1 { //d1* }").with_limit(10))
//!     .unwrap();
//! assert!(!outcome.rows.is_empty());
//! assert!(!outcome.truncated, "fewer than 10 matches exist");
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use gtpq_core::{CancelToken, EvalStats, QueryPlan, Trace};
use gtpq_query::{Gtpq, ParseError, ResultSet};

/// What to evaluate: an already-built query tree or query-language text.
#[derive(Clone, Debug)]
pub enum QuerySource {
    /// A validated query tree.
    Query(Gtpq),
    /// Query-language text (see `docs/QUERY_LANGUAGE.md`), parsed by
    /// `submit`; a syntax error becomes [`QueryError::Parse`].
    Text(String),
}

/// One evaluation request: the query plus its row window, time budget and
/// execution knobs.
///
/// Build with [`QueryRequest::query`] or [`QueryRequest::text`] and chain the
/// `with_*` setters; the default is the full answer with no deadline and no
/// stats or plan in the outcome.  The reachability backend is a service-level
/// decision ([`ServiceConfig::backend`](crate::ServiceConfig::backend)), not
/// a per-request one.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The query to evaluate.
    pub source: QuerySource,
    /// Emit at most this many rows (after `offset`); enumeration stops as
    /// soon as the window is full instead of materializing the answer.
    pub limit: Option<usize>,
    /// Skip this many leading rows of the answer.
    pub offset: usize,
    /// The time budget ([`with_deadline`](Self::with_deadline)).
    pub(crate) deadline: Option<Duration>,
    /// Include per-stage [`EvalStats`] in the outcome.
    pub(crate) want_stats: bool,
    /// Include the executed physical plan in the outcome.
    pub(crate) want_plan: bool,
    /// Record a structured span trace of the request (parse, plan and every
    /// engine stage) into [`QueryOutcome::trace`].  Off by default: a
    /// disabled tracer costs two branches per span site.
    pub(crate) want_trace: bool,
    /// [`with_bypass_cache`](Self::with_bypass_cache).
    pub(crate) bypass_cache: bool,
    /// The cancellation token ([`with_cancel`](Self::with_cancel)).
    pub(crate) cancel: Option<CancelToken>,
}

impl QueryRequest {
    /// A request evaluating an already-built query tree.
    pub fn query(q: Gtpq) -> Self {
        Self::new(QuerySource::Query(q))
    }

    /// A request evaluating query-language text.
    pub fn text(text: impl Into<String>) -> Self {
        Self::new(QuerySource::Text(text.into()))
    }

    fn new(source: QuerySource) -> Self {
        Self {
            source,
            limit: None,
            offset: 0,
            deadline: None,
            want_stats: false,
            want_plan: false,
            want_trace: false,
            bypass_cache: false,
            cancel: None,
        }
    }

    /// Emit at most `limit` rows (see [`limit`](Self::limit)).
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Skip the first `offset` rows (see [`offset`](Self::offset)).
    pub fn with_offset(mut self, offset: usize) -> Self {
        self.offset = offset;
        self
    }

    /// Give the evaluation a time budget from the moment `submit` is called;
    /// overrunning it yields [`QueryError::Timeout`].
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Ask for per-stage statistics in the outcome.
    pub fn with_stats(mut self) -> Self {
        self.want_stats = true;
        self
    }

    /// Ask for the executed physical plan in the outcome.
    pub fn with_plan(mut self) -> Self {
        self.want_plan = true;
        self
    }

    /// Ask for a structured span trace in the outcome (see
    /// [`QueryOutcome::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.want_trace = true;
        self
    }

    /// Skip the result-cache lookup, forcing the engine to run (the
    /// machinery behind `:explain analyze`); complete answers are still
    /// written back to the cache.
    pub fn with_bypass_cache(mut self) -> Self {
        self.bypass_cache = true;
        self
    }

    /// Cooperative cancellation: trigger `token` from any thread and the
    /// evaluation stops with [`QueryError::Cancelled`] at its next poll.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Returns the request unchanged: ignored, evaluation is serial; deleted
    /// by the benchmark PR that retires `arxiv_enum_t2`.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

/// The answer to one [`QueryRequest`].
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The emitted rows: the `offset..offset + limit` window of the full
    /// answer, in materialized-[`ResultSet`] order.  An unlimited request
    /// gets the complete answer.
    pub rows: Arc<ResultSet>,
    /// Whether the row limit cut enumeration short — `true` exactly when at
    /// least one more row exists past the returned window.
    pub truncated: bool,
    /// Whether the rows were served from the result cache (the engine never
    /// ran; `stats`, if requested, is then empty).
    pub from_cache: bool,
    /// Per-stage engine statistics, when the request asked for them with
    /// [`with_stats`](QueryRequest::with_stats).
    pub stats: Option<EvalStats>,
    /// The executed physical plan, when the request asked for it with
    /// [`with_plan`](QueryRequest::with_plan).
    pub plan: Option<Arc<QueryPlan>>,
    /// The recorded span tree, when the request asked for it with
    /// [`with_trace`](QueryRequest::with_trace).  Covers the whole `submit`
    /// (a `request` root span with parse, plan and engine-stage children);
    /// export with [`Trace::to_chrome_json`] or render with
    /// [`Trace::render_tree`].
    pub trace: Option<Trace>,
}

impl QueryOutcome {
    /// Number of emitted rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were emitted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Everything that can go wrong with a [`QueryRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The request's text does not parse; carries the span-annotated
    /// diagnostic.
    Parse(ParseError),
    /// The evaluation overran its [`QueryRequest::with_deadline`] budget.
    Timeout {
        /// The budget that was exceeded.
        budget: Duration,
    },
    /// The request's [`CancelToken`] ([`QueryRequest::with_cancel`]) was triggered
    /// mid-evaluation.
    Cancelled,
    /// The query is structurally unsatisfiable: no data graph whatsoever can
    /// match it (detected by [`gtpq_analysis::is_satisfiable`] before any
    /// evaluation work).
    Unsatisfiable,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {}", e.message),
            QueryError::Timeout { budget } => {
                write!(f, "query timed out (budget {budget:?})")
            }
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::Unsatisfiable => {
                write!(f, "query is unsatisfiable: no data graph can match it")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use gtpq_query::fixtures::example_query;

    use super::*;

    #[test]
    fn builder_setters_compose() {
        let req = QueryRequest::query(example_query())
            .with_limit(7)
            .with_offset(3)
            .with_deadline(Duration::from_millis(250))
            .with_stats()
            .with_plan()
            .with_trace()
            .with_bypass_cache()
            .with_cancel(CancelToken::new());
        assert_eq!(req.limit, Some(7));
        assert_eq!(req.offset, 3);
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        assert!(req.want_stats && req.want_plan && req.bypass_cache);
        assert!(req.want_trace);
        assert!(req.cancel.is_some());
        assert!(matches!(req.source, QuerySource::Query(_)));
    }

    #[test]
    fn errors_render_distinctly() {
        let timeout = QueryError::Timeout {
            budget: Duration::from_millis(5),
        };
        assert!(timeout.to_string().contains("timed out"));
        assert!(QueryError::Cancelled.to_string().contains("cancelled"));
        assert!(QueryError::Unsatisfiable
            .to_string()
            .contains("unsatisfiable"));
        let parse: QueryError = gtpq_query::parse_query("a1 {").unwrap_err().into();
        assert!(parse.to_string().contains("parse error"));
    }
}
