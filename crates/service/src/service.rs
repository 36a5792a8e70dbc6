//! The concurrent query service.  [`QueryService::submit`] runs private
//! steps in request order: pin, parse, prepare, lookup, plan, execute, record.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

use gtpq_core::{
    Aborted, EvalStats, ExecCtl, ExecOptions, GteaEngine, GteaOptions, Interrupt, Planner,
    QueryPlan, Tracer,
};
use gtpq_graph::{DataGraph, GraphHandle, GraphSnapshot};
use gtpq_query::{Gtpq, ResultSet};
use gtpq_reach::BackendKind;

use crate::cache::{PlanCache, ResultCache};
use crate::canon::{canonicalize, CanonicalQuery};
use crate::lock;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::request::{QueryError, QueryOutcome, QueryRequest, QuerySource};
use crate::slowlog::{SlowOutcome, SlowQueryEntry, SlowQueryLog, SLOW_LOG_CAPACITY};

/// Configuration of a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Ignored, the service builds no reachability index: every request,
    /// the pairwise arm ([`GteaOptions::pairwise`]) included, evaluates on
    /// the condensation the graph carries.  Reported back by
    /// [`QueryService::default_backend`]; deleted once the benchmark stops
    /// naming it.
    pub backend: Option<BackendKind>,
    /// Ignored, every request runs on the thread that calls
    /// [`QueryService::submit`]; deleted once the benchmark stops naming it.
    pub threads: usize,
    /// Ignored, evaluation is serial; deleted by the benchmark PR that
    /// retires `arxiv_enum_t2`.
    pub intra_query_threads: usize,
    /// Result-cache capacity in result sets; 0 disables caching.
    pub cache_capacity: usize,
    /// Plan-cache capacity in physical plans; 0 disables plan caching.
    pub plan_cache_capacity: usize,
    /// Ignored, the service plans without a graph profile, so no plan
    /// recommends a backend; deleted once the benchmark stops naming it.
    pub per_query_backend: bool,
    /// Engine options forwarded to every evaluation.
    pub options: GteaOptions,
    /// Requests whose end-to-end latency reaches this threshold are recorded
    /// in the slow-query log (with their canonical text, outcome and the
    /// executed plan's actuals), a ring of the latest `SLOW_LOG_CAPACITY`;
    /// `None` disables the log.
    pub slow_query_threshold: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            backend: None,
            threads: 1,
            intra_query_threads: 1,
            cache_capacity: 256,
            plan_cache_capacity: 256,
            per_query_backend: true,
            options: GteaOptions::default(),
            slow_query_threshold: Some(Duration::from_millis(100)),
        }
    }
}

/// A thread-safe, multi-query front end over the GTEA engine.
///
/// The service owns a graph snapshot, whose SCC condensation answers every
/// reachability question of a default-option request, and answers
/// [`QueryRequest`]s through an equivalence-aware LRU result cache.  All
/// methods take `&self`: one service instance can be shared (by reference or
/// in an `Arc`) across any number of threads calling
/// [`submit`](Self::submit).
///
/// ```
/// use std::sync::Arc;
/// use gtpq_graph::GraphBuilder;
/// use gtpq_query::{AttrPredicate, EdgeKind, GtpqBuilder};
/// use gtpq_service::{QueryRequest, QueryService, ServiceConfig};
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_node_with_label("a");
/// let c = b.add_node_with_label("b");
/// b.add_edge(a, c);
/// let service = QueryService::with_config(Arc::new(b.build()), ServiceConfig::default());
///
/// let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
/// let root = qb.root_id();
/// let child = qb.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
/// qb.mark_output(child);
/// let q = qb.build().unwrap();
///
/// let request = QueryRequest::query(q);
/// assert_eq!(service.submit(&request).unwrap().len(), 1);
/// assert_eq!(service.submit(&request).unwrap().len(), 1); // served from the cache
/// assert_eq!(service.metrics().cache_hits, 1);
/// ```
pub struct QueryService {
    source: GraphSource,
    /// The current graph generation.  Requests clone the `Arc` once and read
    /// everything through their pinned copy, so a concurrent epoch rotation
    /// never mixes generations inside one evaluation; in-flight evaluations
    /// keep the snapshot alive after a rotation drops the service's
    /// reference.  A panic cannot leave the slot half-written (`rotate`
    /// assigns it in one store), so a poisoned lock is simply read through.
    state: RwLock<Arc<GraphSnapshot>>,
    config: ServiceConfig,
    cache: Mutex<ResultCache>,
    plans: Mutex<PlanCache>,
    metrics: ServiceMetrics,
    slowlog: SlowQueryLog,
}

/// Where the service's graph comes from.
enum GraphSource {
    /// A frozen graph: the epoch-0 snapshot built at construction is the
    /// only generation the service will ever serve.
    Static,
    /// A live graph: every [`GraphHandle::commit`] publishes a new epoch,
    /// and the service rotates to its snapshot (invalidating both caches)
    /// before answering the next request.
    Live(Arc<GraphHandle>),
}

/// A parsed query once the prepare step has checked and canonicalized it.
struct Prepared<'q> {
    query: Cow<'q, Gtpq>,
    /// The cache key; `None` when both caches are disabled.
    canon: Option<CanonicalQuery>,
}

/// A row window: sliced out of a cached complete answer, or emitted by a
/// complete engine run.
struct Answer {
    rows: Arc<ResultSet>,
    truncated: bool,
    from_cache: bool,
    /// The engine run's statistics; only the epoch on a cache hit.
    stats: EvalStats,
    plan: Option<Arc<QueryPlan>>,
}

/// What a prepared request hands to the record step, which renders the
/// slow-query log's text from it only for a request that was slow.
struct Served<'q> {
    /// The rows, or the interrupted engine run.
    result: Result<Answer, Aborted>,
    /// [`Prepared::query`].
    query: Cow<'q, Gtpq>,
    /// The plan the engine executed; `None` on a cache hit.
    executed: Option<Arc<QueryPlan>>,
}

impl QueryService {
    /// Builds a service over a frozen graph (`ServiceConfig::default()` has
    /// 256-entry caches).
    pub fn with_config(graph: Arc<DataGraph>, config: ServiceConfig) -> Self {
        Self::from_source(
            GraphSource::Static,
            Arc::new(GraphSnapshot::freeze(graph)),
            config,
        )
    }

    /// Builds a service over a live graph: queries answer against the
    /// handle's latest committed snapshot, and every commit rotates the
    /// service to the new epoch (invalidated caches) before the next
    /// request is served.  In-flight requests keep the snapshot they
    /// started on.
    pub fn live_with_config(handle: Arc<GraphHandle>, config: ServiceConfig) -> Self {
        let snapshot = handle.snapshot();
        Self::from_source(GraphSource::Live(handle), snapshot, config)
    }

    /// Builds a service over an existing epoch snapshot — typically one
    /// loaded from a `.gtpq` file — reusing its stored condensation instead
    /// of recomputing Tarjan (unlike [`QueryService::with_config`], which
    /// must condense the bare graph it is given).  The `Arc` may be shared:
    /// several services (or a service and a mutation handle) can serve from
    /// one immutable mapped snapshot without copying it.
    ///
    /// When the snapshot was opened with `GraphSnapshot::open_mmap`, the
    /// file must not be truncated or rewritten in place by another process
    /// while the service is alive (`SIGBUS`/torn reads — the mmap tradeoff;
    /// see `gtpq_graph::snap`'s external-modification-hazard docs).  Atomic
    /// replacement via rename, which `GraphSnapshot::save` always uses, is
    /// safe.  Where in-place modification is possible, load with
    /// `GraphSnapshot::open_heap`.
    pub fn from_snapshot(snapshot: Arc<GraphSnapshot>, config: ServiceConfig) -> Self {
        Self::from_source(GraphSource::Static, snapshot, config)
    }

    fn from_source(
        source: GraphSource,
        snapshot: Arc<GraphSnapshot>,
        config: ServiceConfig,
    ) -> Self {
        let metrics = ServiceMetrics::new();
        let epoch = snapshot.epoch();
        let slow_capacity = if config.slow_query_threshold.is_some() {
            SLOW_LOG_CAPACITY
        } else {
            0
        };
        metrics.set_graph_epoch(epoch);
        // Align the cache generations with a handle that committed before
        // the service was built, so epoch-stamped inserts are accepted.
        let mut cache = ResultCache::new(config.cache_capacity);
        cache.invalidate(epoch);
        let mut plans = PlanCache::new(config.plan_cache_capacity);
        plans.invalidate(epoch);
        Self {
            source,
            state: RwLock::new(snapshot),
            cache: Mutex::new(cache),
            plans: Mutex::new(plans),
            config,
            metrics,
            slowlog: SlowQueryLog::new(slow_capacity),
        }
    }

    /// The result cache, locked.  A lookup runs the equivalence test and
    /// permutes rows under the lock, so a panic there can leave the cache
    /// half-written: a poisoned one is recovered empty, at its own epoch.
    fn result_cache(&self) -> MutexGuard<'_, ResultCache> {
        lock(&self.cache, |cache| cache.invalidate(cache.epoch()))
    }

    /// The plan cache, locked; recovered like
    /// [`result_cache`](Self::result_cache).
    fn plan_cache(&self) -> MutexGuard<'_, PlanCache> {
        lock(&self.plans, |plans| plans.invalidate(plans.epoch()))
    }

    /// The current epoch's snapshot (graph + condensation, epoch-stamped),
    /// rotating first if the live handle has committed since the last
    /// request.  The returned `Arc` pins the generation: a request holds it
    /// from start to end.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        let state = Arc::clone(&self.state.read().unwrap_or_else(PoisonError::into_inner));
        let GraphSource::Live(handle) = &self.source else {
            return state;
        };
        if handle.epoch() == state.epoch() {
            return state;
        }
        self.rotate(handle)
    }

    /// Swings the service to the handle's latest snapshot, and invalidates
    /// the result and plan caches (the evicted entries answered an older
    /// graph).
    ///
    /// Double-checked under the state lock: concurrent requests racing on
    /// the same commit rotate once, and a commit that lands mid-rotation is
    /// picked up by the next request.
    fn rotate(&self, handle: &Arc<GraphHandle>) -> Arc<GraphSnapshot> {
        let mut slot = self.state.write().unwrap_or_else(PoisonError::into_inner);
        let fresh = handle.snapshot();
        let epoch = fresh.epoch();
        if epoch == slot.epoch() {
            return Arc::clone(&slot);
        }
        let evicted = self.result_cache().invalidate(epoch) + self.plan_cache().invalidate(epoch);
        self.metrics.record_rotation(epoch, evicted as u64);
        *slot = Arc::clone(&fresh);
        fresh
    }

    /// The data graph of the current epoch.  On a live service consecutive
    /// calls may return different generations; pin one by holding the `Arc`.
    pub fn graph(&self) -> Arc<DataGraph> {
        Arc::clone(self.snapshot().graph())
    }

    /// Epoch of the graph generation the next request will answer against
    /// (0 for a frozen graph or a live graph that never committed).
    pub fn graph_epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Serves one [`QueryRequest`]: parse (if textual), check
    /// satisfiability, consult the result cache, then plan and execute with
    /// the request's row window, deadline and cancellation pushed down into
    /// the engine.  Call it from as many threads as you like: requests share
    /// the caches and the pinned generation, and each runs serially on its
    /// caller's thread.
    ///
    /// Caching never mixes windows: only *complete* answers (offset 0, not
    /// truncated) are written to the result cache, and any window can be
    /// sliced out of a cached complete answer — so a truncated outcome can
    /// neither poison the full-result slot nor be served where the full
    /// answer was asked for.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use gtpq_query::fixtures::example_graph;
    /// use gtpq_service::{QueryError, QueryRequest, QueryService, ServiceConfig};
    ///
    /// let service = QueryService::with_config(Arc::new(example_graph()), ServiceConfig::default());
    /// let outcome = service
    ///     .submit(&QueryRequest::text("a1 { //b1* }").with_stats())
    ///     .unwrap();
    /// assert!(!outcome.truncated);
    /// assert!(outcome.stats.is_some());
    /// assert!(matches!(
    ///     service.submit(&QueryRequest::text("a1 { //b1* ")),
    ///     Err(QueryError::Parse(_))
    /// ));
    /// ```
    pub fn submit(&self, request: &QueryRequest) -> Result<QueryOutcome, QueryError> {
        let started = Instant::now();
        let tracer = if request.want_trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let root = tracer.span("request");
        // Pin the graph generation before anything else — in particular
        // before the result-cache lookup, since pinning is what rotates the
        // service (and invalidates the caches) after a commit.  Every step
        // reads through `state`, so a commit landing mid-request cannot mix
        // generations: this request answers for `state.epoch()`.
        let state = self.snapshot();
        let query = match &request.source {
            QuerySource::Query(q) => Ok(Cow::Borrowed(q)),
            QuerySource::Text(text) => {
                let _span = tracer.span("parse");
                gtpq_query::parse_query(text).map(Cow::Owned)
            }
        };
        let served = query.map_err(QueryError::from).and_then(|query| {
            let prepared = self.prepare(query)?;
            Ok(match self.lookup(request, &prepared, &state) {
                Some(hit) => Served {
                    result: Ok(hit),
                    query: prepared.query,
                    executed: None,
                },
                None => {
                    let planned = {
                        let _span = tracer.span("plan");
                        self.plan(&prepared, &state)
                    };
                    self.execute(request, prepared, &state, planned, started, &tracer)
                }
            })
        });
        drop(root);
        self.record(request, started.elapsed(), served, tracer)
    }

    /// Checks satisfiability and canonicalizes for the caches.
    fn prepare<'q>(&self, query: Cow<'q, Gtpq>) -> Result<Prepared<'q>, QueryError> {
        if !gtpq_analysis::is_satisfiable(&query) {
            return Err(QueryError::Unsatisfiable);
        }
        let canon = (self.config.cache_capacity > 0 || self.config.plan_cache_capacity > 0)
            .then(|| canonicalize(&query));
        Ok(Prepared { query, canon })
    }

    /// Looks the request up in the result cache.  Entries always hold
    /// complete answers, so the requested window is sliced out of a hit.
    fn lookup(
        &self,
        request: &QueryRequest,
        prepared: &Prepared<'_>,
        state: &GraphSnapshot,
    ) -> Option<Answer> {
        if self.config.cache_capacity == 0 || request.bypass_cache {
            return None;
        }
        let canon = prepared.canon.as_ref()?;
        let full = self
            .result_cache()
            .lookup(state.epoch(), canon, &prepared.query)?;
        let (rows, truncated) = window(&full, request.offset, request.limit);
        Some(Answer {
            rows,
            truncated,
            from_cache: true,
            stats: EvalStats {
                graph_epoch: state.epoch(),
                ..EvalStats::default()
            },
            plan: request.want_plan.then(|| self.plan(prepared, state).0),
        })
    }

    /// Looks the plan up in the plan cache, building and caching it on a
    /// miss against the pinned generation.  Returns the plan and the time
    /// spent planning (zero on a hit).
    fn plan(&self, prepared: &Prepared<'_>, state: &GraphSnapshot) -> (Arc<QueryPlan>, Duration) {
        let q: &Gtpq = &prepared.query;
        if let Some(canon) = &prepared.canon {
            let hit = self.plan_cache().lookup(state.epoch(), &canon.key, q);
            if let Some(plan) = hit {
                self.metrics.record_plan_hit();
                return (plan, Duration::ZERO);
            }
        }
        let start = Instant::now();
        let plan = Arc::new(Planner::new(state.graph()).plan(q));
        let plan_time = start.elapsed();
        self.metrics.record_plan_miss();
        if let Some(canon) = &prepared.canon {
            self.plan_cache().insert(
                state.epoch(),
                &canon.key,
                Arc::new(q.clone()),
                Arc::clone(&plan),
            );
        }
        (plan, plan_time)
    }

    /// Runs the engine with the request's row window, deadline and
    /// cancellation pushed down, and writes a complete answer back to the
    /// result cache.
    fn execute<'q>(
        &self,
        request: &QueryRequest,
        prepared: Prepared<'q>,
        state: &GraphSnapshot,
        (plan, plan_time): (Arc<QueryPlan>, Duration),
        started: Instant,
        tracer: &Tracer,
    ) -> Served<'q> {
        let q: &Gtpq = &prepared.query;
        let mut ctl = ExecCtl::unbounded().with_tracer(tracer.clone());
        // The deadline budget counts from the moment `submit` is called —
        // an epoch rotation, parsing and planning all spend it, so a request
        // cannot block past its budget in pre-execution stages and then
        // still get a full budget of evaluation on top.  A budget past the
        // clock's range is no deadline at all.
        if let Some(deadline) = request
            .deadline
            .and_then(|budget| started.checked_add(budget))
        {
            ctl = ctl.with_deadline(deadline);
        }
        if let Some(token) = &request.cancel {
            ctl = ctl.with_cancel(token.clone());
        }
        let engine = GteaEngine::with_options(state.graph(), self.config.options);
        let options = ExecOptions {
            limit: request.limit,
            offset: request.offset,
            ctl,
        };
        let mut result = engine.execute(q, &plan, options);
        let stats = match &mut result {
            Ok(exec) => {
                exec.stats.plan_time = plan_time;
                &mut exec.stats
            }
            Err(aborted) => &mut *aborted.stats,
        };
        stats.graph_epoch = state.epoch();
        let result = result.map(|exec| {
            let rows = Arc::new(exec.results);
            // A windowed answer must never poison the full-result slot:
            // cache only complete answers.
            if self.config.cache_capacity > 0 && !exec.truncated && request.offset == 0 {
                if let Some(canon) = &prepared.canon {
                    // Stamped with the pinned epoch: if a commit rotated the
                    // cache mid-request, this pre-write answer is dropped.
                    let q = Arc::new(q.clone());
                    self.result_cache()
                        .insert(state.epoch(), canon, q, Arc::clone(&rows));
                }
            }
            Answer {
                rows,
                truncated: exec.truncated,
                from_cache: false,
                stats: exec.stats,
                plan: Some(Arc::clone(&plan)),
            }
        });
        Served {
            result,
            query: prepared.query,
            executed: Some(plan),
        }
    }

    /// Folds the request into the metrics and the slow-query log, and
    /// builds its outcome.  Every exit of the earlier steps passes through
    /// here, so each request is observed exactly once.  A slow request's log
    /// text — the query's `Display` form and the executed plan with its
    /// actuals — is rendered here, after its latency was taken, and only for
    /// a request that crossed the threshold.
    fn record(
        &self,
        request: &QueryRequest,
        latency: Duration,
        served: Result<Served<'_>, QueryError>,
        tracer: Tracer,
    ) -> Result<QueryOutcome, QueryError> {
        self.metrics.record_latency(latency);
        // Parse errors and unsatisfiable queries never reach the engine; a
        // plan with actuals could not help, so the slow log skips them.
        let Served {
            result,
            query,
            executed,
        } = served?;
        let slow =
            matches!(self.config.slow_query_threshold, Some(threshold) if latency >= threshold);
        let plan_text = |stats: &EvalStats| {
            let plan = executed.as_ref().filter(|_| slow)?;
            Some(plan.render_with_actuals(&query, stats))
        };
        let (answer, outcome, plan_text) = match result {
            Ok(answer) => {
                if answer.from_cache {
                    self.metrics.record_hit();
                } else {
                    self.metrics.record_miss(&answer.stats);
                }
                if answer.truncated {
                    self.metrics.record_truncated();
                }
                let (rows, truncated) = (answer.rows.len(), answer.truncated);
                let plan_text = plan_text(&answer.stats);
                (
                    Ok(answer),
                    SlowOutcome::Completed { rows, truncated },
                    plan_text,
                )
            }
            // The run produced no answer, but its partial stage timings and
            // I/O counters are still load — fold them.
            Err(Aborted { interrupt, stats }) => {
                self.metrics.record_aborted(&stats);
                let plan_text = plan_text(&stats);
                match interrupt {
                    Interrupt::Timeout => {
                        self.metrics.record_timeout();
                        let budget = request.deadline.unwrap_or_default();
                        let error = QueryError::Timeout { budget };
                        (Err(error), SlowOutcome::TimedOut, plan_text)
                    }
                    Interrupt::Cancelled => {
                        self.metrics.record_cancelled();
                        (
                            Err(QueryError::Cancelled),
                            SlowOutcome::Cancelled,
                            plan_text,
                        )
                    }
                }
            }
        };
        if slow {
            // The Display form is the canonical textual rendering of the
            // query — re-parseable and human-readable, unlike the cache key.
            self.slowlog
                .push(query.to_string(), latency, outcome, plan_text);
        }
        answer.map(|answer| QueryOutcome {
            rows: answer.rows,
            truncated: answer.truncated,
            from_cache: answer.from_cache,
            stats: request.want_stats.then_some(answer.stats),
            plan: answer.plan.filter(|_| request.want_plan),
            trace: tracer.finish(),
        })
    }

    /// Plans (or recalls the cached plan for) `q` without evaluating it —
    /// the physical plan `:explain` renders: the pin, prepare and plan steps
    /// of [`submit`](Self::submit), so an unsatisfiable `q` is rejected the
    /// same way.  The plan lands in the plan cache, pre-warming a later
    /// evaluation of the same pattern.
    pub fn plan_for(&self, q: &Gtpq) -> Result<Arc<QueryPlan>, QueryError> {
        let state = self.snapshot();
        let prepared = self.prepare(Cow::Borrowed(q))?;
        Ok(self.plan(&prepared, &state).0)
    }

    /// Point-in-time aggregate metrics (QPS, hit rate, stage rollups,
    /// latency/TTFR histograms, recent windowed rates).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The retained slow-query log entries, oldest first (empty when
    /// [`ServiceConfig::slow_query_threshold`] is `None`).
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.slowlog.entries()
    }

    /// Number of result sets currently cached.
    pub fn cached_results(&self) -> usize {
        self.result_cache().len()
    }

    /// Number of physical plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache().len()
    }

    /// Always empty: the service builds no reachability index.  Kept,
    /// like [`ServiceConfig::backend`], until the benchmark stops naming it.
    pub fn built_backends(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// [`ServiceConfig::backend`], or 3-hop when that is `None`: a name
    /// only, since the service builds no index.  Kept until the benchmark
    /// stops naming it.
    pub fn default_backend(&self) -> BackendKind {
        self.config.backend.unwrap_or(BackendKind::ThreeHop)
    }
}

/// Slices the `offset..offset + limit` window out of a complete cached
/// answer; the flag reports whether rows exist past the window's end.
fn window(full: &Arc<ResultSet>, offset: usize, limit: Option<usize>) -> (Arc<ResultSet>, bool) {
    let total = full.len();
    let end = limit.map_or(total, |l| offset.saturating_add(l).min(total));
    if offset == 0 && end == total {
        return (Arc::clone(full), false);
    }
    (Arc::new(full.window(offset..end)), end < total)
}

// The whole point of the service: it can be shared across request threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
};

#[cfg(test)]
mod tests {
    use gtpq_core::CancelToken;
    use gtpq_graph::GraphBuilder;
    use gtpq_logic::BoolExpr;
    use gtpq_query::fixtures::{example_graph, example_query};
    use gtpq_query::naive;
    use gtpq_query::{AttrPredicate, EdgeKind, GtpqBuilder};

    use super::*;

    fn service_for_example() -> QueryService {
        QueryService::with_config(Arc::new(example_graph()), ServiceConfig::default())
    }

    fn submit_rows(service: &QueryService, q: &Gtpq) -> Arc<ResultSet> {
        service
            .submit(&QueryRequest::query(q.clone()))
            .expect("valid query")
            .rows
    }

    #[test]
    fn submit_matches_naive_and_caches() {
        let service = service_for_example();
        let q = example_query();
        let expected = naive::evaluate(&q, &service.graph());
        let request = QueryRequest::query(q);
        let cold = service.submit(&request).unwrap();
        assert!(cold.rows.same_answer(&expected));
        assert!(!cold.from_cache && !cold.truncated);
        assert!(cold.stats.is_none() && cold.plan.is_none());
        let warm = service.submit(&request).unwrap();
        assert!(
            Arc::ptr_eq(&cold.rows, &warm.rows),
            "second submit must share the cached rows"
        );
        assert!(warm.from_cache);
        let m = service.metrics();
        assert_eq!(m.queries, 2);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert!(m.hit_rate() > 0.49);
        assert_eq!(service.cached_results(), 1);
    }

    #[test]
    fn limit_and_offset_slice_the_materialized_order() {
        let service = QueryService::with_config(
            Arc::new(example_graph()),
            ServiceConfig {
                cache_capacity: 0, // engine path
                ..ServiceConfig::default()
            },
        );
        let q = example_query();
        let full = submit_rows(&service, &q);
        let all: Vec<_> = full.iter().collect();
        assert!(all.len() >= 3, "example query has several rows");
        for (offset, limit) in [(0, 1), (1, 2), (0, all.len()), (2, 100), (all.len() + 1, 2)] {
            let outcome = service
                .submit(
                    &QueryRequest::query(q.clone())
                        .with_limit(limit)
                        .with_offset(offset),
                )
                .unwrap();
            let expected: Vec<_> = all.iter().skip(offset).take(limit).cloned().collect();
            let got: Vec<_> = outcome.rows.iter().collect();
            assert_eq!(got, expected, "offset {offset} limit {limit}");
            let more_exist = offset + limit < all.len();
            assert_eq!(
                outcome.truncated, more_exist,
                "offset {offset} limit {limit}"
            );
        }
    }

    #[test]
    fn truncated_outcomes_never_poison_the_cache() {
        let service = service_for_example();
        let q = example_query();
        let limited = service
            .submit(&QueryRequest::query(q.clone()).with_limit(1))
            .unwrap();
        assert!(limited.truncated);
        assert_eq!(limited.rows.len(), 1);
        assert_eq!(
            service.cached_results(),
            0,
            "truncated outcome must not be cached"
        );
        // The full answer is computed fresh, cached, and later limited
        // requests are sliced from it.
        let full = service.submit(&QueryRequest::query(q.clone())).unwrap();
        assert!(!full.from_cache);
        let expected = naive::evaluate(&q, &service.graph());
        assert!(full.rows.same_answer(&expected));
        assert_eq!(service.cached_results(), 1);
        let sliced = service
            .submit(&QueryRequest::query(q.clone()).with_limit(1))
            .unwrap();
        assert!(sliced.from_cache && sliced.truncated);
        assert_eq!(sliced.rows.len(), 1);
        assert_eq!(
            sliced.rows.iter().next(),
            full.rows.iter().next(),
            "cache slice follows materialized order"
        );
        assert_eq!(service.metrics().rows_truncated, 2);
    }

    #[test]
    fn deadline_zero_times_out_cleanly() {
        let service = service_for_example();
        let q = example_query();
        let err = service
            .submit(&QueryRequest::query(q).with_deadline(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, QueryError::Timeout { .. }));
        let m = service.metrics();
        assert_eq!(m.timed_out, 1);
        assert_eq!(m.cache_misses, 0, "no answer was produced");
        // The aborted run is accounted separately, with its latency sampled.
        assert_eq!(m.aborted, 1);
        assert_eq!(m.latency.count, 1);
    }

    #[test]
    fn a_deadline_past_the_clock_s_range_is_no_deadline() {
        let service = service_for_example();
        let q = example_query();
        let outcome = service
            .submit(&QueryRequest::query(q.clone()).with_deadline(Duration::MAX))
            .expect("an unreachable deadline never times out");
        assert!(!outcome.from_cache, "the engine ran");
        assert!(outcome
            .rows
            .same_answer(&naive::evaluate(&q, &service.graph())));
        assert_eq!(service.metrics().timed_out, 0);
    }

    #[test]
    fn traced_submit_returns_a_span_tree() {
        let service = service_for_example();
        let q = example_query();
        let outcome = service
            .submit(&QueryRequest::query(q.clone()).with_trace())
            .unwrap();
        let trace = outcome.trace.expect("requested a trace");
        let root = trace.root().expect("request root span");
        assert_eq!(root.name, "request");
        for stage in ["plan", "candidates", "prune_down", "prune_up", "matching"] {
            let span = trace.span(stage).unwrap_or_else(|| panic!("span {stage}"));
            assert_eq!(span.parent, Some(0), "{stage} nests under the root");
        }
        // A warm (cached) request traces the request but runs no engine
        // stages; an untraced request gets no trace at all.
        let warm = service
            .submit(&QueryRequest::query(q.clone()).with_trace())
            .unwrap();
        let warm_trace = warm.trace.expect("requested a trace");
        assert!(warm.from_cache);
        assert!(warm_trace.span("candidates").is_none());
        assert!(warm_trace.root().is_some());
        let untraced = service
            .submit(&QueryRequest::query(q).with_bypass_cache())
            .unwrap();
        assert!(untraced.trace.is_none());
    }

    #[test]
    fn slow_log_records_queries_over_threshold_with_their_plan() {
        let service = QueryService::with_config(
            Arc::new(example_graph()),
            ServiceConfig {
                slow_query_threshold: Some(Duration::ZERO), // everything is slow
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let q = example_query();
        service.submit(&QueryRequest::query(q.clone())).unwrap();
        let entries = service.slow_queries();
        assert_eq!(entries.len(), 1);
        let entry = &entries[0];
        assert!(!entry.query.is_empty(), "canonical text is kept");
        assert!(matches!(
            entry.outcome,
            crate::slowlog::SlowOutcome::Completed { rows, .. } if rows > 0
        ));
        let plan = entry.plan.as_deref().expect("engine ran: plan captured");
        assert!(plan.contains("actual"), "plan carries actual row counts");
        // A timed-out request lands in the log too, with partial actuals.
        let err = service
            .submit(&QueryRequest::query(q).with_deadline(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, QueryError::Timeout { .. }));
        let entries = service.slow_queries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].outcome, crate::slowlog::SlowOutcome::TimedOut);
        assert!(entries[1].plan.is_some());
    }

    #[test]
    fn disabled_slow_log_stays_empty() {
        let service = QueryService::with_config(
            Arc::new(example_graph()),
            ServiceConfig {
                slow_query_threshold: None,
                ..ServiceConfig::default()
            },
        );
        service
            .submit(&QueryRequest::query(example_query()))
            .unwrap();
        assert!(service.slow_queries().is_empty());
    }

    #[test]
    fn submit_latency_histogram_sees_every_exit_path() {
        let service = service_for_example();
        let q = example_query();
        service.submit(&QueryRequest::query(q.clone())).unwrap(); // miss
        service.submit(&QueryRequest::query(q.clone())).unwrap(); // hit
        let _ = service.submit(&QueryRequest::text("a1 { //d1* ")); // parse error
        let _ = service.submit(&QueryRequest::query(q).with_deadline(Duration::ZERO));
        let m = service.metrics();
        assert_eq!(m.latency.count, 4);
        assert!(m.latency_percentile(0.5) > Duration::ZERO);
        assert!(m.ttfr.count >= 1, "the miss produced rows");
    }

    #[test]
    fn cancellation_interrupts_and_is_counted() {
        let service = service_for_example();
        let token = CancelToken::new();
        token.cancel();
        let err = service
            .submit(&QueryRequest::query(example_query()).with_cancel(token))
            .unwrap_err();
        assert_eq!(err, QueryError::Cancelled);
        assert_eq!(service.metrics().cancelled, 1);
    }

    #[test]
    fn unsatisfiable_queries_are_rejected_up_front() {
        let service = service_for_example();
        // Root requires a child AND its negation: structurally contradictory.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a1"));
        let root = b.root_id();
        let p = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b1"));
        b.set_structural(
            root,
            BoolExpr::and2(
                BoolExpr::Var(p.var()),
                BoolExpr::not(BoolExpr::Var(p.var())),
            ),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let err = service.submit(&QueryRequest::query(q.clone())).unwrap_err();
        assert_eq!(err, QueryError::Unsatisfiable);
        // `:explain` goes through the same prepare step.
        assert_eq!(service.plan_for(&q).unwrap_err(), QueryError::Unsatisfiable);
    }

    #[test]
    fn stats_are_reported_on_misses_only() {
        let service = service_for_example();
        let q = example_query();
        let request = QueryRequest::query(q).with_stats();
        let cold = service.submit(&request).unwrap();
        let cold_stats = cold.stats.expect("requested stats");
        assert!(cold_stats.initial_candidates > 0);
        assert!(cold_stats.enumerated_rows >= cold.rows.len() as u64);
        let warm = service.submit(&request).unwrap();
        assert_eq!(warm.stats.expect("requested stats").initial_candidates, 0);
    }

    #[test]
    fn an_unpinned_service_builds_no_index_and_defaults_to_3hop() {
        let service = service_for_example();
        assert_eq!(service.default_backend(), BackendKind::ThreeHop);
        let q = example_query();
        assert!(submit_rows(&service, &q).same_answer(&naive::evaluate(&q, &service.graph())));
        assert!(service.built_backends().is_empty());
    }

    #[test]
    fn submit_text_matches_the_builder_query() {
        let service = service_for_example();
        let mut b = GtpqBuilder::new(AttrPredicate::label("a1"));
        let root = b.root_id();
        let child = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("d1"));
        b.mark_output(child);
        let built = b.build().unwrap();
        let from_text = service
            .submit(&QueryRequest::text("a1 { //d1* }"))
            .unwrap()
            .rows;
        assert!(from_text.same_answer(&submit_rows(&service, &built)));
        // ... and the parsed query shares the cache slot with the built one.
        assert!(service.metrics().cache_hits >= 1);
    }

    #[test]
    fn submit_text_reports_parse_errors_with_spans() {
        let service = service_for_example();
        let err = service
            .submit(&QueryRequest::text("a1 { //d1* "))
            .unwrap_err();
        let QueryError::Parse(parse) = err else {
            panic!("expected a parse error");
        };
        assert!(parse.message.contains("unbalanced `{`"));
        assert_eq!(parse.span.start, 3);
    }

    #[test]
    fn plans_are_cached_alongside_results() {
        let service = QueryService::with_config(
            Arc::new(example_graph()),
            ServiceConfig {
                cache_capacity: 0, // results never cached: every call runs the engine
                ..ServiceConfig::default()
            },
        );
        let q = example_query();
        let request = QueryRequest::query(q).with_stats();
        assert_eq!(service.cached_plans(), 0);
        let cold = service.submit(&request).unwrap().stats.unwrap();
        assert!(cold.plan_time > std::time::Duration::ZERO);
        assert_eq!(service.cached_plans(), 1);
        // Second run re-executes but reuses the plan.
        let warm = service.submit(&request).unwrap().stats.unwrap();
        assert_eq!(warm.plan_time, std::time::Duration::ZERO);
        assert!(warm.initial_candidates > 0, "the engine really ran");
        let m = service.metrics();
        assert_eq!(m.plan_cache_misses, 1);
        assert_eq!(m.plan_cache_hits, 1);
    }

    #[test]
    fn plan_for_exposes_the_physical_plan() {
        let service = service_for_example();
        let q = example_query();
        let plan = service.plan_for(&q).unwrap();
        assert!(plan.backend.kind.is_none(), "the service recommends none");
        let rendered = plan.render(&q);
        assert!(rendered.starts_with("QueryPlan\n"), "{rendered}");
        assert_eq!(rendered.matches("IndexScan u").count(), q.size());
        // plan_for warms the plan cache for the later evaluation.
        assert_eq!(service.cached_plans(), 1);
        let stats = service
            .submit(&QueryRequest::query(q).with_stats())
            .unwrap()
            .stats
            .unwrap();
        assert_eq!(stats.plan_time, std::time::Duration::ZERO);
    }

    #[test]
    fn bypass_cache_runs_the_engine_and_reports_actuals() {
        let service = service_for_example();
        let q = example_query();
        let expected = naive::evaluate(&q, &service.graph());
        // Warm the result cache, then bypass it: the engine must run anyway.
        service.submit(&QueryRequest::query(q.clone())).unwrap();
        let outcome = service
            .submit(
                &QueryRequest::query(q.clone())
                    .with_stats()
                    .with_plan()
                    .with_bypass_cache(),
            )
            .unwrap();
        assert!(outcome.rows.same_answer(&expected));
        assert!(!outcome.from_cache);
        let stats = outcome.stats.expect("requested stats");
        assert!(!stats.operators.is_empty());
        let rendered = outcome
            .plan
            .expect("requested plan")
            .render_with_actuals(&q, &stats);
        assert!(rendered.contains("actual"));
        // The complete answer re-occupies its slot without duplication.
        assert_eq!(service.cached_results(), 1);
    }

    #[test]
    fn per_query_backend_is_inert() {
        let service = QueryService::with_config(
            Arc::new(example_graph()),
            ServiceConfig {
                per_query_backend: true,
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let q = example_query();
        let outcome = service
            .submit(&QueryRequest::query(q.clone()).with_plan())
            .unwrap();
        assert!(outcome
            .rows
            .same_answer(&naive::evaluate(&q, &service.graph())));
        assert!(outcome.plan.expect("requested").backend.kind.is_none());
        assert!(service.built_backends().is_empty());
    }

    #[test]
    fn the_pairwise_arm_answers_on_the_condensation() {
        let service = QueryService::with_config(
            Arc::new(example_graph()),
            ServiceConfig {
                backend: Some(BackendKind::Sspi),
                options: GteaOptions::pairwise(),
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let q = example_query();
        for _ in 0..2 {
            assert!(submit_rows(&service, &q).same_answer(&naive::evaluate(&q, &service.graph())));
        }
        assert!(service.built_backends().is_empty());
        assert_eq!(service.default_backend(), BackendKind::Sspi);
    }

    #[test]
    fn a_result_cache_poisoned_by_a_panic_is_recovered_empty() {
        let service = service_for_example();
        let q = example_query();
        let request = QueryRequest::query(q.clone());
        service.submit(&request).unwrap();
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = service.cache.lock().unwrap();
                    panic!("a request panics while it holds the result cache");
                })
                .join()
        });
        assert!(panicked.is_err() && service.cache.is_poisoned());
        let recovered = service.submit(&request).unwrap();
        assert!(recovered
            .rows
            .same_answer(&naive::evaluate(&q, &service.graph())));
        assert!(!recovered.from_cache, "a recovered cache starts empty");
        assert!(!service.cache.is_poisoned());
        assert!(service.submit(&request).unwrap().from_cache);
    }

    #[test]
    fn live_service_rotates_on_commit_and_invalidates_caches() {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("a");
        let c = b.add_node_with_label("b");
        b.add_edge(a, c);
        let handle = Arc::new(gtpq_graph::GraphHandle::new(b.build()));
        let service = QueryService::live_with_config(Arc::clone(&handle), ServiceConfig::default());
        assert_eq!(service.graph_epoch(), 0);
        let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = qb.root_id();
        let child = qb.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        qb.mark_output(child);
        let q = qb.build().unwrap();
        let cold = service
            .submit(&QueryRequest::query(q.clone()).with_stats())
            .unwrap();
        assert_eq!(cold.rows.len(), 1);
        assert_eq!(cold.stats.unwrap().graph_epoch, 0);
        assert_eq!(service.cached_results(), 1);
        // Staged-but-uncommitted writes stay invisible: same epoch, cache hit.
        let n = handle.insert_node_with_label("b");
        handle.insert_edge(a, n);
        let staged = service
            .submit(&QueryRequest::query(q.clone()).with_stats())
            .unwrap();
        assert!(staged.from_cache);
        assert_eq!(staged.stats.unwrap().graph_epoch, 0);
        // The commit publishes epoch 1; the next submit must rotate, drop the
        // pre-write cache entry, and answer for the new graph.
        handle.commit();
        let warm = service
            .submit(&QueryRequest::query(q.clone()).with_stats())
            .unwrap();
        assert!(!warm.from_cache, "pre-write answer must not be served");
        assert_eq!(warm.rows.len(), 2);
        assert_eq!(warm.stats.unwrap().graph_epoch, 1);
        assert!(warm
            .rows
            .same_answer(&naive::evaluate(&q, &service.graph())));
        assert_eq!(service.graph_epoch(), 1);
        let m = service.metrics();
        assert_eq!(m.graph_epoch, 1);
        assert_eq!(m.epoch_rotations, 1);
        assert!(
            m.stale_evictions >= 2,
            "the cached result and its plan were dropped"
        );
    }

    #[test]
    fn live_service_starting_past_epoch_zero_still_caches() {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("a");
        let handle = Arc::new(gtpq_graph::GraphHandle::new(b.build()));
        let n = handle.insert_node_with_label("b");
        handle.insert_edge(a, n);
        handle.commit();
        // The service is built after the first commit: epoch 1 from the start.
        let service = QueryService::live_with_config(Arc::clone(&handle), ServiceConfig::default());
        assert_eq!(service.graph_epoch(), 1);
        let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = qb.root_id();
        let child = qb.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        qb.mark_output(child);
        let q = qb.build().unwrap();
        let request = QueryRequest::query(q);
        service.submit(&request).unwrap();
        assert_eq!(service.cached_results(), 1, "epoch-1 inserts are accepted");
        assert!(service.submit(&request).unwrap().from_cache);
        assert_eq!(service.metrics().epoch_rotations, 0);
        assert_eq!(service.metrics().graph_epoch, 1);
    }

    #[test]
    fn works_on_cyclic_graphs() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_node_with_label("a");
        let b = gb.add_node_with_label("b");
        let c = gb.add_node_with_label("c");
        gb.add_edge(a, b);
        gb.add_edge(b, c);
        gb.add_edge(c, a);
        let g = Arc::new(gb.build());
        let service = QueryService::with_config(Arc::clone(&g), ServiceConfig::default());
        let mut qb = GtpqBuilder::new(AttrPredicate::label("b"));
        let root = qb.root_id();
        let child = qb.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("a"));
        qb.mark_output(root);
        qb.mark_output(child);
        let q = qb.build().unwrap();
        assert!(submit_rows(&service, &q).same_answer(&naive::evaluate(&q, &g)));
    }
}
