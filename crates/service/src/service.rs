//! The concurrent query service.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use gtpq_core::{
    Aborted, EvalStats, ExecCtl, ExecOptions, GteaEngine, GteaOptions, Interrupt, Planner,
    QueryPlan, Tracer,
};
use gtpq_graph::{DataGraph, GraphHandle, GraphSnapshot};
use gtpq_query::{Gtpq, ResultSet};
use gtpq_reach::{BackendKind, SharedIndex};

use crate::cache::{PlanCache, ResultCache};
use crate::canon::{canonicalize, CanonicalQuery};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::request::{QueryError, QueryOutcome, QueryRequest, QuerySource};
use crate::slowlog::{SlowOutcome, SlowQueryEntry, SlowQueryLog, SLOW_LOG_CAPACITY};

/// Configuration of a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The reachability index the pairwise ablation arm
    /// ([`GteaOptions::without_contours`]) probes; `None` means the paper's
    /// 3-hop.  Built once per graph generation, and only when
    /// [`options`](Self::options) select that arm: default-option requests
    /// evaluate on the condensation the graph carries.
    pub backend: Option<BackendKind>,
    /// Worker threads used by [`QueryService::submit_batch`]: different
    /// requests run on different threads, each one evaluated serially on
    /// its own.  Defaults to the machine's available parallelism.
    pub threads: usize,
    /// Ignored, evaluation is serial; deleted by the benchmark PR that
    /// retires `arxiv_enum_t2`.
    pub intra_query_threads: usize,
    /// Result-cache capacity in result sets; 0 disables caching.
    pub cache_capacity: usize,
    /// Plan-cache capacity in physical plans; 0 disables plan caching.
    pub plan_cache_capacity: usize,
    /// Ignored, the service plans without a graph profile, so no plan
    /// recommends a backend; deleted with `gtpq_reach::select_backend`
    /// once the benchmark stops replaying it.
    pub per_query_backend: bool,
    /// Engine options forwarded to every evaluation.
    pub options: GteaOptions,
    /// Requests whose end-to-end latency reaches this threshold are recorded
    /// in the slow-query log (with their canonical text, outcome and the
    /// executed plan's actuals), a ring of the latest
    /// [`SLOW_LOG_CAPACITY`]; `None` disables the log.
    pub slow_query_threshold: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            backend: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
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
/// reachability question of a default-option request, answers
/// [`QueryRequest`]s through an equivalence-aware LRU result cache, and fans
/// batches out over a thread pool.  All methods take `&self`: one service
/// instance can be wrapped in an `Arc` and shared across any number of
/// request threads.
///
/// ```
/// use std::sync::Arc;
/// use gtpq_graph::GraphBuilder;
/// use gtpq_query::{AttrPredicate, EdgeKind, GtpqBuilder};
/// use gtpq_service::{QueryRequest, QueryService};
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_node_with_label("a");
/// let c = b.add_node_with_label("b");
/// b.add_edge(a, c);
/// let service = QueryService::new(Arc::new(b.build()));
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
    /// everything — snapshot and index — through their pinned copy, so
    /// a concurrent epoch rotation never mixes generations inside one
    /// evaluation.
    state: RwLock<Arc<EpochState>>,
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
    /// and the service rotates its [`EpochState`] (invalidating both caches)
    /// before answering the next request.
    Live(Arc<GraphHandle>),
}

/// Everything bound to one graph generation: the pinned snapshot and, for
/// the pairwise arm, the reachability index it probes on it.
///
/// Dropping the service's reference on rotation does not free the state
/// while requests still hold it — in-flight evaluations keep reading the
/// generation they started on.
struct EpochState {
    epoch: u64,
    snapshot: Arc<GraphSnapshot>,
    /// [`ServiceConfig::backend`] (3-hop when `None`) over `snapshot`, when
    /// the configured options select the pairwise arm
    /// ([`GteaOptions::without_contours`]); `None` otherwise, and every
    /// request evaluates on the condensation the snapshot carries.
    pairwise: Option<SharedIndex>,
}

impl EpochState {
    fn build(
        snapshot: Arc<GraphSnapshot>,
        config: &ServiceConfig,
        metrics: &ServiceMetrics,
    ) -> Self {
        let pairwise = (!config.options.use_contours).then(|| {
            let kind = config.backend.unwrap_or(BackendKind::ThreeHop);
            metrics.record_index_build(|| {
                kind.build_shared_with(snapshot.graph(), snapshot.condensation())
            })
        });
        Self {
            epoch: snapshot.epoch(),
            snapshot,
            pairwise,
        }
    }

    /// The data graph of this generation.
    fn graph(&self) -> &Arc<DataGraph> {
        self.snapshot.graph()
    }
}

/// What `submit_inner` sets aside for a potential slow-query entry: the
/// canonical query text and the executed plan rendered with actuals.  Filled
/// only when the slow log is enabled.
#[derive(Default)]
struct SlowCapture {
    query: Option<String>,
    plan: Option<String>,
}

impl QueryService {
    /// Builds a service with the default configuration (machine
    /// parallelism, 256-entry caches).
    pub fn new(graph: Arc<DataGraph>) -> Self {
        Self::with_config(graph, ServiceConfig::default())
    }

    /// Builds a service over a frozen graph with an explicit configuration.
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
    pub fn live(handle: Arc<GraphHandle>) -> Self {
        Self::live_with_config(handle, ServiceConfig::default())
    }

    /// Builds a live-graph service with an explicit configuration.
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
        let state = Arc::new(EpochState::build(snapshot, &config, &metrics));
        let slow_capacity = if config.slow_query_threshold.is_some() {
            SLOW_LOG_CAPACITY
        } else {
            0
        };
        metrics.set_graph_epoch(state.epoch);
        // Align the cache generations with a handle that committed before
        // the service was built, so epoch-stamped inserts are accepted.
        let mut cache = ResultCache::new(config.cache_capacity);
        cache.invalidate(state.epoch);
        let mut plans = PlanCache::new(config.plan_cache_capacity);
        plans.invalidate(state.epoch);
        Self {
            source,
            state: RwLock::new(state),
            cache: Mutex::new(cache),
            plans: Mutex::new(plans),
            config,
            metrics,
            slowlog: SlowQueryLog::new(slow_capacity),
        }
    }

    /// The current graph generation, rotating first if the live handle has
    /// committed since the last request.  The returned `Arc` pins the
    /// generation: hold it across an entire request.
    fn current_state(&self) -> Arc<EpochState> {
        let state = Arc::clone(&self.state.read().expect("state lock poisoned"));
        let GraphSource::Live(handle) = &self.source else {
            return state;
        };
        if handle.epoch() == state.epoch {
            return state;
        }
        self.rotate(handle)
    }

    /// Swings the service to the handle's latest snapshot by replacing the
    /// whole [`EpochState`], and invalidates the result and plan caches (the
    /// evicted entries answered an older graph).
    ///
    /// Double-checked under the write lock: concurrent requests racing on
    /// the same commit rotate once, and a commit that lands mid-rotation is
    /// picked up by the next request.
    fn rotate(&self, handle: &Arc<GraphHandle>) -> Arc<EpochState> {
        let mut slot = self.state.write().expect("state lock poisoned");
        let snapshot = handle.snapshot();
        if snapshot.epoch() == slot.epoch {
            return Arc::clone(&slot);
        }
        let fresh = Arc::new(EpochState::build(snapshot, &self.config, &self.metrics));
        let evicted = self
            .cache
            .lock()
            .expect("cache lock poisoned")
            .invalidate(fresh.epoch)
            + self
                .plans
                .lock()
                .expect("plan cache lock poisoned")
                .invalidate(fresh.epoch);
        self.metrics.record_rotation(fresh.epoch, evicted as u64);
        *slot = Arc::clone(&fresh);
        fresh
    }

    /// The data graph of the current epoch.  On a live service consecutive
    /// calls may return different generations; pin one by holding the `Arc`.
    pub fn graph(&self) -> Arc<DataGraph> {
        Arc::clone(self.current_state().graph())
    }

    /// The current epoch's snapshot (graph + condensation, epoch-stamped).
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.current_state().snapshot)
    }

    /// Epoch of the graph generation the next request will answer against
    /// (0 for a frozen graph or a live graph that never committed).
    pub fn graph_epoch(&self) -> u64 {
        self.current_state().epoch
    }

    /// Serves one [`QueryRequest`]: parse (if textual), check
    /// satisfiability, consult the result cache, then plan and execute with
    /// the request's row window, deadline and cancellation pushed down into
    /// the engine.
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
    /// use gtpq_service::{QueryError, QueryRequest, QueryService};
    ///
    /// let service = QueryService::new(Arc::new(example_graph()));
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
        let mut capture = SlowCapture::default();
        let result = {
            let _root = tracer.span("request");
            self.submit_inner(request, started, &tracer, &mut capture)
        };
        let latency = started.elapsed();
        self.metrics.record_latency(latency);
        if let Some(threshold) = self.config.slow_query_threshold {
            if latency >= threshold {
                let outcome = match &result {
                    Ok(o) => Some(SlowOutcome::Completed {
                        rows: o.rows.len(),
                        truncated: o.truncated,
                    }),
                    Err(QueryError::Timeout { .. }) => Some(SlowOutcome::TimedOut),
                    Err(QueryError::Cancelled) => Some(SlowOutcome::Cancelled),
                    // Parse errors and unsatisfiable queries never reach the
                    // engine; a plan with actuals could not help anyway.
                    Err(_) => None,
                };
                if let Some(outcome) = outcome {
                    self.slowlog.push(
                        capture.query.unwrap_or_default(),
                        latency,
                        outcome,
                        capture.plan,
                    );
                }
            }
        }
        result.map(|mut outcome| {
            outcome.trace = tracer.finish();
            outcome
        })
    }

    /// The body of [`submit`](Self::submit); the wrapper owns the clock, the
    /// tracer's `request` root span, latency recording and slow-query
    /// logging, so every early `return`/`?` exit in here is still observed.
    fn submit_inner(
        &self,
        request: &QueryRequest,
        started: Instant,
        tracer: &Tracer,
        capture: &mut SlowCapture,
    ) -> Result<QueryOutcome, QueryError> {
        // Pin the graph generation before anything else — in particular
        // before the result-cache lookup, since pinning is what rotates the
        // service (and invalidates the caches) after a commit.  Everything
        // below reads through `state`, so a commit landing mid-request
        // cannot mix generations: this request answers for `state.epoch`.
        let state = self.current_state();
        // The deadline budget counts from the moment `submit` is called —
        // an epoch rotation, parsing and planning all spend it, so a request
        // cannot block past its budget in pre-execution stages and then
        // still get a full budget of evaluation on top.  A budget past the
        // clock's range is no deadline at all.
        let deadline = request
            .deadline
            .and_then(|budget| started.checked_add(budget));
        let parsed: Cow<'_, Gtpq> = match &request.source {
            QuerySource::Query(q) => Cow::Borrowed(q),
            QuerySource::Text(text) => {
                let _span = tracer.span("parse");
                Cow::Owned(gtpq_query::parse_query(text)?)
            }
        };
        let q: &Gtpq = &parsed;
        if !gtpq_analysis::is_satisfiable(q) {
            return Err(QueryError::Unsatisfiable);
        }
        let canon = (self.config.cache_capacity > 0 || self.config.plan_cache_capacity > 0)
            .then(|| canonicalize(q));
        if self.config.slow_query_threshold.is_some() {
            // The Display form is the canonical textual rendering of the
            // query — re-parseable and human-readable, unlike the cache key.
            capture.query = Some(q.to_string());
        }

        // Result-cache lookup: entries always hold complete answers, so the
        // requested window is sliced out of a hit.
        if self.config.cache_capacity > 0 && !request.bypass_cache {
            if let Some(canon) = &canon {
                let hit =
                    self.cache
                        .lock()
                        .expect("cache lock poisoned")
                        .lookup(state.epoch, canon, q);
                if let Some(full) = hit {
                    self.metrics.record_hit();
                    let (rows, truncated) = window(&full, request.offset, request.limit);
                    if truncated {
                        self.metrics.record_truncated();
                    }
                    let plan = request
                        .want_plan
                        .then(|| self.obtain_plan(q, Some(canon), &state).0);
                    return Ok(QueryOutcome {
                        rows,
                        truncated,
                        from_cache: true,
                        stats: request.want_stats.then(|| EvalStats {
                            graph_epoch: state.epoch,
                            ..EvalStats::default()
                        }),
                        plan,
                        trace: None, // the wrapper attaches the finished trace
                    });
                }
            }
        }

        // Miss: plan, execute with pushdown.
        let plan_span = tracer.span("plan");
        let (plan, plan_time) = self.obtain_plan(q, canon.as_ref(), &state);
        drop(plan_span);
        let mut ctl = ExecCtl::unbounded().with_tracer(tracer.clone());
        if let Some(deadline) = deadline {
            ctl = ctl.with_deadline(deadline);
        }
        if let Some(token) = &request.cancel {
            ctl = ctl.with_cancel(token.clone());
        }
        let engine = match &state.pairwise {
            Some(index) => GteaEngine::with_backend(state.graph(), &**index, self.config.options),
            None => GteaEngine::with_options(state.graph(), self.config.options),
        };
        let options = ExecOptions {
            limit: request.limit,
            offset: request.offset,
            ctl,
        };
        let exec = match engine.execute(q, &plan, options) {
            Ok(exec) => exec,
            Err(Aborted {
                interrupt,
                mut stats,
            }) => {
                stats.graph_epoch = state.epoch;
                // The run produced no answer, but its partial stage timings
                // and I/O counters are still load — fold them.
                self.metrics.record_aborted(&stats);
                if self.config.slow_query_threshold.is_some() {
                    capture.plan = Some(plan.render_with_actuals(q, &stats));
                }
                return Err(match interrupt {
                    Interrupt::Timeout => {
                        self.metrics.record_timeout();
                        QueryError::Timeout {
                            budget: request.deadline.unwrap_or_default(),
                        }
                    }
                    Interrupt::Cancelled => {
                        self.metrics.record_cancelled();
                        QueryError::Cancelled
                    }
                });
            }
        };
        let mut stats = exec.stats;
        stats.plan_time = plan_time;
        stats.graph_epoch = state.epoch;
        if self.config.slow_query_threshold.is_some() {
            capture.plan = Some(plan.render_with_actuals(q, &stats));
        }
        let rows = Arc::new(exec.results);

        // A windowed answer must never poison the full-result slot: cache
        // only complete answers.
        if self.config.cache_capacity > 0 && !exec.truncated && request.offset == 0 {
            if let Some(canon) = &canon {
                // Stamped with the pinned epoch: if a commit rotated the
                // cache mid-request, this pre-write answer is dropped.
                self.cache.lock().expect("cache lock poisoned").insert(
                    state.epoch,
                    canon,
                    Arc::new(q.clone()),
                    Arc::clone(&rows),
                );
            }
        }
        self.metrics.record_miss(&stats);
        if exec.truncated {
            self.metrics.record_truncated();
        }
        Ok(QueryOutcome {
            rows,
            truncated: exec.truncated,
            from_cache: false,
            stats: request.want_stats.then_some(stats),
            plan: request.want_plan.then_some(plan),
            trace: None, // the wrapper attaches the finished trace
        })
    }

    /// Serves a batch of requests across the worker pool, preserving input
    /// order in the returned outcomes.
    ///
    /// Workers steal requests from a shared cursor, so skewed workloads
    /// load-balance; outcomes are identical to submitting the batch
    /// sequentially (the cache is shared, so duplicate queries within one
    /// batch may be served from it).  Every request keeps its own stats, plan
    /// and error.
    pub fn submit_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryOutcome, QueryError>> {
        self.metrics.record_batch();
        let workers = self.config.threads.min(requests.len()).max(1);
        if workers == 1 {
            return requests.iter().map(|r| self.submit(r)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut answers: Vec<Option<Result<QueryOutcome, QueryError>>> =
            (0..requests.len()).map(|_| None).collect();
        let chunks = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= requests.len() {
                                break;
                            }
                            local.push((i, self.submit(&requests[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect::<Vec<_>>()
        });
        for (i, r) in chunks.into_iter().flatten() {
            answers[i] = Some(r);
        }
        answers
            .into_iter()
            .map(|r| r.expect("every request was assigned to a worker"))
            .collect()
    }

    /// Plans (or recalls the cached plan for) `q` without evaluating it —
    /// the physical plan `:explain` renders.  It lands in the plan cache,
    /// pre-warming a later evaluation of the same pattern.
    pub fn plan_for(&self, q: &Gtpq) -> Arc<QueryPlan> {
        let canon = (self.config.plan_cache_capacity > 0).then(|| canonicalize(q));
        let state = self.current_state();
        self.obtain_plan(q, canon.as_ref(), &state).0
    }

    /// Looks the plan up in the plan cache, building and caching it on a
    /// miss against the pinned generation.  Returns the plan and the time
    /// spent planning (zero on a hit).
    fn obtain_plan(
        &self,
        q: &Gtpq,
        canon: Option<&CanonicalQuery>,
        state: &EpochState,
    ) -> (Arc<QueryPlan>, Duration) {
        if let Some(canon) = canon {
            let hit = self.plans.lock().expect("plan cache lock poisoned").lookup(
                state.epoch,
                &canon.key,
                q,
            );
            if let Some(plan) = hit {
                self.metrics.record_plan_hit();
                return (plan, Duration::ZERO);
            }
        }
        let start = Instant::now();
        let plan = Arc::new(Planner::new(state.graph()).plan(q));
        let plan_time = start.elapsed();
        self.metrics.record_plan_miss();
        if let Some(canon) = canon {
            self.plans.lock().expect("plan cache lock poisoned").insert(
                state.epoch,
                &canon.key,
                Arc::new(q.clone()),
                Arc::clone(&plan),
            );
        }
        (plan, plan_time)
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
        self.cache.lock().expect("cache lock poisoned").len()
    }

    /// Number of physical plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().expect("plan cache lock poisoned").len()
    }

    /// The [`default_backend`](Self::default_backend)'s name when the
    /// configured options select the pairwise arm, which builds it for
    /// every graph generation; empty otherwise.
    pub fn built_backends(&self) -> Vec<&'static str> {
        let state = self.current_state();
        state.pairwise.iter().map(|index| index.name()).collect()
    }

    /// The backend the pairwise arm probes: [`ServiceConfig::backend`], or
    /// 3-hop when that is `None`.
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
    let mut out = ResultSet::new(full.output.clone());
    for tuple in full.iter().skip(offset).take(end.saturating_sub(offset)) {
        out.insert(tuple.clone());
    }
    (Arc::new(out), end < total)
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
        QueryService::new(Arc::new(example_graph()))
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
        let all: Vec<_> = full.iter().cloned().collect();
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
            let got: Vec<_> = outcome.rows.iter().cloned().collect();
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
        // In a batch the rejection stays per-request.
        let batch = service.submit_batch(&[QueryRequest::query(q), QueryRequest::text("a1*")]);
        assert!(matches!(batch[0], Err(QueryError::Unsatisfiable)));
        assert!(batch[1].is_ok());
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
    fn a_pinned_backend_is_not_built_for_default_option_requests() {
        let service = QueryService::with_config(
            Arc::new(example_graph()),
            ServiceConfig {
                backend: Some(BackendKind::Sspi),
                ..ServiceConfig::default()
            },
        );
        assert_eq!(service.default_backend(), BackendKind::Sspi);
        let q = example_query();
        assert!(submit_rows(&service, &q).same_answer(&naive::evaluate(&q, &service.graph())));
        assert!(service.built_backends().is_empty());
        assert_eq!(service.metrics().index_builds, 0);
    }

    #[test]
    fn an_unpinned_service_builds_no_index_and_defaults_to_3hop() {
        let service = service_for_example();
        assert_eq!(service.default_backend(), BackendKind::ThreeHop);
        assert_eq!(service.metrics().index_builds, 0, "construction built one");
        let q = example_query();
        assert!(submit_rows(&service, &q).same_answer(&naive::evaluate(&q, &service.graph())));
        assert!(service.built_backends().is_empty());
        assert_eq!(service.metrics().index_builds, 0);
    }

    #[test]
    fn submit_batch_preserves_order_and_matches_sequential() {
        let service = QueryService::with_config(
            Arc::new(example_graph()),
            ServiceConfig {
                threads: 4,
                cache_capacity: 0, // force every query through the engine
                ..ServiceConfig::default()
            },
        );
        let mut requests = Vec::new();
        let mut queries = Vec::new();
        for label in ["a1", "b1", "c1", "d1", "e1", "g1"] {
            let mut b = GtpqBuilder::new(AttrPredicate::label(label));
            let root = b.root_id();
            b.mark_output(root);
            queries.push(b.build().unwrap());
            let mut b = GtpqBuilder::new(AttrPredicate::label("a1"));
            let root = b.root_id();
            let child = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label(label));
            b.mark_output(child);
            queries.push(b.build().unwrap());
        }
        for q in &queries {
            requests.push(QueryRequest::query(q.clone()).with_stats());
        }
        let batched = service.submit_batch(&requests);
        assert_eq!(batched.len(), requests.len());
        for (q, got) in queries.iter().zip(&batched) {
            let outcome = got.as_ref().expect("satisfiable queries");
            let expected = naive::evaluate(q, &service.graph());
            assert!(outcome.rows.same_answer(&expected));
            assert!(
                outcome.stats.is_some(),
                "per-request stats survive batching"
            );
        }
        assert_eq!(service.metrics().batches, 1);
        assert_eq!(service.metrics().queries, requests.len() as u64);
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
        assert!((m.plan_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn plan_for_exposes_the_physical_plan() {
        let service = service_for_example();
        let q = example_query();
        let plan = service.plan_for(&q);
        assert_eq!(plan.candidates.len(), q.size());
        assert!(plan.backend.kind.is_none(), "the service recommends none");
        let rendered = plan.render(&q);
        assert!(rendered.contains("QueryPlan"));
        assert!(!rendered.contains("backend"), "{rendered}");
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
        assert_eq!(service.metrics().index_builds, 0);
    }

    #[test]
    fn the_pairwise_arm_builds_the_configured_backend_once_per_epoch() {
        let service = QueryService::with_config(
            Arc::new(example_graph()),
            ServiceConfig {
                backend: Some(BackendKind::Sspi),
                options: GteaOptions::without_contours(),
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        // Built with the generation, before any request.
        assert_eq!(service.metrics().index_builds, 1);
        let q = example_query();
        for _ in 0..2 {
            assert!(submit_rows(&service, &q).same_answer(&naive::evaluate(&q, &service.graph())));
        }
        assert_eq!(service.built_backends(), vec!["sspi"]);
        assert_eq!(service.default_backend(), BackendKind::Sspi);
        assert_eq!(service.metrics().index_builds, 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let service = service_for_example();
        assert!(service.submit_batch(&[]).is_empty());
    }

    #[test]
    fn live_service_rotates_on_commit_and_invalidates_caches() {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("a");
        let c = b.add_node_with_label("b");
        b.add_edge(a, c);
        let handle = Arc::new(gtpq_graph::GraphHandle::new(b.build()));
        let service = QueryService::live(Arc::clone(&handle));
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
        let service = QueryService::live(Arc::clone(&handle));
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
        let service = QueryService::new(Arc::clone(&g));
        let mut qb = GtpqBuilder::new(AttrPredicate::label("b"));
        let root = qb.root_id();
        let child = qb.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("a"));
        qb.mark_output(root);
        qb.mark_output(child);
        let q = qb.build().unwrap();
        assert!(submit_rows(&service, &q).same_answer(&naive::evaluate(&q, &g)));
    }
}
