//! Aggregate service metrics: QPS, cache hit rate, per-stage timing rollups,
//! latency/TTFR histograms, windowed recent rates, and a Prometheus
//! text-format encoder.
//!
//! All counters are relaxed atomics and the histograms are lock-free
//! ([`gtpq_obs::LogHistogram`]), so the hot path never takes a lock; a
//! [`MetricsSnapshot`] is a consistent-enough point-in-time copy for
//! dashboards and tests (individual counters may be skewed by in-flight
//! queries, which is the usual contract for service counters).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gtpq_core::EvalStats;
use gtpq_obs::{
    HistogramSnapshot, LogHistogram, PromText, WindowedCounter, LATENCY_BOUNDS_SECONDS,
};

/// Trailing window of the `recent_*` rates (QPS and hit rate "right now"
/// rather than since process start).
pub const RECENT_WINDOW: Duration = Duration::from_secs(30);

/// Lock-free per-stage latency histograms (nanosecond samples).
#[derive(Debug, Default)]
struct StageHists {
    candidates: LogHistogram,
    prune_down: LogHistogram,
    prune_up: LogHistogram,
    matching: LogHistogram,
    enumerate: LogHistogram,
    eval: LogHistogram,
}

impl StageHists {
    /// Observes one evaluation's stage timings (partial stats from an
    /// aborted run record only the stages that actually ran).
    fn observe(&self, stats: &EvalStats) {
        self.candidates.record_duration(stats.candidate_time);
        self.prune_down.record_duration(stats.prune_down_time);
        self.prune_up.record_duration(stats.prune_up_time);
        self.matching.record_duration(stats.matching_graph_time);
        self.enumerate.record_duration(stats.enumerate_time);
        self.eval.record_duration(stats.total_time());
    }
}

/// Point-in-time copies of the per-stage histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageHistograms {
    /// Candidate-selection stage.
    pub candidates: HistogramSnapshot,
    /// Downward pruning round.
    pub prune_down: HistogramSnapshot,
    /// Upward pruning round.
    pub prune_up: HistogramSnapshot,
    /// Matching-graph construction.
    pub matching: HistogramSnapshot,
    /// Result enumeration.
    pub enumerate: HistogramSnapshot,
    /// Whole engine evaluation (planning included).
    pub eval: HistogramSnapshot,
}

impl StageHistograms {
    /// `(stage name, histogram)` pairs in pipeline order — the iteration
    /// the Prometheus encoder and the CLI's `:metrics` share.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &HistogramSnapshot)> {
        [
            ("candidates", &self.candidates),
            ("prune_down", &self.prune_down),
            ("prune_up", &self.prune_up),
            ("matching", &self.matching),
            ("enumerate", &self.enumerate),
            ("eval", &self.eval),
        ]
        .into_iter()
    }
}

/// Internal atomic counters of a [`QueryService`](crate::QueryService).
#[derive(Debug)]
pub struct ServiceMetrics {
    started: Instant,
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batches: AtomicU64,
    eval_nanos: AtomicU64,
    candidate_nanos: AtomicU64,
    prune_down_nanos: AtomicU64,
    prune_up_nanos: AtomicU64,
    matching_nanos: AtomicU64,
    enumerate_nanos: AtomicU64,
    input_nodes: AtomicU64,
    index_lookups: AtomicU64,
    index_hits: AtomicU64,
    scanned_nodes: AtomicU64,
    sim_pivot_filtered: AtomicU64,
    sim_verified: AtomicU64,
    result_tuples: AtomicU64,
    plan_nanos: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    estimated_rows: AtomicU64,
    actual_rows: AtomicU64,
    estimation_error_rows: AtomicU64,
    timed_out: AtomicU64,
    cancelled: AtomicU64,
    rows_truncated: AtomicU64,
    enumerated_rows: AtomicU64,
    worker_busy_nanos: AtomicU64,
    morsels: AtomicU64,
    max_queue_depth: AtomicU64,
    aborted: AtomicU64,
    aborted_eval_nanos: AtomicU64,
    graph_epoch: AtomicU64,
    epoch_rotations: AtomicU64,
    stale_evictions: AtomicU64,
    latency_hist: LogHistogram,
    ttfr_hist: LogHistogram,
    stage_hists: StageHists,
    recent_queries: WindowedCounter,
    recent_hits: WindowedCounter,
}

impl ServiceMetrics {
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            queries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            eval_nanos: AtomicU64::new(0),
            candidate_nanos: AtomicU64::new(0),
            prune_down_nanos: AtomicU64::new(0),
            prune_up_nanos: AtomicU64::new(0),
            matching_nanos: AtomicU64::new(0),
            enumerate_nanos: AtomicU64::new(0),
            input_nodes: AtomicU64::new(0),
            index_lookups: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            scanned_nodes: AtomicU64::new(0),
            sim_pivot_filtered: AtomicU64::new(0),
            sim_verified: AtomicU64::new(0),
            result_tuples: AtomicU64::new(0),
            plan_nanos: AtomicU64::new(0),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            estimated_rows: AtomicU64::new(0),
            actual_rows: AtomicU64::new(0),
            estimation_error_rows: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rows_truncated: AtomicU64::new(0),
            enumerated_rows: AtomicU64::new(0),
            worker_busy_nanos: AtomicU64::new(0),
            morsels: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            aborted_eval_nanos: AtomicU64::new(0),
            graph_epoch: AtomicU64::new(0),
            epoch_rotations: AtomicU64::new(0),
            stale_evictions: AtomicU64::new(0),
            latency_hist: LogHistogram::new(),
            ttfr_hist: LogHistogram::new(),
            stage_hists: StageHists::default(),
            recent_queries: WindowedCounter::new(),
            recent_hits: WindowedCounter::new(),
        }
    }

    pub(crate) fn record_timeout(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_truncated(&self) {
        self.rows_truncated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_plan_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_plan_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Observes the end-to-end `submit` latency of one request (every exit
    /// path: hit, miss, timeout, cancellation).
    pub(crate) fn record_latency(&self, latency: Duration) {
        self.latency_hist.record_duration(latency);
    }

    pub(crate) fn record_hit(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.recent_queries.record();
        self.recent_hits.record();
    }

    pub(crate) fn record_miss(&self, stats: &EvalStats) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.recent_queries.record();
        self.eval_nanos
            .fetch_add(stats.total_time().as_nanos() as u64, Ordering::Relaxed);
        self.fold_stages(stats);
        self.result_tuples
            .fetch_add(stats.result_tuples, Ordering::Relaxed);
        self.plan_nanos
            .fetch_add(stats.plan_time.as_nanos() as u64, Ordering::Relaxed);
        self.estimated_rows
            .fetch_add(stats.estimated_rows(), Ordering::Relaxed);
        self.actual_rows
            .fetch_add(stats.actual_rows(), Ordering::Relaxed);
        self.estimation_error_rows
            .fetch_add(stats.absolute_estimation_error(), Ordering::Relaxed);
        if stats.time_to_first_row > Duration::ZERO {
            self.ttfr_hist.record_duration(stats.time_to_first_row);
        }
    }

    /// Folds the *partial* statistics of an evaluation that was aborted by
    /// deadline or cancellation.  The stage rollups, I/O counters and stage
    /// histograms keep the work that was done; the run is counted under
    /// `aborted` (with its engine time under `aborted_eval_time`) rather
    /// than as a query/cache miss, since no answer was produced.
    pub(crate) fn record_aborted(&self, stats: &EvalStats) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
        self.aborted_eval_nanos
            .fetch_add(stats.total_time().as_nanos() as u64, Ordering::Relaxed);
        self.recent_queries.record();
        self.fold_stages(stats);
    }

    /// Stage timings, I/O counters and stage histograms shared by complete
    /// and aborted runs.
    fn fold_stages(&self, stats: &EvalStats) {
        let add = |counter: &AtomicU64, d: Duration| {
            counter.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        };
        add(&self.candidate_nanos, stats.candidate_time);
        add(&self.prune_down_nanos, stats.prune_down_time);
        add(&self.prune_up_nanos, stats.prune_up_time);
        add(&self.matching_nanos, stats.matching_graph_time);
        add(&self.enumerate_nanos, stats.enumerate_time);
        self.input_nodes
            .fetch_add(stats.input_nodes, Ordering::Relaxed);
        self.index_lookups
            .fetch_add(stats.index_lookups, Ordering::Relaxed);
        self.index_hits
            .fetch_add(stats.index_hits, Ordering::Relaxed);
        self.scanned_nodes
            .fetch_add(stats.scanned_nodes, Ordering::Relaxed);
        self.sim_pivot_filtered
            .fetch_add(stats.sim_pivot_filtered, Ordering::Relaxed);
        self.sim_verified
            .fetch_add(stats.sim_verified, Ordering::Relaxed);
        self.enumerated_rows
            .fetch_add(stats.enumerated_rows, Ordering::Relaxed);
        self.worker_busy_nanos
            .fetch_add(stats.worker_busy_time.as_nanos() as u64, Ordering::Relaxed);
        self.morsels
            .fetch_add(stats.morsels_dispatched, Ordering::Relaxed);
        self.max_queue_depth
            .fetch_max(stats.max_queue_depth, Ordering::Relaxed);
        self.stage_hists.observe(stats);
    }

    pub(crate) fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the graph-epoch gauge without counting a rotation (used at
    /// service construction, where the handle may already carry commits).
    pub(crate) fn set_graph_epoch(&self, epoch: u64) {
        self.graph_epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Records one epoch rotation: the gauge advances to the new epoch
    /// (monotonically — concurrent rotations cannot walk it backwards) and
    /// the entries dropped from the result/plan caches are counted as stale
    /// evictions.
    pub(crate) fn record_rotation(&self, epoch: u64, evicted: u64) {
        self.graph_epoch.fetch_max(epoch, Ordering::Relaxed);
        self.epoch_rotations.fetch_add(1, Ordering::Relaxed);
        self.stale_evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let queries = self.queries.load(Ordering::Relaxed);
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let uptime = self.started.elapsed();
        MetricsSnapshot {
            uptime,
            queries,
            cache_hits: hits,
            cache_misses: misses,
            batches: self.batches.load(Ordering::Relaxed),
            eval_time: Duration::from_nanos(self.eval_nanos.load(Ordering::Relaxed)),
            candidate_time: Duration::from_nanos(self.candidate_nanos.load(Ordering::Relaxed)),
            prune_down_time: Duration::from_nanos(self.prune_down_nanos.load(Ordering::Relaxed)),
            prune_up_time: Duration::from_nanos(self.prune_up_nanos.load(Ordering::Relaxed)),
            matching_time: Duration::from_nanos(self.matching_nanos.load(Ordering::Relaxed)),
            enumerate_time: Duration::from_nanos(self.enumerate_nanos.load(Ordering::Relaxed)),
            input_nodes: self.input_nodes.load(Ordering::Relaxed),
            index_lookups: self.index_lookups.load(Ordering::Relaxed),
            index_hits: self.index_hits.load(Ordering::Relaxed),
            scanned_nodes: self.scanned_nodes.load(Ordering::Relaxed),
            sim_pivot_filtered: self.sim_pivot_filtered.load(Ordering::Relaxed),
            sim_verified: self.sim_verified.load(Ordering::Relaxed),
            result_tuples: self.result_tuples.load(Ordering::Relaxed),
            plan_time: Duration::from_nanos(self.plan_nanos.load(Ordering::Relaxed)),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            estimated_rows: self.estimated_rows.load(Ordering::Relaxed),
            actual_rows: self.actual_rows.load(Ordering::Relaxed),
            estimation_error_rows: self.estimation_error_rows.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            rows_truncated: self.rows_truncated.load(Ordering::Relaxed),
            enumerated_rows: self.enumerated_rows.load(Ordering::Relaxed),
            worker_busy_time: Duration::from_nanos(self.worker_busy_nanos.load(Ordering::Relaxed)),
            morsels: self.morsels.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            aborted_eval_time: Duration::from_nanos(
                self.aborted_eval_nanos.load(Ordering::Relaxed),
            ),
            graph_epoch: self.graph_epoch.load(Ordering::Relaxed),
            epoch_rotations: self.epoch_rotations.load(Ordering::Relaxed),
            stale_evictions: self.stale_evictions.load(Ordering::Relaxed),
            latency: self.latency_hist.snapshot(),
            ttfr: self.ttfr_hist.snapshot(),
            stages: StageHistograms {
                candidates: self.stage_hists.candidates.snapshot(),
                prune_down: self.stage_hists.prune_down.snapshot(),
                prune_up: self.stage_hists.prune_up.snapshot(),
                matching: self.stage_hists.matching.snapshot(),
                enumerate: self.stage_hists.enumerate.snapshot(),
                eval: self.stage_hists.eval.snapshot(),
            },
            recent_window: RECENT_WINDOW,
            recent_queries: self.recent_queries.sum_window(RECENT_WINDOW),
            recent_hits: self.recent_hits.sum_window(RECENT_WINDOW),
            recent_qps: self.recent_queries.rate_per_sec(RECENT_WINDOW),
        }
    }
}

/// Point-in-time copy of the service counters, with derived rates,
/// latency/TTFR/stage histograms and a Prometheus text encoder.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Time since the service was created.
    pub uptime: Duration,
    /// Queries answered (hits + misses).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that ran the engine.
    pub cache_misses: u64,
    /// `submit_batch` calls served.
    pub batches: u64,
    /// Total engine evaluation time across cache misses (sum over queries,
    /// not wall clock: concurrent queries overlap).
    pub eval_time: Duration,
    /// Candidate-selection time rollup.
    pub candidate_time: Duration,
    /// Downward-pruning time rollup.
    pub prune_down_time: Duration,
    /// Upward-pruning time rollup.
    pub prune_up_time: Duration,
    /// Matching-graph construction time rollup.
    pub matching_time: Duration,
    /// Result-enumeration time rollup.
    pub enumerate_time: Duration,
    /// Data-node accesses rollup (`#input`, Fig. 10).
    pub input_nodes: u64,
    /// Index-element lookups rollup (`#index`, Fig. 10).
    pub index_lookups: u64,
    /// Candidates served straight from the attribute inverted index during
    /// candidate selection.
    pub index_hits: u64,
    /// Nodes individually verified during candidate selection (the scan
    /// remainder the inverted index could not serve exactly).
    pub scanned_nodes: u64,
    /// Sim-indexed vectors discarded by the pivot filter's triangle-
    /// inequality check across engine runs — exact distance computations
    /// avoided by the block-and-verify access path.
    pub sim_pivot_filtered: u64,
    /// Sim-indexed vectors verified with an exact distance / cosine
    /// computation across engine runs.
    pub sim_verified: u64,
    /// Result tuples produced by engine runs.
    pub result_tuples: u64,
    /// Planning time rollup (zero for plan-cache hits).
    pub plan_time: Duration,
    /// Evaluations that reused a cached physical plan.
    pub plan_cache_hits: u64,
    /// Evaluations that built a fresh physical plan.
    pub plan_cache_misses: u64,
    /// Sum of the planner's per-operator row estimates across engine runs.
    pub estimated_rows: u64,
    /// Sum of the rows those operators actually produced.
    pub actual_rows: u64,
    /// Sum of per-operator `|estimated − actual|` across engine runs
    /// (absolute, so over- and under-estimates cannot cancel).
    pub estimation_error_rows: u64,
    /// Requests aborted because their deadline passed.
    pub timed_out: u64,
    /// Requests aborted through their cancellation token.
    pub cancelled: u64,
    /// Outcomes whose row window was cut short by a `limit` (more rows
    /// existed past the returned window).
    pub rows_truncated: u64,
    /// Rows pulled from the streaming enumerator across engine runs
    /// (including offset-skipped and look-ahead rows); compare against
    /// `result_tuples` to see how much enumeration limit pushdown avoided.
    pub enumerated_rows: u64,
    /// Total busy time across intra-query morsel workers (candidate scans,
    /// prune rounds, matching-graph fill, partitioned enumeration).  Sums
    /// over workers, so it can exceed `eval_time`; the ratio is the average
    /// fan-out actually achieved (see
    /// [`worker_utilization`](Self::worker_utilization)).
    pub worker_busy_time: Duration,
    /// Morsels dispatched to intra-query workers across engine runs (every
    /// parallel stage round counts its work-stealing chunks).
    pub morsels: u64,
    /// Deepest partition-consumer queue observed during partitioned
    /// enumeration (buffered row batches awaiting the ordered merge); a
    /// persistently high value means producers outrun the merge.
    pub max_queue_depth: u64,
    /// Engine runs aborted mid-evaluation (timeout or cancellation); their
    /// partial stage timings are folded into the stage rollups above.
    pub aborted: u64,
    /// Engine time spent in runs that were ultimately aborted — work that
    /// produced no answer, invisible in `eval_time`.
    pub aborted_eval_time: Duration,
    /// Epoch of the graph generation the service currently answers for
    /// (0 for a frozen graph; advances monotonically with every commit the
    /// service observed).
    pub graph_epoch: u64,
    /// Epoch rotations performed: commits the service noticed and swung its
    /// generation state (backend, caches, catalog) over to.
    pub epoch_rotations: u64,
    /// Result-cache and plan-cache entries dropped by epoch rotations —
    /// answers and plans that described a pre-write graph.
    pub stale_evictions: u64,
    /// End-to-end `submit` latency histogram (every request: hits, misses,
    /// timeouts, cancellations).
    pub latency: HistogramSnapshot,
    /// Time-to-first-row histogram across engine runs that produced at least
    /// one row — the streaming-latency headline.
    pub ttfr: HistogramSnapshot,
    /// Per-stage latency histograms across engine runs (aborted runs
    /// included, with whatever stages they completed).
    pub stages: StageHistograms,
    /// Window the `recent_*` figures cover.
    pub recent_window: Duration,
    /// Requests observed within the trailing window.
    pub recent_queries: u64,
    /// Cache hits observed within the trailing window.
    pub recent_hits: u64,
    /// Requests per second over the trailing window (young services divide
    /// by their age instead, so early rates are not under-reported).
    pub recent_qps: f64,
}

impl MetricsSnapshot {
    /// Queries per second since service creation.
    pub fn qps(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.queries as f64 / secs
        }
    }

    /// Fraction of queries served from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Fraction of recent requests served from the cache (0.0 when idle).
    pub fn recent_hit_rate(&self) -> f64 {
        if self.recent_queries == 0 {
            0.0
        } else {
            self.recent_hits as f64 / self.recent_queries as f64
        }
    }

    /// End-to-end latency at quantile `q` (`0.0 ..= 1.0`): `0.5` is the
    /// median, `0.99` the p99.
    pub fn latency_percentile(&self, q: f64) -> Duration {
        self.latency.percentile_duration(q)
    }

    /// Time-to-first-row at quantile `q` (`0.0 ..= 1.0`).
    pub fn ttfr_percentile(&self, q: f64) -> Duration {
        self.ttfr.percentile_duration(q)
    }

    /// Fraction of initial candidates served straight from the inverted
    /// index across all engine runs (0.0 when idle).
    pub fn index_serve_rate(&self) -> f64 {
        gtpq_core::stats::serve_rate(self.index_hits, self.scanned_nodes)
    }

    /// Fraction of sim-indexed vectors the pivot filter discarded without an
    /// exact distance computation across engine runs (0.0 when no `sim(...)`
    /// predicate ran) — same formula as
    /// [`EvalStats::sim_filter_selectivity`](gtpq_core::EvalStats::sim_filter_selectivity).
    pub fn sim_filter_selectivity(&self) -> f64 {
        gtpq_core::stats::serve_rate(self.sim_pivot_filtered, self.sim_verified)
    }

    /// Fraction of engine runs that reused a cached physical plan
    /// (0.0 when no plans were requested).
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }

    /// Aggregate cardinality-estimation error of the cost model: the sum of
    /// per-operator `|estimated − actual|` over the sum of actual rows
    /// (0.0 = estimates exactly matched the executed cardinalities; errors
    /// are accumulated per operator, so an over-estimate cannot cancel an
    /// under-estimate).
    pub fn estimation_error(&self) -> f64 {
        self.estimation_error_rows as f64 / self.actual_rows.max(1) as f64
    }

    /// Average intra-query fan-out actually achieved: total morsel-worker
    /// busy time over total engine time (complete and aborted runs).  `0.0`
    /// when every run was serial; `≈ n` when runs kept `n` workers busy.
    pub fn worker_utilization(&self) -> f64 {
        let engine = self.eval_time + self.aborted_eval_time;
        if engine.is_zero() {
            0.0
        } else {
            self.worker_busy_time.as_secs_f64() / engine.as_secs_f64()
        }
    }

    /// Mean engine time per cache miss.
    pub fn mean_eval_time(&self) -> Duration {
        if self.cache_misses == 0 {
            Duration::ZERO
        } else {
            // Divide in u128 space: casting the u64 miss count to u32 would
            // truncate (a count of exactly 2^32 becomes 0 and panics).
            Duration::from_nanos((self.eval_time.as_nanos() / u128::from(self.cache_misses)) as u64)
        }
    }

    /// Renders the snapshot as a Prometheus text-format (0.0.4) scrape page:
    /// `gtpq_`-prefixed counters and gauges plus the latency, TTFR and
    /// per-stage histograms in seconds.
    pub fn render_prometheus(&self) -> String {
        let mut page = PromText::new();
        page.counter(
            "gtpq_queries_total",
            "Queries answered (cache hits + engine runs).",
            self.queries as f64,
        );
        page.counter(
            "gtpq_cache_hits_total",
            "Queries answered from the result cache.",
            self.cache_hits as f64,
        );
        page.counter(
            "gtpq_cache_misses_total",
            "Queries that ran the engine.",
            self.cache_misses as f64,
        );
        page.counter(
            "gtpq_batches_total",
            "Batch submissions served.",
            self.batches as f64,
        );
        page.counter(
            "gtpq_timeouts_total",
            "Requests aborted because their deadline passed.",
            self.timed_out as f64,
        );
        page.counter(
            "gtpq_cancelled_total",
            "Requests aborted through their cancellation token.",
            self.cancelled as f64,
        );
        page.counter(
            "gtpq_aborted_runs_total",
            "Engine runs aborted mid-evaluation (timeout or cancellation).",
            self.aborted as f64,
        );
        page.counter(
            "gtpq_rows_truncated_total",
            "Outcomes whose row window was cut short by a limit.",
            self.rows_truncated as f64,
        );
        page.counter(
            "gtpq_result_tuples_total",
            "Result tuples produced by engine runs.",
            self.result_tuples as f64,
        );
        page.counter(
            "gtpq_enumerated_rows_total",
            "Rows pulled from the streaming enumerator.",
            self.enumerated_rows as f64,
        );
        page.counter(
            "gtpq_input_nodes_total",
            "Data-node accesses across engine runs.",
            self.input_nodes as f64,
        );
        page.counter(
            "gtpq_index_lookups_total",
            "Reachability-index element lookups across engine runs.",
            self.index_lookups as f64,
        );
        page.counter(
            "gtpq_sim_pivot_filtered_total",
            "Sim-indexed vectors discarded by the pivot filter (exact distance computations avoided).",
            self.sim_pivot_filtered as f64,
        );
        page.counter(
            "gtpq_sim_verified_total",
            "Sim-indexed vectors verified with an exact distance or cosine computation.",
            self.sim_verified as f64,
        );
        page.gauge(
            "gtpq_sim_filter_selectivity",
            "Fraction of sim-indexed vectors the pivot filter discarded without verification.",
            self.sim_filter_selectivity(),
        );
        page.counter(
            "gtpq_plan_cache_hits_total",
            "Evaluations that reused a cached physical plan.",
            self.plan_cache_hits as f64,
        );
        page.counter(
            "gtpq_plan_cache_misses_total",
            "Evaluations that built a fresh physical plan.",
            self.plan_cache_misses as f64,
        );
        page.counter(
            "gtpq_eval_seconds_total",
            "Engine evaluation time across cache misses.",
            self.eval_time.as_secs_f64(),
        );
        page.counter(
            "gtpq_worker_busy_seconds",
            "Busy time across intra-query morsel workers (sums over workers).",
            self.worker_busy_time.as_secs_f64(),
        );
        page.counter(
            "gtpq_morsels_total",
            "Morsels dispatched to intra-query workers.",
            self.morsels as f64,
        );
        page.gauge(
            "gtpq_morsel_queue_depth_max",
            "Deepest partition-consumer queue observed during enumeration.",
            self.max_queue_depth as f64,
        );
        page.counter(
            "gtpq_aborted_eval_seconds_total",
            "Engine time spent in runs that were ultimately aborted.",
            self.aborted_eval_time.as_secs_f64(),
        );
        page.gauge(
            "gtpq_graph_epoch",
            "Epoch of the graph generation the service answers for.",
            self.graph_epoch as f64,
        );
        page.counter(
            "gtpq_epoch_rotations_total",
            "Commits the service rotated its generation state over to.",
            self.epoch_rotations as f64,
        );
        page.counter(
            "gtpq_stale_evictions_total",
            "Cached results and plans dropped because the graph mutated.",
            self.stale_evictions as f64,
        );
        page.gauge(
            "gtpq_uptime_seconds",
            "Time since the service was created.",
            self.uptime.as_secs_f64(),
        );
        page.gauge(
            "gtpq_cache_hit_ratio",
            "Fraction of queries served from the result cache.",
            self.hit_rate(),
        );
        page.gauge(
            "gtpq_recent_qps",
            "Requests per second over the trailing window.",
            self.recent_qps,
        );
        page.gauge(
            "gtpq_recent_cache_hit_ratio",
            "Fraction of recent requests served from the result cache.",
            self.recent_hit_rate(),
        );
        page.histogram_seconds(
            "gtpq_request_latency_seconds",
            "End-to-end submit latency.",
            &[],
            &self.latency,
            LATENCY_BOUNDS_SECONDS,
        );
        page.histogram_seconds(
            "gtpq_time_to_first_row_seconds",
            "Time from the start of enumeration to the first row.",
            &[],
            &self.ttfr,
            LATENCY_BOUNDS_SECONDS,
        );
        for (stage, snap) in self.stages.iter() {
            page.histogram_seconds(
                "gtpq_stage_seconds",
                "Per-stage engine latency.",
                &[("stage", stage)],
                snap,
                LATENCY_BOUNDS_SECONDS,
            );
        }
        page.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollups_accumulate_and_rates_derive() {
        let m = ServiceMetrics::new();
        let stats = EvalStats {
            candidate_time: Duration::from_millis(2),
            prune_down_time: Duration::from_millis(3),
            result_tuples: 7,
            input_nodes: 11,
            index_hits: 9,
            scanned_nodes: 3,
            ..Default::default()
        };
        m.record_miss(&stats);
        m.record_miss(&stats);
        m.record_hit();
        m.record_batch();
        let snap = m.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.result_tuples, 14);
        assert_eq!(snap.input_nodes, 22);
        assert_eq!(snap.index_hits, 18);
        assert_eq!(snap.scanned_nodes, 6);
        assert!((snap.index_serve_rate() - 0.75).abs() < 1e-9);
        assert_eq!(snap.candidate_time, Duration::from_millis(4));
        assert_eq!(snap.eval_time, Duration::from_millis(10));
        assert_eq!(snap.mean_eval_time(), Duration::from_millis(5));
        assert!((snap.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert!(snap.qps() > 0.0);
        // The recent window saw all three requests, one of them a hit.
        assert_eq!(snap.recent_queries, 3);
        assert_eq!(snap.recent_hits, 1);
        assert!(snap.recent_qps >= 3.0, "young counter divides by its age");
        assert!((snap.recent_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
        // Stage histograms saw one sample per engine run.
        assert_eq!(snap.stages.candidates.count, 2);
        assert_eq!(snap.stages.eval.count, 2);
        assert!(snap.stages.candidates.percentile_duration(0.5) >= Duration::from_millis(2));
    }

    #[test]
    fn idle_snapshot_has_zero_rates() {
        let snap = ServiceMetrics::new().snapshot();
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(snap.index_serve_rate(), 0.0);
        assert_eq!(snap.mean_eval_time(), Duration::ZERO);
        assert_eq!(snap.plan_hit_rate(), 0.0);
        assert_eq!(snap.estimation_error(), 0.0);
        assert_eq!(snap.recent_hit_rate(), 0.0);
        assert_eq!(snap.recent_qps, 0.0);
        assert_eq!(snap.latency_percentile(0.99), Duration::ZERO);
        assert_eq!(snap.ttfr_percentile(0.5), Duration::ZERO);
    }

    #[test]
    fn mean_eval_time_survives_huge_miss_counts() {
        // The old `cache_misses as u32` cast truncated 2^32 to 0 and
        // panicked on the division; u128 arithmetic must not.
        let snap = MetricsSnapshot {
            cache_misses: 1 << 32,
            eval_time: Duration::from_secs(1 << 33),
            ..Default::default()
        };
        assert_eq!(snap.mean_eval_time(), Duration::from_secs(2));
        let uneven = MetricsSnapshot {
            cache_misses: 3,
            eval_time: Duration::from_nanos(10),
            ..Default::default()
        };
        assert_eq!(uneven.mean_eval_time(), Duration::from_nanos(3));
    }

    #[test]
    fn aborted_runs_fold_partial_stats_without_counting_as_misses() {
        let m = ServiceMetrics::new();
        let partial = EvalStats {
            candidate_time: Duration::from_millis(4),
            prune_down_time: Duration::from_millis(1),
            input_nodes: 100,
            index_lookups: 40,
            ..Default::default()
        };
        m.record_aborted(&partial);
        m.record_timeout();
        let snap = m.snapshot();
        assert_eq!(snap.aborted, 1);
        assert_eq!(snap.aborted_eval_time, Duration::from_millis(5));
        assert_eq!(snap.queries, 0, "no answer was produced");
        assert_eq!(snap.cache_misses, 0);
        assert_eq!(snap.eval_time, Duration::ZERO);
        // The partial work is visible in the stage rollups and histograms.
        assert_eq!(snap.candidate_time, Duration::from_millis(4));
        assert_eq!(snap.prune_down_time, Duration::from_millis(1));
        assert_eq!(snap.input_nodes, 100);
        assert_eq!(snap.index_lookups, 40);
        assert_eq!(snap.stages.candidates.count, 1);
        assert_eq!(snap.recent_queries, 1, "aborted requests count as load");
    }

    #[test]
    fn latency_and_ttfr_histograms_expose_percentiles() {
        let m = ServiceMetrics::new();
        for ms in [1u64, 2, 4, 8, 100] {
            m.record_latency(Duration::from_millis(ms));
        }
        let run = EvalStats {
            time_to_first_row: Duration::from_micros(300),
            result_tuples: 1,
            ..Default::default()
        };
        m.record_miss(&run);
        m.record_miss(&EvalStats::default()); // empty answer: no TTFR sample
        let snap = m.snapshot();
        assert_eq!(snap.latency.count, 5);
        assert!(snap.latency_percentile(0.5) >= Duration::from_millis(4));
        assert!(snap.latency_percentile(0.99) >= Duration::from_millis(100));
        assert!(snap.latency_percentile(0.5) <= snap.latency_percentile(0.999));
        assert_eq!(snap.ttfr.count, 1, "zero TTFR (empty answer) not sampled");
        assert!(snap.ttfr_percentile(0.5) >= Duration::from_micros(300));
    }

    #[test]
    fn prometheus_page_contains_counters_gauges_and_histograms() {
        let m = ServiceMetrics::new();
        m.record_miss(&EvalStats {
            result_tuples: 3,
            time_to_first_row: Duration::from_micros(50),
            ..Default::default()
        });
        m.record_hit();
        m.record_latency(Duration::from_millis(2));
        let page = m.snapshot().render_prometheus();
        assert!(page.contains("# TYPE gtpq_queries_total counter"));
        assert!(page.contains("gtpq_queries_total 2"));
        assert!(page.contains("gtpq_result_tuples_total 3"));
        assert!(page.contains("# TYPE gtpq_request_latency_seconds histogram"));
        assert!(page.contains("gtpq_request_latency_seconds_count 1"));
        assert!(page.contains("gtpq_stage_seconds_bucket{stage=\"candidates\",le=\"+Inf\"} 1"));
        assert!(page.contains("# TYPE gtpq_recent_qps gauge"));
        // One header per family even with six stage label sets.
        assert_eq!(
            page.matches("# TYPE gtpq_stage_seconds histogram").count(),
            1
        );
    }

    #[test]
    fn concurrent_recording_stays_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering as AtomOrd};
        use std::sync::Arc;

        const THREADS: usize = 4;
        const PER_THREAD: u64 = 500;
        let m = Arc::new(ServiceMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));

        // One thread snapshots continuously while the others hammer the
        // recorders; every intermediate snapshot must be monotone.
        let observer = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = m.snapshot();
                while !stop.load(AtomOrd::Relaxed) {
                    let snap = m.snapshot();
                    assert!(snap.queries >= last.queries);
                    assert!(snap.cache_hits >= last.cache_hits);
                    assert!(snap.cache_misses >= last.cache_misses);
                    assert!(snap.latency.count >= last.latency.count);
                    assert!(snap.stages.eval.count >= last.stages.eval.count);
                    assert!(snap.eval_time >= last.eval_time);
                    last = snap;
                }
            })
        };
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let stats = EvalStats {
                        candidate_time: Duration::from_micros(10),
                        result_tuples: 1,
                        time_to_first_row: Duration::from_micros(5),
                        ..Default::default()
                    };
                    for i in 0..PER_THREAD {
                        if (i + t as u64).is_multiple_of(3) {
                            m.record_hit();
                        } else {
                            m.record_miss(&stats);
                        }
                        m.record_latency(Duration::from_micros(i + 1));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, AtomOrd::Relaxed);
        observer.join().unwrap();

        let total = THREADS as u64 * PER_THREAD;
        let snap = m.snapshot();
        assert_eq!(snap.queries, total);
        assert_eq!(snap.queries, snap.cache_hits + snap.cache_misses);
        // Histogram totals equal the recorded counts exactly.
        assert_eq!(snap.latency.count, total);
        assert_eq!(snap.stages.eval.count, snap.cache_misses);
        assert_eq!(snap.ttfr.count, snap.cache_misses);
        let bucket_sum: u64 = snap.latency.nonzero_buckets().map(|(_, c)| c).sum();
        assert_eq!(bucket_sum, total);
    }

    #[test]
    fn parallel_worker_metrics_roll_up() {
        let m = ServiceMetrics::new();
        m.record_miss(&EvalStats {
            candidate_time: Duration::from_millis(10),
            parallel_workers: 4,
            worker_busy_time: Duration::from_millis(30),
            morsels_dispatched: 12,
            max_queue_depth: 5,
            ..Default::default()
        });
        // Aborted runs fold their partial parallel work too.
        m.record_aborted(&EvalStats {
            worker_busy_time: Duration::from_millis(10),
            morsels_dispatched: 3,
            max_queue_depth: 2,
            ..Default::default()
        });
        let snap = m.snapshot();
        assert_eq!(snap.worker_busy_time, Duration::from_millis(40));
        assert_eq!(snap.morsels, 15);
        assert_eq!(snap.max_queue_depth, 5, "high-water mark, not a sum");
        assert!(
            snap.worker_utilization() > 1.0,
            "busy time exceeds engine time"
        );
        let page = snap.render_prometheus();
        assert!(page.contains("# TYPE gtpq_worker_busy_seconds counter"));
        assert!(page.contains("gtpq_morsels_total 15"));
        assert!(page.contains("# TYPE gtpq_morsel_queue_depth_max gauge"));
        assert!(page.contains("gtpq_morsel_queue_depth_max 5"));
    }

    #[test]
    fn epoch_metrics_roll_up_and_render() {
        let m = ServiceMetrics::new();
        m.set_graph_epoch(3);
        m.record_rotation(4, 2);
        m.record_rotation(6, 0);
        let snap = m.snapshot();
        assert_eq!(snap.graph_epoch, 6);
        assert_eq!(snap.epoch_rotations, 2);
        assert_eq!(snap.stale_evictions, 2);
        // The gauge is monotone: a racing report of an older epoch is a no-op.
        m.set_graph_epoch(5);
        assert_eq!(m.snapshot().graph_epoch, 6);
        let page = snap.render_prometheus();
        assert!(page.contains("# TYPE gtpq_graph_epoch gauge"));
        assert!(page.contains("gtpq_graph_epoch 6"));
        assert!(page.contains("# TYPE gtpq_epoch_rotations_total counter"));
        assert!(page.contains("gtpq_epoch_rotations_total 2"));
        assert!(page.contains("# TYPE gtpq_stale_evictions_total counter"));
        assert!(page.contains("gtpq_stale_evictions_total 2"));
    }

    #[test]
    fn sim_metrics_roll_up_and_render() {
        let m = ServiceMetrics::new();
        m.record_miss(&EvalStats {
            sim_pivot_filtered: 90,
            sim_verified: 10,
            ..Default::default()
        });
        // Aborted runs keep their partial sim work too.
        m.record_aborted(&EvalStats {
            sim_pivot_filtered: 10,
            sim_verified: 10,
            ..Default::default()
        });
        let snap = m.snapshot();
        assert_eq!(snap.sim_pivot_filtered, 100);
        assert_eq!(snap.sim_verified, 20);
        assert!((snap.sim_filter_selectivity() - 100.0 / 120.0).abs() < 1e-9);
        assert_eq!(
            ServiceMetrics::new().snapshot().sim_filter_selectivity(),
            0.0
        );
        let page = snap.render_prometheus();
        assert!(page.contains("# TYPE gtpq_sim_pivot_filtered_total counter"));
        assert!(page.contains("gtpq_sim_pivot_filtered_total 100"));
        assert!(page.contains("# TYPE gtpq_sim_verified_total counter"));
        assert!(page.contains("gtpq_sim_verified_total 20"));
        assert!(page.contains("# TYPE gtpq_sim_filter_selectivity gauge"));
    }

    #[test]
    fn plan_metrics_roll_up() {
        use gtpq_core::OperatorStats;
        let m = ServiceMetrics::new();
        m.record_plan_miss();
        m.record_plan_hit();
        m.record_plan_hit();
        let stats = EvalStats {
            plan_time: Duration::from_millis(2),
            operators: vec![
                OperatorStats {
                    label: "IndexScan u0".into(),
                    estimated_rows: 12,
                    actual_rows: 8,
                    time: Duration::from_millis(1),
                },
                OperatorStats {
                    label: "Collect".into(),
                    estimated_rows: 4,
                    actual_rows: 4,
                    time: Duration::from_millis(1),
                },
            ],
            ..Default::default()
        };
        m.record_miss(&stats);
        let snap = m.snapshot();
        assert_eq!(snap.plan_cache_hits, 2);
        assert_eq!(snap.plan_cache_misses, 1);
        assert!((snap.plan_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(snap.plan_time, Duration::from_millis(2));
        assert_eq!(snap.estimated_rows, 16);
        assert_eq!(snap.actual_rows, 12);
        assert_eq!(snap.estimation_error_rows, 4);
        assert!((snap.estimation_error() - 4.0 / 12.0).abs() < 1e-9);
        // Opposite-signed errors accumulate instead of canceling.
        let canceling = EvalStats {
            operators: vec![
                OperatorStats {
                    label: "a".into(),
                    estimated_rows: 100,
                    actual_rows: 10,
                    time: Duration::ZERO,
                },
                OperatorStats {
                    label: "b".into(),
                    estimated_rows: 10,
                    actual_rows: 100,
                    time: Duration::ZERO,
                },
            ],
            ..Default::default()
        };
        m.record_miss(&canceling);
        let snap = m.snapshot();
        assert_eq!(snap.estimated_rows, snap.actual_rows + 4);
        assert_eq!(snap.estimation_error_rows, 4 + 180);
        assert!(
            snap.estimation_error() > 1.0,
            "10x-wrong model must not read 0%"
        );
    }
}
