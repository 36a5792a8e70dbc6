//! Aggregate service metrics: QPS, cache hit rate, engine rollups,
//! latency/TTFR/stage histograms, windowed recent rates, and a Prometheus
//! text-format encoder.
//!
//! Every counter is **one row of the `counters!` table** below: its
//! atomic, its [`MetricsSnapshot`] field, how an engine run's [`EvalStats`]
//! folds into it, its Prometheus family and (through the scrape page) its
//! line in `docs/OBSERVABILITY.md` all expand from that row.
//!
//! All counters are relaxed atomics and the histograms are lock-free
//! ([`gtpq_obs::LogHistogram`]), so the hot path never takes a lock; a
//! [`MetricsSnapshot`] is a consistent-enough point-in-time copy for
//! dashboards and tests (individual counters may be skewed by in-flight
//! queries, which is the usual contract for service counters).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use gtpq_core::EvalStats;
use gtpq_obs::{
    HistogramSnapshot, LogHistogram, PromText, WindowedCounter, LATENCY_BOUNDS_SECONDS,
};

/// Trailing window of the `recent_*` rates (QPS and hit rate "right now"
/// rather than since process start).
pub(crate) const RECENT_WINDOW: Duration = Duration::from_secs(30);

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
    pub(crate) eval: HistogramSnapshot,
}

impl StageHistograms {
    /// `(stage name, histogram)` pairs in pipeline order — the iteration
    /// the Prometheus encoder and the CLI's `:metrics` share.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, &HistogramSnapshot)> {
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

/// Which engine runs feed an [`EvalStats`]-projected counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fed {
    /// Completed runs only ([`ServiceMetrics::record_miss`]).
    Miss,
    /// Aborted runs only ([`ServiceMetrics::record_aborted`]).
    Aborted,
    /// Both: the partial work of an aborted run still counts.
    EveryRun,
}

/// Expands the counter table.  A stored row reads
/// `field: unit, kind "family", "help" [<- Fed |stats| projection] [=> recorder];`
/// where `unit` is `count` (a `u64`) or `nanos` (a `Duration`: nanoseconds
/// stored, seconds scraped), `kind` is `counter` or `gauge` (the [`PromText`]
/// method of that name) and `help` is both `# HELP` text and field doc.  A
/// row fed from the engine names the runs that feed it and the projection
/// added to it per run; a plain service event names the `record_*` method
/// to generate, or has a hand-written one below.  A derived row is a gauge
/// computed per snapshot.
macro_rules! counters {
    (@ty count) => { u64 };
    (@ty nanos) => { Duration };
    (@load count $raw:expr) => { $raw };
    (@load nanos $raw:expr) => { Duration::from_nanos($raw) };
    (@raw count $value:expr) => { $value };
    (@raw nanos $value:expr) => { $value.as_nanos() as u64 };
    (@scrape count $value:expr) => { $value as f64 };
    (@scrape nanos $value:expr) => { $value.as_secs_f64() };
    (stored { $($id:ident: $unit:ident, $kind:ident $family:literal, $help:literal
        $(<- $fed:ident |$s:ident| $proj:expr)? $(=> $recorder:ident)?;)* }
     derived { $($gauge:literal, $ghelp:literal, |$m:ident| $value:expr;)* }) => {
        #[derive(Debug, Default)]
        struct Counters {
            $($id: AtomicU64,)*
        }

        impl Counters {
            /// Folds one engine run into every [`EvalStats`]-fed row that
            /// covers `run` ([`Fed::Miss`] or [`Fed::Aborted`]).
            #[inline]
            fn fold(&self, stats: &EvalStats, run: Fed) {
                $($(if Fed::$fed == Fed::EveryRun || Fed::$fed == run {
                    let $s = stats;
                    self.$id.fetch_add(counters!(@raw $unit $proj), Relaxed);
                })?)*
            }
        }

        /// Point-in-time copy of the service counters, with derived rates,
        /// latency/TTFR/stage histograms and a Prometheus text encoder.
        #[derive(Clone, Debug, Default)]
        pub struct MetricsSnapshot {
            /// Time since the service was created.
            pub(crate) uptime: Duration,
            $(#[doc = $help] pub $id: counters!(@ty $unit),)*
            /// End-to-end `submit` latency histogram (every request: hits,
            /// misses, timeouts, cancellations).
            pub latency: HistogramSnapshot,
            /// Time-to-first-row histogram across engine runs that produced
            /// at least one row — the streaming-latency headline.
            pub ttfr: HistogramSnapshot,
            /// Per-stage latency histograms across engine runs (aborted runs
            /// included, with whatever stages they completed).
            pub stages: StageHistograms,
            /// Window the `recent_*` figures cover.
            pub recent_window: Duration,
            /// Requests observed within the trailing window.
            pub(crate) recent_queries: u64,
            /// Cache hits observed within the trailing window.
            pub(crate) recent_hits: u64,
            /// Requests per second over the trailing window (young services
            /// divide by their age instead, so early rates are not
            /// under-reported).
            pub recent_qps: f64,
        }

        impl MetricsSnapshot {
            /// One scrape-page family per table row, in table order.
            fn render_counters(&self, page: &mut PromText) {
                $(page.$kind($family, $help, counters!(@scrape $unit self.$id));)*
                $(let $m = self;
                page.gauge($gauge, $ghelp, $value);)*
            }
        }

        impl ServiceMetrics {
            $($(pub(crate) fn $recorder(&self) {
                self.counters.$id.fetch_add(1, Relaxed);
            })?)*

            pub(crate) fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    uptime: self.started.elapsed(),
                    $($id: counters!(@load $unit self.counters.$id.load(Relaxed)),)*
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
    };
}

counters! {
  stored {
    queries: count, counter "gtpq_queries_total", "Queries answered (cache hits + engine runs).";
    cache_hits: count, counter "gtpq_cache_hits_total", "Queries answered from the result cache.";
    cache_misses: count, counter "gtpq_cache_misses_total", "Queries that ran the engine.";
    timed_out: count, counter "gtpq_timeouts_total",
        "Requests aborted because their deadline passed." => record_timeout;
    cancelled: count, counter "gtpq_cancelled_total",
        "Requests aborted through their cancellation token." => record_cancelled;
    aborted: count, counter "gtpq_aborted_runs_total",
        "Engine runs aborted mid-evaluation (timeout or cancellation); the stages they \
         completed still fold into the engine rollups and stage histograms.";
    rows_truncated: count, counter "gtpq_rows_truncated_total",
        "Outcomes whose row window was cut short by a `limit`." => record_truncated;
    result_tuples: count, counter "gtpq_result_tuples_total",
        "Result tuples produced by engine runs." <- Miss |s| s.result_tuples;
    enumerated_rows: count, counter "gtpq_enumerated_rows_total",
        "Rows pulled from the streaming enumerator, offset-skipped and look-ahead rows included \
         (against `result_tuples`: what limit pushdown avoided)."
        <- EveryRun |s| s.enumerated_rows;
    input_nodes: count, counter "gtpq_input_nodes_total",
        "Data-node accesses across engine runs (`#input`, Fig. 10)."
        <- EveryRun |s| s.input_nodes;
    index_lookups: count, counter "gtpq_index_lookups_total",
        "Reachability lookups across engine runs (`#index`, Fig. 10): the condensation edges each \
         prune sweep and matching-graph pass visited and the adjacency entries PC edges read; the \
         pairwise arm's point probes read the condensation and count nothing."
        <- EveryRun |s| s.index_lookups;
    index_hits: count, counter "gtpq_index_hits_total",
        "Candidates served straight from the attribute inverted index."
        <- EveryRun |s| s.index_hits;
    scanned_nodes: count, counter "gtpq_scanned_nodes_total",
        "Nodes individually verified during candidate selection (what the index could not serve)."
        <- EveryRun |s| s.scanned_nodes;
    sim_pivot_filtered: count, counter "gtpq_sim_pivot_filtered_total",
        "Sim-indexed vectors discarded by the pivot filter (exact distance computations avoided)."
        <- EveryRun |s| s.sim_pivot_filtered;
    sim_verified: count, counter "gtpq_sim_verified_total",
        "Sim-indexed vectors verified with an exact distance or cosine computation."
        <- EveryRun |s| s.sim_verified;
    plan_cache_hits: count, counter "gtpq_plan_cache_hits_total",
        "Evaluations that reused a cached physical plan." => record_plan_hit;
    plan_cache_misses: count, counter "gtpq_plan_cache_misses_total",
        "Evaluations that built a fresh physical plan." => record_plan_miss;
    plan_time: nanos, counter "gtpq_plan_seconds_total",
        "Planning time across engine runs (zero for plan-cache hits)."
        <- Miss |s| s.plan_time;
    estimated_rows: count, counter "gtpq_estimated_rows_total",
        "Sum of the candidate-selection operators' row estimates across engine runs."
        <- Miss |s| s.estimated_rows();
    actual_rows: count, counter "gtpq_actual_rows_total",
        "Sum of the rows those candidate-selection operators actually produced."
        <- Miss |s| s.actual_rows();
    estimation_error_rows: count, counter "gtpq_estimation_error_rows_total",
        "Sum of per-operator absolute estimation errors (over- and under-estimates cannot cancel)."
        <- Miss |s| s.absolute_estimation_error();
    eval_time: nanos, counter "gtpq_eval_seconds_total",
        "Engine evaluation time across cache misses (summed over queries, not wall clock)."
        <- Miss |s| s.total_time();
    aborted_eval_time: nanos, counter "gtpq_aborted_eval_seconds_total",
        "Engine time spent in runs that were ultimately aborted (invisible in `eval_time`)."
        <- Aborted |s| s.total_time();
    graph_epoch: count, gauge "gtpq_graph_epoch",
        "Epoch of the graph generation the service answers for (0 on a frozen graph).";
    epoch_rotations: count, counter "gtpq_epoch_rotations_total",
        "Commits the service rotated its generation state over to.";
    stale_evictions: count, counter "gtpq_stale_evictions_total",
        "Cached results and plans dropped because the graph mutated.";
  }
  derived {
    "gtpq_sim_filter_selectivity",
        "Fraction of sim-indexed vectors the pivot filter discarded without verification.",
        |m| m.sim_filter_selectivity();
    "gtpq_uptime_seconds", "Time since the service was created.", |m| m.uptime.as_secs_f64();
    "gtpq_cache_hit_ratio", "Fraction of queries served from the result cache.", |m| m.hit_rate();
    "gtpq_recent_qps", "Requests per second over the trailing window.", |m| m.recent_qps;
    "gtpq_recent_cache_hit_ratio", "Fraction of recent requests served from the result cache.",
        |m| m.recent_hit_rate();
  }
}

/// Internal atomic counters of a [`QueryService`](crate::QueryService).
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    started: Instant,
    counters: Counters,
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
            counters: Counters::default(),
            latency_hist: LogHistogram::new(),
            ttfr_hist: LogHistogram::new(),
            stage_hists: StageHists::default(),
            recent_queries: WindowedCounter::new(),
            recent_hits: WindowedCounter::new(),
        }
    }

    /// Observes the end-to-end `submit` latency of one request (every exit
    /// path: hit, miss, timeout, cancellation).
    pub(crate) fn record_latency(&self, latency: Duration) {
        self.latency_hist.record_duration(latency);
    }

    pub(crate) fn record_hit(&self) {
        self.counters.queries.fetch_add(1, Relaxed);
        self.counters.cache_hits.fetch_add(1, Relaxed);
        self.recent_queries.record();
        self.recent_hits.record();
    }

    pub(crate) fn record_miss(&self, stats: &EvalStats) {
        self.counters.queries.fetch_add(1, Relaxed);
        self.counters.cache_misses.fetch_add(1, Relaxed);
        if stats.time_to_first_row > Duration::ZERO {
            self.ttfr_hist.record_duration(stats.time_to_first_row);
        }
        self.record_run(stats, Fed::Miss);
    }

    /// Folds the *partial* statistics of an evaluation that was aborted by
    /// deadline or cancellation.  The [`Fed::EveryRun`] rows and the stage
    /// histograms keep the work that was done; the run is counted under
    /// `aborted` (with its engine time under `aborted_eval_time`) rather
    /// than as a query/cache miss, since no answer was produced.
    pub(crate) fn record_aborted(&self, stats: &EvalStats) {
        self.counters.aborted.fetch_add(1, Relaxed);
        self.record_run(stats, Fed::Aborted);
    }

    /// What complete and aborted runs share: load, table rows, stage histograms.
    fn record_run(&self, stats: &EvalStats, run: Fed) {
        self.recent_queries.record();
        self.counters.fold(stats, run);
        self.stage_hists.observe(stats);
    }

    /// Sets the graph-epoch gauge without counting a rotation (used at
    /// service construction, where the handle may already carry commits).
    pub(crate) fn set_graph_epoch(&self, epoch: u64) {
        self.counters.graph_epoch.fetch_max(epoch, Relaxed);
    }

    /// Records one epoch rotation: the gauge advances to the new epoch
    /// (monotonically — concurrent rotations cannot walk it backwards) and
    /// the entries dropped from the result/plan caches are counted as stale
    /// evictions.
    pub(crate) fn record_rotation(&self, epoch: u64, evicted: u64) {
        self.set_graph_epoch(epoch);
        self.counters.epoch_rotations.fetch_add(1, Relaxed);
        self.counters.stale_evictions.fetch_add(evicted, Relaxed);
    }
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

    /// Fraction of sim-indexed vectors the pivot filter discarded without an
    /// exact distance computation across engine runs (0.0 when no `sim(...)`
    /// predicate ran).
    pub(crate) fn sim_filter_selectivity(&self) -> f64 {
        gtpq_core::stats::serve_rate(self.sim_pivot_filtered, self.sim_verified)
    }

    /// Aggregate cardinality-estimation error of the cost model: the sum of
    /// per-operator `|estimated − actual|` over the sum of actual rows
    /// (0.0 = estimates exactly matched the executed cardinalities; errors
    /// are accumulated per operator, so an over-estimate cannot cancel an
    /// under-estimate).
    pub fn estimation_error(&self) -> f64 {
        self.estimation_error_rows as f64 / self.actual_rows.max(1) as f64
    }

    /// Renders the snapshot as a Prometheus text-format (0.0.4) scrape page:
    /// one family per `counters!` row, then the latency, TTFR and per-stage
    /// histograms in seconds.
    pub fn render_prometheus(&self) -> String {
        let mut page = PromText::new();
        self.render_counters(&mut page);
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
                "Per-stage engine latency; `enumerate` is wall time from the first pull to the last, including the collector's copy of each row.",
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
    use gtpq_core::{Operator, OperatorStats};
    use gtpq_obs::prom::valid_metric_name;
    use gtpq_query::QueryNodeId;

    use super::*;

    /// `(family, kind)` of every `# TYPE` line, in page order.
    fn families(page: &str) -> Vec<(&str, &str)> {
        page.lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|rest| rest.split_once(' ').expect("TYPE lines carry a kind"))
            .collect()
    }

    /// The value of an unlabelled counter or gauge family.
    fn sample(page: &str, family: &str) -> f64 {
        let mut lines = page
            .lines()
            .filter_map(|l| l.strip_prefix(family)?.strip_prefix(' '));
        let value = lines
            .next()
            .unwrap_or_else(|| panic!("no sample of {family}"));
        assert_eq!(lines.next(), None, "{family} has more than one sample");
        value.parse().expect("sample values are numbers")
    }

    /// A run with every projected `EvalStats` field set, each to its own value.
    fn busy_run() -> EvalStats {
        EvalStats {
            input_nodes: 11,
            index_lookups: 12,
            index_hits: 13,
            scanned_nodes: 14,
            sim_pivot_filtered: 15,
            sim_verified: 16,
            result_tuples: 17,
            enumerated_rows: 18,
            candidate_time: Duration::from_millis(1),
            prune_down_time: Duration::from_millis(2),
            prune_up_time: Duration::from_millis(3),
            matching_graph_time: Duration::from_millis(4),
            enumerate_time: Duration::from_millis(5),
            plan_time: Duration::from_millis(6),
            time_to_first_row: Duration::from_micros(7),
            operators: vec![OperatorStats {
                label: Operator::IndexScan(QueryNodeId(0)),
                estimated_rows: Some(30),
                actual_rows: 20,
                time: Duration::from_millis(1),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn every_table_row_is_one_valid_family_on_a_real_page() {
        let m = ServiceMetrics::new();
        m.record_miss(&busy_run());
        m.record_hit();
        m.record_latency(Duration::from_millis(2));
        let page = m.snapshot().render_prometheus();
        let families = families(&page);
        // 26 stored rows + 5 derived gauges + 3 histogram families.
        assert_eq!(families.len(), 34, "{families:?}");
        for (i, (family, kind)) in families.iter().enumerate() {
            assert!(valid_metric_name(family), "{family}");
            assert!(
                !families[..i].iter().any(|(earlier, _)| earlier == family),
                "{family} is declared twice"
            );
            match *kind {
                "counter" => assert!(family.ends_with("_total"), "counter {family}"),
                "gauge" => assert!(!family.ends_with("_total"), "gauge {family}"),
                "histogram" => continue,
                other => panic!("{family} has unknown kind {other}"),
            }
            assert!(sample(&page, family).is_finite());
        }
    }

    #[test]
    fn engine_fed_rows_fold_complete_and_aborted_runs_as_pinned() {
        // (family, value after one `record_miss`, after one `record_aborted`)
        // of the same run — every stored row, so a new row has to say here
        // what feeds it.  An aborted run keeps its partial work but counts
        // under `aborted` / `aborted_eval_time`, never as a query or a miss.
        let pinned: [(&str, f64, f64); 26] = [
            ("gtpq_queries_total", 1.0, 0.0),
            ("gtpq_cache_hits_total", 0.0, 0.0),
            ("gtpq_cache_misses_total", 1.0, 0.0),
            ("gtpq_timeouts_total", 0.0, 0.0),
            ("gtpq_cancelled_total", 0.0, 0.0),
            ("gtpq_aborted_runs_total", 0.0, 1.0),
            ("gtpq_rows_truncated_total", 0.0, 0.0),
            ("gtpq_result_tuples_total", 17.0, 0.0),
            ("gtpq_enumerated_rows_total", 18.0, 18.0),
            ("gtpq_input_nodes_total", 11.0, 11.0),
            ("gtpq_index_lookups_total", 12.0, 12.0),
            ("gtpq_index_hits_total", 13.0, 13.0),
            ("gtpq_scanned_nodes_total", 14.0, 14.0),
            ("gtpq_sim_pivot_filtered_total", 15.0, 15.0),
            ("gtpq_sim_verified_total", 16.0, 16.0),
            ("gtpq_plan_cache_hits_total", 0.0, 0.0),
            ("gtpq_plan_cache_misses_total", 0.0, 0.0),
            ("gtpq_plan_seconds_total", 0.006, 0.0),
            ("gtpq_estimated_rows_total", 30.0, 0.0),
            ("gtpq_actual_rows_total", 20.0, 0.0),
            ("gtpq_estimation_error_rows_total", 10.0, 0.0),
            ("gtpq_eval_seconds_total", 0.021, 0.0),
            ("gtpq_aborted_eval_seconds_total", 0.0, 0.021),
            ("gtpq_graph_epoch", 0.0, 0.0),
            ("gtpq_epoch_rotations_total", 0.0, 0.0),
            ("gtpq_stale_evictions_total", 0.0, 0.0),
        ];
        let (complete, aborted) = (ServiceMetrics::new(), ServiceMetrics::new());
        complete.record_miss(&busy_run());
        aborted.record_aborted(&busy_run());
        let (complete, aborted) = (complete.snapshot(), aborted.snapshot());
        let (miss_page, abort_page) = (complete.render_prometheus(), aborted.render_prometheus());
        for ((family, _), (pin, after_miss, after_abort)) in families(&miss_page).iter().zip(pinned)
        {
            assert_eq!(*family, pin, "stored rows render first, in table order");
            assert!(
                (sample(&miss_page, pin) - after_miss).abs() < 1e-12,
                "{pin} after a miss"
            );
            assert!(
                (sample(&abort_page, pin) - after_abort).abs() < 1e-12,
                "{pin} after an abort"
            );
        }
        // Both kinds of run are load and reach the stage histograms; only a
        // complete run has a first row.
        for snap in [&complete, &aborted] {
            assert_eq!(snap.recent_queries, 1);
            assert_eq!(snap.stages.eval.count, 1);
            assert_eq!(snap.stages.eval.sum_duration(), Duration::from_millis(21));
            assert_eq!(
                snap.stages.prune_up.sum_duration(),
                Duration::from_millis(3)
            );
        }
        assert_eq!((complete.ttfr.count, aborted.ttfr.count), (1, 0));
    }

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
        let snap = m.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.result_tuples, 14);
        assert_eq!(snap.input_nodes, 22);
        assert_eq!(snap.index_hits, 18);
        assert_eq!(snap.scanned_nodes, 6);
        assert_eq!(
            snap.stages.candidates.sum_duration(),
            Duration::from_millis(4)
        );
        assert_eq!(snap.eval_time, Duration::from_millis(10));
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
        assert_eq!(snap.estimation_error(), 0.0);
        assert_eq!(snap.recent_hit_rate(), 0.0);
        assert_eq!(snap.recent_qps, 0.0);
        assert_eq!(snap.latency_percentile(0.99), Duration::ZERO);
        assert_eq!(snap.ttfr_percentile(0.5), Duration::ZERO);
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
        assert_eq!(sample(&page, "gtpq_graph_epoch"), 6.0);
        assert_eq!(sample(&page, "gtpq_epoch_rotations_total"), 2.0);
        assert_eq!(sample(&page, "gtpq_stale_evictions_total"), 2.0);
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
        assert!((sample(&page, "gtpq_sim_filter_selectivity") - 100.0 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn plan_metrics_roll_up() {
        let m = ServiceMetrics::new();
        m.record_plan_miss();
        m.record_plan_hit();
        m.record_plan_hit();
        let stats = EvalStats {
            plan_time: Duration::from_millis(2),
            operators: vec![
                OperatorStats {
                    label: Operator::IndexScan(QueryNodeId(0)),
                    estimated_rows: Some(12),
                    actual_rows: 8,
                    time: Duration::from_millis(1),
                },
                OperatorStats {
                    label: Operator::PivotScan(QueryNodeId(1)),
                    estimated_rows: Some(4),
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
        assert_eq!(snap.plan_time, Duration::from_millis(2));
        assert_eq!(snap.estimated_rows, 16);
        assert_eq!(snap.actual_rows, 12);
        assert_eq!(snap.estimation_error_rows, 4);
        assert!((snap.estimation_error() - 4.0 / 12.0).abs() < 1e-9);
        // Opposite-signed errors accumulate instead of canceling.
        let canceling = EvalStats {
            operators: vec![
                OperatorStats {
                    label: Operator::IndexScan(QueryNodeId(0)),
                    estimated_rows: Some(100),
                    actual_rows: 10,
                    time: Duration::ZERO,
                },
                OperatorStats {
                    label: Operator::IndexScan(QueryNodeId(1)),
                    estimated_rows: Some(10),
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
