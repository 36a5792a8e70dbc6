//! `QueryService::submit` re-enacted through the layers' public functions,
//! with a span around every call.
//!
//! The service has no span sites the benchmark could switch on without
//! touching `crates/`, so the traced pass walks each request through the
//! same calls in the same order — parse, satisfiability, canonicalize,
//! result-cache lookup, plan (through a plan cache), backend resolution,
//! candidates, both prune rounds, matching graph, enumeration, cache insert
//! — against its *own* caches and indexes, mirroring what `submit` keeps per
//! epoch.  [`crate::trace`] then checks the re-enactment against `submit`
//! itself: equal rows, equal exact counts, and wall time within a few
//! percent.  If `submit` changes shape, this file must follow, and that
//! check is what says so.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gtpq_analysis::is_satisfiable;
use gtpq_core::matching::MatchingGraph;
use gtpq_core::plan::execute_candidates;
use gtpq_core::prime::{PrimeSubtree, ShrunkPrime};
use gtpq_core::prune::{prune_downward, prune_upward};
use gtpq_core::{
    EvalStats, ExecCtl, GteaOptions, MatchStream, Planner, QueryPlan, StreamSource, Tracer,
};
use gtpq_graph::{DataGraph, GraphHandle, GraphSnapshot, NodeId};
use gtpq_query::{parse_query, Gtpq, ResultSet};
use gtpq_reach::{
    build_selected_with, BackendKind, GraphProfile, Probe, Reachability, SharedIndex,
};
use gtpq_service::cache::PlanCache;
use gtpq_service::{canonicalize, ResultCache, ServiceConfig};

thread_local! {
    /// The tracer [`LazyBackend`] reports its build to.  A `Reachability`
    /// must be `Send + Sync` and the tracer is neither, so the backend
    /// cannot hold it; the replay is single-threaded, so the thread finds it.
    static BUILD_TRACER: RefCell<Tracer> = RefCell::new(Tracer::disabled());
}

/// A pinned backend built on its first reachability probe, as the service's
/// private `LazyIndex` does it: name and lookup count never force the build.
struct LazyBackend {
    kind: BackendKind,
    snapshot: Arc<GraphSnapshot>,
    built: OnceLock<SharedIndex>,
}

impl LazyBackend {
    fn force(&self) -> &SharedIndex {
        self.built.get_or_init(|| {
            let _span = BUILD_TRACER.with(|t| t.borrow().span("reach.build"));
            self.kind
                .build_shared_with(self.snapshot.graph(), self.snapshot.condensation())
        })
    }
}

impl Reachability for LazyBackend {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.force().reaches(u, v)
    }
    fn index_entries(&self) -> usize {
        self.force().index_entries()
    }
    fn name(&self) -> &'static str {
        self.kind.as_str()
    }
    fn lookup_count(&self) -> u64 {
        self.built.get().map_or(0, |index| index.lookup_count())
    }
    fn reset_lookups(&self) {
        if let Some(index) = self.built.get() {
            index.reset_lookups();
        }
    }
    fn pred_probe<'s>(&'s self, targets: &[NodeId]) -> Probe<'s> {
        self.force().pred_probe(targets)
    }
    fn succ_probe<'s>(&'s self, sources: &[NodeId]) -> Probe<'s> {
        self.force().succ_probe(sources)
    }
    fn source_probe<'s>(&'s self, source: NodeId) -> Probe<'s> {
        self.force().source_probe(source)
    }
}

/// What `submit` keeps per graph generation.
struct Epoch {
    snapshot: Arc<GraphSnapshot>,
    index: SharedIndex,
    profile: GraphProfile,
    catalog: HashMap<BackendKind, SharedIndex>,
}

impl Epoch {
    /// `EpochState::build`: a pinned backend is deferred to its first
    /// probe, auto-selection profiles the graph and builds eagerly.
    fn build(tracer: &Tracer, snapshot: Arc<GraphSnapshot>, pinned: Option<BackendKind>) -> Self {
        let (g, cond) = (snapshot.graph(), snapshot.condensation());
        let (index, kind, profile): (SharedIndex, _, _) = match pinned {
            Some(kind) => (
                Arc::new(LazyBackend {
                    kind,
                    snapshot: Arc::clone(&snapshot),
                    built: OnceLock::new(),
                }),
                kind,
                GraphProfile::compute_with(g, cond),
            ),
            None => {
                let _span = tracer.span("reach.build");
                let (index, selection) = build_selected_with(g, cond);
                (index, selection.kind, selection.profile)
            }
        };
        let catalog = HashMap::from([(kind, Arc::clone(&index))]);
        Self {
            snapshot,
            index,
            profile,
            catalog,
        }
    }
}

/// The answer of one replayed request and the counts behind it.
pub struct Replayed {
    pub rows: Arc<ResultSet>,
    pub from_cache: bool,
    pub stats: EvalStats,
    /// Candidates of the prime subtree going into the upward round (the
    /// base of its survivor ratio; `EvalStats` only has what came out).
    pub prime_candidates: u64,
    /// Start of enumeration to the first row.
    pub first_row: Duration,
    /// Whether the limit cut enumeration short.
    pub truncated: bool,
}

/// The replayed service: one epoch's state plus the two caches.
pub struct Replay {
    tracer: Tracer,
    config: ServiceConfig,
    live: Option<Arc<GraphHandle>>,
    epoch: Epoch,
    results: ResultCache,
    plans: PlanCache,
}

impl Replay {
    /// `QueryService::from_source`, under a `service.new` span.
    fn from_snapshot(
        tracer: &Tracer,
        snapshot: Arc<GraphSnapshot>,
        live: Option<Arc<GraphHandle>>,
        config: ServiceConfig,
    ) -> Self {
        BUILD_TRACER.with(|t| *t.borrow_mut() = tracer.clone());
        let epoch = Epoch::build(tracer, snapshot, config.backend);
        let mut results = ResultCache::new(config.cache_capacity);
        results.invalidate(epoch.snapshot.epoch());
        let mut plans = PlanCache::new(config.plan_cache_capacity);
        plans.invalidate(epoch.snapshot.epoch());
        Self {
            tracer: tracer.clone(),
            config,
            live,
            epoch,
            results,
            plans,
        }
    }

    /// `QueryService::with_config`: freezes the graph (condensation), then
    /// builds the epoch state.
    pub fn over_graph(tracer: &Tracer, graph: Arc<DataGraph>, config: ServiceConfig) -> Self {
        let _span = tracer.span("service.new");
        let snapshot = Arc::new(GraphSnapshot::freeze(graph));
        Self::from_snapshot(tracer, snapshot, None, config)
    }

    /// `QueryService::from_snapshot`.
    pub fn over_snapshot(
        tracer: &Tracer,
        snapshot: Arc<GraphSnapshot>,
        config: ServiceConfig,
    ) -> Self {
        let _span = tracer.span("service.new");
        Self::from_snapshot(tracer, snapshot, None, config)
    }

    /// `QueryService::live_with_config`.
    pub fn over_handle(tracer: &Tracer, handle: Arc<GraphHandle>, config: ServiceConfig) -> Self {
        let _span = tracer.span("service.new");
        let snapshot = handle.snapshot();
        Self::from_snapshot(tracer, snapshot, Some(handle), config)
    }

    /// `current_state` + `rotate`: after a commit the next request builds
    /// the new generation and empties both caches before anything else.
    fn pin_epoch(&mut self) {
        let Some(handle) = &self.live else { return };
        if handle.epoch() == self.epoch.snapshot.epoch() {
            return;
        }
        let _span = self.tracer.span("service.rotate");
        self.epoch = Epoch::build(&self.tracer, handle.snapshot(), self.config.backend);
        self.results.invalidate(self.epoch.snapshot.epoch());
        self.plans.invalidate(self.epoch.snapshot.epoch());
    }

    /// `obtain_plan`: the plan cache, then the planner on a miss.
    fn obtain_plan(&mut self, q: &Gtpq, key: &str) -> Arc<QueryPlan> {
        let epoch = self.epoch.snapshot.epoch();
        if let Some(plan) = self.plans.lookup(epoch, key, q) {
            return plan;
        }
        let plan = {
            let _span = self.tracer.span("core.plan");
            let prebuilt: Vec<BackendKind> = self.epoch.catalog.keys().copied().collect();
            Arc::new(
                Planner::new(self.epoch.snapshot.graph())
                    .with_profile(self.epoch.profile)
                    .with_prebuilt(&prebuilt)
                    .plan(q),
            )
        };
        self.plans
            .insert(epoch, key, Arc::new(q.clone()), Arc::clone(&plan));
        plan
    }

    /// `resolve_backend`: the plan's recommendation from the catalog (built
    /// on first use) unless a backend is pinned.
    fn resolve_backend(&mut self, plan: &QueryPlan) -> SharedIndex {
        let per_query = self.config.per_query_backend && self.config.backend.is_none();
        let Some(kind) = plan.backend.kind.filter(|_| per_query) else {
            return Arc::clone(&self.epoch.index);
        };
        if let Some(index) = self.epoch.catalog.get(&kind) {
            return Arc::clone(index);
        }
        let _span = self.tracer.span("reach.build");
        let snapshot = &self.epoch.snapshot;
        let built = kind.build_shared_with(snapshot.graph(), snapshot.condensation());
        self.epoch.catalog.insert(kind, Arc::clone(&built));
        built
    }

    /// One request, as `submit_inner` serves it.  The caller owns the root
    /// span, so an op that is more than a request (the cold path) can nest
    /// this under its own.
    pub fn request(
        &mut self,
        text: &str,
        limit: Option<usize>,
        bypass_cache: bool,
    ) -> Result<Replayed, String> {
        let tracer = self.tracer.clone();
        self.pin_epoch();
        let epoch = self.epoch.snapshot.epoch();
        let q = {
            let _span = tracer.span("query.parse");
            parse_query(text).map_err(|e| e.message)?
        };
        let satisfiable = {
            let _span = tracer.span("analysis.sat");
            is_satisfiable(&q)
        };
        if !satisfiable {
            return Err("unsatisfiable".into());
        }
        let canon = {
            let _span = tracer.span("service.canon");
            canonicalize(&q)
        };
        // The slow log keeps the query's display form of every request.
        if self.config.slow_query_threshold.is_some() {
            black_box(q.to_string());
        }
        if !bypass_cache {
            let hit = {
                let _span = tracer.span("service.cache_lookup");
                self.results.lookup(epoch, &canon, &q)
            };
            if let Some(full) = hit {
                return Ok(Replayed {
                    rows: window(&full, limit),
                    from_cache: true,
                    stats: EvalStats::default(),
                    prime_candidates: 0,
                    first_row: Duration::ZERO,
                    truncated: false,
                });
            }
        }
        let plan = self.obtain_plan(&q, &canon.key);
        let index = self.resolve_backend(&plan);
        let mut replayed = self.execute(&q, &plan, &*index, limit);
        if self.config.slow_query_threshold.is_some() {
            black_box(plan.render_with_actuals(&q, &replayed.stats));
        }
        if !replayed.truncated {
            // Only complete answers are cached.
            self.results
                .insert(epoch, &canon, Arc::new(q), Arc::clone(&replayed.rows));
        }
        replayed.stats.graph_epoch = epoch;
        Ok(replayed)
    }

    /// `GteaEngine::execute` with one thread: `match_stream_inner`'s stages
    /// and the serial enumeration loop.
    fn execute<R: Reachability + ?Sized>(
        &self,
        q: &Gtpq,
        plan: &QueryPlan,
        index: &R,
        limit: Option<usize>,
    ) -> Replayed {
        let tracer = &self.tracer;
        let g: &DataGraph = self.epoch.snapshot.graph();
        let options: &GteaOptions = &self.config.options;
        let ctl = ExecCtl::unbounded();
        let mut stats = EvalStats::default();
        let mut prime_candidates = 0;
        let uninterrupted = "an unbounded control never interrupts";
        let backbone_starved = |mat: &[Vec<NodeId>]| {
            q.node_ids()
                .filter(|&u| q.is_backbone(u))
                .any(|u| mat[u.index()].is_empty())
        };

        let source = 'stages: {
            let mut mat = {
                let _span = tracer.span("core.candidates");
                execute_candidates(q, g, plan, &mut stats, &ctl).expect(uninterrupted)
            };
            if backbone_starved(&mat) {
                break 'stages None;
            }
            {
                let _span = tracer.span("core.prune_down");
                let steps = plan.normalized_prune_down(q);
                prune_downward(q, g, index, options, &steps, &mut mat, &mut stats, &ctl)
                    .expect(uninterrupted);
            }
            if backbone_starved(&mat) {
                break 'stages None;
            }
            let prime = {
                let _span = tracer.span("core.prune_up");
                let prime = PrimeSubtree::new(q);
                stats.prime_subtree_size = prime.len() as u64;
                if options.upward_pruning {
                    prime_candidates = prime
                        .nodes
                        .iter()
                        .map(|u| mat[u.index()].len() as u64)
                        .sum();
                    prune_upward(
                        q,
                        g,
                        index,
                        options,
                        &prime,
                        plan.upward_estimated_rows,
                        &mut mat,
                        &mut stats,
                        &ctl,
                    )
                    .expect(uninterrupted);
                }
                prime
            };
            if options.upward_pruning && prime.nodes.iter().any(|&u| mat[u.index()].is_empty()) {
                break 'stages None;
            }
            let _span = tracer.span("core.matching");
            let shrunk = ShrunkPrime::new(q, &prime, &mat, options.shrink_prime_subtree);
            stats.shrunk_subtree_size = shrunk.len() as u64;
            let matching = MatchingGraph::build(q, g, index, &shrunk, &mat, &mut stats, &ctl)
                .expect(uninterrupted);
            Some(Arc::new(StreamSource::new(q, shrunk, matching, mat)))
        };

        let _span = tracer.span("core.enumerate");
        let started = Instant::now();
        let mut first_row = Duration::ZERO;
        let mut stream = match source {
            Some(source) => MatchStream::from_source(source, ctl.clone()),
            None => MatchStream::empty(q, ctl.clone()),
        };
        let mut rows = ResultSet::new(q.output_nodes().to_vec());
        let mut truncated = false;
        while let Some(row) = stream.next_row().expect(uninterrupted) {
            if rows.is_empty() {
                first_row = started.elapsed();
            }
            if limit.is_some_and(|l| rows.len() >= l) {
                truncated = true; // the look-ahead row: more exist past the window
                break;
            }
            rows.insert(row);
        }
        stats.enumerated_rows = stream.rows_enumerated();
        stats.enumerate_time = stream.enumerate_time();
        stats.result_tuples = rows.len() as u64;
        Replayed {
            rows: Arc::new(rows),
            from_cache: false,
            stats,
            prime_candidates,
            first_row,
            truncated,
        }
    }
}

/// The leading `limit` rows of a cached complete answer.
fn window(full: &Arc<ResultSet>, limit: Option<usize>) -> Arc<ResultSet> {
    match limit {
        Some(limit) if limit < full.len() => {
            let mut out = ResultSet::new(full.output.clone());
            for tuple in full.iter().take(limit) {
                out.insert(tuple.clone());
            }
            Arc::new(out)
        }
        _ => Arc::clone(full),
    }
}
