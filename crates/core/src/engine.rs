//! The GTEA evaluation engine.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use gtpq_graph::DataGraph;
use gtpq_query::{Gtpq, ResultSet};
use gtpq_reach::Reachability;

use crate::exec::{ExecCtl, Interrupt};
use crate::matching::MatchingGraph;
use crate::options::GteaOptions;
use crate::plan::{execute_candidates, Planner, QueryPlan};
use crate::prime::{PrimeSubtree, ShrunkPrime};
use crate::prune::{prune_downward, prune_upward};
use crate::stats::{EvalStats, OperatorStats};
use crate::stream::{MatchStream, StreamSource};

/// Row-window and control parameters of one [`GteaEngine::execute`] call.
///
/// The default is the legacy behaviour: no limit, no offset, unbounded
/// control.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Stop after this many rows have been *emitted* (post-offset).  `None`
    /// materializes the full answer.
    pub limit: Option<usize>,
    /// Skip this many leading rows of the answer (they are still enumerated,
    /// and counted by [`EvalStats::enumerated_rows`]).
    pub offset: usize,
    /// Deadline / cancellation control polled by every pipeline stage.
    pub ctl: ExecCtl,
}

impl ExecOptions {
    /// No limit, no offset, never interrupted.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Sets the row limit.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Sets the execution control.
    pub fn with_ctl(mut self, ctl: ExecCtl) -> Self {
        self.ctl = ctl;
        self
    }
}

/// An evaluation that was interrupted before completing, together with the
/// statistics of the work it *did* perform.
///
/// Stage timings accumulate up to the abort point (the aborted stage's
/// elapsed time included), so a service can account for the cost of
/// timed-out and cancelled requests instead of losing it.
#[derive(Clone, Debug)]
pub struct Aborted {
    /// Why the evaluation stopped.
    pub interrupt: Interrupt,
    /// Statistics accumulated before the interrupt (boxed to keep the
    /// `Err` variant small).
    pub stats: Box<EvalStats>,
}

impl fmt::Display for Aborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.interrupt.fmt(f)
    }
}

impl std::error::Error for Aborted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.interrupt)
    }
}

impl Aborted {
    fn new(interrupt: Interrupt, stats: EvalStats) -> Self {
        Self {
            interrupt,
            stats: Box::new(stats),
        }
    }
}

/// The outcome of one [`GteaEngine::execute`] call.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The emitted rows: the requested `offset..offset + limit` window of
    /// the full answer, in its materialized order.
    pub results: ResultSet,
    /// Statistics of the run (planning time excluded; the caller owns it).
    pub stats: EvalStats,
    /// Whether the row limit cut enumeration short — `true` exactly when at
    /// least one more row exists beyond the emitted window.
    pub truncated: bool,
}

/// Evaluates GTPQs over one data graph.
///
/// Under default [`GteaOptions`] every reachability question is answered on
/// the SCC condensation `graph` carries ([`DataGraph::condensation`],
/// computed once on first use), so evaluation needs no index and the engine
/// builds none.  The one reader of a [`Reachability`] is the pairwise
/// ablation arm ([`GteaOptions::pairwise`]), which calls
/// [`Reachability::reaches`] pair by pair.  [`new`](Self::new) and
/// [`with_options`](Self::with_options) point it at the condensation itself,
/// whose point probe is a whole sweep; a caller measuring that arm builds a
/// real index (3-hop, the paper's, or SSPI) and passes it to
/// [`with_backend`](Self::with_backend), so evaluation time excludes index
/// construction as in the paper's methodology.
pub struct GteaEngine<'g> {
    graph: &'g DataGraph,
    index: &'g dyn Reachability,
    options: GteaOptions,
}

impl<'g> GteaEngine<'g> {
    /// Builds the engine for `graph`, with default options.
    pub fn new(graph: &'g DataGraph) -> Self {
        Self::with_options(graph, GteaOptions::default())
    }

    /// Builds the engine with explicit options; the pairwise arm, if
    /// `options` selects it, probes the graph's condensation.
    pub fn with_options(graph: &'g DataGraph, options: GteaOptions) -> Self {
        Self::with_backend(graph, &**graph.condensation(), options)
    }

    /// Builds the engine around an existing reachability backend, which
    /// only the pairwise arm probes.
    ///
    /// `index` must have been built for (the condensation of) `graph`;
    /// the pairwise arm's answers are undefined otherwise.
    pub fn with_backend(
        graph: &'g DataGraph,
        index: &'g dyn Reachability,
        options: GteaOptions,
    ) -> Self {
        Self {
            graph,
            index,
            options,
        }
    }

    /// The data graph the engine evaluates against.
    pub fn graph(&self) -> &DataGraph {
        self.graph
    }

    /// The reachability backend the pairwise arm probes.
    pub fn index(&self) -> &dyn Reachability {
        self.index
    }

    /// The evaluation options.
    pub fn options(&self) -> &GteaOptions {
        &self.options
    }

    /// Evaluates `q`, returning only the answer.
    pub fn evaluate(&self, q: &Gtpq) -> ResultSet {
        self.evaluate_with_stats(q).0
    }

    /// Evaluates `q`: builds the default cost-based plan
    /// ([`Planner::plan`]), then executes it.  The returned statistics
    /// include planning time and per-operator estimated-vs-actual
    /// cardinalities.
    pub fn evaluate_with_stats(&self, q: &Gtpq) -> (ResultSet, EvalStats) {
        let plan_start = Instant::now();
        let plan = Planner::new(self.graph).plan(q);
        let plan_time = plan_start.elapsed();
        let exec = self
            .execute(q, &plan, ExecOptions::unbounded())
            .expect("unbounded execution cannot be interrupted");
        let mut stats = exec.stats;
        stats.plan_time = plan_time;
        (exec.results, stats)
    }

    /// Executes `plan` with a row window and an execution control: the
    /// request-level entry point behind `QueryService::submit`.  It is
    /// [`match_stream`](Self::match_stream) plus the loop that drains the
    /// stream into a [`ResultSet`].
    ///
    /// The answer is identical to [`evaluate`](Self::evaluate) for *any*
    /// plan: candidate steps missing from the plan default to index scans
    /// and the downward-prune order is repaired to a valid children-first
    /// order.  Only performance (and the recorded estimates) can differ.  A
    /// backend recommendation in the plan is ignored — the pairwise arm
    /// probes whatever index the engine was built with.  The statistics
    /// exclude planning time: the caller owns it.
    ///
    /// `limit`/`offset` push down into result enumeration — the underlying
    /// [`MatchStream`] stops after `offset + limit` distinct rows (plus one
    /// look-ahead row to decide [`Execution::truncated`]) instead of
    /// materializing the full answer — and the deadline/cancellation control
    /// is polled by candidate selection, both prune rounds, matching-graph
    /// construction and enumeration.
    ///
    /// An interrupted run returns [`Aborted`] carrying the statistics of the
    /// work completed before the interrupt (partial stage timings included).
    pub fn execute(
        &self,
        q: &Gtpq,
        plan: &QueryPlan,
        options: ExecOptions,
    ) -> Result<Execution, Aborted> {
        let ExecOptions { limit, offset, ctl } = options;
        let tracer = ctl.tracer().clone();
        let (mut stream, mut stats) = self.match_stream(q, plan, ctl)?;
        let span = tracer.span("enumerate");
        let mut results = ResultSet::new(q.output_nodes().to_vec());
        let mut truncated = false;
        // The Collect operator reports what the enumerator was asked to do:
        // under a limit it produces at most the window (plus the look-ahead
        // row), so the full-answer estimate is capped accordingly — a
        // perfectly estimated plan must not read as an estimation error just
        // because the request stopped early.
        let window_cap = limit.map(|l| (offset.saturating_add(l).saturating_add(1)) as u64);
        let collect_estimated = window_cap.map_or(plan.collect_estimated_rows, |cap| {
            plan.collect_estimated_rows.min(cap)
        });
        let mut skipped = 0usize;
        let interrupted = loop {
            match stream.next_row() {
                Err(e) => break Some(e),
                Ok(None) => break None,
                Ok(Some(_)) if skipped < offset => skipped += 1,
                Ok(Some(row)) => {
                    if limit.is_some_and(|l| results.len() >= l) {
                        // The look-ahead row proves more rows exist past
                        // the window.
                        truncated = true;
                        break None;
                    }
                    results.insert(row);
                }
            }
        };
        span.field("rows", stream.rows_enumerated());
        stats.enumerated_rows += stream.rows_enumerated();
        stats.enumerate_time += stream.enumerate_time();
        stats.time_to_first_row = stream.time_to_first_row();
        stats.operators.push(OperatorStats {
            label: "Collect".to_owned(),
            estimated_rows: collect_estimated,
            actual_rows: stream.rows_enumerated(),
            time: stream.enumerate_time(),
        });
        drop(span);
        stats.result_tuples = results.len() as u64;
        if let Some(interrupt) = interrupted {
            return Err(Aborted::new(interrupt, stats));
        }
        Ok(Execution {
            results,
            stats,
            truncated,
        })
    }

    /// Runs the pipeline up to (and including) the maximal matching graph
    /// and returns a pull-based [`MatchStream`] over the answer, plus the
    /// statistics of the completed stages.
    ///
    /// Rows are produced on demand in materialized-`ResultSet` order; the
    /// first [`MatchStream::next_row`] call does only the work the first row
    /// needs, which is what the time-to-first-row benchmark measures.
    ///
    /// An interrupted run returns [`Aborted`] carrying the statistics of the
    /// stages completed (and partially completed) before the interrupt.
    pub fn match_stream(
        &self,
        q: &Gtpq,
        plan: &QueryPlan,
        ctl: ExecCtl,
    ) -> Result<(MatchStream, EvalStats), Aborted> {
        let mut stats = EvalStats::default();
        match self.match_stream_inner(q, plan, &ctl, &mut stats) {
            Ok(Some(source)) => Ok((MatchStream::from_source(source, ctl), stats)),
            Ok(None) => Ok((MatchStream::empty(q, ctl), stats)),
            Err(interrupt) => Err(Aborted::new(interrupt, stats)),
        }
    }

    /// The pipeline body of [`match_stream`](Self::match_stream): statistics
    /// accumulate into the caller-owned `stats` so an interrupt loses none of
    /// the partial figures.  Returns the prepared enumeration source, or
    /// `None` when pruning proved the answer empty.
    fn match_stream_inner(
        &self,
        q: &Gtpq,
        plan: &QueryPlan,
        ctl: &ExecCtl,
        stats: &mut EvalStats,
    ) -> Result<Option<Arc<StreamSource>>, Interrupt> {
        let g = self.graph;

        // Step 1: candidate selection along the plan's access paths.
        let span = ctl.tracer().span("candidates");
        let mut mat = execute_candidates(q, g, plan, stats, ctl)?;
        span.field("initial_candidates", stats.initial_candidates);
        drop(span);

        // A backbone node with no candidates at all cannot gain any during
        // pruning: the answer is empty before any reachability work starts.
        if q.node_ids()
            .filter(|&u| q.is_backbone(u))
            .any(|u| mat[u.index()].is_empty())
        {
            return Ok(None);
        }

        // Step 2a: downward structural constraints, in plan order.
        let span = ctl.tracer().span("prune_down");
        let steps = plan.normalized_prune_down(q);
        prune_downward(
            q,
            g,
            self.index,
            &self.options,
            &steps,
            &mut mat,
            stats,
            ctl,
        )?;
        span.field("survivors", stats.candidates_after_downward);
        drop(span);

        // Early exit: every backbone node needs at least one candidate.
        if q.node_ids()
            .filter(|&u| q.is_backbone(u))
            .any(|u| mat[u.index()].is_empty())
        {
            return Ok(None);
        }

        // Step 2b: upward structural constraints on the prime subtree.
        let prime = PrimeSubtree::new(q);
        stats.prime_subtree_size = prime.len() as u64;
        if self.options.upward_pruning {
            let span = ctl.tracer().span("prune_up");
            prune_upward(
                q,
                g,
                self.index,
                &self.options,
                &prime,
                plan.upward_estimated_rows,
                &mut mat,
                stats,
                ctl,
            )?;
            span.field("est_rows", plan.upward_estimated_rows);
            span.field("survivors", stats.candidates_after_upward);
            drop(span);
            if prime.nodes.iter().any(|&u| mat[u.index()].is_empty()) {
                return Ok(None);
            }
        }

        // Step 3: shrunk prime subtree and its maximal matching graph.
        let span = ctl.tracer().span("matching");
        let shrunk = if self.options.upward_pruning {
            ShrunkPrime::new(q, &prime, &mat, self.options.shrink_prime_subtree)
        } else {
            ShrunkPrime::unshrunk(q, &prime)
        };
        stats.shrunk_subtree_size = shrunk.len() as u64;
        let matching_start = Instant::now();
        let matching = MatchingGraph::build(q, g, self.index, &shrunk, &mat, stats, ctl)?;
        span.field("est_rows", plan.matching_estimated_rows);
        span.field("nodes", matching.node_count);
        span.field("edges", matching.edge_count);
        if ctl.tracer().is_enabled() && !matching.ad_passes.is_empty() {
            let passes = matching.ad_passes.iter().map(|p| {
                let (region, edges, words) = (p.region, p.edges_visited, p.row_words);
                format!("{}:{region}/{edges}/{words}", p.child)
            });
            span.field("swept", passes.collect::<Vec<_>>().join(","));
        }
        drop(span);
        stats.operators.push(OperatorStats {
            label: "MatchingGraph".to_owned(),
            estimated_rows: plan.matching_estimated_rows,
            actual_rows: (matching.node_count + matching.edge_count) as u64,
            time: matching_start.elapsed(),
        });

        // Step 4 is pulled by the caller: the source enumerates the answer.
        Ok(Some(Arc::new(StreamSource::new(q, shrunk, matching, mat))))
    }
}

#[cfg(test)]
mod tests {
    use gtpq_graph::{GraphBuilder, NodeId};
    use gtpq_logic::BoolExpr;
    use gtpq_query::fixtures::{example_answer_pairs, example_graph, example_query};
    use gtpq_query::{naive, parse_query, AttrPredicate, EdgeKind, GtpqBuilder};
    use gtpq_reach::ThreeHop;

    use super::*;

    #[test]
    fn engine_reproduces_the_running_example() {
        let g = example_graph();
        let q = example_query();
        let engine = GteaEngine::new(&g);
        let (results, stats) = engine.evaluate_with_stats(&q);
        let expected = example_answer_pairs();
        assert_eq!(results.len(), expected.len());
        for (a, b) in expected {
            assert!(results.contains(&[NodeId(a - 1), NodeId(b - 1)]));
        }
        assert!(stats.total_time() > std::time::Duration::ZERO);
        assert!(stats.prime_subtree_size >= stats.shrunk_subtree_size);
        assert_eq!(stats.result_tuples, results.len() as u64);
    }

    #[test]
    fn engine_agrees_with_naive_on_the_example_for_all_option_combinations() {
        let g = example_graph();
        let q = example_query();
        let expected = naive::evaluate(&q, &g);
        for options in [
            GteaOptions::default(),
            GteaOptions::without_upward_pruning(),
            GteaOptions::pairwise(),
            GteaOptions::without_shrinking(),
        ] {
            let engine = GteaEngine::with_options(&g, options);
            let got = engine.evaluate(&q);
            assert!(got.same_answer(&expected), "options {options:?}");
        }
        let index = ThreeHop::new(&g);
        let pairwise = GteaEngine::with_backend(&g, &index, GteaOptions::pairwise());
        assert!(pairwise.evaluate(&q).same_answer(&expected));
    }

    #[test]
    fn without_upward_pruning_an_output_below_the_root_keeps_its_ancestors() {
        // c2 lies below an a and a b; c4 only below a b.  Without the
        // upward round c4 survives as a candidate, so the matching graph
        // must still walk down from the root to rule it out.
        let mut gb = GraphBuilder::new();
        let v: Vec<NodeId> = ["a", "b", "c", "b", "c"]
            .iter()
            .map(|label| gb.add_node_with_label(label))
            .collect();
        for (x, y) in [(0, 1), (1, 2), (3, 4)] {
            gb.add_edge(v[x], v[y]);
        }
        let g = gb.build();
        let q = parse_query("a { //b { //c* } }").unwrap();
        let expected = naive::evaluate(&q, &g);
        assert_eq!(expected.len(), 1);
        for options in [
            GteaOptions::without_upward_pruning(),
            GteaOptions {
                shrink_prime_subtree: false,
                ..GteaOptions::without_upward_pruning()
            },
        ] {
            let got = GteaEngine::with_options(&g, options).evaluate(&q);
            assert_eq!(got, expected, "{options:?}");
        }
    }

    #[test]
    fn empty_answer_when_a_backbone_node_has_no_candidates() {
        let g = example_graph();
        let mut b = GtpqBuilder::new(AttrPredicate::label("a1"));
        let root = b.root_id();
        let child = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("zzz"));
        b.mark_output(child);
        let q = b.build().unwrap();
        let engine = GteaEngine::new(&g);
        assert!(engine.evaluate(&q).is_empty());
    }

    #[test]
    fn pc_edges_are_enforced_exactly() {
        // a -> b, a -> c -> b2: `a / b` must only match the direct child.
        let mut gb = GraphBuilder::new();
        let a = gb.add_node_with_label("a");
        let b1 = gb.add_node_with_label("b");
        let c = gb.add_node_with_label("c");
        let b2 = gb.add_node_with_label("b");
        gb.add_edge(a, b1);
        gb.add_edge(a, c);
        gb.add_edge(c, b2);
        let g = gb.build();
        let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = qb.root_id();
        let child = qb.backbone_child(root, EdgeKind::Child, AttrPredicate::label("b"));
        qb.mark_output(root);
        qb.mark_output(child);
        let q = qb.build().unwrap();
        let engine = GteaEngine::new(&g);
        let results = engine.evaluate(&q);
        let expected = naive::evaluate(&q, &g);
        assert!(results.same_answer(&expected));
        assert_eq!(results.len(), 1);
        assert!(results.contains(&[a, b1]));
    }

    #[test]
    fn negated_pc_child_is_handled_exactly() {
        // Query: a with NO b child (PC edge under negation). a1 has a b child,
        // a2 only has a b descendant (through c), a3 has nothing.
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node_with_label("a");
        let a2 = gb.add_node_with_label("a");
        let a3 = gb.add_node_with_label("a");
        let b1 = gb.add_node_with_label("b");
        let c = gb.add_node_with_label("c");
        let b2 = gb.add_node_with_label("b");
        gb.add_edge(a1, b1);
        gb.add_edge(a2, c);
        gb.add_edge(c, b2);
        let _ = a3;
        let g = gb.build();
        let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = qb.root_id();
        let p = qb.predicate_child(root, EdgeKind::Child, AttrPredicate::label("b"));
        qb.set_structural(root, BoolExpr::not(BoolExpr::Var(p.var())));
        qb.mark_output(root);
        let q = qb.build().unwrap();
        let engine = GteaEngine::new(&g);
        let results = engine.evaluate(&q);
        let expected = naive::evaluate(&q, &g);
        assert!(results.same_answer(&expected));
        assert_eq!(results.len(), 2);
        assert!(results.contains(&[a2]));
        assert!(results.contains(&[a3]));
    }

    #[test]
    fn union_conjunctive_and_negation_queries_agree_with_naive() {
        let g = example_graph();
        let engine = GteaEngine::new(&g);
        // Disjunction: a1 root with (c-child-with-e2) OR (b-descendant).
        let mut qb = GtpqBuilder::new(AttrPredicate::label("a1"));
        let root = qb.root_id();
        let pc = qb.predicate_child(
            root,
            EdgeKind::Descendant,
            gtpq_query::fixtures::label_prefix("c"),
        );
        let pb = qb.predicate_child(
            root,
            EdgeKind::Descendant,
            gtpq_query::fixtures::label_prefix("b"),
        );
        qb.set_structural(
            root,
            BoolExpr::or2(BoolExpr::Var(pc.var()), BoolExpr::Var(pb.var())),
        );
        qb.mark_output(root);
        let q = qb.build().unwrap();
        assert!(engine.evaluate(&q).same_answer(&naive::evaluate(&q, &g)));

        // Negation: a1 nodes with no g1 descendant.
        let mut qb = GtpqBuilder::new(AttrPredicate::label("a1"));
        let root = qb.root_id();
        let pg = qb.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("g1"));
        qb.set_structural(root, BoolExpr::not(BoolExpr::Var(pg.var())));
        qb.mark_output(root);
        let q = qb.build().unwrap();
        let results = engine.evaluate(&q);
        assert!(results.same_answer(&naive::evaluate(&q, &g)));
    }

    /// Default options read no index (`tests/work_guard.rs`), so one run on
    /// the paper's 3-hop covers every backend.
    #[test]
    fn engine_agrees_with_naive_for_every_reachability_backend() {
        let g = example_graph();
        let queries = [example_query(), {
            let mut qb = GtpqBuilder::new(AttrPredicate::label("a1"));
            let root = qb.root_id();
            let pg = qb.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("g1"));
            qb.set_structural(root, BoolExpr::not(BoolExpr::Var(pg.var())));
            qb.mark_output(root);
            qb.build().unwrap()
        }];
        let engine = GteaEngine::new(&g);
        for q in &queries {
            assert!(engine.evaluate(q).same_answer(&naive::evaluate(q, &g)));
        }
    }

    #[test]
    fn planned_evaluation_matches_default_for_perturbed_plans() {
        let g = example_graph();
        let q = example_query();
        let engine = GteaEngine::new(&g);
        let expected = engine.evaluate(&q);
        let run = |plan: &QueryPlan| {
            engine
                .execute(&q, plan, ExecOptions::unbounded())
                .expect("unbounded execution cannot be interrupted")
        };

        // The default plan round-trips.
        let plan = Planner::new(&g).plan(&q);
        assert!(run(&plan).results.same_answer(&expected));

        // Shuffled prune order is repaired by the executor.
        let mut shuffled = plan.clone();
        shuffled.prune_down.reverse();
        assert!(run(&shuffled).results.same_answer(&expected));

        // Forced full scans select identical candidates.
        let mut scans = plan.clone();
        for step in &mut scans.candidates {
            step.access = crate::plan::AccessPath::FullScan;
        }
        let exec = run(&scans);
        assert!(exec.results.same_answer(&expected));
        assert!(exec.stats.scanned_nodes >= (q.size() * g.node_count()) as u64);

        // The fixed seed pipeline agrees too.
        let fixed = QueryPlan::fixed_pipeline(&q);
        assert!(run(&fixed).results.same_answer(&expected));
    }

    #[test]
    fn stats_record_planning_and_operators() {
        let g = example_graph();
        let q = example_query();
        let engine = GteaEngine::new(&g);
        let (_, stats) = engine.evaluate_with_stats(&q);
        // One operator per candidate step, per internal-node prune step,
        // plus PruneUp, MatchingGraph and Collect.
        let internal = q.node_ids().filter(|&u| !q.node(u).is_leaf()).count();
        assert_eq!(stats.operators.len(), q.size() + internal + 3);
        assert!(stats
            .operators
            .iter()
            .any(|o| o.label.starts_with("IndexScan")));
        assert!(stats.operators.iter().any(|o| o.label == "Collect"));
        // Candidate estimates are upper bounds, so never below the actuals.
        for o in stats.operators.iter().filter(|o| o.label.contains("Scan")) {
            assert!(o.estimated_rows >= o.actual_rows, "{}", o.label);
        }
        // execute alone reports no plan time; evaluate does.
        let plan = Planner::new(&g).plan(&q);
        let planned = engine.execute(&q, &plan, ExecOptions::unbounded()).unwrap();
        assert_eq!(planned.stats.plan_time, std::time::Duration::ZERO);
    }

    #[test]
    fn zero_budget_aborts_with_stats() {
        let g = example_graph();
        let q = example_query();
        let engine = GteaEngine::new(&g);
        let plan = Planner::new(&g).plan(&q);
        let ctl = ExecCtl::unbounded().with_deadline(std::time::Instant::now());
        let err = engine
            .execute(&q, &plan, ExecOptions::unbounded().with_ctl(ctl))
            .unwrap_err();
        assert_eq!(err.interrupt, Interrupt::Timeout);
        assert!(err.to_string().contains("deadline"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn mid_pipeline_abort_keeps_partial_stats() {
        // A backend that cancels the request on its first reachability probe,
        // under the pairwise arm (the only one that probes): candidate
        // selection completes untouched, the downward prune round aborts
        // mid-way — deterministically, without timing games.
        struct CancelOnProbe {
            inner: ThreeHop,
            token: crate::exec::CancelToken,
        }
        impl Reachability for CancelOnProbe {
            fn reaches(&self, u: NodeId, v: NodeId) -> bool {
                self.token.cancel();
                self.inner.reaches(u, v)
            }
            fn index_entries(&self) -> usize {
                self.inner.index_entries()
            }
            fn name(&self) -> &'static str {
                "cancel-on-probe"
            }
            fn pred_probe<'s>(&'s self, targets: &[NodeId]) -> gtpq_reach::Probe<'s> {
                self.inner.pred_probe(targets)
            }
            fn succ_probe<'s>(&'s self, sources: &[NodeId]) -> gtpq_reach::Probe<'s> {
                self.inner.succ_probe(sources)
            }
        }
        let g = example_graph();
        let q = example_query();
        let token = crate::exec::CancelToken::new();
        let index = CancelOnProbe {
            inner: ThreeHop::new(&g),
            token: token.clone(),
        };
        let engine = GteaEngine::with_backend(&g, &index, GteaOptions::pairwise());
        let plan = Planner::new(&g).plan(&q);
        let ctl = ExecCtl::unbounded().with_cancel(token);
        let err = engine
            .execute(&q, &plan, ExecOptions::unbounded().with_ctl(ctl))
            .unwrap_err();
        assert_eq!(err.interrupt, Interrupt::Cancelled);
        // The completed candidate stage kept its figures...
        assert!(err.stats.initial_candidates > 0);
        assert!(err.stats.operators.iter().any(|o| o.label.contains("Scan")));
        // ...and the aborted prune round still recorded its elapsed time.
        assert!(err.stats.prune_down_time > std::time::Duration::ZERO);
        assert!(err.stats.total_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn the_matching_span_reports_each_ad_pass() {
        // Unshrunk, the example's matching graph has three AD edges:
        // u1 -> u2, u1 -> u3 and u3 -> u4.
        let g = example_graph();
        let q = example_query();
        let engine = GteaEngine::with_options(&g, GteaOptions::without_shrinking());
        let tracer = crate::Tracer::enabled();
        let ctl = ExecCtl::unbounded().with_tracer(tracer.clone());
        let options = ExecOptions::unbounded().with_ctl(ctl);
        engine
            .execute(&q, &Planner::new(&g).plan(&q), options)
            .unwrap();
        let trace = tracer.finish().unwrap();
        let matching = trace.span("matching").unwrap();
        let swept = matching.fields.iter().find(|(k, _)| *k == "swept");
        let swept = &swept.expect("AD passes are reported").1;
        // `child:region components/edges visited/row words` per pass.
        let passes: Vec<(&str, Vec<u64>)> = swept
            .split(',')
            .map(|pass| {
                let (child, cost) = pass.split_once(':').expect("child:cost");
                (child, cost.split('/').map(|n| n.parse().unwrap()).collect())
            })
            .collect();
        let children: Vec<&str> = passes.iter().map(|(child, _)| *child).collect();
        assert_eq!(children, ["u1", "u2", "u3"], "{swept}");
        for (_, cost) in &passes {
            assert_eq!(cost.len(), 3, "{swept}");
            assert!(cost.iter().all(|&n| n > 0), "{swept}");
        }
    }

    #[test]
    fn traced_execution_records_nested_stage_spans() {
        let g = example_graph();
        let q = example_query();
        let engine = GteaEngine::new(&g);
        let plan = Planner::new(&g).plan(&q);
        let tracer = crate::Tracer::enabled();
        let root = tracer.span("request");
        let ctl = ExecCtl::unbounded().with_tracer(tracer.clone());
        let exec = engine
            .execute(&q, &plan, ExecOptions::unbounded().with_ctl(ctl))
            .unwrap();
        drop(root);
        let trace = tracer.finish().unwrap();
        // Every pipeline stage recorded a span under the request root.
        for stage in [
            "candidates",
            "prune_down",
            "prune_up",
            "matching",
            "enumerate",
        ] {
            let span = trace
                .span(stage)
                .unwrap_or_else(|| panic!("missing {stage}"));
            assert_eq!(span.parent, Some(0), "{stage} nests under the root");
        }
        // Operator spans carry estimate/actual fields.
        let op = trace
            .spans
            .iter()
            .find(|s| s.name.starts_with("IndexScan"))
            .expect("per-operator span");
        assert!(op.fields.iter().any(|(k, _)| *k == "est_rows"));
        assert!(op.fields.iter().any(|(k, _)| *k == "actual_rows"));
        // Per-pull spans nest under `enumerate`.
        let enumerate_idx = trace
            .spans
            .iter()
            .position(|s| s.name == "enumerate")
            .unwrap();
        let pulls = trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("pull "))
            .count();
        assert!(pulls > 0, "per-pull spans recorded");
        assert!(trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("pull "))
            .all(|s| s.parent == Some(enumerate_idx)));
        // The stage spans tile the root: they sum to no more than its
        // duration, and each nests inside it.
        let root_span = trace.root().unwrap();
        let stage_sum: std::time::Duration = trace.children_of(0).map(|s| s.dur).sum();
        assert!(stage_sum <= root_span.dur);
        // An untraced run is unaffected.
        let plain = engine.execute(&q, &plan, ExecOptions::unbounded()).unwrap();
        assert_eq!(plain.results.len(), exec.results.len());
    }

    #[test]
    fn cyclic_graph_is_supported() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_node_with_label("a");
        let b = gb.add_node_with_label("b");
        let c = gb.add_node_with_label("c");
        gb.add_edge(a, b);
        gb.add_edge(b, c);
        gb.add_edge(c, a);
        let g = gb.build();
        let mut qb = GtpqBuilder::new(AttrPredicate::label("b"));
        let root = qb.root_id();
        let child = qb.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("a"));
        qb.mark_output(root);
        qb.mark_output(child);
        let q = qb.build().unwrap();
        let engine = GteaEngine::new(&g);
        let results = engine.evaluate(&q);
        assert!(results.same_answer(&naive::evaluate(&q, &g)));
        assert_eq!(results.len(), 1);
    }
}
