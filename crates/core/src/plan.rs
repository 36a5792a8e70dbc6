//! Query planning: the decisions GTEA's pipeline leaves open, made from
//! data-graph statistics.
//!
//! The paper fixes the pipeline: candidate selection, downward pruning
//! children first (Procedure 6), upward pruning (Procedure 7), the matching
//! graph, then enumeration.  A [`QueryPlan`] therefore holds only the order
//! of its candidate steps and of its downward-prune steps, and only
//! [`Planner::plan`] makes one, so every plan is valid by construction:
//!
//! * **Candidate selection** is one step per query node, ordered by
//!   estimated candidate count.  Every step selects through the index
//!   probes its predicate classifies into ([`Gtpq::candidates_indexed`]),
//!   and its estimate is the shortest of those probes
//!   ([`Gtpq::estimate_candidates`]).  The step is named `PivotScan` when
//!   the predicate has `sim(...)` conjuncts, which the pivot tables answer,
//!   and `IndexScan` otherwise.  These are the only estimates a plan
//!   carries, because they are the only ones a decision reads: the
//!   estimate is an upper bound, so a node estimated empty runs first and
//!   answers a query with an empty backbone after one probe.
//! * **Downward pruning** runs the internal nodes children first.  Among
//!   the ready nodes the one with the fewest estimated candidates goes
//!   first, so small candidate sets shrink their parents before the
//!   expensive nodes run.
//! * **A reachability backend** is recommended per query only by a planner
//!   handed a [`GraphProfile`] ([`Planner::with_profile`]): it estimates the
//!   number of set-probe calls the prune rounds will issue and weights each
//!   backend's [`cost hints`](BackendKind::cost_hints) by it (pre-built
//!   indexes have their construction cost treated as sunk).  The engine and
//!   the query service plan without one — default-option evaluation reads
//!   no index — so only the benchmark's replay still asks.
//!
//! The executor records each candidate step's estimated and actual rows and
//! each downward-prune step's actual rows, with their wall times, into
//! [`EvalStats::operators`](crate::EvalStats).  `:explain analyze` reads
//! them back beside the upward round's, the matching graph's and the
//! enumeration's actuals.

use std::fmt;
use std::time::{Duration, Instant};

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{AttrPredicate, EdgeKind, Gtpq, QueryNodeId};
use gtpq_reach::{select_backend_for_query, BackendKind, GraphProfile};

use crate::exec::{ExecCtl, Interrupt};
use crate::prime::PrimeSubtree;
use crate::stats::{EvalStats, Operator, OperatorStats};

/// One candidate-selection step.
#[derive(Clone, Debug)]
struct CandidateStep {
    /// The query node whose candidates this step selects.
    node: QueryNodeId,
    /// Upper bound on the candidates the step selects.
    estimated_rows: u64,
}

/// The planner's reachability-backend recommendation.
#[derive(Clone, Copy, Debug)]
pub struct PlannedBackend {
    /// Recommended backend; `None` means "use whatever the engine holds"
    /// (the planner had no graph profile to weigh backends with).
    pub kind: Option<BackendKind>,
    /// One-line justification, for `:explain` and logs.
    pub reason: &'static str,
}

/// The plan for one query: what [`Planner::plan`] decided for it.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Candidate selection, one step per query node, in execution order.
    candidates: Vec<CandidateStep>,
    /// The internal query nodes in downward-prune order, children first.
    ///
    /// There is deliberately no switch for the upward round: it is
    /// load-bearing for correctness (the shrunk-prime Cartesian product
    /// assumes upward-pruned candidate sets).
    prune_down: Vec<QueryNodeId>,
    /// Always 0: a plan estimates no survivors.  Kept while the benchmark's
    /// replay passes it to [`prune_upward`](crate::prune::prune_upward).
    pub upward_estimated_rows: u64,
    /// Estimated number of reachability set-probe calls both prune rounds
    /// will issue — the weight behind the backend recommendation, 0 when
    /// the planner recommends none.
    estimated_probes: u64,
    /// The backend recommendation.
    pub backend: PlannedBackend,
}

impl QueryPlan {
    /// The downward-prune order: every internal node of `q`, the query the
    /// plan was made for, children first.
    ///
    /// # Panics
    ///
    /// If the plan was made for another query: a prune order that is not
    /// children first over `q` could reject a parent under a negated child.
    pub fn normalized_prune_down(&self, q: &Gtpq) -> &[QueryNodeId] {
        assert!(
            {
                let mut done = vec![false; q.size()];
                let once_each_children_first = self.prune_down.iter().all(|&u| {
                    let first = ready(q, &done, u) && !done[u.index()];
                    done[u.index()] = true;
                    first
                });
                once_each_children_first
                    && q.node_ids().all(|u| q.node(u).is_leaf() || done[u.index()])
            },
            "the prune order must be children first over the plan's query"
        );
        &self.prune_down
    }

    /// Renders the plan as an indented operator list, e.g.
    ///
    /// ```text
    /// QueryPlan
    ///   IndexScan u1   [label = b1]                 est 2 rows
    ///   …
    ///   PruneDown u0
    ///   PruneUp (prime subtree)
    ///   MatchingGraph
    ///   Collect
    /// ```
    ///
    /// Only the candidate steps carry an estimate.  The header names the
    /// recommended backend and the probe estimate that weighed it only
    /// when the plan carries one:
    /// `QueryPlan (backend: 3hop — per-query: …; est. probes 42)`.
    pub fn render(&self, q: &Gtpq) -> String {
        self.render_lines(q, None)
    }

    /// Like [`render`](Self::render), but appends each operator's actual row
    /// count and time from an executed run's statistics: the recorded
    /// operator stats, and for `PruneUp`, `MatchingGraph` and `Collect` the
    /// run's upward survivors, matching-graph size and enumerated rows.
    /// Operators the run never reached (e.g. after an empty-candidate early
    /// exit) show no actuals.
    pub fn render_with_actuals(&self, q: &Gtpq, stats: &EvalStats) -> String {
        self.render_lines(q, Some(stats))
    }

    /// Writes every line into one `String`.
    fn render_lines(&self, q: &Gtpq, stats: Option<&EvalStats>) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::with_capacity(80 * (self.candidates.len() + self.prune_down.len() + 4));
        out.push_str("QueryPlan");
        if let Some(kind) = self.backend.kind {
            let (reason, probes) = (self.backend.reason, self.estimated_probes);
            let _ = write!(
                out,
                " (backend: {} — {reason}; est. probes {probes})",
                kind.as_str()
            );
        }
        let recorded = |op: Operator| {
            let o = stats?.operators.iter().find(|o| o.label == op)?;
            Some((o.actual_rows, o.time))
        };
        for step in &self.candidates {
            let op = scan(q, step.node);
            let attr = &q.node(step.node).attr;
            let est = Some(step.estimated_rows);
            line(&mut out, op, Some(attr), est, recorded(op));
        }
        for &u in self.normalized_prune_down(q) {
            let op = Operator::PruneDown(u);
            line(&mut out, op, None, None, recorded(op));
        }
        // A stage that took no time never ran.
        let ran = |rows: u64, time: Duration| (time > Duration::ZERO).then_some((rows, time));
        let upward = stats.and_then(|s| ran(s.candidates_after_upward, s.prune_up_time));
        line(&mut out, "PruneUp (prime subtree)", None, None, upward);
        let matching = stats.and_then(|s| ran(s.intermediate_size / 2, s.matching_graph_time));
        line(&mut out, "MatchingGraph", None, None, matching);
        let collect = stats.and_then(|s| ran(s.enumerated_rows, s.enumerate_time));
        line(&mut out, "Collect", None, None, collect);
        out
    }
}

/// Writes one operator line, `  <shown> <detail> est <n> rows[ → actual <m>
/// rows in <t>]`: the shown label padded to 14 characters and the detail to
/// 28 — or, with no detail, the label to 43.  A line with no estimate pads
/// only when actuals follow.
fn line(
    out: &mut String,
    shown: impl fmt::Display,
    detail: Option<&AttrPredicate>,
    est: Option<u64>,
    actual: Option<(u64, Duration)>,
) {
    use std::fmt::Write as _;
    out.push_str("\n  ");
    let start = out.len();
    let _ = write!(out, "{shown}");
    if let Some(detail) = detail {
        pad(out, start, 14);
        out.push(' ');
        let start = out.len();
        out.push('[');
        let _ = detail.write_to(out);
        out.push(']');
        pad(out, start, 28);
    } else if est.is_some() || actual.is_some() {
        pad(out, start, 43);
    }
    if let Some(est) = est {
        let _ = write!(out, " est {est} rows");
    }
    if let Some((rows, time)) = actual {
        let arrow = if est.is_some() { " →" } else { "" };
        let _ = write!(out, "{arrow} actual {rows} rows in ");
        write_duration(out, time);
    }
}

/// The candidate step of `u`: a `PivotScan` when its predicate has
/// `sim(...)` conjuncts, which the pivot tables answer, and an `IndexScan`
/// otherwise.
fn scan(q: &Gtpq, u: QueryNodeId) -> Operator {
    if q.node(u).attr.sims.is_empty() {
        Operator::IndexScan(u)
    } else {
        Operator::PivotScan(u)
    }
}

/// Writes `d` as `{:.3?}` does — in s, ms, µs or ns, whichever is the
/// largest unit it reaches, with three decimals rounded half to even —
/// without the formatting machinery, which costs more than the rest of a
/// line.
fn write_duration(out: &mut String, d: Duration) {
    use std::fmt::Write as _;
    let nanos = d.subsec_nanos();
    // The whole units, the remainder in nanoseconds, and nanoseconds per
    // thousandth of the unit.
    let (whole, rest, milli, unit) = if d.as_secs() > 0 {
        (d.as_secs(), nanos, 1_000_000, "s")
    } else if nanos >= 1_000_000 {
        (u64::from(nanos / 1_000_000), nanos % 1_000_000, 1_000, "ms")
    } else if nanos >= 1_000 {
        (u64::from(nanos / 1_000), nanos % 1_000, 1, "µs")
    } else {
        (u64::from(nanos), 0, 1, "ns")
    };
    let mut thousandths = rest / milli;
    let mut whole = u128::from(whole);
    let (dropped, half) = (rest % milli, milli / 2);
    if milli > 1 && (dropped > half || (dropped == half && thousandths % 2 == 1)) {
        thousandths += 1;
    }
    if thousandths == 1000 {
        thousandths = 0;
        whole += 1;
    }
    let _ = write!(out, "{whole}.{thousandths:03}{unit}");
}

/// Pads what was written to `out` from byte `start` on with spaces to
/// `width` characters, as `{:<width}` would.
fn pad(out: &mut String, start: usize, width: usize) {
    let written = out[start..].chars().count();
    out.extend(std::iter::repeat_n(' ', width.saturating_sub(written)));
}

/// Builds [`QueryPlan`]s for one data graph.
///
/// Construction is cheap (no graph analysis); per-query planning costs
/// O(|Q| · comparisons · log) posting-length probes.  Hand the planner a
/// [`GraphProfile`] (computed once per graph) to enable per-query backend
/// recommendations, and the set of already-built backends so their
/// construction cost counts as sunk.
#[derive(Clone, Debug)]
pub struct Planner<'g> {
    graph: &'g DataGraph,
    profile: Option<GraphProfile>,
    prebuilt: Vec<BackendKind>,
}

impl<'g> Planner<'g> {
    /// A planner with no graph profile: plans order work by selectivity but
    /// recommend no backend switch.
    pub fn new(graph: &'g DataGraph) -> Self {
        Self {
            graph,
            profile: None,
            prebuilt: Vec::new(),
        }
    }

    /// Enables backend recommendations from a precomputed profile.
    pub fn with_profile(mut self, profile: GraphProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Declares backends whose indexes already exist (sunk build cost).
    pub fn with_prebuilt(mut self, kinds: &[BackendKind]) -> Self {
        self.prebuilt = kinds.to_vec();
        self
    }

    /// Builds the plan for `q`.
    pub fn plan(&self, q: &Gtpq) -> QueryPlan {
        let g = self.graph;

        // Per-node candidate estimates from the selection's probe lengths.
        let est: Vec<u64> = q
            .node_ids()
            .map(|u| q.estimate_candidates(g, u) as u64)
            .collect();
        let mut candidates: Vec<CandidateStep> = q
            .node_ids()
            .map(|node| CandidateStep {
                node,
                estimated_rows: est[node.index()],
            })
            .collect();
        // Cheapest selections first: the executor stops at the first empty
        // backbone selection, so a guaranteed-empty posting (estimate 0 is
        // an upper bound) answers the whole query with one probe.
        candidates.sort_by_key(|s| s.estimated_rows);

        // Downward prune order: children first, the cheapest candidate set
        // first among the ready nodes.
        let mut internal: Vec<QueryNodeId> =
            q.node_ids().filter(|&u| !q.node(u).is_leaf()).collect();
        let mut prune_down = Vec::with_capacity(internal.len());
        let mut done = vec![false; q.size()];
        while !internal.is_empty() {
            let next = internal
                .iter()
                .enumerate()
                .filter(|(_, &u)| ready(q, &done, u))
                .min_by_key(|(_, &u)| est[u.index()])
                .map(|(i, _)| i)
                .expect("a tree always has a ready internal node");
            let u = internal.swap_remove(next);
            done[u.index()] = true;
            prune_down.push(u);
        }

        let (backend, probes) = match &self.profile {
            Some(profile) => {
                let probes = estimated_probes(q, &est);
                let sel = select_backend_for_query(profile, probes, &self.prebuilt);
                let backend = PlannedBackend {
                    kind: Some(sel.kind),
                    reason: sel.reason,
                };
                (backend, probes)
            }
            None => {
                let backend = PlannedBackend {
                    kind: None,
                    reason: "engine-default backend (no graph profile)",
                };
                (backend, 0)
            }
        };

        QueryPlan {
            candidates,
            prune_down,
            upward_estimated_rows: 0,
            estimated_probes: probes,
            backend,
        }
    }
}

/// Whether every internal child of `u` is `done`, so that `u` may be pruned.
fn ready(q: &Gtpq, done: &[bool], u: QueryNodeId) -> bool {
    let mut children = q.children(u).iter();
    children.all(|&c| q.node(c).is_leaf() || done[c.index()])
}

/// The number of reachability set-probe calls both prune rounds are
/// estimated to issue, from the candidate estimates `est`: downward, one
/// per candidate of a node per AD child; upward, one per surviving
/// candidate of each prime child reached through an AD edge, where a
/// child's survivors are its candidates halved per child of its own (at
/// most four times, and at least one).  It weighs the backend
/// recommendation and nothing else.
fn estimated_probes(q: &Gtpq, est: &[u64]) -> u64 {
    let ad = |c: &&QueryNodeId| q.incoming_edge(**c) != Some(EdgeKind::Child);
    let mut probes: u64 = 0;
    for u in q.node_ids() {
        let ad_children = q.children(u).iter().filter(ad).count() as u64;
        probes = probes.saturating_add(est[u.index()].saturating_mul(ad_children));
    }
    let prime = PrimeSubtree::new(q);
    for &u in &prime.nodes {
        for &c in prime.children_of(u).iter().filter(ad) {
            let shift = q.children(c).len().min(4) as u32;
            probes = probes.saturating_add((est[c.index()] >> shift).max(1));
        }
    }
    probes
}

/// Executes the candidate-selection steps of `plan` in plan order,
/// returning the initial `mat(u)` sets and recording one operator per step.
///
/// Selection stops as soon as a *backbone* node selects zero candidates: a
/// backbone node needs an image in every match, so the answer is empty no
/// matter what the remaining nodes would select, and the engine returns
/// before any of the unselected (left empty) sets are read.  The planner
/// orders steps by ascending estimate, so guaranteed-empty postings
/// (estimate 0 — the estimate is an upper bound) bail out after one probe.
///
/// `ctl` is polled at every step boundary; deadline expiry or cancellation
/// aborts with an [`Interrupt`].  `stats.candidate_time` accumulates the
/// elapsed time either way, so aborted requests keep their partial figures.
///
/// # Panics
///
/// If `plan` does not hold one candidate step per node of `q`, i.e. it was
/// made for another query.
pub fn execute_candidates(
    q: &Gtpq,
    g: &DataGraph,
    plan: &QueryPlan,
    stats: &mut EvalStats,
    ctl: &ExecCtl,
) -> Result<Vec<Vec<NodeId>>, Interrupt> {
    let start = Instant::now();
    let result = execute_candidates_inner(q, g, plan, stats, ctl);
    stats.candidate_time += start.elapsed();
    result
}

fn execute_candidates_inner(
    q: &Gtpq,
    g: &DataGraph,
    plan: &QueryPlan,
    stats: &mut EvalStats,
    ctl: &ExecCtl,
) -> Result<Vec<Vec<NodeId>>, Interrupt> {
    assert_eq!(
        plan.candidates.len(),
        q.size(),
        "the plan must be made for this query"
    );
    let mut mat: Vec<Vec<NodeId>> = vec![Vec::new(); q.size()];
    for step in &plan.candidates {
        ctl.check()?;
        let u = step.node;
        let op = scan(q, u);
        let span = ctl.tracer().span_with(|| op.to_string());
        let op_start = Instant::now();
        let selection = q.candidates_indexed(g, u);
        stats.input_nodes += selection.verified;
        stats.scanned_nodes += selection.verified;
        stats.index_lookups += selection.posting_entries;
        stats.sim_pivot_filtered += selection.sim_pivot_filtered;
        stats.sim_verified += selection.sim_verified;
        if selection.from_index {
            stats.index_hits += selection.nodes.len() as u64;
        }
        let nodes = selection.nodes;
        stats.initial_candidates += nodes.len() as u64;
        span.field("est_rows", step.estimated_rows);
        span.field("actual_rows", nodes.len());
        drop(span);
        stats.operators.push(OperatorStats {
            label: op,
            estimated_rows: Some(step.estimated_rows),
            actual_rows: nodes.len() as u64,
            time: op_start.elapsed(),
        });
        let emptied_backbone = nodes.is_empty() && q.is_backbone(u);
        mat[u.index()] = nodes;
        if emptied_backbone {
            break;
        }
    }
    Ok(mat)
}

#[cfg(test)]
mod tests {
    use gtpq_query::fixtures::{example_graph, example_query};

    use super::*;

    #[test]
    fn default_plan_orders_prune_by_selectivity_and_stays_topological() {
        let g = example_graph();
        let q = example_query();
        let plan = Planner::new(&g).plan(&q);
        assert_eq!(plan.candidates.len(), q.size());
        // Every internal node appears exactly once.
        let internal: Vec<QueryNodeId> = q.node_ids().filter(|&u| !q.node(u).is_leaf()).collect();
        let order = plan.normalized_prune_down(&q);
        assert_eq!(order.len(), internal.len());
        // Children-first: every step's internal children precede it.
        let pos = |u: QueryNodeId| order.iter().position(|&s| s == u).unwrap();
        for &u in &internal {
            for &c in q.children(u) {
                if !q.node(c).is_leaf() {
                    assert!(pos(c) < pos(u), "{c} must be pruned before {u}");
                }
            }
        }
        // Without a profile nothing weighs the probe estimate.
        assert_eq!(plan.estimated_probes, 0);
    }

    #[test]
    fn estimates_upper_bound_actual_candidates() {
        let g = example_graph();
        let q = example_query();
        let plan = Planner::new(&g).plan(&q);
        for step in &plan.candidates {
            let actual = q.candidates(&g, step.node).len() as u64;
            assert!(
                step.estimated_rows >= actual,
                "{}: est {} < actual {}",
                step.node,
                step.estimated_rows,
                actual
            );
        }
    }

    #[test]
    fn a_plan_for_another_query_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let g = example_graph();
        let plan = Planner::new(&g).plan(&gtpq_query::parse_query("a* { //b { //c } }").unwrap());
        let other = gtpq_query::parse_query("a* { //b //c { //d } }").unwrap();
        assert!(catch_unwind(|| plan.normalized_prune_down(&other).to_vec()).is_err());
        let mut stats = EvalStats::default();
        let ctl = ExecCtl::unbounded();
        let run = AssertUnwindSafe(|| execute_candidates(&other, &g, &plan, &mut stats, &ctl));
        assert!(catch_unwind(run).is_err());
    }

    #[test]
    fn sim_predicates_plan_and_execute_as_pivot_scans() {
        // 16 nodes with 4-dim embeddings in two well-separated clusters.
        let mut b = gtpq_graph::GraphBuilder::new();
        for i in 0..16u32 {
            let base = if i % 2 == 0 { 0.0f32 } else { 8.0 };
            b.add_node_with_attrs([
                ("label", gtpq_graph::AttrValue::str("doc")),
                (
                    "emb",
                    gtpq_graph::AttrValue::Vec(vec![base + i as f32 * 0.01, base, 0.0, 1.0]),
                ),
            ]);
        }
        let g = b.build();
        let q: Gtpq = "[label = doc, sim(emb, [0, 0, 0, 1]) < 1]*"
            .parse()
            .unwrap();
        let plan = Planner::new(&g).plan(&q);
        assert!(plan.render(&q).contains("PivotScan u0"));

        let mut stats = EvalStats::default();
        let mat = execute_candidates(&q, &g, &plan, &mut stats, &ExecCtl::unbounded()).unwrap();
        // Exactly the even (near-origin) cluster survives.
        assert_eq!(mat[0].len(), 8);
        assert!(mat[0].iter().all(|v| v.0 % 2 == 0));
        // The pivot filter discarded the far cluster without verification,
        // and the counters add up to the indexed vector count.
        assert!(stats.sim_verified >= 8);
        assert_eq!(stats.sim_verified + stats.sim_pivot_filtered, 16);
        assert!(stats.sim_pivot_filtered > 0);
        // `:explain analyze` gets an estimate-vs-actual row for the scan,
        // and the estimation-error rollup folds it in.
        let rendered = plan.render_with_actuals(&q, &stats);
        assert!(
            rendered.contains("PivotScan u0") && rendered.contains("actual 8 rows"),
            "{rendered}"
        );
        let scan = Operator::PivotScan(QueryNodeId(0));
        assert!(stats.operators.iter().any(|o| o.label == scan));
        let est = plan.candidates[0].estimated_rows;
        assert!(est >= 8, "pivot estimate {est} must upper-bound the answer");
    }

    #[test]
    fn backend_recommendation_requires_a_profile() {
        let g = example_graph();
        let q = example_query();
        let plan = Planner::new(&g).plan(&q);
        assert!(plan.backend.kind.is_none());
        let profile = GraphProfile::compute_with(&g, g.condensation());
        let plan = Planner::new(&g)
            .with_profile(profile)
            .with_prebuilt(&[BackendKind::ThreeHop])
            .plan(&q);
        assert!(plan.backend.kind.is_some());
        assert!(!plan.backend.reason.is_empty());
        assert!(plan.estimated_probes > 0);
        let header = format!("; est. probes {})\n", plan.estimated_probes);
        let text = plan.render(&q);
        assert!(text.starts_with("QueryPlan (backend: "), "{text}");
        assert!(text.contains(&header), "{text}");
    }

    #[test]
    fn rendering_mentions_every_operator() {
        let g = example_graph();
        let q = example_query();
        let plan = Planner::new(&g).plan(&q);
        let text = plan.render(&q);
        assert!(text.contains("QueryPlan"));
        assert!(text.contains("IndexScan u0"));
        assert!(text.contains("PruneDown"));
        assert!(text.contains("PruneUp"));
        assert!(text.contains("MatchingGraph"));
        assert!(text.contains("Collect"));
        assert!(text.starts_with("QueryPlan\n"), "{text}");
        // Only the candidate steps carry an estimate.
        let estimated = text.lines().filter(|l| l.contains(" est "));
        assert!(estimated.eq(text.lines().filter(|l| l.contains("Scan u"))));
    }

    #[test]
    fn render_with_actuals_pads_by_characters_and_reads_each_operators_actuals() {
        let g = example_graph();
        let text =
            r#"a1* { //b1* //d1 { where !(//e1) } where (/c1) | (//[year >= 3, label != "ü"]) }"#;
        let q: Gtpq = text.parse().unwrap();
        let profile = GraphProfile::compute_with(&g, g.condensation());
        let mut plan = Planner::new(&g).with_profile(profile).plan(&q);
        let exec = crate::GteaEngine::new(&g).execute(&q, &plan, crate::ExecOptions::unbounded());
        let mut stats = exec.unwrap().stats;
        for (i, op) in stats.operators.iter_mut().enumerate() {
            op.time = std::time::Duration::from_nanos(1_234_567 * i as u64 + 89);
        }
        // The downward round empties the answer, so neither the upward
        // round, the matching graph nor the enumeration ran; give the first
        // and the last a time to show.
        assert_eq!(stats.prune_up_time, Duration::ZERO);
        assert_eq!(stats.matching_graph_time, Duration::ZERO);
        (stats.candidates_after_upward, stats.prune_up_time) = (4, Duration::from_nanos(5_000));
        stats.enumerate_time = Duration::from_nanos(8_642_000);
        plan.backend = PlannedBackend {
            kind: Some(BackendKind::Sspi),
            reason: "a reason",
        };
        // Padding counts characters, not bytes (`ü`), and only the
        // operators the stats hold show actuals.
        let expected = [
            "QueryPlan (backend: sspi — a reason; est. probes 14)",
            "  IndexScan u5   [year >= 3 & label != ü]     est 0 rows → actual 0 rows in 89.000ns",
            "  IndexScan u1   [label = b1]                 est 2 rows → actual 2 rows in 1.235ms",
            "  IndexScan u4   [label = c1]                 est 2 rows → actual 2 rows in 2.469ms",
            "  IndexScan u0   [label = a1]                 est 3 rows → actual 3 rows in 3.704ms",
            "  IndexScan u2   [label = d1]                 est 3 rows → actual 3 rows in 4.938ms",
            "  IndexScan u3   [label = e1]                 est 3 rows → actual 3 rows in 6.173ms",
            "  PruneDown u2                                actual 0 rows in 7.407ms",
            "  PruneDown u0",
            "  PruneUp (prime subtree)                     actual 4 rows in 5.000µs",
            "  MatchingGraph",
            "  Collect                                     actual 0 rows in 8.642ms",
        ]
        .join("\n");
        assert_eq!(plan.render_with_actuals(&q, &stats), expected);
    }

    #[test]
    fn durations_render_as_the_debug_format_does() {
        let mut nanos: u64 = 0x9E37_79B9;
        let mut cases = vec![
            Duration::ZERO,
            Duration::from_nanos(1),
            Duration::from_nanos(999),
            Duration::from_nanos(1_000),
            Duration::from_nanos(999_999),
            Duration::from_nanos(1_000_500),
            Duration::from_nanos(999_999_500),
            Duration::from_nanos(999_999_499),
            Duration::new(1, 0),
            Duration::new(59, 999_500_000),
            Duration::new(u64::MAX, 999_999_999),
        ];
        for _ in 0..20_000 {
            nanos ^= nanos << 13;
            nanos ^= nanos >> 7;
            nanos ^= nanos << 17;
            cases.push(Duration::from_nanos(
                nanos % 10u64.pow(1 + (nanos % 11) as u32),
            ));
        }
        for d in cases {
            let mut out = String::new();
            write_duration(&mut out, d);
            assert_eq!(out, format!("{d:.3?}"));
        }
    }
}
