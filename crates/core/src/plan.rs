//! Cost-based query planning: an explicit physical-operator plan IR plus the
//! planner that builds one from data-graph statistics.
//!
//! The seed engine ran one hard-wired pipeline (candidates → prune down →
//! prune up → match → collect) with the candidate and prune work ordered by
//! query-node id.  This module makes the pipeline an explicit, inspectable
//! value — a [`QueryPlan`] — chosen per query by a [`Planner`]:
//!
//! * **Candidate selection** becomes one operator per query node: an
//!   [`AccessPath::IndexScan`] (posting-list intersection through the
//!   attribute inverted index), an [`AccessPath::PivotScan`] (pivot-filtered
//!   similarity selection for predicates with `sim(...)` conjuncts), or an
//!   [`AccessPath::FullScan`] (predicate test per node).  The planner
//!   estimates each node's candidate count from posting lengths and
//!   pivot-table statistics ([`Gtpq::estimate_candidates`]) and falls back
//!   to a full scan only when the index cannot restrict the node set
//!   meaningfully.
//! * **Downward pruning** is ordered by estimated candidate-set size instead
//!   of query-node id: among the internal nodes whose (internal) children
//!   have already been processed, the cheapest is pruned first, so small
//!   candidate sets shrink their parents before the expensive nodes run.
//!   Any requested order is repaired to a valid children-first order by
//!   [`QueryPlan::normalized_prune_down`], which makes arbitrary plan
//!   perturbations safe to execute.
//! * **A reachability backend** is recommended per query only by a planner
//!   handed a [`GraphProfile`] ([`Planner::with_profile`]): it estimates the
//!   number of set-probe calls the prune rounds will issue and weights each
//!   backend's [`cost hints`](BackendKind::cost_hints) by it (pre-built
//!   indexes have their construction cost treated as sunk).  The engine and
//!   the query service plan without one — default-option evaluation reads
//!   no index — so only the benchmark's replay still asks.
//!
//! The executor records estimated-vs-actual cardinalities and per-operator
//! wall times into [`EvalStats::operators`](crate::EvalStats), which
//! `:explain analyze` reads back.

use std::time::{Duration, Instant};

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{AttrPredicate, EdgeKind, Gtpq, QueryNodeId};
use gtpq_reach::{select_backend_for_query, BackendKind, GraphProfile};

use crate::exec::{ExecCtl, Interrupt};
use crate::prime::PrimeSubtree;
use crate::stats::{EvalStats, OperatorStats};

/// How one query node's initial candidates are selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPath {
    /// Posting-list intersection through the attribute inverted index
    /// (per-node verification only for non-indexable comparisons).
    IndexScan,
    /// Pivot-filtered similarity selection: the predicate carries `sim(...)`
    /// conjuncts served by the graph's [`gtpq_graph::SimTable`]s — triangle-
    /// inequality pruning over precomputed pivot distances, exact
    /// verification only for survivors, intersected with any posting-backed
    /// scalar comparisons.
    PivotScan,
    /// Predicate test against every data node.
    FullScan,
}

impl AccessPath {
    /// The operator name used in plan rendering and operator stats.
    pub fn name(self) -> &'static str {
        match self {
            AccessPath::IndexScan => "IndexScan",
            AccessPath::PivotScan => "PivotScan",
            AccessPath::FullScan => "FullScan",
        }
    }
}

/// One candidate-selection operator.
#[derive(Clone, Debug)]
pub struct CandidateStep {
    /// The query node whose candidates this step selects.
    pub node: QueryNodeId,
    /// The chosen access path.
    pub access: AccessPath,
    /// Estimated number of candidates produced.
    pub estimated_rows: u64,
}

/// One downward-prune operator (an internal query node).
#[derive(Clone, Copy, Debug)]
pub struct PruneStep {
    /// The internal query node whose candidate set this step prunes.
    pub node: QueryNodeId,
    /// Estimated number of candidates surviving the step.
    pub estimated_rows: u64,
}

impl PruneStep {
    /// The seed's prune order: every internal node, bottom-up by query-node
    /// id, with no estimates.  The planner-less baseline order.
    pub fn bottom_up(q: &Gtpq) -> Vec<PruneStep> {
        q.bottom_up_order()
            .into_iter()
            .filter(|&u| !q.node(u).is_leaf())
            .map(|node| PruneStep {
                node,
                estimated_rows: 0,
            })
            .collect()
    }
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

/// An explicit physical plan for one query: the operator pipeline the engine
/// executes, with per-operator cardinality estimates.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Candidate selection, one step per query node, in execution order.
    pub candidates: Vec<CandidateStep>,
    /// Downward-prune steps over internal query nodes.  Executed in a
    /// children-first repair of this order (see
    /// [`normalized_prune_down`](Self::normalized_prune_down)).
    ///
    /// There is deliberately no switch for the upward round: it is
    /// load-bearing for correctness (the shrunk-prime Cartesian product
    /// assumes upward-pruned candidate sets), so a plan may only carry its
    /// estimate, not disable it.
    pub prune_down: Vec<PruneStep>,
    /// Estimated candidates surviving the upward round (over prime nodes).
    pub upward_estimated_rows: u64,
    /// Estimated size (nodes + edges) of the maximal matching graph.
    pub(crate) matching_estimated_rows: u64,
    /// Estimated number of result tuples.
    pub(crate) collect_estimated_rows: u64,
    /// Estimated number of reachability set-probe calls both prune rounds
    /// will issue — the weight behind the backend recommendation.
    pub(crate) estimated_probes: u64,
    /// The backend recommendation.
    pub backend: PlannedBackend,
}

impl QueryPlan {
    /// The seed's hard-wired pipeline as an explicit plan: index scans
    /// everywhere, prune order by query-node id (bottom-up), no backend
    /// recommendation, no estimates.  Used as the planner-less baseline by
    /// the perturbed-plan property test, the plan-cache tests and the prune
    /// rounds' unit tests.
    pub fn fixed_pipeline(q: &Gtpq) -> Self {
        QueryPlan {
            candidates: q
                .node_ids()
                .map(|node| CandidateStep {
                    node,
                    access: AccessPath::IndexScan,
                    estimated_rows: 0,
                })
                .collect(),
            prune_down: PruneStep::bottom_up(q),
            upward_estimated_rows: 0,
            matching_estimated_rows: 0,
            collect_estimated_rows: 0,
            estimated_probes: 0,
            backend: PlannedBackend {
                kind: None,
                reason: "fixed pipeline (no planning)",
            },
        }
    }

    /// Repairs [`prune_down`](Self::prune_down) into a valid execution order:
    /// children before parents (downward pruning is exact only bottom-up),
    /// honouring the plan's relative order among independent nodes, with any
    /// internal nodes missing from the plan appended bottom-up.
    ///
    /// This is what makes arbitrary plan perturbations safe: a shuffled or
    /// truncated prune list still executes as *some* children-first order, so
    /// the answer cannot change — only the pruning efficiency can.
    pub fn normalized_prune_down(&self, q: &Gtpq) -> Vec<PruneStep> {
        let internal: Vec<QueryNodeId> = q
            .bottom_up_order()
            .into_iter()
            .filter(|&u| !q.node(u).is_leaf())
            .collect();
        // Requested sequence: first occurrence wins, unknown nodes dropped,
        // missing internal nodes appended in bottom-up order (estimate 0).
        let mut requested: Vec<PruneStep> = Vec::with_capacity(internal.len());
        for step in &self.prune_down {
            if internal.contains(&step.node) && !requested.iter().any(|s| s.node == step.node) {
                requested.push(*step);
            }
        }
        for &u in &internal {
            if !requested.iter().any(|s| s.node == u) {
                requested.push(PruneStep {
                    node: u,
                    estimated_rows: 0,
                });
            }
        }
        // Greedy topological emit: repeatedly take the first requested step
        // whose internal children have all been emitted.  Terminates because
        // the query is a tree (some leaf-most requested node is always
        // ready); O(n²) on query sizes that are tens of nodes at most.
        let mut order: Vec<PruneStep> = Vec::with_capacity(requested.len());
        let mut done = vec![false; q.size()];
        while order.len() < requested.len() {
            let next = requested
                .iter()
                .position(|s| {
                    !done[s.node.index()]
                        && q.children(s.node)
                            .iter()
                            .all(|&c| q.node(c).is_leaf() || done[c.index()])
                })
                .expect("a tree always has a ready internal node");
            done[requested[next].node.index()] = true;
            order.push(requested[next]);
        }
        order
    }

    /// Renders the plan as an indented operator tree with estimates, e.g.
    ///
    /// ```text
    /// QueryPlan (est. probes 42)
    ///   IndexScan u1 [label = b1]      est 2 rows
    ///   …
    ///   PruneDown u0                   est 1 rows
    ///   PruneUp (prime subtree)        est 3 rows
    ///   MatchingGraph                  est 6 rows
    ///   Collect                        est 4 rows
    /// ```
    ///
    /// The header names the recommended backend only when the plan carries
    /// one: `QueryPlan (backend: 3hop — per-query: …; est. probes 42)`.
    pub fn render(&self, q: &Gtpq) -> String {
        self.render_lines(q, None)
    }

    /// Like [`render`](Self::render), but appends each operator's actual row
    /// count from an executed run's recorded operator stats (matched by
    /// operator label; operators the run never reached — e.g. after an
    /// empty-candidate early exit — show only their estimate).
    pub fn render_with_actuals(&self, q: &Gtpq, stats: &EvalStats) -> String {
        self.render_lines(q, Some(stats))
    }

    /// Writes every line into one `String`: each label is formatted once,
    /// into a reused buffer, to look its actuals up by.
    fn render_lines(&self, q: &Gtpq, stats: Option<&EvalStats>) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::with_capacity(80 * (self.candidates.len() + 2 * self.prune_down.len() + 4));
        out.push_str("QueryPlan (");
        if let Some(kind) = self.backend.kind {
            let _ = write!(
                out,
                "backend: {} — {}; ",
                kind.as_str(),
                self.backend.reason
            );
        }
        let _ = writeln!(out, "est. probes {})", self.estimated_probes);
        // `  <shown> <detail> est <n> rows[ → actual <m> rows in <t>]`: the
        // shown label padded to 14 characters and the detail to 28 — or,
        // with no detail, the label to 43 — and the actuals of the operator
        // labelled `label` in the stats.
        let line = |out: &mut String,
                    shown: &str,
                    label: &str,
                    detail: Option<&AttrPredicate>,
                    est: u64| {
            out.push_str("  ");
            let start = out.len();
            out.push_str(shown);
            if let Some(detail) = detail {
                pad(out, start, 14);
                out.push(' ');
                let start = out.len();
                out.push('[');
                let _ = detail.write_to(out);
                out.push(']');
                pad(out, start, 28);
            } else {
                pad(out, start, 43);
            }
            let _ = write!(out, " est {est} rows");
            if let Some(o) = stats.and_then(|s| s.operators.iter().find(|o| o.label == label)) {
                let _ = write!(out, " → actual {} rows in ", o.actual_rows);
                write_duration(out, o.time);
            }
        };
        let mut label = String::new();
        for step in &self.candidates {
            label.clear();
            let _ = write!(label, "{} {}", step.access.name(), step.node);
            let attr = &q.node(step.node).attr;
            line(&mut out, &label, &label, Some(attr), step.estimated_rows);
            out.push('\n');
        }
        for step in self.normalized_prune_down(q) {
            label.clear();
            let _ = write!(label, "PruneDown {}", step.node);
            line(&mut out, &label, &label, None, step.estimated_rows);
            out.push('\n');
        }
        let up = "PruneUp (prime subtree)";
        line(&mut out, up, "PruneUp", None, self.upward_estimated_rows);
        out.push('\n');
        let matching = "MatchingGraph";
        line(
            &mut out,
            matching,
            matching,
            None,
            self.matching_estimated_rows,
        );
        out.push('\n');
        line(
            &mut out,
            "Collect",
            "Collect",
            None,
            self.collect_estimated_rows,
        );
        out
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

    /// Builds the cost-based plan for `q`.
    pub fn plan(&self, q: &Gtpq) -> QueryPlan {
        let g = self.graph;
        let n = g.node_count() as u64;

        // Per-node candidate estimates from posting lengths.
        let est: Vec<u64> = q
            .node_ids()
            .map(|u| q.estimate_candidates(g, u) as u64)
            .collect();

        // Access paths: index scans unless the predicate needs per-node
        // verification *and* the index restricts less than ~10% of the node
        // table — then the posting intersection is pure overhead on top of a
        // near-full verification scan.
        let mut candidates: Vec<CandidateStep> = q
            .node_ids()
            .map(|u| {
                let attr = &q.node(u).attr;
                let indexable = attr.is_fully_indexable();
                let access = if !attr.sims.is_empty() {
                    // Similarity conjuncts always go through the pivot
                    // filter; its estimate (from the pivot-table statistics)
                    // already reflects how selective the sim predicates are.
                    AccessPath::PivotScan
                } else if !attr.comparisons.is_empty() && !indexable && est[u.index()] * 10 >= n * 9
                {
                    AccessPath::FullScan
                } else {
                    AccessPath::IndexScan
                };
                CandidateStep {
                    node: u,
                    access,
                    estimated_rows: est[u.index()],
                }
            })
            .collect();
        // Cheapest selections first: the executor stops at the first empty
        // backbone selection, so a guaranteed-empty posting (estimate 0 is
        // an upper bound) answers the whole query with one probe.
        candidates.sort_by_key(|s| s.estimated_rows);

        // Crude post-prune survivor estimate: every child constraint roughly
        // halves a candidate set, capped at 1/16th.  Deliberately simple —
        // the executor records the actuals so the model can be judged.
        let est_out = |u: QueryNodeId| -> u64 {
            let shift = q.children(u).len().min(4) as u32;
            (est[u.index()] >> shift).max(1)
        };

        // Downward prune steps: children-first, cheapest candidate set first
        // among the ready nodes (normalized_prune_down preserves this order
        // because it is already a valid children-first order).
        let mut internal: Vec<QueryNodeId> =
            q.node_ids().filter(|&u| !q.node(u).is_leaf()).collect();
        let mut prune_down: Vec<PruneStep> = Vec::with_capacity(internal.len());
        let mut done = vec![false; q.size()];
        while !internal.is_empty() {
            let ready = internal
                .iter()
                .enumerate()
                .filter(|(_, &u)| {
                    q.children(u)
                        .iter()
                        .all(|&c| q.node(c).is_leaf() || done[c.index()])
                })
                .min_by_key(|(_, &u)| est[u.index()])
                .map(|(i, _)| i)
                .expect("a tree always has a ready internal node");
            let u = internal.swap_remove(ready);
            done[u.index()] = true;
            prune_down.push(PruneStep {
                node: u,
                estimated_rows: est_out(u),
            });
        }

        // Probe estimate: downward issues one prepared-probe call per
        // candidate of an internal node per AD child; upward one per
        // candidate of each prime child reached through an AD edge.
        let prime = PrimeSubtree::new(q);
        let mut probes: u64 = 0;
        for u in q.node_ids() {
            let ad_children = q
                .children(u)
                .iter()
                .filter(|&&c| q.incoming_edge(c) != Some(EdgeKind::Child))
                .count() as u64;
            probes = probes.saturating_add(est[u.index()].saturating_mul(ad_children));
        }
        let mut upward_estimated_rows: u64 = 0;
        for &u in &prime.nodes {
            upward_estimated_rows = upward_estimated_rows.saturating_add(est_out(u));
            for &c in prime.children_of(u) {
                if q.incoming_edge(c) != Some(EdgeKind::Child) {
                    probes = probes.saturating_add(est_out(c));
                }
            }
        }

        let backend = match &self.profile {
            Some(profile) => {
                let sel = select_backend_for_query(profile, probes, &self.prebuilt);
                PlannedBackend {
                    kind: Some(sel.kind),
                    reason: sel.reason,
                }
            }
            None => PlannedBackend {
                kind: None,
                reason: "engine-default backend (no graph profile)",
            },
        };

        let matching_estimated_rows = upward_estimated_rows.saturating_mul(2);
        let collect_estimated_rows = q
            .output_nodes()
            .iter()
            .map(|&u| est_out(u))
            .fold(1u64, u64::saturating_mul)
            .min(1 << 40);

        QueryPlan {
            candidates,
            prune_down,
            upward_estimated_rows,
            matching_estimated_rows,
            collect_estimated_rows,
            estimated_probes: probes,
            backend,
        }
    }
}

/// Executes the candidate-selection operators of `plan` in plan order,
/// returning the initial `mat(u)` sets and recording one operator per step.
///
/// Selection stops as soon as a *backbone* node selects zero candidates: a
/// backbone node needs an image in every match, so the answer is empty no
/// matter what the remaining nodes would select, and the engine returns
/// before any of the unselected (left empty) sets are read.  The planner
/// orders steps by ascending estimate, so guaranteed-empty postings
/// (estimate 0 — the estimate is an upper bound) bail out after one probe.
///
/// Robust against hand-written plans: query nodes missing from the plan are
/// appended as index scans, steps naming unknown nodes are ignored, and
/// duplicate steps keep the first occurrence.
///
/// `ctl` is polled at every step boundary; deadline expiry or cancellation
/// aborts with an [`Interrupt`].  `stats.candidate_time` accumulates the
/// elapsed time either way, so aborted requests keep their partial figures.
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
    let mut order: Vec<CandidateStep> = Vec::with_capacity(q.size());
    let mut seen = vec![false; q.size()];
    for step in &plan.candidates {
        if step.node.index() < q.size() && !seen[step.node.index()] {
            seen[step.node.index()] = true;
            order.push(step.clone());
        }
    }
    for u in q.node_ids() {
        if !seen[u.index()] {
            order.push(CandidateStep {
                node: u,
                access: AccessPath::IndexScan,
                estimated_rows: 0,
            });
        }
    }
    let mut mat: Vec<Vec<NodeId>> = vec![Vec::new(); q.size()];
    for step in &order {
        ctl.check()?;
        let u = step.node;
        let span = ctl
            .tracer()
            .span_with(|| format!("{} {}", step.access.name(), u));
        let op_start = Instant::now();
        let nodes = match step.access {
            // A pivot scan is the indexed selection with sim conjuncts in
            // the predicate: `select_candidates` routes them through the
            // graph's pivot tables and reports the filter counters.
            AccessPath::IndexScan | AccessPath::PivotScan => {
                let selection = q.candidates_indexed(g, u);
                stats.input_nodes += selection.verified;
                stats.scanned_nodes += selection.verified;
                stats.index_lookups += selection.posting_entries;
                stats.sim_pivot_filtered += selection.sim_pivot_filtered;
                stats.sim_verified += selection.sim_verified;
                if selection.from_index {
                    stats.index_hits += selection.nodes.len() as u64;
                }
                selection.nodes
            }
            AccessPath::FullScan => {
                stats.input_nodes += g.node_count() as u64;
                stats.scanned_nodes += g.node_count() as u64;
                q.candidates(g, u)
            }
        };
        stats.initial_candidates += nodes.len() as u64;
        span.field("est_rows", step.estimated_rows);
        span.field("actual_rows", nodes.len());
        drop(span);
        stats.operators.push(OperatorStats {
            label: format!("{} {}", step.access.name(), u),
            estimated_rows: step.estimated_rows,
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
    use gtpq_query::{AttrPredicate, CmpOp, GtpqBuilder};

    use super::*;

    #[test]
    fn default_plan_orders_prune_by_selectivity_and_stays_topological() {
        let g = example_graph();
        let q = example_query();
        let plan = Planner::new(&g).plan(&q);
        assert_eq!(plan.candidates.len(), q.size());
        // Every internal node appears exactly once.
        let internal: Vec<QueryNodeId> = q.node_ids().filter(|&u| !q.node(u).is_leaf()).collect();
        assert_eq!(plan.prune_down.len(), internal.len());
        // Children-first: every step's internal children precede it.
        let pos = |u: QueryNodeId| plan.prune_down.iter().position(|s| s.node == u).unwrap();
        for &u in &internal {
            for &c in q.children(u) {
                if !q.node(c).is_leaf() {
                    assert!(pos(c) < pos(u), "{c} must be pruned before {u}");
                }
            }
        }
        assert!(plan.estimated_probes > 0);
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
    fn full_scan_is_chosen_only_when_the_index_cannot_restrict() {
        let g = example_graph();
        // Label prefixes are string ranges (non-indexable) over the label
        // name posting, which covers every node — the planner should scan.
        let mut b = GtpqBuilder::new(AttrPredicate::any().and(
            gtpq_graph::LABEL_ATTR,
            CmpOp::Ge,
            gtpq_graph::AttrValue::str(""),
        ));
        b.mark_output(b.root_id());
        let q = b.build().unwrap();
        let plan = Planner::new(&g).plan(&q);
        assert_eq!(plan.candidates[0].access, AccessPath::FullScan);
        // A selective equality stays on the index.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a1"));
        b.mark_output(b.root_id());
        let q = b.build().unwrap();
        let plan = Planner::new(&g).plan(&q);
        assert_eq!(plan.candidates[0].access, AccessPath::IndexScan);
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
        assert_eq!(plan.candidates[0].access, AccessPath::PivotScan);
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
        assert!(stats.operators.iter().any(|o| o.label == "PivotScan u0"));
        let est = plan.candidates[0].estimated_rows;
        assert!(est >= 8, "pivot estimate {est} must upper-bound the answer");
    }

    #[test]
    fn normalization_repairs_shuffled_and_truncated_orders() {
        let g = example_graph();
        let q = example_query();
        let mut plan = Planner::new(&g).plan(&q);
        plan.prune_down.reverse();
        let order = plan.normalized_prune_down(&q);
        let pos = |u: QueryNodeId| order.iter().position(|s| s.node == u).unwrap();
        for step in &order {
            for &c in q.children(step.node) {
                if !q.node(c).is_leaf() {
                    assert!(pos(c) < pos(step.node));
                }
            }
        }
        // Truncated: missing internal nodes are appended.
        plan.prune_down.truncate(1);
        assert_eq!(
            plan.normalized_prune_down(&q).len(),
            q.node_ids().filter(|&u| !q.node(u).is_leaf()).count()
        );
        // Garbage steps are ignored.
        plan.prune_down.push(PruneStep {
            node: QueryNodeId(999),
            estimated_rows: 1,
        });
        assert!(plan
            .normalized_prune_down(&q)
            .iter()
            .all(|s| s.node.index() < q.size()));
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
        assert!(plan.render(&q).starts_with("QueryPlan (backend: "));
    }

    #[test]
    fn fixed_pipeline_mirrors_the_seed_shape() {
        let g = example_graph();
        let q = example_query();
        let plan = QueryPlan::fixed_pipeline(&q);
        assert_eq!(plan.candidates.len(), q.size());
        assert!(plan
            .candidates
            .iter()
            .all(|s| s.access == AccessPath::IndexScan));
        assert!(plan.backend.kind.is_none());
        // Its prune order is already children-first, so normalization is a
        // no-op reordering-wise.
        let normalized = plan.normalized_prune_down(&q);
        let ids: Vec<QueryNodeId> = plan.prune_down.iter().map(|s| s.node).collect();
        let norm_ids: Vec<QueryNodeId> = normalized.iter().map(|s| s.node).collect();
        assert_eq!(ids, norm_ids);
        let _ = g;
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
        assert!(text.starts_with("QueryPlan (est. probes "), "{text}");
    }

    #[test]
    fn execute_candidates_defaults_missing_steps_to_index_scans() {
        let g = example_graph();
        let q = example_query();
        let mut plan = Planner::new(&g).plan(&q);
        plan.candidates.clear();
        let mut stats = EvalStats::default();
        let mat = execute_candidates(&q, &g, &plan, &mut stats, &ExecCtl::unbounded()).unwrap();
        for u in q.node_ids() {
            assert_eq!(mat[u.index()], q.candidates(&g, u));
        }
        assert_eq!(stats.operators.len(), q.size());
    }

    #[test]
    fn render_with_actuals_pads_by_characters_and_reads_each_operators_actuals() {
        let g = example_graph();
        let text =
            r#"a1* { //b1* //d1 { where !(//e1) } where (/c1) | (//[year >= 3, label != "ü"]) }"#;
        let q: Gtpq = text.parse().unwrap();
        let mut plan = Planner::new(&g).plan(&q);
        let exec = crate::GteaEngine::new(&g).execute(&q, &plan, crate::ExecOptions::unbounded());
        let mut stats = exec.unwrap().stats;
        for (i, op) in stats.operators.iter_mut().enumerate() {
            op.time = std::time::Duration::from_nanos(1_234_567 * i as u64 + 89);
        }
        stats.operators.retain(|o| o.label != "MatchingGraph");
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
            "  PruneDown u2                                est 1 rows → actual 0 rows in 7.407ms",
            "  PruneDown u0                                est 1 rows",
            "  PruneUp (prime subtree)                     est 3 rows",
            "  MatchingGraph                               est 6 rows",
            "  Collect                                     est 2 rows → actual 0 rows in 8.642ms",
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
