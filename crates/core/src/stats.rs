//! Evaluation statistics (the paper's I/O-cost metrics, Appendix C.1).

use std::fmt;
use std::time::Duration;

use gtpq_query::QueryNodeId;

/// A recorded operator: its kind and the query node it ran for.  Its
/// `Display` is the label `:explain` prints (`IndexScan u0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operator {
    /// Candidate selection through the inverted index.
    IndexScan(QueryNodeId),
    /// Candidate selection through the pivot tables (`sim(...)` conjuncts).
    PivotScan(QueryNodeId),
    /// One downward-prune step (Procedure 6).
    PruneDown(QueryNodeId),
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, u) = match *self {
            Operator::IndexScan(u) => ("IndexScan ", u),
            Operator::PivotScan(u) => ("PivotScan ", u),
            Operator::PruneDown(u) => ("PruneDown ", u),
        };
        f.write_str(kind)?;
        fmt::Display::fmt(&u, f)
    }
}

/// Actual rows and wall time of one physical operator, beside the
/// planner's estimate where it made one.
///
/// Recorded for every candidate-selection step and every downward-prune
/// step, in execution order.  Only candidate selection carries an estimate
/// (the shortest probe of its predicate, an upper bound): it is the only
/// one a planning decision reads.  The upward round, the matching graph and
/// the enumeration have their own fields
/// ([`EvalStats::candidates_after_upward`], [`EvalStats::intermediate_size`],
/// [`EvalStats::enumerated_rows`] and their times).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperatorStats {
    /// The operator, matching the plan's rendering.
    pub label: Operator,
    /// Rows the planner estimated this operator would produce, if it
    /// estimated any.
    pub estimated_rows: Option<u64>,
    /// Rows the operator actually produced.
    pub actual_rows: u64,
    /// Wall time spent in the operator.
    pub time: Duration,
}

/// Counters and timings collected during one evaluation.
#[derive(Clone, Debug, Default)]
pub struct EvalStats {
    /// Number of data-node accesses (`#input` in Fig. 10): candidates scanned
    /// during candidate selection and the two pruning rounds.
    pub input_nodes: u64,
    /// Number of index elements looked up (`#index` in Fig. 10), summed
    /// over every source:
    ///
    /// * candidate selection: posting-list entries read
    ///   (`plan::execute_candidates`);
    /// * the prune rounds: condensation edges visited by each AD child's
    ///   [`reaching`](gtpq_graph::sweep::reaching) race, both sides, and
    ///   the adjacency entries the chosen side reads for a PC child (the
    ///   child's candidates' parents, or the undecided candidates'
    ///   children, for a downward step; the surviving parents' children or
    ///   the child's candidates' parents for an upward edge).  A child a
    ///   step never resolves, because its formula was already decided,
    ///   adds nothing;
    /// * the matching graph: each AD pass's edges (its backward sweep, its
    ///   region walk and its row ORs) and the adjacency entries read for PC
    ///   children;
    /// * the pairwise ablation arm only: hop-list or surplus entries the
    ///   reachability index reads per point probe.
    pub index_lookups: u64,
    /// Size of the intermediate results (`#intermediate` in Fig. 10): twice the
    /// number of nodes plus edges of the maximal matching graph, following the
    /// paper's accounting.
    pub intermediate_size: u64,
    /// Total number of initial candidate matching nodes (Σ |mat(u)|).
    pub initial_candidates: u64,
    /// Initial candidates served without per-node attribute checks
    /// (posting-list intersections, or trivially for wildcard predicates).
    pub index_hits: u64,
    /// Nodes whose attribute tuples were individually checked during
    /// candidate selection (verification of non-indexable comparisons).
    pub scanned_nodes: u64,
    /// Indexed vectors discarded by the pivot filter's triangle-inequality
    /// check during `sim(...)` candidate selection — each one an exact
    /// distance computation avoided.
    pub sim_pivot_filtered: u64,
    /// Indexed vectors that survived the pivot filter and were verified with
    /// an exact distance / cosine computation.
    pub sim_verified: u64,
    /// Candidates remaining after the downward pruning round.
    pub candidates_after_downward: u64,
    /// Candidates of the prime subtree remaining after the upward round.
    pub candidates_after_upward: u64,
    /// Number of query nodes in the prime subtree.
    pub prime_subtree_size: u64,
    /// Number of query nodes in the shrunk prime subtree.
    pub shrunk_subtree_size: u64,
    /// Number of result tuples produced.
    pub result_tuples: u64,
    /// Epoch of the graph snapshot the query evaluated against (0 for
    /// static, never-mutated graphs).  Set by the query service; lets a
    /// caller verify which generation of a live graph answered.
    pub graph_epoch: u64,
    /// Rows pulled from the streaming enumerator, including rows skipped by
    /// an `OFFSET` and the one look-ahead row that decides truncation.  With
    /// a pushed-down `LIMIT` this stays near `offset + limit + 1`; without
    /// one it equals the full answer size — the headline counter for how
    /// much enumeration work limit pushdown avoided.
    pub enumerated_rows: u64,
    /// Time spent selecting candidates.
    pub candidate_time: Duration,
    /// Time spent in the downward pruning round.
    pub prune_down_time: Duration,
    /// Time spent in the upward pruning round.
    pub prune_up_time: Duration,
    /// Time spent building the maximal matching graph.
    pub matching_graph_time: Duration,
    /// Wall time from the enumerator's first pull to its last, including
    /// the collector's copy of each row
    /// ([`MatchStream::enumerate_time`](crate::MatchStream::enumerate_time)).
    pub enumerate_time: Duration,
    /// Wall time from the start of enumeration to the first produced row
    /// (zero when the answer is empty) — the streaming latency headline.
    pub time_to_first_row: Duration,
    /// Time spent building the query plan (zero when a pre-built plan was
    /// executed via `GteaEngine::execute`).
    pub plan_time: Duration,
    /// Per-operator actual rows and wall times, beside the candidate
    /// steps' estimates, in execution order.
    pub operators: Vec<OperatorStats>,
}

impl EvalStats {
    /// Total pruning (filtering) time — the quantity compared against
    /// TwigStackD's pre-filtering in Fig. 9(d).
    pub fn filtering_time(&self) -> Duration {
        self.prune_down_time + self.prune_up_time
    }

    /// Total evaluation time, planning included.
    pub fn total_time(&self) -> Duration {
        self.plan_time
            + self.candidate_time
            + self.prune_down_time
            + self.prune_up_time
            + self.matching_graph_time
            + self.enumerate_time
    }

    /// The recorded operators that carry an estimate, as
    /// `(estimated, actual)` rows.
    fn estimated(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let ops = self.operators.iter();
        ops.filter_map(|o| Some((o.estimated_rows?, o.actual_rows)))
    }

    /// Sum of estimated rows across the operators that carry an estimate.
    pub fn estimated_rows(&self) -> u64 {
        self.estimated().map(|(est, _)| est).sum()
    }

    /// Sum of actual rows across the operators that carry an estimate.
    pub fn actual_rows(&self) -> u64 {
        self.estimated().map(|(_, actual)| actual).sum()
    }

    /// Sum of `|estimated − actual|` across the operators that carry an
    /// estimate — the cancellation-proof absolute error the service metrics
    /// aggregate (an over-estimate cannot hide an under-estimate).
    pub fn absolute_estimation_error(&self) -> u64 {
        self.estimated()
            .map(|(est, actual)| est.abs_diff(actual))
            .sum()
    }

    /// Mean relative cardinality-estimation error `|est − actual| /
    /// max(actual, 1)` over the operators that carry an estimate (0.0 when
    /// none were recorded — e.g. on a cache hit).
    pub fn estimation_error(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0);
        for (est, actual) in self.estimated() {
            sum += est.abs_diff(actual) as f64 / actual.max(1) as f64;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }

    /// Fraction of initial candidates served straight from the attribute
    /// inverted index (1.0 = no node scanned during candidate selection).
    pub fn index_serve_rate(&self) -> f64 {
        serve_rate(self.index_hits, self.scanned_nodes)
    }
}

/// Shared serve-rate formula: index-served over everything touched during
/// candidate selection (0.0 when idle).  Used by [`EvalStats`] and by the
/// service-level metrics snapshot so the two reports cannot drift apart.
pub fn serve_rate(index_hits: u64, scanned_nodes: u64) -> f64 {
    let touched = index_hits + scanned_nodes;
    if touched == 0 {
        return 0.0;
    }
    index_hits as f64 / touched as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let stats = EvalStats {
            prune_down_time: Duration::from_millis(3),
            prune_up_time: Duration::from_millis(2),
            enumerate_time: Duration::from_millis(5),
            ..Default::default()
        };
        assert_eq!(stats.filtering_time(), Duration::from_millis(5));
        assert_eq!(stats.total_time(), Duration::from_millis(10));
    }

    #[test]
    fn operator_rollups_and_estimation_error() {
        let u0 = QueryNodeId(0);
        let op = |label, estimated_rows, actual_rows| OperatorStats {
            label,
            estimated_rows,
            actual_rows,
            time: Duration::from_millis(1),
        };
        let stats = EvalStats {
            operators: vec![
                op(Operator::IndexScan(u0), Some(10), 10),
                op(Operator::PivotScan(QueryNodeId(1)), Some(6), 4),
                op(Operator::PruneDown(u0), None, 7),
            ],
            plan_time: Duration::from_millis(1),
            ..Default::default()
        };
        // The unestimated prune step counts in none of the rollups.
        assert_eq!(stats.estimated_rows(), 16);
        assert_eq!(stats.actual_rows(), 14);
        assert_eq!(stats.absolute_estimation_error(), 2);
        // Errors: 0.0 and 0.5 → mean 0.25.
        assert!((stats.estimation_error() - 0.25).abs() < 1e-9);
        assert_eq!(stats.total_time(), Duration::from_millis(1));
        assert_eq!(EvalStats::default().estimation_error(), 0.0);
        // actual = 0 divides by 1, not by zero.
        let zero = EvalStats {
            operators: vec![op(Operator::IndexScan(u0), Some(3), 0)],
            ..Default::default()
        };
        assert!((zero.estimation_error() - 3.0).abs() < 1e-9);
        assert_eq!(stats.operators[1].label.to_string(), "PivotScan u1");
        assert_eq!(stats.operators[2].label.to_string(), "PruneDown u0");
    }

    #[test]
    fn index_serve_rate_splits_hits_and_scans() {
        let stats = EvalStats {
            index_hits: 30,
            scanned_nodes: 10,
            ..Default::default()
        };
        assert!((stats.index_serve_rate() - 0.75).abs() < 1e-9);
        assert_eq!(EvalStats::default().index_serve_rate(), 0.0);
    }
}
