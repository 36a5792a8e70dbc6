//! Evaluation statistics (the paper's I/O-cost metrics, Appendix C.1).

use std::time::Duration;

/// Estimated-vs-actual cardinality and wall time of one physical operator.
///
/// Recorded by the plan executor for every candidate-selection step, every
/// downward-prune step, the upward round, the matching-graph build and the
/// collect phase, in execution order.  `estimated_rows` comes from the plan's
/// cost model, `actual_rows` is what the operator really produced — the pair
/// is the feedback signal for judging (and later improving) the cost model.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OperatorStats {
    /// Stable operator label (`IndexScan u0`, `PruneDown u2`, `PruneUp`,
    /// `MatchingGraph`, `Collect`), matching the plan's rendering.
    pub label: String,
    /// Rows the planner estimated this operator would produce.
    pub estimated_rows: u64,
    /// Rows the operator actually produced.
    pub actual_rows: u64,
    /// Wall time spent in the operator.
    pub time: Duration,
}

impl OperatorStats {
    /// Relative cardinality estimation error `|est − actual| / max(actual, 1)`.
    pub(crate) fn relative_error(&self) -> f64 {
        let actual = self.actual_rows.max(1) as f64;
        (self.estimated_rows as f64 - self.actual_rows as f64).abs() / actual
    }
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
    ///   adjacency entries read for PC children (the marked parents or the
    ///   scanned children of a downward step, the parents of an upward
    ///   one);
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
    /// Per-operator estimated-vs-actual cardinalities and wall times, in
    /// execution order.
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

    /// Sum of estimated rows across recorded operators.
    pub fn estimated_rows(&self) -> u64 {
        self.operators.iter().map(|o| o.estimated_rows).sum()
    }

    /// Sum of actual rows across recorded operators.
    pub fn actual_rows(&self) -> u64 {
        self.operators.iter().map(|o| o.actual_rows).sum()
    }

    /// Sum of `|estimated − actual|` across recorded operators — the
    /// cancellation-proof absolute error the service metrics aggregate
    /// (an over-estimate cannot hide an under-estimate).
    pub fn absolute_estimation_error(&self) -> u64 {
        self.operators
            .iter()
            .map(|o| o.estimated_rows.abs_diff(o.actual_rows))
            .sum()
    }

    /// Mean relative cardinality-estimation error over the recorded
    /// operators (0.0 when none were recorded — e.g. on a cache hit).
    pub fn estimation_error(&self) -> f64 {
        if self.operators.is_empty() {
            return 0.0;
        }
        self.operators
            .iter()
            .map(OperatorStats::relative_error)
            .sum::<f64>()
            / self.operators.len() as f64
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
        let stats = EvalStats {
            operators: vec![
                OperatorStats {
                    label: "IndexScan u0".into(),
                    estimated_rows: 10,
                    actual_rows: 10,
                    time: Duration::from_millis(1),
                },
                OperatorStats {
                    label: "PruneDown u0".into(),
                    estimated_rows: 6,
                    actual_rows: 4,
                    time: Duration::from_millis(2),
                },
            ],
            plan_time: Duration::from_millis(1),
            ..Default::default()
        };
        assert_eq!(stats.estimated_rows(), 16);
        assert_eq!(stats.actual_rows(), 14);
        // Errors: 0.0 and 0.5 → mean 0.25.
        assert!((stats.estimation_error() - 0.25).abs() < 1e-9);
        assert_eq!(stats.total_time(), Duration::from_millis(1));
        assert_eq!(EvalStats::default().estimation_error(), 0.0);
        // actual = 0 divides by 1, not by zero.
        let zero = OperatorStats {
            estimated_rows: 3,
            ..Default::default()
        };
        assert!((zero.relative_error() - 3.0).abs() < 1e-9);
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
