//! Cost counters shared by the baseline algorithms (Fig. 10 metrics).

use std::time::Duration;

/// Counters collected by a baseline evaluation.
#[derive(Clone, Debug, Default)]
pub struct BaselineStats {
    /// Data nodes accessed (`#input`).
    pub input_nodes: u64,
    /// Reachability-index elements looked up (`#index`).
    pub index_lookups: u64,
    /// Size of the intermediate results (`#intermediate`): path solutions and
    /// join tuples for the tuple-based algorithms, nodes+edges of the match
    /// structure for the graph-based ones.
    pub intermediate_results: u64,
    /// Time spent in pre-filtering (only non-zero for TwigStackD).
    pub filtering_time: Duration,
    /// Total evaluation time.
    pub total_time: Duration,
    /// Number of decomposed subqueries evaluated (only non-zero when driven
    /// through the decompose-and-merge wrapper).
    pub subqueries: u64,
}

impl BaselineStats {
    /// Merges counters from a subquery evaluation (used by decompose-and-merge).
    pub(crate) fn absorb(&mut self, other: &BaselineStats) {
        self.input_nodes += other.input_nodes;
        self.index_lookups += other.index_lookups;
        self.intermediate_results += other.intermediate_results;
        self.filtering_time += other.filtering_time;
        self.total_time += other.total_time;
        self.subqueries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = BaselineStats {
            input_nodes: 10,
            index_lookups: 5,
            ..Default::default()
        };
        let b = BaselineStats {
            input_nodes: 7,
            intermediate_results: 3,
            total_time: Duration::from_millis(2),
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.input_nodes, 17);
        assert_eq!(a.intermediate_results, 3);
        assert_eq!(a.subqueries, 1);
        assert_eq!(a.total_time, Duration::from_millis(2));
    }
}
