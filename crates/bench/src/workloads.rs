//! The datasets the experiments run on.
//!
//! Scales here are deliberately small (the generators scale the paper's
//! datasets down ~50×, see "Substitutions" in `docs/ARCHITECTURE.md`) so the
//! full experiment suite runs in minutes on a laptop while preserving the
//! relative shapes.

use gtpq_datagen::{generate_arxiv, generate_xmark, ArxivConfig, XmarkConfig};
use gtpq_graph::DataGraph;

/// XMark scale factors used by the Table 1 / Fig. 8(a) sweep.
pub(crate) const XMARK_SCALES: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 4.0];

/// Query sizes used by the arXiv experiments (Fig. 9).
pub(crate) const ARXIV_QUERY_SIZES: [usize; 5] = [5, 7, 9, 11, 13];

/// Generates the XMark-like graph for a paper scale factor, scaled down so the
/// whole sweep stays laptop sized.
pub(crate) fn xmark_graph(paper_scale: f64) -> DataGraph {
    generate_xmark(&XmarkConfig::with_scale(paper_scale * 0.2))
}

/// Generates the arXiv-like graph used by §5.2.
pub(crate) fn arxiv_graph() -> DataGraph {
    generate_arxiv(&ArxivConfig::default())
}

/// A small arXiv-like graph, for the streaming experiment.
pub(crate) fn arxiv_graph_small() -> DataGraph {
    generate_arxiv(&ArxivConfig::small())
}

/// Ten person/item label-group pairs, mirroring the paper's "ten random
/// queries per type" methodology with a fixed, reproducible choice.
pub(crate) fn label_groups() -> Vec<(u32, u32, u32)> {
    (0..10).map(|i| (i, (i + 3) % 10, (i + 7) % 10)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_constructors_produce_data() {
        let g = xmark_graph(0.5);
        assert!(g.node_count() > 500);
        let a = arxiv_graph_small();
        assert!(a.node_count() > 500);
        assert_eq!(label_groups().len(), 10);
    }
}
