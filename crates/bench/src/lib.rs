//! The experiments harness: the paper's evaluation and three measurements of
//! this implementation.
//!
//! Every table and figure of the paper's evaluation maps to one function in
//! [`experiments`]; the `experiments` binary prints the corresponding rows.
//! Its `sim`, `streaming` and `obs` experiments cover what `perfbench` does
//! not measure, and `frontend` splits the text front end by function.
//! "Baselines, data, experiments" in `docs/ARCHITECTURE.md` is the index
//! from paper artefact to the code here.

pub mod experiments;
pub mod workloads;

pub use experiments::run_experiment;
