//! Shared harness code for the experiment binary and the Criterion benches.
//!
//! Every table and figure of the paper's evaluation maps to one function in
//! [`experiments`]; the `experiments` binary prints the corresponding rows
//! and the Criterion benches re-measure the hot paths with statistical
//! rigour.  "Baselines, data, experiments" in `docs/ARCHITECTURE.md` is the
//! index from paper artefact to the code here.

pub mod experiments;
pub mod workloads;

pub use experiments::run_experiment;
