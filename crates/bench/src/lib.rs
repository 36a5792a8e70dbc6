//! Shared harness code for the experiment binary and the Criterion benches.
//!
//! Every table and figure of the paper's evaluation maps to one function in
//! [`experiments`]; the `experiments` binary prints the corresponding rows.
//! The three Criterion benches cover what `perfbench` does not measure yet.
//! "Baselines, data, experiments" in `docs/ARCHITECTURE.md` is the index
//! from paper artefact to the code here.

pub mod experiments;
pub mod workloads;

pub use experiments::run_experiment;
