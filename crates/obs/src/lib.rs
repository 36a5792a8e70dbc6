//! # gtpq-obs — observability primitives for the GTPQ engine and service
//!
//! The evaluation pipeline and the query service need to answer "what is
//! this request doing and where does the time go" without taking locks on
//! the hot path or paying anything when nobody is looking.  This crate is
//! the dependency-free toolbox they share:
//!
//! * [`Tracer`] / [`SpanGuard`] — structured per-request tracing.  A span
//!   tree covers the pipeline stages (plan, candidate selection, both prune
//!   rounds, matching-graph build, per-pull enumeration) with operator
//!   estimates/actuals as span fields; a finished [`Trace`] renders as an
//!   indented tree or exports as Chrome `trace_event` JSON for
//!   `about:tracing` / Perfetto.  Disabled tracers cost two branches per
//!   span site.  A tracer stays on the request's thread, which runs every
//!   stage of the request.
//! * [`LogHistogram`] / [`HistogramSnapshot`] — lock-free log-bucketed
//!   (HDR-style) histograms for latency percentiles (p50/p90/p99/p999) over
//!   the full `u64` nanosecond range with ≤ 12.5% bucket error.
//! * [`WindowedCounter`] — per-second ring counters behind "QPS over the
//!   last 30 s" rates, as opposed to since-process-start averages.
//! * [`PromText`] — Prometheus text-format exposition (counters, gauges,
//!   histograms with cumulative `le` buckets in seconds).
//! * [`json`] — a minimal JSON parser so the hand-rolled exporters can be
//!   round-trip-tested without a JSON dependency.
//!
//! See `docs/OBSERVABILITY.md` at the repository root for the span model,
//! bucket layout, metric names and slow-query-log semantics.

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod prom;
pub mod trace;
pub mod window;

pub use hist::{HistogramSnapshot, LogHistogram};
pub use prom::{valid_metric_name, PromText, LATENCY_BOUNDS_SECONDS};
pub use trace::{Span, SpanGuard, Trace, Tracer};
pub use window::WindowedCounter;
