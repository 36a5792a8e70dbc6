//! The traced run: every op once through `submit` (untraced, with stats) and
//! once through the [`Replay`], reconciled against each other, and the
//! per-layer metrics read off the recorded spans.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtpq_core::{EvalStats, Trace, Tracer};
use gtpq_graph::GraphSnapshot;
use gtpq_service::QueryOutcome;

use crate::measure::Sizing;
use crate::replay::{Replay, Replayed};
use crate::report::Metric;
use crate::session::{service_config, text_of, timed_submit, Ready, Session, Timed};
use crate::stats::{median, Checksum, Digest};
use crate::workloads::{Shape, Spec};

/// Every per-layer metric of `BENCHMARK.json` with its unit, in its order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("query.parse_us", "us"),
    ("analysis.sat_us", "us"),
    ("service.canon_us", "us"),
    ("service.cache_lookup_us", "us"),
    ("service.submit_overhead_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.new_ms", "ms"),
    ("service.rotate_us", "us"),
    ("service.post_commit_first_read_ms", "ms"),
    ("core.plan_us", "us"),
    ("core.candidates_us", "us"),
    ("core.candidates_rows", "count"),
    ("core.index_serve_ratio", "ratio"),
    ("core.prune_down_ms", "ms"),
    ("core.prune_down_survivor_ratio", "ratio"),
    ("core.input_nodes", "count"),
    ("core.prune_up_ms", "ms"),
    ("core.prune_up_survivor_ratio", "ratio"),
    ("core.matching_ms", "ms"),
    ("core.matching_size", "count"),
    ("core.enumerate_ms", "ms"),
    ("core.enumerate_rows", "count"),
    ("core.enumerate_ns_per_row", "ns"),
    ("core.first_row_ms", "ms"),
    ("core.t2_over_serial_ratio", "ratio"),
    ("reach.build_ms", "ms"),
    ("reach.index_lookups", "count"),
    ("graph.commit_ms", "ms"),
    ("graph.commit_rebuild_share", "ratio"),
    ("graph.snap_open_ms", "ms"),
    ("graph.snap_close_ms", "ms"),
    ("graph.snap_save_ms", "ms"),
    ("graph.snap_bytes_per_edge", "B"),
    ("trace.ops", "count"),
    ("trace.replay_over_submit_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Span name, metric it becomes, and the factor from nanoseconds to the
/// metric's unit.  The value is the median self time of the spans of that
/// name recorded under an op (or as a root of their own, like the commit).
const TIMED_LAYERS: [(&str, &str, f64); 17] = [
    ("query.parse", "query.parse_us", 1e-3),
    ("analysis.sat", "analysis.sat_us", 1e-3),
    ("service.canon", "service.canon_us", 1e-3),
    ("service.cache_lookup", "service.cache_lookup_us", 1e-3),
    ("service.rotate", "service.rotate_us", 1e-3),
    ("core.candidates", "core.candidates_us", 1e-3),
    ("core.prune_down", "core.prune_down_ms", 1e-6),
    ("core.prune_up", "core.prune_up_ms", 1e-6),
    ("core.matching", "core.matching_ms", 1e-6),
    ("core.enumerate", "core.enumerate_ms", 1e-6),
    ("graph.commit", "graph.commit_ms", 1e-6),
    ("graph.snap_open", "graph.snap_open_ms", 1e-6),
    ("graph.snap_close", "graph.snap_close_ms", 1e-6),
    // The four below are paid in set-up on most workloads, so their
    // samples are taken from the set-up spans too.
    ("core.plan", "core.plan_us", 1e-3),
    ("service.new", "service.new_ms", 1e-6),
    ("reach.build", "reach.build_ms", 1e-6),
    ("graph.snap_save", "graph.snap_save_ms", 1e-6),
];
const SETUP_LAYERS: [&str; 4] = ["core.plan", "service.new", "reach.build", "graph.snap_save"];

/// Root span of everything that happens before the traced pass.
const SETUP: &str = "setup";
/// Root span of one replayed op.
const OP: &str = "op";

/// Traced ops per shape.  Request lists are replayed in whole passes until
/// at least `REQUEST_OPS` ops are traced, so that the medians below rest on
/// a few dozen pairs even for an 11-request list.
const REQUEST_OPS: usize = 60;
const CACHED_OPS: usize = 10_000;
const LIVE_CYCLES: usize = 100;
const COLD_OPS: usize = 100;

/// Replay wall time over `submit` wall time (median over ops) must stay
/// inside this band, and the share of `submit` time no replayed layer
/// accounts for within ±[`MAX_UNATTRIBUTED`]; otherwise the replay has
/// drifted from `submit`.  A replay that lost a stage misses by the stage's
/// share on the workload that stage dominates (0.8 and more); these limits
/// sit well above what the sandbox's noise alone produced in 30 full-size
/// traced runs (ratio 0.96-1.06, unattributed -0.01-0.07).
const REPLAY_RATIO_BAND: (f64, f64) = (0.85, 1.2);
const MAX_UNATTRIBUTED: f64 = 0.2;

/// Self time of every span: its duration minus what its direct children
/// cover (children of one parent do not overlap: the replay is serial).
pub fn self_times(trace: &Trace) -> Vec<Duration> {
    let mut own: Vec<Duration> = trace.spans.iter().map(|s| s.dur).collect();
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur);
        }
    }
    own
}

/// Index of every span's root (parents precede children in a trace).
fn roots(trace: &Trace) -> Vec<usize> {
    let mut root = Vec::with_capacity(trace.spans.len());
    for (i, span) in trace.spans.iter().enumerate() {
        root.push(span.parent.map_or(i, |p| root[p]));
    }
    root
}

/// Self-time samples (ns) of each span name, apart for spans under the
/// set-up root and spans under an op or a root of their own.
#[derive(Default)]
struct Layer {
    measured: Vec<f64>,
    setup: Vec<f64>,
}

fn layers<'t>(trace: &'t Trace, own: &[Duration], root: &[usize]) -> HashMap<&'t str, Layer> {
    let mut map: HashMap<&str, Layer> = HashMap::new();
    for (i, span) in trace.spans.iter().enumerate() {
        let layer = map.entry(span.name.as_ref()).or_default();
        let ns = own[i].as_nanos() as f64;
        if trace.spans[root[i]].name == SETUP {
            layer.setup.push(ns);
        } else {
            layer.measured.push(ns);
        }
    }
    map
}

/// Exact counts summed over the traced ops, from the replay's `EvalStats`.
#[derive(Default)]
struct Counts {
    initial_candidates: u64,
    index_hits: u64,
    after_downward: u64,
    prime_candidates: u64,
    after_upward: u64,
    input_nodes: u64,
    index_lookups: u64,
    matching_size: u64,
    enumerated_rows: u64,
}

/// What the traced pass accumulates besides spans.
#[derive(Default)]
struct Pass {
    ops: u64,
    hits: u64,
    /// Wall time of each op through `submit` (single-threaded) and through
    /// the replay, ns.
    submit_ns: Vec<f64>,
    replay_ns: Vec<f64>,
    /// Wall time of each op as the workload really sends it, where that is
    /// not the single-threaded `submit` (`arxiv_enum_t2`), ns.
    threaded_ns: Vec<f64>,
    first_read_ms: Vec<f64>,
    first_row_ms: Vec<f64>,
    counts: Counts,
    failures: Vec<String>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The counts of `EvalStats` that are exact and must agree between `submit`
/// and the replay of the same request.
fn exact_counts(s: &EvalStats) -> [u64; 8] {
    [
        s.initial_candidates,
        s.index_hits,
        s.candidates_after_downward,
        s.candidates_after_upward,
        s.intermediate_size,
        s.enumerated_rows,
        s.index_lookups,
        s.input_nodes,
    ]
}

impl Pass {
    /// Books one op served both ways; `what` names it in failure messages.
    fn book(
        &mut self,
        what: &str,
        real: Timed,
        replay_wall: Duration,
        replayed: Result<Replayed, String>,
    ) {
        self.ops += 1;
        self.submit_ns.push(real.latency.as_nanos() as f64);
        self.replay_ns.push(replay_wall.as_nanos() as f64);
        let (outcome, replayed): (QueryOutcome, Replayed) = match (real.outcome, replayed) {
            (Ok(o), Ok(r)) => (o, r),
            (Err(e), _) => return self.failures.push(format!("{what}: submit failed: {e}")),
            (_, Err(e)) => return self.failures.push(format!("{what}: replay failed: {e}")),
        };
        if Digest::of(&outcome.rows, None) != Digest::of(&replayed.rows, None) {
            self.failures
                .push(format!("{what}: replay rows differ from submit's"));
        }
        if outcome.from_cache != replayed.from_cache {
            self.failures.push(format!(
                "{what}: submit from_cache={} but replay from_cache={}",
                outcome.from_cache, replayed.from_cache
            ));
        }
        let submit_stats = outcome.stats.unwrap_or_default();
        if exact_counts(&submit_stats) != exact_counts(&replayed.stats) {
            self.failures.push(format!(
                "{what}: replay counts {:?} differ from submit's {:?}",
                exact_counts(&replayed.stats),
                exact_counts(&submit_stats)
            ));
        }
        self.hits += u64::from(replayed.from_cache);
        if !replayed.from_cache {
            let (c, s) = (&mut self.counts, &replayed.stats);
            c.initial_candidates += s.initial_candidates;
            c.index_hits += s.index_hits;
            c.after_downward += s.candidates_after_downward;
            c.prime_candidates += replayed.prime_candidates;
            c.after_upward += s.candidates_after_upward;
            c.input_nodes += s.input_nodes;
            c.index_lookups += s.index_lookups;
            c.matching_size += s.intermediate_size / 2;
            c.enumerated_rows += s.enumerated_rows;
            self.first_row_ms
                .push(replayed.first_row.as_secs_f64() * 1e3);
        }
    }
}

/// Runs `real` and `replay` back to back, `replay` first when `flip` is set,
/// so neither side always inherits the other's warm CPU caches.
fn both(
    flip: bool,
    real: impl FnOnce() -> Timed,
    replay: impl FnOnce() -> Result<Replayed, String>,
) -> (Timed, Duration, Result<Replayed, String>) {
    let timed_replay = || {
        let start = Instant::now();
        let replayed = replay();
        (start.elapsed(), replayed)
    };
    if flip {
        let (wall, replayed) = timed_replay();
        (real(), wall, replayed)
    } else {
        let real = real();
        let (wall, replayed) = timed_replay();
        (real, wall, replayed)
    }
}

/// Everything one traced run produced.
pub struct Traced {
    pub per_layer: Vec<Metric>,
    /// Share of the replayed ops' wall time spent in each layer (sums of
    /// self time), largest first; `unattributed` is the ops' own self time.
    pub shares: Vec<(String, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub checksum: Checksum,
    pub backends: String,
    pub graph_size: (usize, usize),
    pub trace: Trace,
}

/// Sets the workload up once, replays its traced pass and derives the
/// per-layer metrics.  `dir` holds the snapshot files of the cold path.
pub fn run(spec: &Spec, seed: u64, sizing: Sizing, dir: &Path) -> Result<Traced, String> {
    let Ready {
        mut session,
        checksum,
        failures,
    } = Session::setup(spec, seed, false, dir)?;
    let backends = session.backends();
    let config = service_config(spec);
    let tracer = Tracer::enabled();
    let mut pass = Pass {
        failures,
        ..Pass::default()
    };
    let mut extra: Vec<(&'static str, f64)> = Vec::new();
    let scaled = |n: usize| (n / sizing.traced_divisor).max(1);

    match &mut session {
        Session::Requests(s) => {
            let Shape::Requests {
                bypass_cache,
                threads,
                ..
            } = spec.shape
            else {
                unreachable!("a request session comes from a request shape");
            };
            let setup = tracer.span(SETUP);
            let mut replay = Replay::over_graph(&tracer, Arc::clone(&s.graph), config);
            for req in &s.requests {
                replay.request(text_of(req), req.limit, bypass_cache)?;
            }
            drop(setup);
            let ops = scaled(if bypass_cache {
                REQUEST_OPS
            } else {
                CACHED_OPS
            })
            .next_multiple_of(s.requests.len());
            for op in 0..ops {
                let req = &s.requests[op % s.requests.len()];
                if threads > 1 {
                    // The op as sent; the single-threaded `submit` below is
                    // what the (serial) replay reconciles with.
                    let start = Instant::now();
                    let threaded = s.service.submit(req);
                    pass.threaded_ns.push(start.elapsed().as_nanos() as f64);
                    let reference = s.reference[op % s.requests.len()];
                    if !threaded.is_ok_and(|o| Digest::of(&o.rows, None) == reference) {
                        pass.failures
                            .push(format!("op {op}: threaded answer differs from serial"));
                    }
                }
                let serial = req.clone().with_threads(1).with_stats();
                let (real, wall, replayed) = both(
                    op % 2 == 1,
                    || timed_submit(&s.service, &serial),
                    || {
                        let _op = tracer.span(OP);
                        replay.request(text_of(req), req.limit, bypass_cache)
                    },
                );
                pass.book(&format!("op {op}"), real, wall, replayed);
            }
        }
        Session::Live(s) => {
            let setup = tracer.span(SETUP);
            let mut replay = Replay::over_handle(&tracer, Arc::clone(&s.handle), config);
            for req in &s.reads {
                replay.request(text_of(req), req.limit, false)?;
            }
            drop(setup);
            let before = s.handle.stats();
            for cycle in 0..scaled(LIVE_CYCLES) {
                {
                    let _commit = tracer.span("graph.commit");
                    s.commit_next();
                }
                for i in 0..s.reads.len() {
                    let req = s.reads[i].clone().with_stats();
                    let (real, wall, replayed) = both(
                        (cycle + i) % 2 == 1,
                        || timed_submit(&s.service, &req),
                        || {
                            let _op = tracer.span(OP);
                            replay.request(text_of(&req), req.limit, false)
                        },
                    );
                    if i == 0 {
                        pass.first_read_ms.push(wall.as_secs_f64() * 1e3);
                    }
                    pass.book(&format!("cycle {cycle} read {i}"), real, wall, replayed);
                }
            }
            let after = s.handle.stats();
            let rebuilds =
                (after.csr_rebuilds + after.index_rebuilds + after.condensation_rebuilds)
                    - (before.csr_rebuilds + before.index_rebuilds + before.condensation_rebuilds);
            let merges = (after.csr_merges + after.index_merges + after.condensation_fast)
                - (before.csr_merges + before.index_merges + before.condensation_fast);
            extra.push((
                "graph.commit_rebuild_share",
                ratio(rebuilds, rebuilds + merges),
            ));
            pass.failures.extend(s.final_state_failures(&mut false));
        }
        Session::Cold(s) => {
            // `GraphSnapshot::save` of the mapped graph into a second file:
            // what writing this data set costs through the library's own
            // writer (set-up used the generator's streamed one).
            let copy = s.path.with_extension("copy.gtpq");
            let snapshot = GraphSnapshot::open_mmap(&s.path).map_err(|e| e.to_string())?;
            {
                let _setup = tracer.span(SETUP);
                let _save = tracer.span("graph.snap_save");
                snapshot.save(&copy).map_err(|e| e.to_string())?;
            }
            let bytes = std::fs::metadata(&copy).map_or(0, |m| m.len());
            std::fs::remove_file(&copy).ok();
            extra.push((
                "graph.snap_bytes_per_edge",
                ratio(bytes, snapshot.graph().edge_count() as u64),
            ));
            drop(snapshot);
            let text = text_of(&s.probe).to_owned();
            for op in 0..scaled(COLD_OPS) {
                let (real, wall, replayed) = both(
                    op % 2 == 1,
                    || s.op(true),
                    || {
                        let _op = tracer.span(OP);
                        let snapshot = {
                            let _span = tracer.span("graph.snap_open");
                            GraphSnapshot::open_mmap(&s.path).map_err(|e| e.to_string())?
                        };
                        let mut replay =
                            Replay::over_snapshot(&tracer, Arc::new(snapshot), config.clone());
                        let replayed = replay.request(&text, s.probe.limit, false);
                        let _span = tracer.span("graph.snap_close");
                        drop(replay);
                        replayed
                    },
                );
                pass.book(&format!("op {op}"), real, wall, replayed);
            }
        }
    }
    let graph_size = session.graph_size();
    drop(session);
    let trace = tracer.finish().expect("the tracer was enabled");
    let (per_layer, shares) = derive(&trace, &pass, &extra);
    let mut failures = pass.failures;
    // A quick pass has too few pairs for its medians to be held to a band.
    if sizing.traced_divisor == 1 {
        failures.extend(reconciliation_failures(spec, &per_layer));
    }
    Ok(Traced {
        per_layer,
        shares,
        attempted: pass.ops,
        failures,
        checksum,
        backends,
        graph_size,
        trace,
    })
}

/// Turns spans and counts into the metric list of [`PER_LAYER`] and the
/// share of op time per layer.
fn derive(
    trace: &Trace,
    pass: &Pass,
    extra: &[(&'static str, f64)],
) -> (Vec<Metric>, Vec<(String, f64)>) {
    let root = roots(trace);
    let own = self_times(trace);
    let layers = layers(trace, &own, &root);
    let mut values: HashMap<&str, f64> = extra.iter().copied().collect();

    for (span, metric, scale) in TIMED_LAYERS {
        let Some(layer) = layers.get(span) else {
            continue;
        };
        let mut samples = layer.measured.clone();
        if SETUP_LAYERS.contains(&span) {
            samples.extend(&layer.setup);
        }
        values.insert(metric, median(&samples) * scale);
    }

    // Per op, the time some replayed layer accounts for; and the shares of
    // op wall time, from sums.
    let is_op = |i: usize| trace.spans[i].parent.is_none() && trace.spans[i].name == OP;
    let attributed_ns: Vec<f64> = (0..trace.spans.len())
        .filter(|&i| is_op(i))
        .map(|i| (trace.spans[i].dur - own[i]).as_nanos() as f64)
        .collect();
    let op_wall: f64 = (0..trace.spans.len())
        .filter(|&i| is_op(i))
        .map(|i| trace.spans[i].dur.as_nanos() as f64)
        .sum();
    let mut by_layer: HashMap<&str, f64> = HashMap::new();
    for (i, span) in trace.spans.iter().enumerate() {
        if trace.spans[root[i]].name == OP {
            let name = if span.name == OP {
                "unattributed"
            } else {
                span.name.as_ref()
            };
            *by_layer.entry(name).or_default() += own[i].as_nanos() as f64;
        }
    }
    let mut shares: Vec<(String, f64)> = by_layer
        .iter()
        .map(|(name, ns)| ((*name).to_owned(), ns / op_wall.max(1.0)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    // Medians of per-op ratios, not ratios of sums: the two sides of a pair
    // run back to back, so a change of machine speed hits a few pairs, and
    // the median ignores those.
    let per_op = |num: &[f64], den: &[f64]| -> f64 {
        let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d.max(1.0)).collect();
        median(&ratios)
    };
    let unattributed: Vec<f64> = pass
        .submit_ns
        .iter()
        .zip(&attributed_ns)
        .map(|(submit, attributed)| submit - attributed)
        .collect();
    let c = &pass.counts;
    let enumerate_ns: f64 = layers
        .get("core.enumerate")
        .map_or(0.0, |l| l.measured.iter().sum());
    values.extend([
        (
            "service.submit_overhead_us",
            (median(&pass.submit_ns) - median(&attributed_ns)) * 1e-3,
        ),
        ("service.cache_hit_ratio", ratio(pass.hits, pass.ops)),
        (
            "service.post_commit_first_read_ms",
            median(&pass.first_read_ms),
        ),
        ("core.candidates_rows", c.initial_candidates as f64),
        (
            "core.index_serve_ratio",
            ratio(c.index_hits, c.initial_candidates),
        ),
        (
            "core.prune_down_survivor_ratio",
            ratio(c.after_downward, c.initial_candidates),
        ),
        ("core.input_nodes", c.input_nodes as f64),
        (
            "core.prune_up_survivor_ratio",
            ratio(c.after_upward, c.prime_candidates),
        ),
        ("core.matching_size", c.matching_size as f64),
        ("core.enumerate_rows", c.enumerated_rows as f64),
        (
            "core.enumerate_ns_per_row",
            enumerate_ns / (c.enumerated_rows as f64).max(1.0),
        ),
        ("core.first_row_ms", median(&pass.first_row_ms)),
        ("reach.index_lookups", c.index_lookups as f64),
        ("trace.ops", pass.ops as f64),
        (
            "trace.replay_over_submit_ratio",
            per_op(&pass.replay_ns, &pass.submit_ns),
        ),
        (
            "trace.unattributed_share",
            per_op(&unattributed, &pass.submit_ns),
        ),
        // Only `arxiv_enum_t2` sends threaded requests; 0 elsewhere.
        (
            "core.t2_over_serial_ratio",
            per_op(&pass.threaded_ns, &pass.submit_ns),
        ),
    ]);
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    (per_layer, shares)
}

/// The replay-fidelity check on wall time.  The cached workload is exempt:
/// its ops take tens of microseconds, where the spans themselves and the
/// service's metrics bookkeeping are a visible share of the op.
fn reconciliation_failures(spec: &Spec, per_layer: &[Metric]) -> Vec<String> {
    if matches!(
        spec.shape,
        Shape::Requests {
            bypass_cache: false,
            ..
        }
    ) {
        return Vec::new();
    }
    let value = |name: &str| {
        per_layer
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let mut failures = Vec::new();
    let r = value("trace.replay_over_submit_ratio");
    if r < REPLAY_RATIO_BAND.0 || r > REPLAY_RATIO_BAND.1 {
        failures.push(format!(
            "replay took {r:.3} of submit's time, outside {REPLAY_RATIO_BAND:?}: the replay has drifted"
        ));
    }
    let u = value("trace.unattributed_share");
    if u.abs() > MAX_UNATTRIBUTED {
        failures.push(format!(
            "{u:.3} of submit's time is in no replayed layer (limit {MAX_UNATTRIBUTED})"
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Busy-waits so spans have a duration the assertions can order.
    fn spin(us: u64) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_micros(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let tracer = Tracer::enabled();
        {
            let _op = tracer.span(OP);
            spin(200);
            {
                let _a = tracer.span("a");
                spin(300);
                let _nested = tracer.span("a.inner");
                spin(400);
            }
            {
                let _b = tracer.span("b");
                spin(500);
            }
        }
        let trace = tracer.finish().unwrap();
        let own = self_times(&trace);
        let by_name = |name: &str| {
            let i = trace.spans.iter().position(|s| s.name == name).unwrap();
            (trace.spans[i].dur, own[i])
        };
        let (op_dur, op_own) = by_name(OP);
        let (a_dur, a_own) = by_name("a");
        let (inner_dur, inner_own) = by_name("a.inner");
        let (b_dur, b_own) = by_name("b");
        // Leaves own all their time; parents own what no child covers.
        assert_eq!(inner_own, inner_dur);
        assert_eq!(b_own, b_dur);
        assert_eq!(a_own, a_dur - inner_dur);
        assert_eq!(
            op_own,
            op_dur - a_dur - b_dur,
            "siblings both subtract, grandchildren do not"
        );
        assert!(a_own >= Duration::from_micros(300) && op_own >= Duration::from_micros(200));
        // Self times partition the root: nothing is counted twice.
        assert_eq!(own.iter().sum::<Duration>(), op_dur);
        assert_eq!(roots(&trace), vec![0; 4]);
    }

    #[test]
    fn setup_spans_are_kept_apart_from_measured_ones() {
        let tracer = Tracer::enabled();
        {
            let _setup = tracer.span(SETUP);
            let _x = tracer.span("core.plan");
        }
        {
            let _op = tracer.span(OP);
            let _x = tracer.span("core.plan");
        }
        drop(tracer.span("graph.commit"));
        let trace = tracer.finish().unwrap();
        let layers = layers(&trace, &self_times(&trace), &roots(&trace));
        assert_eq!(layers["core.plan"].setup.len(), 1);
        assert_eq!(layers["core.plan"].measured.len(), 1);
        assert_eq!(layers["graph.commit"].measured.len(), 1);
    }

    /// A quick traced run of the cheapest workload: the replay returns
    /// `submit`'s rows and exact counts on every op, and every per-layer
    /// metric is emitted.  (Wall-time reconciliation is not asserted here:
    /// tests also run unoptimised, where spans weigh differently.)
    #[test]
    fn quick_traced_run_reconciles_counts_and_emits_every_metric() {
        let spec = crate::workloads::spec("arxiv_enum").unwrap();
        let traced = run(&spec, 7, Sizing::quick(2.0), &std::env::temp_dir()).unwrap();
        let exact: Vec<&String> = traced
            .failures
            .iter()
            .filter(|f| !f.contains("of submit's time"))
            .collect();
        assert!(exact.is_empty(), "{exact:?}");
        let names: Vec<&str> = traced.per_layer.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _)| n));
        let value = |name: &str| traced.per_layer.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(value("trace.ops"), 11.0);
        assert!(value("core.enumerate_ms") > 0.0 && value("core.enumerate_rows") > 0.0);
        assert_eq!(
            value("graph.commit_ms"),
            0.0,
            "no op of this workload commits"
        );
        assert_eq!(traced.shares[0].0, "core.enumerate", "{:?}", traced.shares);
        assert!(traced.trace.spans.iter().any(|s| s.name == SETUP));
    }

    #[test]
    fn every_timed_layer_is_a_declared_metric() {
        for (_, metric, _) in TIMED_LAYERS {
            assert!(
                PER_LAYER.iter().any(|(name, _)| *name == metric),
                "{metric}"
            );
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "metric names are unique");
    }
}
