//! # gtpq-cli — interactive front end for the textual GTPQ query language
//!
//! The `gtpq-cli` binary loads one of the synthetic datasets
//! (`gtpq-datagen`) or maps a saved snapshot, serves it through a live
//! [`QueryService`], and evaluates queries written in the textual query
//! language (`docs/QUERY_LANGUAGE.md`) — either one-shot via
//! `--query`, or as a REPL reading from stdin:
//!
//! ```text
//! $ gtpq-cli --dataset dblp
//! gtpq> inproceedings {
//!   ...>     / [label = title]*
//!   ...>     where / [label = author, value = Alice]
//!   ...> }
//! title
//! ------
//! v17:title
//! ...
//! 12 rows
//! ```
//!
//! Everything except reading stdin/stdout lives in this library crate so the
//! whole surface is testable: argument parsing ([`CliOptions::parse`]), the
//! REPL loop ([`repl`]) over arbitrary readers/writers, and query execution
//! ([`Session`]).

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use gtpq_core::Trace;
use gtpq_datagen::{apply_ops, update_stream, UpdateStreamConfig};
use gtpq_graph::{DataGraph, GraphHandle, GraphSnapshot};
use gtpq_query::Gtpq;
use gtpq_service::{QueryError, QueryRequest, QueryService, ServiceConfig, SlowOutcome};

/// Usage text printed by `--help`, `:help` and on argument errors.
pub const USAGE: &str = "\
gtpq-cli — evaluate textual GTPQ queries against a generated dataset

USAGE:
    gtpq-cli [OPTIONS]                 start a REPL on stdin
    gtpq-cli [OPTIONS] --query TEXT    evaluate one query and exit

OPTIONS:
    --dataset NAME    dblp | arxiv | xmark | embed  [default: dblp]
                      (embed: documents with pseudo-embedding vectors and
                      planted near-duplicate clusters, for `sim(...)`
                      similarity queries)
    --scale FACTOR    dataset size multiplier       [default: 1.0]
    --seed N          generator seed                [default: 42]
    --snapshot PATH   serve a saved `.gtpq` binary snapshot instead of
                      generating a dataset: the file is mapped zero-copy, so
                      start-up costs page faults, not a graph build
                      (write one with :save; --dataset/--scale are ignored)
    --query TEXT      one-shot query text (see docs/QUERY_LANGUAGE.md)
    --stats           print per-query evaluation statistics
    --limit N         result rows to fetch (pushed into the engine: the
                      enumerator stops after N rows)  [default: 20]
    --timeout MS      per-query deadline in milliseconds [default: none]
    --slow-ms MS|off  slow-query-log threshold in milliseconds; `off`
                      disables the log                  [default: 100]
    --trace-out PATH  with --query: record a span trace of the query and
                      write it to PATH as Chrome trace_event JSON
    --help            this text

REPL COMMANDS:
    :help             command list
    :explain QUERY    parse a query, print its tree and the physical plan
                      (candidate steps, prune order, per-operator row estimates)
    :explain analyze QUERY
                      run the query and append actual per-operator rows
    :stats [on|off]   toggle per-query statistics
    :limit N|none     result rows to fetch (real pushdown, not display trim)
    :timeout MS|off   per-query deadline in milliseconds
    :metrics          service counters, latency/first-row percentiles,
                      recent rates (QPS, hit rate over the last 30s),
                      graph epoch and stale-cache evictions
    :ingest [E] [N]   commit E epochs of N generated mutations each to the
                      live graph (defaults: 1 epoch of 32 ops); reports
                      what they inserted and the graph's new size
    :save PATH        write the current graph epoch as a `.gtpq` binary
                      snapshot (reload instantly with --snapshot PATH)
    :trace [on|off]   toggle per-query span tracing; bare `:trace` prints
                      the span tree of the last traced query
    :trace save PATH  write the last trace as Chrome trace_event JSON
                      (load it at chrome://tracing or ui.perfetto.dev)
    :slowlog          queries that crossed the slow threshold, each with
                      its latency, outcome and executed plan
    :quit             exit (also :q, :exit, Ctrl-D)

Queries may span multiple lines; input is evaluated once all brackets are
balanced. `#` starts a comment.";

/// The datasets the CLI can generate in-process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Small DBLP-like bibliography graph (Example 1 of the paper).
    Dblp,
    /// arXiv-like citation/authorship graph (dense, cyclic-free, deep).
    Arxiv,
    /// XMark-like auction graph with IDREF cross edges.
    Xmark,
    /// Embedded-text corpus: documents carrying pseudo-embedding vectors
    /// with planted near-duplicate clusters (for `sim(...)` queries).
    Embed,
}

impl Dataset {
    /// Parses a `--dataset` argument.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dblp" => Ok(Dataset::Dblp),
            "arxiv" => Ok(Dataset::Arxiv),
            "xmark" => Ok(Dataset::Xmark),
            "embed" => Ok(Dataset::Embed),
            other => Err(format!(
                "unknown dataset `{other}` (expected dblp, arxiv, xmark or embed)"
            )),
        }
    }

    /// The dataset name as written on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Dblp => "dblp",
            Dataset::Arxiv => "arxiv",
            Dataset::Xmark => "xmark",
            Dataset::Embed => "embed",
        }
    }

    /// Generates the data graph at the given scale and seed.
    pub fn generate(self, scale: f64, seed: u64) -> DataGraph {
        match self {
            Dataset::Dblp => {
                let papers = ((240.0 * scale).round() as usize).max(8);
                gtpq_datagen::generate_dblp(papers, seed)
            }
            Dataset::Arxiv => {
                let base = gtpq_datagen::ArxivConfig::small();
                gtpq_datagen::generate_arxiv(&gtpq_datagen::ArxivConfig {
                    papers: ((base.papers as f64 * scale).round() as usize).max(8),
                    authors: ((base.authors as f64 * scale).round() as usize).max(4),
                    seed,
                    ..base
                })
            }
            Dataset::Xmark => {
                let mut config = gtpq_datagen::XmarkConfig::with_scale(0.1 * scale);
                config.seed = seed;
                gtpq_datagen::generate_xmark(&config)
            }
            Dataset::Embed => {
                let base = gtpq_datagen::EmbedConfig::default();
                gtpq_datagen::generate_embed(&gtpq_datagen::EmbedConfig {
                    clusters: ((base.clusters as f64 * scale).round() as usize).max(2),
                    seed,
                    ..base
                })
            }
        }
    }
}

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct CliOptions {
    /// Dataset to generate and serve.
    pub dataset: Dataset,
    /// Dataset scale multiplier.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Serve this `.gtpq` snapshot (mapped zero-copy) instead of generating
    /// `dataset`; `--dataset`/`--scale`/`--seed` are ignored when set.
    pub snapshot: Option<String>,
    /// One-shot query; `None` starts the REPL.
    pub query: Option<String>,
    /// Whether to print per-query [`EvalStats`](gtpq_core::EvalStats).
    pub(crate) show_stats: bool,
    /// Result-row window pushed down into the engine per query.
    pub limit: usize,
    /// Per-query deadline in milliseconds; `None` = no deadline.
    pub(crate) timeout_ms: Option<u64>,
    /// Slow-query-log threshold override: outer `None` keeps the service
    /// default (100ms), `Some(None)` disables the log (`--slow-ms off`),
    /// `Some(Some(ms))` sets the threshold.
    pub(crate) slow_ms: Option<Option<u64>>,
    /// With `--query`: trace the query and write Chrome `trace_event` JSON
    /// to this path.  Also turns tracing on for the session.
    pub trace_out: Option<String>,
    /// `--help` was requested.
    pub help: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            dataset: Dataset::Dblp,
            scale: 1.0,
            seed: 42,
            snapshot: None,
            query: None,
            show_stats: false,
            limit: 20,
            timeout_ms: None,
            slow_ms: None,
            trace_out: None,
            help: false,
        }
    }
}

impl CliOptions {
    /// Parses command-line arguments (everything after the binary name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value_of = |flag: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--dataset" => opts.dataset = Dataset::parse(&value_of("--dataset")?)?,
                "--scale" => {
                    let v = value_of("--scale")?;
                    opts.scale = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("invalid --scale `{v}`"))?;
                }
                "--seed" => {
                    let v = value_of("--seed")?;
                    opts.seed = v.parse().map_err(|_| format!("invalid --seed `{v}`"))?;
                }
                "--snapshot" => opts.snapshot = Some(value_of("--snapshot")?),
                "--query" => opts.query = Some(value_of("--query")?),
                "--stats" => opts.show_stats = true,
                "--limit" => {
                    let v = value_of("--limit")?;
                    opts.limit = v
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| format!("invalid --limit `{v}` (expected N > 0)"))?;
                }
                "--timeout" => {
                    let v = value_of("--timeout")?;
                    opts.timeout_ms = Some(
                        v.parse()
                            .map_err(|_| format!("invalid --timeout `{v}` (expected ms)"))?,
                    );
                }
                "--slow-ms" => {
                    let v = value_of("--slow-ms")?;
                    opts.slow_ms = Some(match v.as_str() {
                        "off" | "none" => None,
                        _ => Some(v.parse().map_err(|_| {
                            format!("invalid --slow-ms `{v}` (expected ms or off)")
                        })?),
                    });
                }
                "--trace-out" => opts.trace_out = Some(value_of("--trace-out")?),
                "--help" | "-h" => opts.help = true,
                other => return Err(format!("unknown argument `{other}` (try --help)")),
            }
        }
        Ok(opts)
    }
}

/// What the REPL should do after handling one input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Keep reading input; the string is the rendered output.
    Continue(String),
    /// Exit the REPL.
    Quit,
}

/// A loaded dataset plus the query service answering over it — the state
/// behind both the REPL and the one-shot mode.
pub struct Session {
    service: QueryService,
    handle: Arc<GraphHandle>,
    /// Where the graph came from, for the banner: a dataset name or
    /// `snapshot PATH`.
    source: String,
    show_stats: bool,
    limit: Option<usize>,
    timeout: Option<Duration>,
    trace_on: bool,
    last_trace: Option<Trace>,
}

impl Session {
    /// Builds the session described by `opts`: generates the dataset — or,
    /// with `--snapshot`, maps a saved `.gtpq` file zero-copy — and wires the
    /// service on top.  `Err` carries the rendered diagnostic when the
    /// snapshot cannot be opened.
    pub fn new(opts: &CliOptions) -> Result<Self, String> {
        let (handle, source) = match &opts.snapshot {
            Some(path) => {
                let snapshot = GraphSnapshot::open_mmap(path)
                    .map_err(|e| format!("cannot open snapshot `{path}`: {e}"))?;
                // The mapped snapshot seeds a live handle: reads serve from
                // the mapping, while `:ingest` commits copy-on-write epochs
                // that never touch the file.
                let handle = GraphHandle::from_snapshot(snapshot);
                (Arc::new(handle), format!("snapshot {path}"))
            }
            None => {
                let handle = GraphHandle::new(opts.dataset.generate(opts.scale, opts.seed));
                (Arc::new(handle), opts.dataset.name().to_owned())
            }
        };
        let mut config = ServiceConfig::default();
        if let Some(threshold) = opts.slow_ms {
            config.slow_query_threshold = threshold.map(Duration::from_millis);
        }
        let service = QueryService::live_with_config(Arc::clone(&handle), config);
        Ok(Self {
            service,
            handle,
            source,
            show_stats: opts.show_stats,
            limit: Some(opts.limit.max(1)),
            timeout: opts.timeout_ms.map(Duration::from_millis),
            trace_on: opts.trace_out.is_some(),
            last_trace: None,
        })
    }

    /// Writes the current graph epoch as a `.gtpq` binary snapshot at
    /// `path`; returns the confirmation line for the REPL (or main) to
    /// print.  The snapshot captures the *committed* state — pending
    /// uncommitted mutations are not included.  The write is atomic (temp
    /// file + rename), and saving onto the file that backs a `--snapshot`
    /// session's own live mapping is refused with a diagnostic.
    pub(crate) fn save_snapshot(&self, path: &str) -> Result<String, String> {
        let snapshot = self.handle.snapshot();
        snapshot
            .save(path)
            .map_err(|e| format!("cannot save snapshot `{path}`: {e}"))?;
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let g = snapshot.graph();
        Ok(format!(
            "saved epoch {}: {} nodes, {} edges ({} bytes) to {path}",
            snapshot.epoch(),
            g.node_count(),
            g.edge_count(),
            bytes,
        ))
    }

    /// The span tree of the most recent traced query, if tracing was on.
    pub fn last_trace(&self) -> Option<&Trace> {
        self.last_trace.as_ref()
    }

    /// Writes the last recorded trace to `path` as Chrome `trace_event`
    /// JSON; returns the confirmation line for the REPL (or main) to print.
    pub fn save_trace(&self, path: &str) -> Result<String, String> {
        let trace = self.last_trace.as_ref().ok_or_else(|| {
            "no trace recorded yet (turn on with :trace on, then run a query)".to_owned()
        })?;
        let json = trace.to_chrome_json();
        std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        Ok(format!(
            "wrote {} span{} ({} bytes) to {path}",
            trace.spans.len(),
            if trace.spans.len() == 1 { "" } else { "s" },
            json.len(),
        ))
    }

    /// The underlying query service (tests compare REPL answers against
    /// direct builder-constructed evaluation through this).
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// The live mutation handle behind the service (tests drive commits
    /// through this to exercise epoch rotation).
    pub fn graph_handle(&self) -> &Arc<GraphHandle> {
        &self.handle
    }

    /// Applies `epochs` committed batches of `ops_per_epoch` generated
    /// mutations to the live graph and reports what they inserted and the
    /// graph's new size.  The stream seed advances
    /// with the graph epoch, so repeated `:ingest` calls produce different
    /// (but reproducible) mutations.
    pub(crate) fn ingest(&self, epochs: usize, ops_per_epoch: usize) -> String {
        let before = self.handle.stats();
        let cfg = UpdateStreamConfig {
            seed: self.handle.epoch(),
            epochs,
            ops_per_epoch,
            ..UpdateStreamConfig::default()
        };
        let stream = update_stream(&self.service.graph(), &cfg);
        for batch in &stream {
            apply_ops(&self.handle, batch);
            self.handle.commit();
        }
        let after = self.handle.stats();
        // Reading the graph through the service rotates its generation
        // state, so the next query answers for the new epoch immediately.
        let g = self.service.graph();
        format!(
            "ingested {} epoch{} of {} ops: +{} nodes, +{} edges, {} attr upserts\n\
             graph now at epoch {}: {} nodes, {} edges, {} strongly connected components",
            epochs,
            if epochs == 1 { "" } else { "s" },
            ops_per_epoch,
            after.nodes_inserted - before.nodes_inserted,
            after.edges_inserted - before.edges_inserted,
            after.attrs_upserted - before.attrs_upserted,
            self.handle.epoch(),
            g.node_count(),
            g.edge_count(),
            g.condensation().component_count(),
        )
    }

    /// One line describing the loaded graph, shown at REPL start.
    pub fn banner(&self) -> String {
        let g = self.service.graph();
        format!(
            "dataset {} — {} nodes, {} edges",
            self.source,
            g.node_count(),
            g.edge_count(),
        )
    }

    /// Handles one complete REPL input: a `:command` or a query text.
    pub fn handle(&mut self, input: &str) -> Outcome {
        let trimmed = input.trim();
        if trimmed.is_empty() {
            return Outcome::Continue(String::new());
        }
        if let Some(command) = trimmed.strip_prefix(':') {
            self.handle_command(command)
        } else {
            Outcome::Continue(self.run_query(trimmed))
        }
    }

    fn handle_command(&mut self, command: &str) -> Outcome {
        let (word, rest) = match command.split_once(char::is_whitespace) {
            Some((w, r)) => (w, r.trim()),
            None => (command, ""),
        };
        let out = match word {
            "q" | "quit" | "exit" => return Outcome::Quit,
            "help" => USAGE.to_owned(),
            "metrics" => {
                let m = self.service.metrics();
                format!(
                    "queries: {} ({} hits, {} misses, hit rate {:.0}%)\n\
                     requests: {} timed out, {} cancelled, {} truncated by limit\n\
                     engine time: {:.3?} (candidates {:.3?}, prune {:.3?}, \
                     matching {:.3?}, enumerate {:.3?})\n\
                     planner: {:.3?} planning, {} plan hits / {} misses, \
                     estimation error {:.0}%\n\
                     index: {} hits, {} scanned nodes, {} lookups\n\
                     enumerated rows: {} ({} emitted)\n\
                     cached result sets: {}, cached plans: {}\n\
                     latency: p50 {:.3?}, p90 {:.3?}, p99 {:.3?}, \
                     p999 {:.3?} over {} requests\n\
                     first row: p50 {:.3?}, p99 {:.3?} over {} streamed runs\n\
                     last {:?}: {:.1} qps, hit rate {:.0}%\n\
                     aborted runs: {} ({:.3?} engine time discarded)",
                    m.queries,
                    m.cache_hits,
                    m.cache_misses,
                    100.0 * m.hit_rate(),
                    m.timed_out,
                    m.cancelled,
                    m.rows_truncated,
                    m.eval_time,
                    m.stages.candidates.sum_duration(),
                    m.stages.prune_down.sum_duration() + m.stages.prune_up.sum_duration(),
                    m.stages.matching.sum_duration(),
                    m.stages.enumerate.sum_duration(),
                    m.plan_time,
                    m.plan_cache_hits,
                    m.plan_cache_misses,
                    100.0 * m.estimation_error(),
                    m.index_hits,
                    m.scanned_nodes,
                    m.index_lookups,
                    m.enumerated_rows,
                    m.result_tuples,
                    self.service.cached_results(),
                    self.service.cached_plans(),
                    m.latency_percentile(0.50),
                    m.latency_percentile(0.90),
                    m.latency_percentile(0.99),
                    m.latency_percentile(0.999),
                    m.latency.count,
                    m.ttfr_percentile(0.50),
                    m.ttfr_percentile(0.99),
                    m.ttfr.count,
                    m.recent_window,
                    m.recent_qps,
                    100.0 * m.recent_hit_rate(),
                    m.aborted,
                    m.aborted_eval_time,
                ) + &format!(
                    "\ngraph: epoch {}, {} rotation{}, {} stale cache evictions",
                    m.graph_epoch,
                    m.epoch_rotations,
                    if m.epoch_rotations == 1 { "" } else { "s" },
                    m.stale_evictions,
                )
            }
            "ingest" => {
                let mut parts = rest.split_whitespace();
                let epochs = match parts.next() {
                    None => 1,
                    Some(w) => match w.parse::<usize>() {
                        Ok(n) if n > 0 => n,
                        _ => {
                            return Outcome::Continue(format!(
                                "expected `:ingest [EPOCHS] [OPS]` (both > 0), got `{rest}`"
                            ))
                        }
                    },
                };
                let ops = match parts.next() {
                    None => 32,
                    Some(w) => match w.parse::<usize>() {
                        Ok(n) if n > 0 => n,
                        _ => {
                            return Outcome::Continue(format!(
                                "expected `:ingest [EPOCHS] [OPS]` (both > 0), got `{rest}`"
                            ))
                        }
                    },
                };
                self.ingest(epochs, ops)
            }
            "save" => {
                if rest.is_empty() {
                    "expected `:save PATH`".to_owned()
                } else {
                    match self.save_snapshot(rest) {
                        Ok(line) | Err(line) => line,
                    }
                }
            }
            "stats" => {
                self.show_stats = match rest {
                    "on" => true,
                    "off" => false,
                    "" => !self.show_stats,
                    other => {
                        return Outcome::Continue(format!(
                            "expected `:stats on` or `:stats off`, got `{other}`"
                        ))
                    }
                };
                format!("stats {}", if self.show_stats { "on" } else { "off" })
            }
            "limit" => match rest {
                "none" | "off" => {
                    self.limit = None;
                    "limit none (full answers)".to_owned()
                }
                _ => match rest.parse::<usize>() {
                    Ok(n) if n > 0 => {
                        self.limit = Some(n);
                        format!("limit {n}")
                    }
                    _ => format!("expected `:limit N` (N > 0) or `:limit none`, got `{rest}`"),
                },
            },
            "timeout" => match rest {
                "off" | "none" => {
                    self.timeout = None;
                    "timeout off".to_owned()
                }
                _ => match rest.parse::<u64>() {
                    Ok(ms) => {
                        self.timeout = Some(Duration::from_millis(ms));
                        format!("timeout {ms}ms")
                    }
                    Err(_) => format!("expected `:timeout MS` or `:timeout off`, got `{rest}`"),
                },
            },
            "trace" => match rest {
                "" => match &self.last_trace {
                    Some(trace) => format!(
                        "tracing {}\n{}",
                        if self.trace_on { "on" } else { "off" },
                        trace.render_tree().trim_end(),
                    ),
                    None => format!(
                        "tracing {}; no trace recorded yet{}",
                        if self.trace_on { "on" } else { "off" },
                        if self.trace_on {
                            " (run a query)"
                        } else {
                            " (`:trace on`, then run a query)"
                        },
                    ),
                },
                "on" => {
                    self.trace_on = true;
                    "trace on (next query records a span tree; view with :trace)".to_owned()
                }
                "off" => {
                    self.trace_on = false;
                    "trace off".to_owned()
                }
                _ => match rest.strip_prefix("save") {
                    Some(path) if !path.trim().is_empty() => match self.save_trace(path.trim()) {
                        Ok(line) | Err(line) => line,
                    },
                    _ => format!("expected `:trace [on|off|save PATH]`, got `{rest}`"),
                },
            },
            "slowlog" => {
                let entries = self.service.slow_queries();
                if entries.is_empty() {
                    "slow-query log is empty".to_owned()
                } else {
                    let mut out = String::new();
                    for (i, e) in entries.iter().enumerate() {
                        let outcome = match &e.outcome {
                            SlowOutcome::Completed { rows, truncated } => format!(
                                "ok, {} row{}{}",
                                rows,
                                if *rows == 1 { "" } else { "s" },
                                if *truncated { " (truncated)" } else { "" },
                            ),
                            SlowOutcome::TimedOut => "timed out".to_owned(),
                            SlowOutcome::Cancelled => "cancelled".to_owned(),
                        };
                        if i > 0 {
                            out.push('\n');
                        }
                        let _ = writeln!(
                            out,
                            "#{} {:.3?} — {} — {}",
                            i + 1,
                            e.latency,
                            outcome,
                            e.query,
                        );
                        if let Some(plan) = &e.plan {
                            for line in plan.trim_end().lines() {
                                let _ = writeln!(out, "    {line}");
                            }
                        }
                    }
                    out.truncate(out.trim_end().len());
                    out
                }
            }
            "explain" => {
                let (analyze, text) = match rest.strip_prefix("analyze") {
                    Some(tail) if tail.starts_with(char::is_whitespace) || tail.is_empty() => {
                        (true, tail.trim())
                    }
                    _ => (false, rest),
                };
                match text.parse::<Gtpq>() {
                    Ok(q) => self.explain(&q, analyze),
                    // `analyze` might be the query's own root label rather
                    // than the keyword: if the keyword-stripped tail does
                    // not parse but the full input does, explain that.
                    Err(e) => match analyze.then(|| rest.parse::<Gtpq>()) {
                        Some(Ok(q)) => self.explain(&q, false),
                        _ => e.render(text),
                    },
                }
            }
            other => format!("unknown command `:{other}` (try :help)"),
        };
        Outcome::Continue(out)
    }

    /// Renders `:explain` output: the parsed query tree, its shape summary,
    /// and the physical plan with per-operator estimates.  With `analyze`,
    /// the query is executed (bypassing the result cache) and each
    /// operator's actual row count and time are appended, followed by the
    /// run's stats summary.
    fn explain(&self, q: &Gtpq, analyze: bool) -> String {
        let mut out = q.to_pretty_string();
        let _ = write!(
            out,
            "\n{} nodes, {} output nodes; {}\ncanonical: {}\n\n",
            q.size(),
            q.output_nodes().len(),
            if q.is_conjunctive() {
                "conjunctive"
            } else if q.is_union_conjunctive() {
                "union-conjunctive (uses OR)"
            } else {
                "general (uses NOT)"
            },
            q,
        );
        if analyze {
            let request = QueryRequest::query(q.clone())
                .with_stats()
                .with_plan()
                .with_bypass_cache();
            match self.service.submit(&request) {
                Err(e) => {
                    let _ = write!(out, "{e}");
                }
                Ok(outcome) => {
                    let stats = outcome.stats.unwrap_or_default();
                    let plan = outcome.plan.expect("requested with_plan");
                    let _ = write!(out, "{}", plan.render_with_actuals(q, &stats));
                    let _ = write!(
                        out,
                        "\n{} row{} in {:.3?} (estimation error {:.0}%)\n{}",
                        outcome.rows.len(),
                        if outcome.rows.len() == 1 { "" } else { "s" },
                        stats.total_time(),
                        100.0 * stats.estimation_error(),
                        render_stats(&stats),
                    );
                }
            }
        } else {
            let _ = match self.service.plan_for(q) {
                Ok(plan) => write!(out, "{}", plan.render(q)),
                Err(e) => write!(out, "{e}"),
            };
        }
        out
    }

    /// Parses and evaluates one query, rendering a result table (and stats,
    /// when enabled) or a caret-annotated parse error.
    pub fn run_query(&mut self, text: &str) -> String {
        match self.try_query(text) {
            Ok(rendered) | Err(rendered) => rendered,
        }
    }

    /// Like [`run_query`](Self::run_query), but keeps success and failure
    /// apart: `Err` carries the rendered diagnostic — a caret-annotated
    /// parse error, a timeout, a cancellation or an unsatisfiability notice
    /// (the one-shot mode turns it into a non-zero exit code).
    ///
    /// The session's limit is *pushed down*: the engine's enumerator stops
    /// after `limit` rows instead of materializing the full answer and
    /// trimming at print time, and the session's timeout rides along as the
    /// request deadline.
    pub(crate) fn try_query(&mut self, text: &str) -> Result<String, String> {
        // Parse once up front: the request carries the parsed tree, and the
        // same `Gtpq` later renders the result table's column names.
        let q = text.parse::<Gtpq>().map_err(|e| e.render(text))?;
        let mut request = QueryRequest::query(q.clone()).with_stats();
        if let Some(limit) = self.limit {
            request = request.with_limit(limit);
        }
        if let Some(budget) = self.timeout {
            request = request.with_deadline(budget);
        }
        if self.trace_on {
            request = request.with_trace();
        }
        let outcome = self.service.submit(&request).map_err(|e| match e {
            QueryError::Parse(parse) => parse.render(text),
            QueryError::Timeout { budget } => {
                format!(
                    "query timed out after {:?} (raise with :timeout MS)",
                    budget
                )
            }
            other => other.to_string(),
        })?;
        if let Some(trace) = &outcome.trace {
            self.last_trace = Some(trace.clone());
        }
        let mut out = render_table(&self.service.graph(), &q, &outcome.rows, outcome.truncated);
        if self.show_stats {
            let stats = outcome.stats.unwrap_or_default();
            let _ = write!(out, "\n{}", render_stats(&stats));
        }
        Ok(out)
    }
}

/// Renders a result set as an aligned text table; one column per output
/// node (headed by its display name), one row per result tuple.  The rows
/// were already limited by the engine's pushdown; `truncated` marks that
/// more rows exist past the fetched window.
pub(crate) fn render_table(
    g: &DataGraph,
    q: &Gtpq,
    results: &gtpq_query::ResultSet,
    truncated: bool,
) -> String {
    let headers: Vec<String> = results.output.iter().map(|&u| q.display_name(u)).collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for tuple in results.iter() {
        rows.push(
            tuple
                .iter()
                .map(|&v| match g.attribute_value(v, gtpq_graph::LABEL_ATTR) {
                    Some(label) => format!("v{}:{}", v.0, label),
                    None => format!("v{}", v.0),
                })
                .collect(),
        );
    }
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r[i].chars().count())
                .chain([h.chars().count()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:<width$}", width = widths[i]);
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    write_row(&mut out, &headers);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    write_row(&mut out, &rule);
    for row in &rows {
        write_row(&mut out, row);
    }
    let _ = write!(
        out,
        "{} row{}{}",
        results.len(),
        if results.len() == 1 { "" } else { "s" },
        if truncated {
            " (limit reached; more rows exist — raise with :limit)"
        } else {
            ""
        }
    );
    out
}

/// Renders per-query [`EvalStats`](gtpq_core::EvalStats) as two short lines.
pub(crate) fn render_stats(stats: &gtpq_core::EvalStats) -> String {
    if stats.total_time() == std::time::Duration::ZERO && stats.initial_candidates == 0 {
        return "stats: served from the result cache".to_owned();
    }
    format!(
        "stats: {} candidates → {} after ↓prune → {} after ↑prune; \
         index serve rate {:.0}%\n\
         time: {:.3?} total (plan {:.3?}, candidates {:.3?}, prune {:.3?}, \
         matching {:.3?}, enumerate {:.3?})",
        stats.initial_candidates,
        stats.candidates_after_downward,
        stats.candidates_after_upward,
        100.0 * stats.index_serve_rate(),
        stats.total_time(),
        stats.plan_time,
        stats.candidate_time,
        stats.prune_down_time + stats.prune_up_time,
        stats.matching_graph_time,
        stats.enumerate_time,
    )
}

/// Whether every `(`, `[` and `{` in `s` has been closed, ignoring string
/// literals and `#` comments.  The REPL keeps reading lines until the buffer
/// is balanced, so queries can span multiple lines.
///
/// String literals cannot span lines (the tokenizer reports `unterminated
/// string literal` at a newline), so a quote with no closing quote on its
/// own line counts as plain text here — the broken chunk still balances,
/// gets dispatched, and the parser reports the error, instead of one bad
/// quote silently swallowing every following line.
pub(crate) fn delimiters_balanced(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut depth = 0i64;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                // Find the closing quote on the same line; escapes cannot
                // hide a newline.
                let mut j = i + 1;
                let mut closed = None;
                while j < bytes.len() && bytes[j] != b'\n' {
                    match bytes[j] {
                        b'\\' if bytes.get(j + 1) == Some(&b'\n') => break,
                        b'\\' => j += 2,
                        b'"' => {
                            closed = Some(j);
                            break;
                        }
                        _ => j += 1,
                    }
                }
                i = match closed {
                    Some(j) => j + 1,
                    None => i + 1, // unterminated: not a string after all
                };
            }
            b'(' | b'[' | b'{' => {
                depth += 1;
                i += 1;
            }
            b')' | b']' | b'}' => {
                depth -= 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    depth <= 0
}

/// Runs the REPL: reads lines from `input`, accumulates them until all
/// brackets are balanced, and writes rendered output to `out`.  When
/// `interactive`, prompts (`gtpq> ` / `  ...> `) are printed too.
pub fn repl(
    session: &mut Session,
    input: impl BufRead,
    mut out: impl Write,
    interactive: bool,
) -> std::io::Result<()> {
    if interactive {
        writeln!(out, "{}", session.banner())?;
        writeln!(out, "type :help for commands, :quit to exit")?;
        write!(out, "gtpq> ")?;
        out.flush()?;
    }
    let mut buffer = String::new();
    for line in input.lines() {
        let line = line?;
        buffer.push_str(&line);
        buffer.push('\n');
        if delimiters_balanced(&buffer) {
            let chunk = std::mem::take(&mut buffer);
            match session.handle(&chunk) {
                Outcome::Quit => return Ok(()),
                Outcome::Continue(text) => {
                    if !text.is_empty() {
                        writeln!(out, "{text}")?;
                    }
                }
            }
        }
        if interactive {
            write!(
                out,
                "{}",
                if buffer.is_empty() {
                    "gtpq> "
                } else {
                    "  ...> "
                }
            )?;
            out.flush()?;
        }
    }
    // Evaluate a trailing unbalanced chunk so its parse error is reported.
    if !buffer.trim().is_empty() {
        if let Outcome::Continue(text) = session.handle(&buffer) {
            if !text.is_empty() {
                writeln!(out, "{text}")?;
            }
        }
    }
    Ok(())
}

/// One-shot mode: evaluates `query` and writes the result table (plus stats
/// when enabled) to `out`.  Returns `Err` with the rendered diagnostic when
/// the query does not parse.
pub fn run_once(
    session: &mut Session,
    query: &str,
    mut out: impl Write,
) -> std::io::Result<Result<(), String>> {
    match session.try_query(query) {
        Err(diagnostic) => Ok(Err(diagnostic)),
        Ok(rendered) => {
            writeln!(out, "{rendered}")?;
            Ok(Ok(()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_with_defaults_and_overrides() {
        let opts = CliOptions::parse(Vec::new()).unwrap();
        assert_eq!(opts.dataset, Dataset::Dblp);
        assert_eq!(opts.limit, 20);
        let opts = CliOptions::parse(
            [
                "--dataset",
                "arxiv",
                "--scale",
                "0.5",
                "--seed",
                "7",
                "--stats",
                "--limit",
                "5",
                "--query",
                "a*",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.dataset, Dataset::Arxiv);
        assert_eq!(opts.scale, 0.5);
        assert_eq!(opts.seed, 7);
        assert!(opts.show_stats);
        assert_eq!(opts.limit, 5);
        assert_eq!(opts.query.as_deref(), Some("a*"));
    }

    #[test]
    fn observability_flags_parse() {
        let opts =
            CliOptions::parse(["--slow-ms", "250", "--trace-out", "/tmp/t.json"].map(String::from))
                .unwrap();
        assert_eq!(opts.slow_ms, Some(Some(250)));
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/t.json"));
        let opts = CliOptions::parse(["--slow-ms", "off"].map(String::from)).unwrap();
        assert_eq!(opts.slow_ms, Some(None));
        let opts = CliOptions::parse(Vec::new()).unwrap();
        assert_eq!(opts.slow_ms, None, "default keeps the service threshold");
        assert!(opts.trace_out.is_none());
        assert!(CliOptions::parse(["--slow-ms".into(), "soon".into()]).is_err());
        assert!(CliOptions::parse(["--trace-out".into()]).is_err());
    }

    #[test]
    fn options_reject_bad_input() {
        assert!(CliOptions::parse(["--dataset".into(), "nope".into()]).is_err());
        assert!(CliOptions::parse(["--scale".into(), "-1".into()]).is_err());
        assert!(CliOptions::parse(["--what".into()]).is_err());
        assert!(CliOptions::parse(["--seed".into()]).is_err());
        assert!(CliOptions::parse(["--limit".into(), "0".into()]).is_err());
        // Evaluation is serial: there is no degree to set.
        let err = CliOptions::parse(["--threads".into(), "4".into()]).unwrap_err();
        assert!(err.contains("unknown argument `--threads`"), "{err}");
        assert!(!USAGE.contains("threads"));
        // The service picks no reachability index: there is none to pin.
        let err = CliOptions::parse(["--backend".into(), "3hop".into()]).unwrap_err();
        assert!(err.contains("unknown argument `--backend`"), "{err}");
        assert!(!USAGE.contains("backend"));
    }

    #[test]
    fn balance_tracking_handles_strings_and_comments() {
        assert!(delimiters_balanced("a { /b* }"));
        assert!(!delimiters_balanced("a { /b*"));
        assert!(!delimiters_balanced("a { where (//b"));
        assert!(delimiters_balanced("a { /\"un{bal\" }"));
        assert!(delimiters_balanced("a # { comment\n"));
        assert!(delimiters_balanced("} } stray closers never block input"));
        // A quote with no closer on its line is plain text, so a broken line
        // balances (and is dispatched to the parser) instead of swallowing
        // everything after it.
        assert!(delimiters_balanced("a* { /\"oops }"));
        assert!(delimiters_balanced("a* { /\"oops }\nb*\n"));
        assert!(!delimiters_balanced("a* { /\"closed\""));
    }
}
