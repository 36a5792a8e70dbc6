//! A workload made ready to serve: set-up (what `setup_s` times), the ops
//! of each shape, and the two answer checks that need a live session — the
//! down-scaled comparison with the naive evaluator and the final-state
//! check of the live graph.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtpq_datagen::{
    apply_ops, generate_arxiv, generate_xmark, update_stream, write_arxiv_snapshot, UpdateOp,
    UpdateStreamConfig,
};
use gtpq_graph::{DataGraph, GraphHandle, GraphSnapshot};
use gtpq_query::{naive, parse_query};
use gtpq_reach::BackendKind;
use gtpq_service::{QueryOutcome, QueryRequest, QueryService, QuerySource, ServiceConfig};

use crate::stats::{take_drop_row, Checksum, Digest};
use crate::workloads::{self, Data, Shape, Spec};

/// Warm-up cycles of `xmark_live`: enough for the first index build, the
/// first rotation and the first condensation rebuild to be behind us.
const LIVE_WARM_CYCLES: usize = 3;

/// The service every workload runs: one client, one worker, one intra-query
/// thread; caches, slow log and per-query backend selection as users get
/// them by default.
pub fn service_config(spec: &Spec) -> ServiceConfig {
    ServiceConfig {
        backend: spec.pinned_backend(),
        threads: 1,
        intra_query_threads: 1,
        ..ServiceConfig::default()
    }
}

/// Turns request text into the request the workload sends.
pub fn request(spec: &Spec, text: &str) -> QueryRequest {
    let req = QueryRequest::text(text);
    match spec.shape {
        Shape::Requests {
            bypass_cache,
            threads,
            ..
        } => {
            let req = if bypass_cache {
                req.with_bypass_cache()
            } else {
                req
            };
            if threads > 1 {
                req.with_threads(threads)
            } else {
                req
            }
        }
        Shape::Live => req,
        Shape::Cold => req.with_limit(1),
    }
}

/// Latency and outcome of one op.
pub struct Timed {
    pub latency: Duration,
    pub outcome: Result<QueryOutcome, String>,
}

/// The text of a request (every perfbench request is text).
pub fn text_of(req: &QueryRequest) -> &str {
    match &req.source {
        QuerySource::Text(text) => text,
        QuerySource::Query(_) => unreachable!("every perfbench request is text"),
    }
}

/// `submit`, timed.
pub fn timed_submit(service: &QueryService, req: &QueryRequest) -> Timed {
    let start = Instant::now();
    let outcome = service.submit(req);
    Timed {
        latency: start.elapsed(),
        outcome: outcome.map_err(|e| e.to_string()),
    }
}

/// A frozen graph behind one service, and the request list sent to it.
pub struct RequestSession {
    pub graph: Arc<DataGraph>,
    pub service: QueryService,
    pub requests: Vec<QueryRequest>,
    /// Digest of each request's answer, taken serially during warm-up.
    pub reference: Vec<Digest>,
}

/// A live graph, its service, the update stream and one cycle's reads.
pub struct LiveSession {
    pub handle: Arc<GraphHandle>,
    pub service: QueryService,
    pub epochs: Vec<Vec<UpdateOp>>,
    pub next_epoch: usize,
    pub reads: Vec<QueryRequest>,
}

/// A snapshot file and the probe every cold op answers from it.
pub struct ColdSession {
    pub path: PathBuf,
    pub config: ServiceConfig,
    pub probe: QueryRequest,
    pub reference: Digest,
}

impl Drop for ColdSession {
    fn drop(&mut self) {
        // 126 MB per run would pile up in the checkout otherwise.
        std::fs::remove_file(&self.path).ok();
    }
}

pub enum Session {
    Requests(RequestSession),
    Live(LiveSession),
    Cold(ColdSession),
}

/// What set-up hands back besides the session.
pub struct Ready {
    pub session: Session,
    /// Fold of every warm-up answer, in warm-up order.
    pub checksum: Checksum,
    /// Warm-up ops that returned an error or disagreed with their
    /// reference (`arxiv_enum_t2`'s two-thread answer vs the serial one).
    pub failures: Vec<String>,
}

impl LiveSession {
    /// Applies and commits the next update epoch; returns the latency of
    /// `apply_ops` + `commit`.
    pub fn commit_next(&mut self) -> Duration {
        let start = Instant::now();
        apply_ops(
            &self.handle,
            &self.epochs[self.next_epoch % self.epochs.len()],
        );
        self.handle.commit();
        self.next_epoch += 1;
        start.elapsed()
    }

    pub fn read(&self, i: usize) -> Timed {
        timed_submit(&self.service, &self.reads[i])
    }

    /// Compares every read on the current epoch with a service built from
    /// scratch over the same graph on another backend (SSPI: cheap to build
    /// and of a fixed size, where auto-selection may pick the quadratic
    /// closure and move `peak_rss_mb`): after any number of incremental
    /// commits and rotations the live service must still answer like a
    /// fresh one.
    pub fn final_state_failures(&self, drop_row: &mut bool) -> Vec<String> {
        let fresh = QueryService::with_config(
            self.service.graph(),
            ServiceConfig {
                backend: Some(BackendKind::Sspi),
                threads: 1,
                intra_query_threads: 1,
                ..ServiceConfig::default()
            },
        );
        let mut failures = Vec::new();
        for req in &self.reads {
            let live = self
                .service
                .submit(req)
                .map(|o| Digest::of(&o.rows, take_drop_row(drop_row, o.rows.len())));
            let scratch = fresh.submit(req).map(|o| Digest::of(&o.rows, None));
            if live.is_err() || live != scratch {
                failures.push(format!(
                    "live answer {live:?} differs from a from-scratch service's {scratch:?}"
                ));
            }
        }
        failures
    }
}

impl ColdSession {
    /// One cold op: map the snapshot, build a service, get the first row,
    /// drop both.  The latency covers all four.
    pub fn op(&self, want_stats: bool) -> Timed {
        let probe = if want_stats {
            self.probe.clone().with_stats()
        } else {
            self.probe.clone()
        };
        let start = Instant::now();
        let outcome = GraphSnapshot::open_mmap(&self.path)
            .map_err(|e| e.to_string())
            .and_then(|snapshot| {
                let service = QueryService::from_snapshot(Arc::new(snapshot), self.config.clone());
                service.submit(&probe).map_err(|e| e.to_string())
            });
        Timed {
            latency: start.elapsed(),
            outcome,
        }
    }
}

impl RequestSession {
    pub fn op(&self, i: usize) -> Timed {
        timed_submit(&self.service, &self.requests[i])
    }
}

impl Session {
    /// Builds the workload's data and service and warms it: one pass over
    /// every distinct request (three commit+read cycles on the live graph,
    /// one op on the cold path) fills the plan cache, the lazy backends, the
    /// result cache where it is on, and the OS page cache.  All of it is
    /// `setup_s`.  `small` builds the down-scaled variant for
    /// [`naive_failures`](Self::naive_failures); `dir` receives the
    /// snapshot file of the cold path.
    pub fn setup(spec: &Spec, seed: u64, small: bool, dir: &Path) -> Result<Ready, String> {
        let texts = spec.request_texts(seed, small);
        let config = service_config(spec);
        let mut checksum = Checksum::default();
        let mut failures = Vec::new();
        let session = match spec.shape {
            Shape::Requests { data, threads, .. } => {
                let graph = Arc::new(match data {
                    Data::Xmark => generate_xmark(&workloads::xmark_config(small)),
                    Data::Arxiv => generate_arxiv(&workloads::arxiv_config()),
                });
                let service = QueryService::with_config(Arc::clone(&graph), config);
                let requests: Vec<QueryRequest> = texts.iter().map(|t| request(spec, t)).collect();
                let mut reference = Vec::with_capacity(requests.len());
                for req in &requests {
                    let serial = service
                        .submit(&req.clone().with_threads(1))
                        .map_err(|e| format!("warm-up request failed: {e}"))?;
                    let digest = Digest::of(&serial.rows, None);
                    if threads > 1 {
                        // The serial answer is the reference the
                        // multi-threaded request must reproduce.
                        match service.submit(req) {
                            Ok(o) if Digest::of(&o.rows, None) == digest => {}
                            Ok(_) => failures.push("threaded answer differs from serial".into()),
                            Err(e) => failures.push(format!("threaded warm-up failed: {e}")),
                        }
                    }
                    checksum.fold(digest);
                    reference.push(digest);
                }
                Session::Requests(RequestSession {
                    graph,
                    service,
                    requests,
                    reference,
                })
            }
            Shape::Live => {
                let base = generate_xmark(&workloads::live_config(small));
                let epochs = update_stream(
                    &base,
                    &UpdateStreamConfig {
                        seed,
                        epochs: workloads::LIVE_EPOCHS,
                        ops_per_epoch: workloads::LIVE_OPS_PER_EPOCH,
                        ..UpdateStreamConfig::default()
                    },
                );
                let handle = Arc::new(GraphHandle::new(base));
                let service = QueryService::live_with_config(Arc::clone(&handle), config);
                let mut live = LiveSession {
                    handle,
                    service,
                    epochs,
                    next_epoch: 0,
                    reads: texts.iter().map(|t| request(spec, t)).collect(),
                };
                for _ in 0..LIVE_WARM_CYCLES {
                    live.commit_next();
                    for i in 0..live.reads.len() {
                        let outcome = live
                            .read(i)
                            .outcome
                            .map_err(|e| format!("warm-up read failed: {e}"))?;
                        checksum.fold(Digest::of(&outcome.rows, None));
                    }
                }
                Session::Live(live)
            }
            Shape::Cold => {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let path = dir.join(format!("{}-{}.gtpq", spec.name, std::process::id()));
                write_arxiv_snapshot(&workloads::cold_config(small), &path)
                    .map_err(|e| format!("snapshot write failed: {e}"))?;
                let mut cold = ColdSession {
                    path,
                    config,
                    probe: request(spec, &texts[0]),
                    reference: Digest { rows: 0, hash: 0 },
                };
                let outcome = cold
                    .op(false)
                    .outcome
                    .map_err(|e| format!("warm-up op failed: {e}"))?;
                cold.reference = Digest::of(&outcome.rows, None);
                checksum.fold(cold.reference);
                Session::Cold(cold)
            }
        };
        Ok(Ready {
            session,
            checksum,
            failures,
        })
    }

    /// Evaluates every distinct request of this (down-scaled) session and
    /// compares the rows with `gtpq_query::naive::evaluate` on the graph the
    /// service is serving.  Returns one message per disagreement.
    pub fn naive_failures(&self) -> Vec<String> {
        type Submit<'a> = Box<dyn Fn(&QueryRequest) -> Result<QueryOutcome, String> + 'a>;
        let (requests, graph, submit): (_, _, Submit) = match self {
            Session::Requests(s) => (
                &s.requests[..],
                Arc::clone(&s.graph),
                Box::new(|r| s.service.submit(r).map_err(|e| e.to_string())),
            ),
            Session::Live(s) => (
                &s.reads[..],
                s.service.graph(),
                Box::new(|r| s.service.submit(r).map_err(|e| e.to_string())),
            ),
            Session::Cold(s) => {
                let graph = match GraphSnapshot::open_mmap(&s.path) {
                    Ok(snapshot) => Arc::clone(snapshot.graph()),
                    Err(e) => return vec![format!("snapshot does not open: {e}")],
                };
                (
                    std::slice::from_ref(&s.probe),
                    graph,
                    Box::new(|_| s.op(false).outcome),
                )
            }
        };
        let mut failures = Vec::new();
        for req in requests {
            let text = text_of(req);
            let q = parse_query(text).expect("request texts parse (unit-tested)");
            let expected = naive::evaluate(&q, &graph);
            let ok = match submit(req) {
                // A limited request must return the leading rows of the
                // full answer and say whether more exist.
                Ok(o) => match req.limit {
                    Some(limit) => {
                        o.rows.iter().eq(expected.iter().take(limit))
                            && o.truncated == (expected.len() > limit)
                    }
                    None => o.rows.same_answer(&expected),
                },
                Err(_) => false,
            };
            if !ok {
                failures.push(format!("answer differs from the naive evaluator: {text}"));
            }
        }
        failures
    }

    /// Reachability backends the service has built, default first.
    pub fn backends(&self) -> String {
        let service = match self {
            Session::Requests(s) => &s.service,
            Session::Live(s) => &s.service,
            Session::Cold(s) => return s.config.backend.map_or("auto", |k| k.as_str()).to_owned(),
        };
        let default = service.default_backend().as_str();
        let mut names = vec![default];
        let mut others = service.built_backends();
        others.sort_unstable();
        names.extend(others.into_iter().filter(|n| *n != default));
        names.join("+")
    }

    /// Node and edge count of the graph being served now.
    pub fn graph_size(&self) -> (usize, usize) {
        let graph = match self {
            Session::Requests(s) => Arc::clone(&s.graph),
            Session::Live(s) => s.service.graph(),
            Session::Cold(s) => match GraphSnapshot::open_mmap(&s.path) {
                Ok(snapshot) => Arc::clone(snapshot.graph()),
                Err(_) => return (0, 0),
            },
        };
        (graph.node_count(), graph.edge_count())
    }
}
