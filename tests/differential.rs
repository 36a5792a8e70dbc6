//! The differential oracle: every way the system answers a query, checked
//! against the naive semantic evaluator on a from-scratch rebuild.
//!
//! Each seed replays the epochs of `common::graph_epochs` (a DAG on even
//! seeds, a cyclic graph on odd ones) into a `GraphHandle`, one commit per
//! epoch; some seeds hop once through `save` → `GraphSnapshot::open` in a
//! random `LoadMode` and commit the remaining epochs on the loaded base.
//! After every commit the maintained graph and condensation must be `==` a
//! `GraphBuilder` replay of every op so far and Tarjan on it, and each of
//! the seed's `common::random_query`s, unwindowed and under two random
//! `offset`/`limit` windows, must answer exactly the rebuild's
//! `naive::evaluate` rows, in `ResultSet` order and with the right
//! truncation flag, through
//!
//! * the engine: default options, `without_shrinking`,
//!   `without_upward_pruning`, and the pairwise arm on a `ThreeHop`;
//! * a service with the result cache off, sent the query as text;
//! * a service whose cache was warmed with the complete answer;
//! * a live service over the handle, across its epoch rotations.
//!
//! The naive evaluator must also answer each query's `minimize`d form (the
//! paper's Algorithm 1) with the same rows, column for column.
//!
//! Every engine run must pull `min(offset + limit + 1, total)` rows on the
//! full run's matching graph, and account in its sim counters for every
//! vector a table indexes.  Each handle must merge its CSR and inverted
//! index once per commit; the file a handle was loaded from, and a snapshot
//! pinned when it was loaded, must not change.  The sweep must take both
//! condensation paths (patched and Tarjan re-run), hit every `LoadMode`,
//! and keep its teeth: at least half of the answers must have more than one
//! row.  The seed count is fixed, and every failure message names its seed
//! and scenario.
//!
//! Satisfiability has an oracle of its own: the full structural analysis,
//! which derives `fcs` for every node, must agree with `is_satisfiable`,
//! which derives only the root's, and neither may reject a query the naive
//! evaluator answers; the same queries' minimized forms must answer alike.
//! Queries whose formulas contradict themselves must match nothing on every
//! path, minimized or not.

mod common;

use std::sync::Arc;

use common::{graph_epochs, random_graph, random_query, replay, text_query};
use gtpq::analysis::{is_satisfiable, minimize};
use gtpq::datagen::{
    apply_ops, generate_xmark, update_stream, xmark_q1, UpdateOp, UpdateStreamConfig, XmarkConfig,
};
use gtpq::graph::{Condensation, GraphHandle, GraphSnapshot, LoadMode, MutationStats};
use gtpq::prelude::*;
use gtpq::query::naive;
use gtpq::query::structural::StructuralAnalysis;
use gtpq::reach::ThreeHop;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 40;
/// Random queries per seed; each one is answered after every commit.
const QUERIES: usize = 4;
const LOAD_MODES: [LoadMode; 2] = [LoadMode::Mmap, LoadMode::Heap];

/// What the sweep has exercised, for the assertions that it kept its teeth.
#[derive(Default)]
struct Coverage {
    condensation_fast: u64,
    condensation_rebuilds: u64,
    load_modes: Vec<LoadMode>,
    answers: usize,
    multi_row_answers: usize,
}

#[test]
fn every_serving_path_answers_like_the_naive_evaluator_on_a_rebuild() {
    let mut coverage = Coverage::default();
    for seed in 0..SEEDS {
        run_scenario(seed, &mut coverage);
    }
    assert!(
        coverage.condensation_fast > 0,
        "no commit took the topological condensation fast path"
    );
    assert!(
        coverage.condensation_rebuilds > 0,
        "no commit re-ran Tarjan on a backward edge"
    );
    for mode in LOAD_MODES {
        assert!(
            coverage.load_modes.contains(&mode),
            "no scenario hopped through {mode:?}"
        );
    }
    assert!(
        2 * coverage.multi_row_answers >= coverage.answers,
        "only {} of {} answers had more than one row: the sweep lost its teeth",
        coverage.multi_row_answers,
        coverage.answers
    );
}

/// One seed: replay its epochs, hop through a snapshot file if the seed
/// says so, and check the maintained state and every serving path after
/// each commit.
fn run_scenario(seed: u64, coverage: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = seed.is_multiple_of(2);
    let epochs = graph_epochs(&mut rng, 6..24, dag);
    let queries: Vec<Gtpq> = (0..QUERIES).map(|_| random_query(&mut rng)).collect();
    // The hop follows an epoch that is not the last, so that commits land
    // on the loaded base.
    let hop = (epochs.len() > 1 && rng.gen_bool(0.6)).then(|| {
        let after = rng.gen_range(0..epochs.len() - 1);
        (after, LOAD_MODES[rng.gen_range(0..LOAD_MODES.len())])
    });
    let minimized: Vec<Gtpq> = queries.iter().map(minimize).collect();
    let scenario = format!(
        "seed {seed} ({}, {} epochs, {})",
        if dag { "DAG" } else { "cyclic" },
        epochs.len(),
        hop.map_or("no hop".into(), |(i, mode)| format!(
            "{mode:?} hop after epoch {i}"
        ))
    );
    let path = std::env::temp_dir().join(format!(
        "gtpq-differential-{}-{seed}.gtpq",
        std::process::id()
    ));

    let mut handle = Arc::new(GraphHandle::new(GraphBuilder::new().build()));
    let mut live = QueryService::live_with_config(Arc::clone(&handle), ServiceConfig::default());
    let (mut commits, mut pristine) = (0, None);
    let mut ops: Vec<UpdateOp> = Vec::new();
    for (i, epoch) in epochs.iter().enumerate() {
        let ctx = format!("{scenario}, epoch {i}");
        apply_ops(&handle, epoch);
        ops.extend_from_slice(epoch);
        let snap = handle.commit();
        commits += 1;
        let rebuilt = replay(&ops);
        assert_eq!(
            **snap.graph(),
            rebuilt,
            "{ctx}: maintained graph != rebuild"
        );
        let tarjan = Condensation::new(&rebuilt);
        assert_eq!(
            **snap.condensation(),
            tarjan,
            "{ctx}: maintained condensation != Tarjan on the rebuild"
        );
        if let Some((_, mode)) = hop.filter(|&(after, _)| after == i) {
            check_commit_stats(&ctx, &handle.stats(), commits, coverage);
            snap.save(&path).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let loaded = GraphSnapshot::open(&path, mode)
                .unwrap_or_else(|e| panic!("{ctx}: {mode:?} open failed: {e}"));
            assert_eq!(**loaded.graph(), rebuilt, "{ctx}: {mode:?} load != rebuild");
            assert_eq!(
                **loaded.condensation(),
                tarjan,
                "{ctx}: stored condensation"
            );
            assert_eq!(loaded.epoch(), snap.epoch(), "{ctx}");
            handle = Arc::new(GraphHandle::from_snapshot(loaded));
            live = QueryService::live_with_config(Arc::clone(&handle), ServiceConfig::default());
            commits = 0;
            let bytes = std::fs::read(&path).expect("the snapshot was just written");
            pristine = Some((bytes, handle.snapshot(), rebuilt.clone()));
            coverage.load_modes.push(mode);
        }
        let served = handle.snapshot();
        let three_hop = ThreeHop::new(served.graph());
        for (q, minimized) in queries.iter().zip(&minimized) {
            let sweep = Sweep {
                ctx: format!("{ctx}, query `{q}`"),
                served: &served,
                three_hop: &three_hop,
                live: &live,
                rebuilt: &rebuilt,
            };
            sweep.check(&mut rng, q, minimized, coverage);
        }
    }
    check_commit_stats(&scenario, &handle.stats(), commits, coverage);
    // The loaded file, and the snapshot pinned when it was loaded, are as
    // they were before the commits on top of them.
    if let Some((bytes, pinned, base)) = pristine {
        let on_disk = std::fs::read(&path).expect("the snapshot file is still there");
        std::fs::remove_file(&path).ok();
        assert!(
            on_disk == bytes,
            "{scenario}: a commit wrote through to the file"
        );
        assert_eq!(
            **pinned.graph(),
            base,
            "{scenario}: the pinned snapshot moved"
        );
    }
}

/// One handle's counters: one commit per epoch, each merging its CSR and
/// its inverted index.
fn check_commit_stats(ctx: &str, stats: &MutationStats, commits: u64, coverage: &mut Coverage) {
    assert_eq!(stats.epochs, commits, "{ctx}: {stats:?}");
    assert_every_commit_merged(ctx, stats);
    coverage.condensation_fast += stats.condensation_fast;
    coverage.condensation_rebuilds += stats.condensation_rebuilds;
}

/// An `(offset, limit)` window; `None` asks for the whole answer.
type Window = Option<(usize, usize)>;

/// The rows of `window` over `all`, whether rows remain past it, and how
/// many rows an engine run pulls for it: the window plus its look-ahead row.
fn slice(all: &[Vec<NodeId>], window: Window) -> (Vec<Vec<NodeId>>, bool, u64) {
    let (offset, limit) = window.unwrap_or((0, all.len()));
    let rows = all.iter().skip(offset).take(limit).cloned().collect();
    let pulled = window.map_or(all.len(), |_| (offset + limit + 1).min(all.len()));
    (rows, offset + limit < all.len(), pulled as u64)
}

fn rows(results: &ResultSet) -> Vec<Vec<NodeId>> {
    results.iter().map(<[NodeId]>::to_vec).collect()
}

/// What a run reports about its answer: rows pulled from the enumerator,
/// rows emitted, and the size of the matching graph.
fn row_counters(stats: &EvalStats) -> (u64, u64, u64) {
    (
        stats.enumerated_rows,
        stats.result_tuples,
        stats.intermediate_size,
    )
}

/// One query on one committed epoch, with everything that serves it.
struct Sweep<'a> {
    ctx: String,
    served: &'a GraphSnapshot,
    three_hop: &'a ThreeHop,
    live: &'a QueryService,
    rebuilt: &'a DataGraph,
}

impl Sweep<'_> {
    fn check(&self, rng: &mut StdRng, q: &Gtpq, minimized: &Gtpq, coverage: &mut Coverage) {
        let all = rows(&naive::evaluate(q, self.rebuilt));
        coverage.answers += 1;
        coverage.multi_row_answers += usize::from(all.len() > 1);
        assert_minimized_answers_alike(&self.ctx, q, minimized, self.rebuilt);
        // Either end of a window may run past the answer.
        let mut window = || {
            Some((
                rng.gen_range(0..=all.len() + 1),
                rng.gen_range(0..=all.len() + 1),
            ))
        };
        let windows = [None, window(), window()];
        self.check_engines(q, &all, &windows);
        self.check_services(q, &all, &windows);
    }

    fn check_engines(&self, q: &Gtpq, all: &[Vec<NodeId>], windows: &[Window]) {
        let g: &DataGraph = self.served.graph();
        let plan = Planner::new(g).plan(q);
        // Every vector a `sim()` conjunct's table indexes is either pruned
        // by the pivot tests or verified.  Candidate selection stops at the
        // first backbone node it empties, so this holds for every node only
        // when the answer is not empty.
        let indexed: u64 = q
            .node_ids()
            .flat_map(|u| &q.node(u).attr.sims)
            .filter_map(|sim| {
                g.sim_table(&sim.attr)
                    .filter(|t| t.dim() == sim.query.len())
            })
            .map(|table| table.len() as u64)
            .sum();
        let engines = [
            GteaEngine::new(g),
            GteaEngine::with_options(g, GteaOptions::without_shrinking()),
            GteaEngine::with_options(g, GteaOptions::without_upward_pruning()),
            GteaEngine::with_backend(g, self.three_hop, GteaOptions::pairwise()),
        ];
        for engine in &engines {
            let arm = format!("{:?} on {}", engine.options(), engine.index().name());
            let run = |window: Window| {
                let (offset, limit) = window.map_or((0, None), |(o, l)| (o, Some(l)));
                let ctl = ExecCtl::unbounded();
                let exec = engine.execute(q, &plan, ExecOptions { limit, offset, ctl });
                exec.expect("unbounded execution cannot be interrupted")
            };
            let full = row_counters(&run(None).stats);
            for &window in windows {
                let ctx = format!("{}, engine {arm}, window {window:?}", self.ctx);
                let exec = run(window);
                let (expected, more, pulled) = slice(all, window);
                assert_eq!(rows(&exec.results), expected, "{ctx}: diverged from naive");
                assert_eq!(exec.truncated, more, "{ctx}: truncation flag");
                assert_eq!(
                    row_counters(&exec.stats),
                    (pulled, expected.len() as u64, full.2),
                    "{ctx}: rows pulled, emitted, and the matching graph"
                );
                let sim_rows = exec.stats.sim_pivot_filtered + exec.stats.sim_verified;
                if !all.is_empty() {
                    assert_eq!(sim_rows, indexed, "{ctx}: sim counters");
                }
            }
        }
    }

    fn check_services(&self, q: &Gtpq, all: &[Vec<NodeId>], windows: &[Window]) {
        let graph = self.served.graph();

        // Cache off, sent as text.  A query whose outputs are marked in node
        // order prints in canonical form and parses back to itself; the
        // others parse to an equivalent query with other output columns.
        let text = q.to_string();
        let parsed = parse_query(&text)
            .unwrap_or_else(|e| panic!("{}: printed text fails:\n{}", self.ctx, e.render(&text)));
        if q.output_nodes().is_sorted() {
            assert_eq!(parsed, *q, "{}: `{text}` parses to another query", self.ctx);
        }
        let parsed_all = rows(&naive::evaluate(&parsed, self.rebuilt));
        let config = ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let cold = QueryService::with_config(Arc::clone(graph), config);
        let ctx = format!("{}, cache off", self.ctx);
        for &window in windows {
            let request = QueryRequest::text(text.as_str());
            if let Some(outcome) = submit(&ctx, &cold, request, &parsed_all, window) {
                assert!(!outcome.from_cache, "{ctx}: a cache hit with the cache off");
            }
        }

        // A warmed cache serves every window by slicing the complete answer.
        let warm = QueryService::with_config(Arc::clone(graph), ServiceConfig::default());
        let ctx = format!("{}, warm cache", self.ctx);
        for &window in windows {
            let request = QueryRequest::query(q.clone());
            if let Some(outcome) = submit(&ctx, &warm, request, all, window) {
                let hit = window.is_some();
                assert_eq!(outcome.from_cache, hit, "{ctx}: window {window:?}");
            }
        }

        // The live service over the handle: a window first, so that a
        // complete answer left over from the previous epoch would be served.
        let ctx = format!("{}, live", self.ctx);
        for &window in windows.iter().rev() {
            let request = QueryRequest::query(q.clone());
            if let Some(outcome) = submit(&ctx, self.live, request, all, window) {
                let epoch = outcome.stats.expect("requested stats").graph_epoch;
                assert_eq!(epoch, self.served.epoch(), "{ctx}: answered epoch");
            }
        }
    }
}

/// Submits `request` under `window` with stats, and checks the rows, the
/// truncation flag and, when the engine ran, the rows it pulled against
/// `all`.  `None` when the service rejected the query as unsatisfiable,
/// which the oracle must confirm.
fn submit(
    ctx: &str,
    service: &QueryService,
    request: QueryRequest,
    all: &[Vec<NodeId>],
    window: Window,
) -> Option<QueryOutcome> {
    let request = match window {
        Some((offset, limit)) => request.with_offset(offset).with_limit(limit),
        None => request,
    };
    let outcome = match service.submit(&request.with_stats()) {
        Err(QueryError::Unsatisfiable) => {
            assert!(all.is_empty(), "{ctx}: rejected as unsatisfiable");
            return None;
        }
        outcome => outcome.unwrap_or_else(|e| panic!("{ctx}: {e}")),
    };
    let ctx = format!("{ctx}, window {window:?}");
    let (expected, more, pulled) = slice(all, window);
    assert_eq!(rows(&outcome.rows), expected, "{ctx}");
    assert_eq!(outcome.truncated, more, "{ctx}: truncation flag");
    if !outcome.from_cache {
        let stats = outcome.stats.as_ref().expect("requested stats");
        assert_eq!(stats.enumerated_rows, pulled, "{ctx}: rows pulled");
    }
    Some(outcome)
}

/// The naive evaluator answers `minimized` (`minimize(q)`) with `q`'s rows.
/// Minimization renumbers the nodes but keeps every output, marked in `q`'s
/// order: column `i` of either answer is the image of `q`'s `i`-th output,
/// whose pattern both queries carry.
fn assert_minimized_answers_alike(ctx: &str, q: &Gtpq, minimized: &Gtpq, g: &DataGraph) {
    let outputs = |q: &Gtpq| -> Vec<AttrPredicate> {
        let nodes = q.output_nodes().iter();
        nodes.map(|&u| q.node(u).attr.clone()).collect()
    };
    assert_eq!(
        outputs(minimized),
        outputs(q),
        "{ctx}: `{minimized}` moved an output"
    );
    assert_eq!(
        rows(&naive::evaluate(minimized, g)),
        rows(&naive::evaluate(q, g)),
        "{ctx}: the minimized `{minimized}` answers otherwise"
    );
}

/// Every commit merged its CSR and its inverted index; none rebuilt them.
fn assert_every_commit_merged(ctx: &str, stats: &MutationStats) {
    assert_eq!(stats.csr_merges, stats.epochs, "{ctx}: {stats:?}");
    assert_eq!(stats.index_merges, stats.epochs, "{ctx}: {stats:?}");
    assert_eq!(stats.csr_rebuilds, 0, "{ctx}: {stats:?}");
    assert_eq!(stats.index_rebuilds, 0, "{ctx}: {stats:?}");
}

/// The engine's answer on the committed snapshot must match the naive
/// evaluator run against the oracle graph.  One run on the default 3-hop
/// stands for every backend: default options answer on the maintained
/// condensation and read no index.
fn assert_backends_match_naive(ctx: &str, g: &DataGraph, oracle_graph: &DataGraph, q: &Gtpq) {
    let expected = naive::evaluate(q, oracle_graph);
    let got = GteaEngine::new(g).evaluate(q);
    assert!(
        got.same_answer(&expected),
        "{ctx}: diverged from the rebuild oracle: got {got:?} expected {expected:?}"
    );
}

#[test]
fn generator_base_graphs_stay_consistent_under_mutation() {
    for seed in 0..4u64 {
        let base = generate_xmark(&XmarkConfig {
            scale: 0.01,
            seed: 7 + seed,
            label_groups: 4,
        });
        let stream_cfg = UpdateStreamConfig {
            seed: 200 + seed,
            epochs: 3,
            ops_per_epoch: 40,
            backward_edge_fraction: 0.25,
            ..UpdateStreamConfig::default()
        };
        let stream = update_stream(&base, &stream_cfg);

        let handle = GraphHandle::new(base);
        for (i, epoch) in stream.iter().enumerate() {
            apply_ops(&handle, epoch);
            handle.commit();
            let snap = handle.snapshot();

            // On a generator base the ops-from-empty oracle does not apply;
            // a fresh condensation of the committed graph is still an exact
            // from-scratch rebuild of the maintained structure.
            assert_eq!(
                **snap.condensation(),
                Condensation::new(snap.graph()),
                "seed {seed} epoch {i}: maintained condensation != fresh condensation"
            );

            let q = xmark_q1((seed % 4) as u32);
            assert_backends_match_naive(
                &format!("xmark seed {seed} epoch {i}"),
                snap.graph(),
                snap.graph(),
                &q,
            );
        }
        let stats = handle.stats();
        assert_eq!(stats.epochs as usize, stream.len(), "xmark seed {seed}");
        assert_every_commit_merged(&format!("xmark seed {seed}"), &stats);
    }
}

/// Theorem 1 over the full structural analysis: the root's attribute
/// predicate and `fcs(root)`, with `fcs` derived for every node.
fn full_analysis_satisfiable(q: &Gtpq) -> bool {
    q.node(q.root()).attr.is_satisfiable()
        && gtpq::logic::is_satisfiable(StructuralAnalysis::new(q).root_complete())
}

/// What goes in front of a `where` formula to make the mutants of
/// `satisfiability_agrees_with_the_full_analysis_and_the_naive_evaluator`:
/// constants, a predicate child that contradicts itself, and one whose own
/// formula is `0`.
const FORMULA_PREFIXES: [&str; 6] = [
    "0 & ",
    "0 | ",
    "!1 | ",
    "!(/l1) & ",
    "(/l2 { where (//l0 as k) & !k }) | ",
    "(//l3 { where 0 }) & ",
];

#[test]
fn satisfiability_agrees_with_the_full_analysis_and_the_naive_evaluator() {
    let (mut checked, mut unsatisfiable) = (0, 0);
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 8..24, seed.is_multiple_of(2));
        let mut queries = vec![random_query(&mut rng), text_query(&mut rng, 10)];
        let text = queries[1].to_string();
        let wheres: Vec<usize> = text.match_indices("where ").map(|(at, _)| at + 6).collect();
        if !wheres.is_empty() {
            let at = wheres[rng.gen_range(0..wheres.len())];
            let prefix = FORMULA_PREFIXES[rng.gen_range(0..FORMULA_PREFIXES.len())];
            let mutant = format!("{}{prefix}{}", &text[..at], &text[at..]);
            queries.extend(parse_query(&mutant).ok());
        }
        let prefix = FORMULA_PREFIXES[seed as usize % FORMULA_PREFIXES.len()];
        let root_only = format!("l{}* {{ where {prefix}(//l1) }}", seed % 4);
        queries.push(parse_query(&root_only).expect("prefixes parse at the root"));
        for q in &queries {
            assert_minimized_answers_alike(&format!("seed {seed}"), q, &minimize(q), &g);
            let sat = is_satisfiable(q);
            assert_eq!(sat, full_analysis_satisfiable(q), "seed {seed}: `{q}`");
            if !sat {
                unsatisfiable += 1;
                assert!(
                    naive::evaluate(q, &g).is_empty(),
                    "seed {seed}: `{q}` has rows"
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 1000, "only {checked} queries checked");
    assert!(
        unsatisfiable >= 150,
        "only {unsatisfiable} unsatisfiable queries"
    );
}

/// Queries no graph can match: a predicate child whose own formula
/// contradicts itself, a root formula `0`, and a predicate leaf whose
/// formula is `0`.  Each must have no rows from the naive evaluator, from
/// every engine arm and from `submit` (which rejects it), and its minimized
/// form must have none either.
#[test]
fn contradictory_formulas_match_nothing_on_any_path() {
    let g = Arc::new(generate_xmark(&XmarkConfig::with_scale(0.1)));
    let three_hop = ThreeHop::new(&g);
    let engines = [
        GteaEngine::new(&g),
        GteaEngine::with_options(&g, GteaOptions::without_shrinking()),
        GteaEngine::with_options(&g, GteaOptions::without_upward_pruning()),
        GteaEngine::with_backend(&g, &three_hop, GteaOptions::pairwise()),
    ];
    let service = QueryService::with_config(Arc::clone(&g), ServiceConfig::default());
    let control = parse_query("open_auction* { where (/bidder { where 1 }) }").unwrap();
    assert!(
        !naive::evaluate(&control, &g).is_empty(),
        "the control query has rows"
    );
    for text in [
        "open_auction* { where (/bidder { where (/personref as x) & !x }) }",
        "open_auction* { where 0 }",
        "open_auction* { where (/bidder { where 0 }) }",
    ] {
        let q = parse_query(text).unwrap();
        assert!(!is_satisfiable(&q), "`{text}` is satisfiable");
        assert!(
            !full_analysis_satisfiable(&q),
            "`{text}`: the full analysis"
        );
        let minimized = minimize(&q);
        for (what, q) in [("query", &q), ("minimized", &minimized)] {
            assert!(naive::evaluate(q, &g).is_empty(), "`{text}`, {what}: naive");
            let plan = Planner::new(&g).plan(q);
            for engine in &engines {
                let exec = engine.execute(q, &plan, ExecOptions::unbounded()).unwrap();
                let arm = format!("{:?} on {}", engine.options(), engine.index().name());
                assert!(exec.results.is_empty(), "`{text}`, {what}: engine {arm}");
            }
        }
        let outcome = service.submit(&QueryRequest::text(text));
        assert!(
            matches!(outcome, Err(QueryError::Unsatisfiable)),
            "`{text}`: submit"
        );
    }
}
