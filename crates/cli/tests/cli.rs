//! End-to-end tests of the CLI: REPL behaviour over piped input, one-shot
//! mode, and (the tentpole acceptance check) a textual query evaluated
//! through the REPL machinery against a generated arXiv graph matching the
//! builder-constructed equivalent exactly.

use std::io::Write as _;
use std::process::{Command, Stdio};

use gtpq_cli::{repl, CliOptions, Dataset, Outcome, Session};
use gtpq_query::{AttrPredicate, CmpOp, EdgeKind, GtpqBuilder};
use gtpq_service::QueryRequest;

fn arxiv_session() -> Session {
    let opts =
        CliOptions::parse(["--dataset", "arxiv", "--scale", "0.4", "--stats"].map(String::from))
            .unwrap();
    Session::new(&opts).unwrap()
}

#[test]
fn textual_query_matches_builder_query_on_arxiv() {
    let mut session = arxiv_session();
    // "papers from 1996–2002 citing a paper3 paper and written by an auth7
    // author, returning the citing paper" — textual form ...
    let text = "[label = paper3, year >= 1996, year <= 2002]* {
        where (//paper3) & (//auth7)
    }";
    // ... and the same query through the builder.
    let mut b = GtpqBuilder::new(
        AttrPredicate::label("paper3")
            .and("year", CmpOp::Ge, 1996.into())
            .and("year", CmpOp::Le, 2002.into()),
    );
    let root = b.root_id();
    let _cited = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("paper3"));
    let _author = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("auth7"));
    b.set_structural(
        root,
        gtpq_logic::BoolExpr::and2(gtpq_logic::BoolExpr::var(1), gtpq_logic::BoolExpr::var(2)),
    );
    b.mark_output(root);
    let built = b.build().unwrap();

    let from_text = session
        .service()
        .submit(&QueryRequest::text(text))
        .unwrap()
        .rows;
    let from_builder = session
        .service()
        .submit(&QueryRequest::query(built))
        .unwrap()
        .rows;
    assert_eq!(from_text.output, from_builder.output);
    assert_eq!(from_text, from_builder);
    assert!(!from_text.is_empty(), "query should match generated data");

    // The REPL path renders the same answer (count line agrees).
    let rendered = session.run_query(text);
    let n = from_builder.len();
    let count_line = format!("{n} row{}", if n == 1 { "" } else { "s" });
    assert!(rendered.contains(&count_line), "{rendered}");
    assert!(rendered.contains("stats:"), "{rendered}");
}

#[test]
fn repl_accumulates_multiline_queries_and_handles_commands() {
    let opts =
        CliOptions::parse(["--dataset", "dblp", "--scale", "0.3"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let input = "\
:stats on
inproceedings {
    / [label = title]*
    where / [label = author, value = Alice]
}
:metrics
:limit 2
inproceedings { / [label = title]* where / [label = author, value = Alice] }
:quit
";
    let mut out = Vec::new();
    repl(&mut session, input.as_bytes(), &mut out, false).unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("stats on"), "{out}");
    assert!(out.contains("title"), "{out}");
    assert!(out.contains("rows"), "{out}");
    assert!(out.contains("stats:"), "{out}");
    assert!(out.contains("hit rate"), "{out}");
    // The second (identical) query is served from the cache.
    assert!(out.contains("served from the result cache"), "{out}");
    assert_eq!(session.service().metrics().cache_hits, 1);
}

#[test]
fn repl_reports_parse_errors_without_dying() {
    let opts = CliOptions::parse(["--scale", "0.2"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let mut out = Vec::new();
    repl(
        &mut session,
        "inproceedings ] oops\ndblp*\n".as_bytes(),
        &mut out,
        false,
    )
    .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("parse error"), "{out}");
    assert!(out.contains('^'), "{out}");
    // The next query still runs.
    assert!(out.contains("1 row"), "{out}");
}

#[test]
fn unterminated_string_does_not_swallow_later_input() {
    let opts = CliOptions::parse(["--scale", "0.2"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let mut out = Vec::new();
    repl(
        &mut session,
        "dblp* { /\"oops }\ndblp*\n".as_bytes(),
        &mut out,
        false,
    )
    .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("unterminated string"), "{out}");
    // The second query is evaluated, not absorbed into the broken chunk.
    assert!(out.contains("1 row"), "{out}");
}

#[test]
fn explain_shows_the_tree_and_plan_without_evaluating() {
    let opts = CliOptions::parse(["--scale", "0.2"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let before = session.service().metrics().queries;
    let Outcome::Continue(out) = session.handle(":explain a* { //b where (//c) | !(//d) }") else {
        panic!("explain must not quit")
    };
    assert!(out.contains("4 nodes"), "{out}");
    assert!(out.contains("general (uses NOT)"), "{out}");
    assert!(out.contains("canonical:"), "{out}");
    // The physical plan follows the tree: operators and the candidate
    // steps' estimates, under a bare header (the service recommends no
    // backend).
    assert!(out.contains("\nQueryPlan\n"), "{out}");
    assert!(out.contains("IndexScan"), "{out}");
    assert!(out.contains("PruneDown"), "{out}");
    assert!(!out.contains("est. probes"), "{out}");
    assert!(out.contains("est "), "{out}");
    // ... but nothing ran: no actuals, no queries counted.
    assert!(!out.contains("actual"), "{out}");
    assert_eq!(session.service().metrics().queries, before);
}

#[test]
fn explain_analyze_runs_the_query_and_appends_actuals() {
    let opts = CliOptions::parse(["--scale", "0.3"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let Outcome::Continue(out) =
        session.handle(":explain analyze inproceedings { /[label = title]* }")
    else {
        panic!("explain must not quit")
    };
    assert!(out.contains("QueryPlan"), "{out}");
    assert!(out.contains("→ actual"), "{out}");
    assert!(out.contains("Collect"), "{out}");
    assert!(out.contains("estimation error"), "{out}");
    assert!(out.contains("stats:"), "{out}");
    // A malformed analyze target reports a parse error, not a panic.
    let Outcome::Continue(err) = session.handle(":explain analyze a* {") else {
        panic!("explain must not quit")
    };
    assert!(err.contains("parse error"), "{err}");
    // A query whose *root label* is `analyze` still explains (no keyword
    // swallowing): the stripped tail fails to parse, the full input wins.
    let Outcome::Continue(out) = session.handle(":explain analyze { /[label = x]* }") else {
        panic!("explain must not quit")
    };
    assert!(out.contains("QueryPlan"), "{out}");
    assert!(!out.contains("→ actual"), "{out}");
}

#[test]
fn binary_one_shot_evaluates_a_query() {
    let output = Command::new(env!("CARGO_BIN_EXE_gtpq-cli"))
        .args([
            "--dataset",
            "dblp",
            "--scale",
            "0.3",
            "--stats",
            "--query",
            "inproceedings { /[label = title]* where /[label = author, value = Alice] }",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("title"), "{stdout}");
    assert!(stdout.contains("rows"), "{stdout}");
    assert!(stdout.contains("stats:"), "{stdout}");
}

#[test]
fn binary_reports_parse_errors_on_stderr() {
    let output = Command::new(env!("CARGO_BIN_EXE_gtpq-cli"))
        .args(["--scale", "0.2", "--query", "a* {"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("unbalanced `{`"), "{stderr}");
}

#[test]
fn binary_repl_reads_stdin_until_quit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gtpq-cli"))
        .args(["--scale", "0.2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"dblp*\n:quit\n")
        .unwrap();
    let output = child.wait_with_output().expect("binary exits");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("v0:dblp"), "{stdout}");
}

#[test]
fn repl_timeout_yields_a_clean_timeout_error() {
    // A zero-millisecond deadline must produce a clean `timed out` message —
    // not a panic, not an empty table.
    let mut session = arxiv_session();
    let input = "\
:timeout 0
paper3*
:timeout off
paper3*
:quit
";
    let mut out = Vec::new();
    repl(&mut session, input.as_bytes(), &mut out, false).unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("timeout 0ms"), "{out}");
    assert!(out.contains("timed out"), "{out}");
    assert!(
        !out.contains("0 rows\n"),
        "a timeout must not render as an empty table: {out}"
    );
    // After :timeout off the same query completes.
    assert!(out.contains("rows"), "{out}");
    assert_eq!(session.service().metrics().timed_out, 1);
}

#[test]
fn limit_is_pushed_down_not_display_trimmed() {
    let mut session = arxiv_session(); // --stats is on
    let query = "[year >= 1990]*";
    let Outcome::Continue(_) = session.handle(":limit none") else {
        panic!(":limit must not quit");
    };
    let Outcome::Continue(full) = session.handle(query) else {
        panic!("query must not quit");
    };
    assert!(!full.contains("limit reached"), "{full}");
    let Outcome::Continue(_) = session.handle(":limit 2") else {
        panic!(":limit must not quit");
    };
    let Outcome::Continue(limited) = session.handle(query) else {
        panic!("query must not quit");
    };
    // The limited run fetches exactly 2 rows and flags the cut.
    assert!(limited.contains("2 rows (limit reached"), "{limited}");
    // The limited rows are the first rows of the full table.
    let full_rows: Vec<&str> = full.lines().skip(2).take(2).collect();
    let limited_rows: Vec<&str> = limited.lines().skip(2).take(2).collect();
    assert_eq!(full_rows, limited_rows, "pushdown preserves row order");
    assert!(session.service().metrics().rows_truncated >= 1);
}

#[test]
fn trace_command_records_and_renders_a_span_tree() {
    let opts = CliOptions::parse(["--scale", "0.2"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let Outcome::Continue(out) = session.handle(":trace") else {
        panic!(":trace must not quit")
    };
    assert!(out.contains("no trace recorded yet"), "{out}");
    let Outcome::Continue(out) = session.handle(":trace on") else {
        panic!(":trace must not quit")
    };
    assert!(out.contains("trace on"), "{out}");
    session.handle("inproceedings { /[label = title]* }");
    let Outcome::Continue(out) = session.handle(":trace") else {
        panic!(":trace must not quit")
    };
    // The span tree covers the whole request: parse, plan, engine stages.
    assert!(out.contains("request"), "{out}");
    assert!(out.contains("plan"), "{out}");
    assert!(out.contains("candidates"), "{out}");
    assert!(out.contains("prune_down"), "{out}");
    assert!(session.last_trace().is_some());

    // `:trace save` writes Chrome trace_event JSON that round-trips
    // through a JSON parser.
    let path = std::env::temp_dir().join(format!("gtpq-cli-trace-{}.json", std::process::id()));
    let Outcome::Continue(out) = session.handle(&format!(":trace save {}", path.display())) else {
        panic!(":trace must not quit")
    };
    assert!(out.contains("wrote"), "{out}");
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let value = gtpq_obs::json::parse(&json).expect("well-formed trace JSON");
    let events = value
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("request")));

    let Outcome::Continue(out) = session.handle(":trace off") else {
        panic!(":trace must not quit")
    };
    assert!(out.contains("trace off"), "{out}");
    let Outcome::Continue(out) = session.handle(":trace nonsense") else {
        panic!(":trace must not quit")
    };
    assert!(out.contains("expected"), "{out}");
}

#[test]
fn slowlog_shows_slow_queries_with_their_plan() {
    // Threshold 0: every query is "slow", so the log fills deterministically.
    let opts = CliOptions::parse(["--scale", "0.2", "--slow-ms", "0"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let Outcome::Continue(empty) = session.handle(":slowlog") else {
        panic!(":slowlog must not quit")
    };
    assert!(empty.contains("empty"), "{empty}");
    session.handle("inproceedings { /[label = title]* }");
    let Outcome::Continue(out) = session.handle(":slowlog") else {
        panic!(":slowlog must not quit")
    };
    assert!(out.contains("#1"), "{out}");
    assert!(out.contains("ok,"), "{out}");
    assert!(out.contains("inproceedings"), "{out}");
    // The entry carries the executed plan with actual row counts.
    assert!(out.contains("actual"), "{out}");
}

#[test]
fn slowlog_stays_empty_when_disabled() {
    let opts = CliOptions::parse(["--scale", "0.2", "--slow-ms", "off"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    session.handle("dblp*");
    let Outcome::Continue(out) = session.handle(":slowlog") else {
        panic!(":slowlog must not quit")
    };
    assert!(out.contains("empty"), "{out}");
}

#[test]
fn metrics_report_percentiles_and_recent_rates() {
    let opts = CliOptions::parse(["--scale", "0.2"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    session.handle("dblp*");
    let Outcome::Continue(out) = session.handle(":metrics") else {
        panic!(":metrics must not quit")
    };
    assert!(out.contains("p50"), "{out}");
    assert!(out.contains("p999"), "{out}");
    assert!(out.contains("over 1 requests"), "{out}");
    assert!(out.contains("qps"), "{out}");
    assert!(out.contains("aborted runs: 0"), "{out}");
}

#[test]
fn binary_trace_out_writes_chrome_json() {
    let path = std::env::temp_dir().join(format!("gtpq-trace-out-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_gtpq-cli"))
        .args([
            "--scale",
            "0.2",
            "--query",
            "dblp*",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("wrote"), "{stdout}");
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let value = gtpq_obs::json::parse(&json).expect("well-formed trace JSON");
    assert!(value.get("traceEvents").is_some());
}

#[test]
fn datasets_generate_at_small_scale() {
    for dataset in [Dataset::Dblp, Dataset::Arxiv, Dataset::Xmark] {
        let g = dataset.generate(0.1, 1);
        assert!(g.node_count() > 0, "{}", dataset.name());
        assert!(g.edge_count() > 0, "{}", dataset.name());
    }
}

#[test]
fn save_and_snapshot_flag_round_trip_identical_tables() {
    let path = std::env::temp_dir().join(format!("gtpq-cli-save-{}.gtpq", std::process::id()));
    let query = "[label = paper3]* { where //auth7 }";

    // Build an arXiv session (no --stats: timings would differ per run),
    // evaluate the query, and save the graph as a binary snapshot.
    let opts =
        CliOptions::parse(["--dataset", "arxiv", "--scale", "0.4"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let original = session.run_query(query);
    assert!(original.contains("rows"), "{original}");
    let Outcome::Continue(saved) = session.handle(&format!(":save {}", path.display())) else {
        panic!(":save must not quit")
    };
    assert!(saved.contains("saved epoch 0"), "{saved}");
    assert!(saved.contains("nodes"), "{saved}");

    // Reload through --snapshot: the mapped graph renders the identical
    // result table, and the banner names its source.
    let opts =
        CliOptions::parse(["--snapshot".to_owned(), path.display().to_string()].map(String::from))
            .unwrap();
    let mut reloaded = Session::new(&opts).unwrap();
    assert!(
        reloaded.banner().contains("snapshot"),
        "{}",
        reloaded.banner()
    );
    assert_eq!(reloaded.run_query(query), original);

    // `:save` back onto the very file backing the live mapping is refused
    // with a diagnostic — the file, the mapping and the session all survive.
    let Outcome::Continue(out) = reloaded.handle(&format!(":save {}", path.display())) else {
        panic!(":save must not quit")
    };
    assert!(out.contains("cannot save snapshot"), "{out}");
    assert!(out.contains("live mapping"), "{out}");
    assert_eq!(reloaded.run_query(query), original);

    // The snapshot-backed session is still live: `:ingest` commits
    // copy-on-write epochs while the file on disk stays pristine.
    let before = std::fs::read(&path).unwrap();
    let Outcome::Continue(out) = reloaded.handle(":ingest 1 8") else {
        panic!(":ingest must not quit")
    };
    assert!(out.contains("graph now at epoch 1"), "{out}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "mutating wrote through the mapping"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_errors_render_cleanly() {
    // A missing snapshot fails session construction with a diagnostic.
    let missing = std::env::temp_dir().join("gtpq-cli-no-such-snapshot.gtpq");
    let opts = CliOptions::parse(
        ["--snapshot".to_owned(), missing.display().to_string()].map(String::from),
    )
    .unwrap();
    let err = Session::new(&opts)
        .err()
        .expect("missing snapshot must fail");
    assert!(err.contains("cannot open snapshot"), "{err}");

    // `:save` to an unwritable path reports, it does not panic or quit.
    let opts = CliOptions::parse(["--scale", "0.2"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let Outcome::Continue(out) = session.handle(":save /no/such/dir/x.gtpq") else {
        panic!(":save must not quit")
    };
    assert!(out.contains("cannot save snapshot"), "{out}");
    let Outcome::Continue(out) = session.handle(":save") else {
        panic!(":save must not quit")
    };
    assert!(out.contains("expected `:save PATH`"), "{out}");
}

#[test]
fn binary_saves_and_reloads_a_snapshot() {
    let path = std::env::temp_dir().join(format!("gtpq-cli-bin-save-{}.gtpq", std::process::id()));
    let query = "[label = paper3]* { where //auth7 }";

    // REPL over a pipe: generate arXiv, save, quit.
    let mut child = Command::new(env!("CARGO_BIN_EXE_gtpq-cli"))
        .args(["--dataset", "arxiv", "--scale", "0.4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(format!(":save {}\n:quit\n", path.display()).as_bytes())
        .unwrap();
    let output = child.wait_with_output().expect("binary exits");
    assert!(output.status.success(), "{output:?}");
    assert!(String::from_utf8_lossy(&output.stdout).contains("saved epoch 0"));

    // One-shot from the generated dataset and from the snapshot agree.
    let generated = Command::new(env!("CARGO_BIN_EXE_gtpq-cli"))
        .args(["--dataset", "arxiv", "--scale", "0.4", "--query", query])
        .output()
        .expect("binary runs");
    assert!(generated.status.success(), "{generated:?}");
    let mapped = Command::new(env!("CARGO_BIN_EXE_gtpq-cli"))
        .args(["--snapshot", path.to_str().unwrap(), "--query", query])
        .output()
        .expect("binary runs");
    assert!(mapped.status.success(), "{mapped:?}");
    assert_eq!(
        String::from_utf8(generated.stdout).unwrap(),
        String::from_utf8(mapped.stdout).unwrap(),
    );
    std::fs::remove_file(&path).ok();

    // A bad snapshot path exits with the argument-error code, not a panic.
    let missing = Command::new(env!("CARGO_BIN_EXE_gtpq-cli"))
        .args(["--snapshot", "/no/such/file.gtpq", "--query", query])
        .output()
        .expect("binary runs");
    assert_eq!(missing.status.code(), Some(2), "{missing:?}");
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot open snapshot"));
}

#[test]
fn ingest_command_mutates_the_live_graph_and_queries_see_it() {
    let opts = CliOptions::parse(["--scale", "0.2"].map(String::from)).unwrap();
    let mut session = Session::new(&opts).unwrap();
    let before = session.service().graph().node_count();
    assert_eq!(session.service().graph_epoch(), 0);

    let out = match session.handle(":ingest 2 20") {
        Outcome::Continue(text) => text,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert!(out.contains("ingested 2 epochs of 20 ops"), "{out}");
    assert!(out.contains("graph now at epoch 2"), "{out}");

    // The service rotated: a query answers for the mutated generation.
    let after = session.service().graph().node_count();
    assert!(after > before, "ingest inserted no nodes");
    assert_eq!(session.service().graph_epoch(), 2);
    assert_eq!(session.graph_handle().epoch(), 2);

    // Metrics surface the epoch line; bad arguments are rejected cleanly.
    let metrics = match session.handle(":metrics") {
        Outcome::Continue(text) => text,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert!(metrics.contains("graph: epoch 2"), "{metrics}");
    let err = match session.handle(":ingest nope") {
        Outcome::Continue(text) => text,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert!(err.contains("expected `:ingest"), "{err}");
}

#[test]
fn embed_dataset_answers_sim_queries_one_shot() {
    // --scale 0.1 → 6 planted clusters of 16 docs each (dim 32).  The query
    // vector spikes coordinate 0 to 8.0 — cluster 0's planted spike — so a
    // radius-7 L2 query retrieves exactly cluster 0: every member is within
    // √31 + noise of the query, every foreign member at least √(7² + 7²)
    // away (its own spike axis and axis 0 both differ by ≥ 7).
    let mut components = vec!["8".to_owned()];
    components.extend(std::iter::repeat_n("0".to_owned(), 31));
    let query = format!("[label = doc, sim(emb, [{}]) < 7]*", components.join(", "));
    let opts = CliOptions::parse(
        [
            "--dataset",
            "embed",
            "--scale",
            "0.1",
            "--limit",
            "100",
            "--stats",
        ]
        .map(String::from),
    )
    .unwrap();
    assert_eq!(opts.dataset, Dataset::Embed);
    let mut session = Session::new(&opts).unwrap();
    assert!(session.banner().contains("dataset embed"));

    let mut out = Vec::new();
    let result = gtpq_cli::run_once(&mut session, &query, &mut out).unwrap();
    assert!(result.is_ok(), "{result:?}");
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("16 rows"), "{out}");

    // `:explain analyze` surfaces the similarity access path with actuals.
    let explained = match session.handle(&format!(":explain analyze {query}")) {
        Outcome::Continue(text) => text,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert!(explained.contains("PivotScan u0"), "{explained}");
    assert!(explained.contains("actual 16 rows"), "{explained}");

    // A malformed vector literal renders a caret-annotated parse error and
    // a non-zero one-shot outcome.
    let bad = "[label = doc, sim(emb, [1, oops]) < 3]*";
    let mut out = Vec::new();
    let result = gtpq_cli::run_once(&mut session, bad, &mut out).unwrap();
    let diagnostic = result.expect_err("malformed vector literal must not parse");
    assert!(diagnostic.contains('^'), "no caret in: {diagnostic}");
    assert!(diagnostic.contains("oops"), "{diagnostic}");
}
