//! Anti-rot tests for the "Mutation & snapshots" section of
//! `docs/ARCHITECTURE.md`:
//!
//! * every `MutationStats` counter the struct actually has must be named
//!   (backticked) in the section — a new counter without documentation
//!   fails, as does a documented counter the struct no longer carries
//!   (field names are recovered from the derived `Debug` output, so the
//!   check follows the code automatically),
//! * the epoch metric families the section promises must appear on a real
//!   Prometheus scrape page after a commit — and, in the other direction,
//!   every epoch-related family the page emits must be documented,
//! * every `tests/*.rs` file the section cites must exist,
//! * the behavioural claims are re-proven in miniature: a pinned snapshot
//!   survives a commit unchanged, and a live service rotates (no stale
//!   cache hit, monotone epoch) when the graph mutates under it.
//!
//! The "Snapshot format" section gets the same treatment: the documented
//! magic and format version must match the `snap` module's constants,
//! the per-section table must be the one the code's section table renders,
//! every `LoadMode` variant must be documented (recovered through an
//! exhaustive match, so a new variant fails the build until this file —
//! and the docs — learn about it), the cited test suites must exist, and
//! the headline claims are re-proven in miniature against a real file.

//!
//! The reachability-backend selector table of the "Layers" walk-through is
//! held to the code as well: its backend column must name exactly the
//! members of `BackendKind::ALL`.
//!
//! In the other direction, every Markdown file a `//!` / `///` comment
//! under `crates/` or `src/` sends the reader to must exist, and so must
//! every repository path that README.md, `docs/ARCHITECTURE.md` or
//! `docs/OBSERVABILITY.md` cites in backticks.
//!
//! The sentences naming the service's evaluation entry points, in
//! `docs/ARCHITECTURE.md` and in the `gtpq_service` crate docs, must name
//! exactly the `pub fn`s of `crates/service/src/service.rs` that take a
//! `&QueryRequest`, read from the source.

use std::collections::BTreeSet;
use std::sync::Arc;

use gtpq::graph::snap::{section_table_markdown, FORMAT_VERSION, MAGIC};
use gtpq::graph::{GraphBuilder, GraphHandle, GraphSnapshot, LoadMode, MutationStats};
use gtpq::reach::BackendKind;
use gtpq::service::{QueryRequest, QueryService, ServiceConfig};

const ARCHITECTURE_MD: &str = include_str!("../docs/ARCHITECTURE.md");

/// The body of the section titled `heading` (up to the next `## ` heading).
fn section_named(heading: &str) -> &'static str {
    ARCHITECTURE_MD
        .split(heading)
        .nth(1)
        .unwrap_or_else(|| panic!("ARCHITECTURE.md has a {heading} section"))
        .split("\n## ")
        .next()
        .expect("split is non-empty")
}

/// The "Mutation & snapshots" section body.
fn section() -> &'static str {
    section_named("## Mutation & snapshots")
}

/// All backticked tokens in `text`.
fn backticked_in(text: &str) -> BTreeSet<String> {
    let mut tokens = BTreeSet::new();
    for (i, piece) in text.split('`').enumerate() {
        if i % 2 == 1 {
            tokens.insert(piece.to_owned());
        }
    }
    tokens
}

/// All backticked tokens in the "Mutation & snapshots" section.
fn backticked() -> BTreeSet<String> {
    backticked_in(section())
}

/// Field names of `MutationStats`, recovered from the derived `Debug`
/// output (`MutationStats { epochs: 0, ... }`) so the list cannot drift
/// from the struct definition.
fn mutation_stats_fields() -> BTreeSet<String> {
    let rendered = format!("{:?}", MutationStats::default());
    let body = rendered
        .split_once('{')
        .expect("derived Debug uses braces")
        .1
        .rsplit_once('}')
        .expect("derived Debug uses braces")
        .0;
    body.split(',')
        .filter_map(|field| field.split(':').next())
        .map(|name| name.trim().to_owned())
        .filter(|name| !name.is_empty())
        .collect()
}

#[test]
fn every_mutation_stats_counter_is_documented() {
    let documented = backticked();
    let fields = mutation_stats_fields();
    assert!(
        fields.len() >= 10,
        "Debug parsing broke: only {fields:?} recovered"
    );
    for field in &fields {
        assert!(
            documented.contains(field),
            "MutationStats counter `{field}` is not mentioned in the \
             Mutation & snapshots section of docs/ARCHITECTURE.md"
        );
    }
}

#[test]
fn cited_test_files_exist() {
    let root = env!("CARGO_MANIFEST_DIR");
    let cited: Vec<String> = backticked()
        .into_iter()
        .filter(|t| t.starts_with("tests/") && t.ends_with(".rs"))
        .collect();
    assert!(
        cited.len() >= 3,
        "the section should cite its proof suites, found only {cited:?}"
    );
    for path in cited {
        assert!(
            std::path::Path::new(root).join(&path).exists(),
            "docs/ARCHITECTURE.md cites `{path}`, which does not exist"
        );
    }
}

#[test]
fn promised_epoch_metric_families_appear_on_a_real_scrape_page() {
    // A live service that has rotated once: the families must all be live.
    let mut b = GraphBuilder::new();
    let a = b.add_node_with_label("a");
    let c = b.add_node_with_label("b");
    b.add_edge(a, c);
    let handle = Arc::new(GraphHandle::new(b.build()));
    let service = QueryService::live_with_config(Arc::clone(&handle), ServiceConfig::default());
    let request = QueryRequest::text("a { //b* }");
    service.submit(&request).expect("query evaluates");
    handle.insert_node_with_label("b");
    handle.commit();
    service.submit(&request).expect("query evaluates");
    let page = service.metrics().render_prometheus();

    let on_page: BTreeSet<String> = page
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .filter(|name| {
            name.contains("epoch") || name.contains("stale") || name.contains("rotation")
        })
        .map(str::to_owned)
        .collect();
    let documented: BTreeSet<String> = backticked()
        .into_iter()
        .filter(|t| t.starts_with("gtpq_"))
        .collect();

    for family in &documented {
        assert!(
            on_page.contains(family),
            "docs/ARCHITECTURE.md promises `{family}` but the scrape page \
             does not emit it:\n{page}"
        );
    }
    for family in &on_page {
        assert!(
            documented.contains(family),
            "the scrape page emits epoch family `{family}` that the \
             Mutation & snapshots section does not document"
        );
    }
}

#[test]
fn snapshot_section_tracks_the_format_constants_and_load_modes() {
    let body = section_named("## Snapshot format");
    let documented = backticked_in(body);

    let magic = std::str::from_utf8(&MAGIC).expect("magic is ASCII");
    assert!(
        documented.contains(magic),
        "the Snapshot format section must name the magic `{magic}`"
    );
    let version = format!("currently {FORMAT_VERSION}");
    assert!(
        body.contains(&version),
        "the documented format version went stale: the section must say \
         \"{version}\" to match snap::FORMAT_VERSION"
    );

    // The per-section table is the code's own: a row added, renumbered or
    // re-classed in `snap.rs` fails here until the document follows.
    let table = section_table_markdown();
    assert!(
        body.contains(&table),
        "the section table of the Snapshot format section went stale; \
         replace it with:\n{table}"
    );

    // Exhaustive match: adding a `LoadMode` variant fails this build until
    // the list — and therefore the docs — learns about it.
    fn name(mode: LoadMode) -> &'static str {
        match mode {
            LoadMode::Mmap => "Mmap",
            LoadMode::Heap => "Heap",
        }
    }
    for mode in [LoadMode::Mmap, LoadMode::Heap] {
        assert!(
            documented.contains(name(mode)),
            "LoadMode `{}` is not documented in the Snapshot format section",
            name(mode)
        );
    }
}

#[test]
fn backend_selector_table_names_exactly_the_backend_table() {
    let rows = ARCHITECTURE_MD
        .split("| graph shape | backend | why |")
        .nth(1)
        .expect("ARCHITECTURE.md has the backend selector table")
        .lines()
        .skip(2) // rest of the header line, then the |---| rule
        .take_while(|line| line.starts_with('|'));
    let documented: BTreeSet<String> = rows
        .map(|row| {
            let cell = row.split('|').nth(2).expect("backend column");
            cell.trim().trim_matches('`').to_owned()
        })
        .collect();
    let real: BTreeSet<String> = BackendKind::ALL
        .iter()
        .map(|kind| kind.as_str().to_owned())
        .collect();
    assert_eq!(
        documented, real,
        "the selector table in docs/ARCHITECTURE.md and BackendKind::ALL disagree"
    );
}

#[test]
fn snapshot_section_cites_existing_test_files() {
    let root = env!("CARGO_MANIFEST_DIR");
    let cited: Vec<String> = backticked_in(section_named("## Snapshot format"))
        .into_iter()
        .filter(|t| t.starts_with("tests/") && t.ends_with(".rs"))
        .collect();
    assert!(
        !cited.is_empty(),
        "the Snapshot format section should cite its proof suites"
    );
    for path in cited {
        assert!(
            std::path::Path::new(root).join(&path).exists(),
            "docs/ARCHITECTURE.md cites `{path}`, which does not exist"
        );
    }
}

#[test]
fn snapshot_claims_hold_in_miniature() {
    let mut b = GraphBuilder::new();
    let a = b.add_node_with_label("a");
    let c = b.add_node_with_label("b");
    b.add_edge(a, c);
    let graph = Arc::new(b.build());
    let path = std::env::temp_dir().join(format!(
        "gtpq-architecture-docs-{}.gtpq",
        std::process::id()
    ));
    GraphSnapshot::freeze(Arc::clone(&graph))
        .save(&path)
        .expect("snapshot saves");

    // "The 64-byte header carries the magic GTPQSNAP": byte-for-byte.
    let bytes = std::fs::read(&path).expect("snapshot readable");
    assert_eq!(&bytes[..8], &MAGIC, "file does not start with the magic");

    // Every load mode reconstructs the same graph.
    for mode in [LoadMode::Mmap, LoadMode::Heap] {
        let loaded = GraphSnapshot::open(&path, mode).expect("snapshot loads");
        assert_eq!(*loaded.graph().as_ref(), *graph, "{mode:?} diverged");
    }

    // "Corruption surfaces as a typed SnapshotError": a broken magic and a
    // hard truncation must both fail cleanly, in every mode.
    let mut broken = bytes.clone();
    broken[0] ^= 0xff;
    std::fs::write(&path, &broken).expect("corrupt file written");
    for mode in [LoadMode::Mmap, LoadMode::Heap] {
        assert!(GraphSnapshot::open(&path, mode).is_err(), "{mode:?}");
    }
    std::fs::write(&path, &bytes[..10]).expect("truncated file written");
    for mode in [LoadMode::Mmap, LoadMode::Heap] {
        assert!(GraphSnapshot::open(&path, mode).is_err(), "{mode:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn lifecycle_claims_hold_in_miniature() {
    // "Anything holding the previous snapshot keeps reading it untouched."
    let mut b = GraphBuilder::new();
    let a = b.add_node_with_label("a");
    let c = b.add_node_with_label("b");
    b.add_edge(a, c);
    let handle = Arc::new(GraphHandle::new(b.build()));
    let pinned = handle.snapshot();
    handle.insert_node_with_label("b");
    handle.commit();
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(pinned.graph().node_count(), 2);
    assert_eq!(handle.snapshot().graph().node_count(), 3);

    // "A fresh submit sees the new epoch with no stale cache hit."
    let service = QueryService::live_with_config(Arc::clone(&handle), ServiceConfig::default());
    let request = QueryRequest::text("a { //b* }").with_stats();
    let cold = service.submit(&request).unwrap();
    let warm = service.submit(&request).unwrap();
    assert!(warm.from_cache);
    let new = handle.insert_node_with_label("b");
    handle.insert_edge(a, new);
    handle.commit();
    let fresh = service.submit(&request).unwrap();
    assert!(!fresh.from_cache, "stale cache hit across an epoch");
    assert_eq!(fresh.rows.len(), cold.rows.len() + 1);
    assert!(
        fresh.stats.unwrap().graph_epoch > cold.stats.unwrap().graph_epoch,
        "EvalStats::graph_epoch did not advance with the commit"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directories are readable") {
        let path = entry.expect("directory entries are readable").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn markdown_files_named_in_doc_comments_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("src"), &mut sources);
    let mut named = 0;
    for source in sources {
        let text = std::fs::read_to_string(&source).expect("sources are UTF-8");
        let doc_lines = text.lines().enumerate().filter(|(_, line)| {
            let line = line.trim_start();
            line.starts_with("//!") || line.starts_with("///")
        });
        for (n, line) in doc_lines {
            // A path token: what is left of a word once the punctuation
            // around it (backticks, quotes, brackets, a sentence's full
            // stop) is trimmed, when that ends in `.md`.
            let files = line
                .split_whitespace()
                .map(|word| word.trim_matches(|c: char| !c.is_alphanumeric()))
                .filter(|word| word.ends_with(".md"));
            for file in files {
                named += 1;
                assert!(
                    root.join(file).exists(),
                    "{}:{}: the comment names `{file}`, which does not exist \
                     (paths are relative to the repository root)",
                    source.display(),
                    n + 1
                );
            }
        }
    }
    assert!(named >= 10, "only {named} references found: the scan broke");
}

#[test]
fn repo_paths_cited_in_the_docs_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut cited = 0;
    for doc in ["README.md", "docs/ARCHITECTURE.md", "docs/OBSERVABILITY.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("docs are readable");
        // A repo-rooted path: relative, with a directory part and the
        // extension of a source, data, doc or snapshot file.
        let paths = backticked_in(&text).into_iter().filter(|t| {
            t.contains('/')
                && !t.starts_with('/')
                && !t.contains(char::is_whitespace)
                && [".rs", ".json", ".md", ".gtpq"]
                    .iter()
                    .any(|e| t.ends_with(e))
        });
        for path in paths {
            cited += 1;
            assert!(
                root.join(&path).exists(),
                "{doc} cites `{path}`, which does not exist"
            );
        }
    }
    assert!(cited >= 20, "only {cited} paths found: the scan broke");
}

#[test]
fn entry_point_sentences_name_exactly_the_pub_fns_taking_a_request() {
    // A signature runs from `pub fn` to the body's opening brace.
    let entry_points: BTreeSet<String> = include_str!("../crates/service/src/service.rs")
        .split("pub fn ")
        .skip(1)
        .filter_map(|f| f.split('{').next())
        .filter(|signature| signature.contains("&QueryRequest"))
        .filter_map(|signature| signature.split('(').next())
        .map(str::to_owned)
        .collect();
    assert!(entry_points.contains("submit"), "the scan broke");
    let crate_docs: String = include_str!("../crates/service/src/lib.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//!"))
        .map(|line| format!("{}\n", line.trim_start()))
        .collect();
    for text in [ARCHITECTURE_MD, &crate_docs] {
        // The sentence starts after the previous full stop or blank line.
        let at = text
            .find("the only evaluation entry point")
            .expect("the sentence");
        let start = [". ", ".\n", "\n\n"]
            .iter()
            .filter_map(|end| text[..at].rfind(end).map(|i| i + end.len()))
            .max()
            .unwrap_or(0);
        let sentence = &text[start..at];
        let named: BTreeSet<String> = backticked_in(sentence)
            .iter()
            .filter_map(|name| name.rsplit("::").next().map(str::to_owned))
            .collect();
        assert_eq!(named, entry_points, "entry-point sentence: {sentence}");
    }
}
