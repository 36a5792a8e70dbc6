//! End-to-end tests of the textual query language:
//!
//! * every ` ```gtpq ` block in `docs/QUERY_LANGUAGE.md` parses, and blocks
//!   tagged `# dataset: <name>` evaluate non-emptily on that generated
//!   dataset — the reference doc cannot rot,
//! * the `parse(display(q)) == q` round-trip property over random
//!   generated queries,
//! * a character-level fuzz of those queries' texts: the parser never
//!   panics, and whatever parses round-trips through `Display`,
//! * parser failure modes assert exact error spans,
//! * `QueryService::submit` of query text agrees with builder-constructed
//!   evaluation,
//! * a short text whose formula has no small clause form is checked for
//!   satisfiability in milliseconds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gtpq::datagen::{
    generate_arxiv, generate_dblp, generate_embed, generate_xmark, ArxivConfig, EmbedConfig,
    XmarkConfig,
};
use gtpq::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::text_query;

const QUERY_LANGUAGE_MD: &str = include_str!("../docs/QUERY_LANGUAGE.md");

/// Extracts the ` ```gtpq ` fenced blocks of the language reference.
fn doc_blocks() -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in QUERY_LANGUAGE_MD.lines() {
        match &mut current {
            None if line.trim() == "```gtpq" => current = Some(String::new()),
            None => {}
            Some(block) => {
                if line.trim() == "```" {
                    blocks.push(current.take().expect("inside a block"));
                } else {
                    block.push_str(line);
                    block.push('\n');
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated ```gtpq block in the doc");
    blocks
}

fn dataset_of(block: &str) -> Option<&'static str> {
    let tag = block
        .lines()
        .find_map(|l| l.trim().strip_prefix("# dataset:").map(str::trim))?;
    Some(match tag {
        "dblp" => "dblp",
        "arxiv" => "arxiv",
        "xmark" => "xmark",
        "embed" => "embed",
        other => panic!("unknown dataset tag `{other}` in the doc"),
    })
}

#[test]
fn every_doc_example_parses() {
    let blocks = doc_blocks();
    assert!(
        blocks.len() >= 4,
        "the language reference should carry several gtpq examples"
    );
    for block in &blocks {
        block
            .parse::<Gtpq>()
            .unwrap_or_else(|e| panic!("doc example failed to parse:\n{}", e.render(block)));
    }
}

#[test]
fn doc_dataset_examples_evaluate_nonempty() {
    let blocks = doc_blocks();
    let tagged: Vec<(&'static str, &String)> = blocks
        .iter()
        .filter_map(|b| dataset_of(b).map(|d| (d, b)))
        .collect();
    let names: Vec<&str> = tagged.iter().map(|(d, _)| *d).collect();
    for expected in ["dblp", "arxiv", "xmark", "embed"] {
        assert!(
            names.contains(&expected),
            "the doc needs a worked {expected} example (found {names:?})"
        );
    }
    for (dataset, block) in tagged {
        let graph = Arc::new(match dataset {
            "dblp" => generate_dblp(240, 42),
            "arxiv" => generate_arxiv(&ArxivConfig::small()),
            "xmark" => generate_xmark(&XmarkConfig::with_scale(0.1)),
            "embed" => generate_embed(&EmbedConfig::small()),
            _ => unreachable!(),
        });
        let service = QueryService::with_config(graph, ServiceConfig::default());
        let results = match service.submit(&QueryRequest::text(block)) {
            Ok(outcome) => outcome.rows,
            Err(gtpq::service::QueryError::Parse(e)) => {
                panic!("{dataset} example failed:\n{}", e.render(block))
            }
            Err(e) => panic!("{dataset} example failed: {e}"),
        };
        assert!(
            !results.is_empty(),
            "{dataset} doc example returns no rows:\n{block}"
        );
    }
}

#[test]
fn parse_display_round_trips_over_random_queries() {
    for seed in 0..300u64 {
        let max_nodes = 2 + (seed % 14) as usize;
        let q = text_query(&mut StdRng::seed_from_u64(seed), max_nodes);
        let text = q.to_string();
        let reparsed: Gtpq = text
            .parse()
            .unwrap_or_else(|e: ParseError| panic!("seed {seed}: `{text}`:\n{}", e.render(&text)));
        assert_eq!(reparsed, q, "seed {seed}: `{text}`");
        // The pretty printer speaks the same language.
        let pretty = q.to_pretty_string();
        assert_eq!(
            pretty.parse::<Gtpq>().expect("pretty form parses"),
            q,
            "seed {seed} (pretty): `{pretty}`"
        );
    }
}

#[test]
fn mutated_query_texts_never_panic_the_parser() {
    // The characters the lexer gives a meaning to, plus one outside ASCII,
    // which an error span must not cut in half.
    const ALPHABET: &[char] = &[
        'a', 'l', 'w', 's', '0', '7', '_', ' ', '\n', '#', '"', '\\', '*', '/', '{', '}', '[', ']',
        '(', ')', ',', '&', '|', '!', '<', '>', '=', '-', '.', 'é',
    ];
    let mut parsed = 0;
    for case in 0..20_000u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let q = text_query(
            &mut StdRng::seed_from_u64(case % 300),
            2 + (case % 14) as usize,
        );
        let mut text: Vec<char> = q.to_string().chars().collect();
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..text.len() + 1);
            let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            match rng.gen_range(0..3) {
                0 if at < text.len() => {
                    text.remove(at);
                }
                1 if at < text.len() => text[at] = c,
                _ => text.insert(at, c),
            }
        }
        let text: String = text.into_iter().collect();
        // An error must render too: its span points into the mutated text.
        let outcome = std::panic::catch_unwind(|| parse_query(&text).map_err(|e| e.render(&text)))
            .unwrap_or_else(|_| panic!("case {case}: the parser panicked on `{text}`"));
        let Ok(q) = outcome else { continue };
        parsed += 1;
        let printed = q.to_string();
        let reparsed = parse_query(&printed).unwrap_or_else(|e| {
            panic!(
                "case {case}: `{text}` printed as `{printed}`, which fails:\n{}",
                e.render(&printed)
            )
        });
        assert_eq!(reparsed, q, "case {case}: `{text}` printed as `{printed}`");
    }
    assert!(
        parsed > 1_000,
        "only {parsed} mutants parsed: the fuzz lost its teeth"
    );
}

#[test]
fn parser_failure_modes_carry_spans() {
    // (input, expected message fragment, expected span start..end)
    let cases: &[(&str, &str, (usize, usize))] = &[
        ("a* { where (//b }", "unbalanced `(`", (11, 12)),
        ("a* { //b", "unbalanced `{`", (3, 4)),
        ("a* { ///b }", "expected a node pattern", (7, 8)),
        ("[price = 1.5]*", "floating-point", (9, 12)),
        ("[price @ 3]*", "unexpected character `@`", (7, 8)),
        (
            "a* { where missing }",
            "unknown predicate-child name",
            (11, 18),
        ),
        ("a { //b }", "no output node", (0, 9)),
        ("a* { where //b* }", "cannot be an output node", (14, 15)),
        (
            "a* { where //b { /c } }",
            "cannot have backbone children",
            (17, 18),
        ),
        ("a* extra", "trailing input", (3, 8)),
        ("where*", "reserved word", (0, 5)),
        (r#"a* { /"unterminated }"#, "unterminated string", (6, 21)),
    ];
    for &(input, fragment, (start, end)) in cases {
        let err = input.parse::<Gtpq>().expect_err(input);
        assert!(
            err.message.contains(fragment),
            "`{input}`: message `{}` missing `{fragment}`",
            err.message
        );
        assert_eq!(
            (err.span.start, err.span.end),
            (start, end),
            "`{input}`: wrong span for `{}`",
            err.message
        );
    }
}

#[test]
fn submitted_text_agrees_with_the_builder_everywhere() {
    let graph = Arc::new(generate_dblp(160, 7));
    let service = QueryService::with_config(Arc::clone(&graph), ServiceConfig::default());

    // Disjunction + negation, built both ways.
    let text = "inproceedings* {
        where ((/[label = author, value = Carol]) | (/[label = author, value = Dave]))
            & !(/[label = author, value = Erin])
    }";
    let mut b = GtpqBuilder::new(AttrPredicate::label("inproceedings"));
    let root = b.root_id();
    let carol = b.predicate_child(
        root,
        EdgeKind::Child,
        AttrPredicate::label("author").and("value", CmpOp::Eq, "Carol".into()),
    );
    let dave = b.predicate_child(
        root,
        EdgeKind::Child,
        AttrPredicate::label("author").and("value", CmpOp::Eq, "Dave".into()),
    );
    let erin = b.predicate_child(
        root,
        EdgeKind::Child,
        AttrPredicate::label("author").and("value", CmpOp::Eq, "Erin".into()),
    );
    b.set_structural(
        root,
        BoolExpr::and2(
            BoolExpr::or2(BoolExpr::Var(carol.var()), BoolExpr::Var(dave.var())),
            BoolExpr::not(BoolExpr::Var(erin.var())),
        ),
    );
    b.mark_output(root);
    let built = b.build().unwrap();

    let from_text = service.submit(&QueryRequest::text(text)).unwrap().rows;
    let from_builder = service
        .submit(&QueryRequest::query(built.clone()))
        .unwrap()
        .rows;
    assert_eq!(from_text.output, from_builder.output);
    assert_eq!(
        from_text.iter().collect::<Vec<_>>(),
        from_builder.iter().collect::<Vec<_>>()
    );
    assert!(!from_text.is_empty());
    // Identical structure ⇒ the builder query was a cache hit.
    assert_eq!(service.metrics().cache_hits, 1);

    // And both agree with the naive semantic oracle.
    let expected = gtpq_query::naive::evaluate(&built, &graph);
    assert!(from_text.same_answer(&expected));
}

/// `r* { where (D) & (!(T0) | (T1) | … | (T6)) }`: `D` is `(/c0 as x0) |
/// … | (/c7 as x7)`, and each `Ti` joins three clauses `(xa | !xb)` by `&`,
/// with `a = n mod 8` and `b = (7n + 3) mod 8` over a running clause
/// counter `n`.  Its formula distributes into a CNF too large to build,
/// yet the satisfiability check `submit` runs right after parsing, before
/// any deadline applies, must answer it in milliseconds.
#[test]
fn clause_heavy_text_is_checked_in_milliseconds() {
    let declared: Vec<String> = (0..8).map(|i| format!("(/c{i} as x{i})")).collect();
    let term = |t: usize| {
        let clauses: Vec<String> = (3 * t..3 * t + 3)
            .map(|n| format!("(x{} | !x{})", n % 8, (7 * n + 3) % 8))
            .collect();
        format!("({})", clauses.join(" & "))
    };
    let terms: Vec<String> = (1..7).map(term).collect();
    let text = format!(
        "r* {{ where ({}) & (!{} | {}) }}",
        declared.join(" | "),
        term(0),
        terms.join(" | ")
    );
    assert_eq!(text.len(), 414, "{text}");
    let service =
        QueryService::with_config(Arc::new(generate_dblp(20, 3)), ServiceConfig::default());
    let start = Instant::now();
    let answer = service.submit(&QueryRequest::text(&text));
    let took = start.elapsed();
    assert!(answer.is_ok(), "{answer:?}");
    assert!(took < Duration::from_secs(2), "{text} took {took:?}");
}
