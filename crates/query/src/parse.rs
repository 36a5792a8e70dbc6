//! The textual GTPQ query language: tokenizer, parser and printer.
//!
//! Until now a [`Gtpq`] could only be constructed through
//! [`GtpqBuilder`] calls, so expressing a workload
//! meant recompiling.  This module gives every query a concrete textual form
//! (grammar below, full reference in `docs/QUERY_LANGUAGE.md`) together with:
//!
//! * [`parse_query`] — a recursive-descent parser producing a validated
//!   [`Gtpq`], with precise span-carrying [`ParseError`]s,
//! * a canonical [`Display`](std::fmt::Display) implementation (plus the
//!   indented [`Gtpq::to_pretty_string`]) such that parsing the printed text
//!   reproduces the query,
//! * [`FromStr`](std::str::FromStr) for `Gtpq`, so `text.parse::<Gtpq>()`
//!   works wherever strings arrive.
//!
//! # Syntax
//!
//! ```text
//! query      = node
//! node       = pattern [ "as" name ] [ "*" ] [ "{" clause* "}" ]
//! pattern    = label | string | "*" | "[" [ item { "," item } ] "]"
//! item       = cmp | sim
//! cmp        = (ident | string) op value      op = "=" "!=" "<" "<=" ">" ">="
//! sim        = "sim" "(" (ident | string) ","
//!              "[" num { "," num } "]" ")" simop num
//!                                          simop = "<" "<=" ">" ">="
//! value      = integer | string | ident
//! num        = integer | float
//! clause     = ("/" | "//") node              backbone child
//!            | "where" formula                structural predicate fs (≤ 1)
//! formula    = conj { "|" conj }
//! conj       = unary { "&" unary }
//! unary      = "!" unary | atom
//! atom       = "(" formula ")" | "1" | "0" | "true" | "false"
//!            | ("/" | "//") node              declares a predicate child
//!            | name                           back-reference to an `as` name
//! ```
//!
//! `/` is the parent-child axis (one edge), `//` the ancestor-descendant axis
//! (non-empty path).  A bare identifier pattern `paper` is shorthand for
//! `[label = paper]`; `*` matches every node.  A trailing `*` marks an output
//! node.  Children written as clauses are backbone nodes; nodes introduced
//! inside a `where` formula are predicate nodes, and the formula over them is
//! the node's structural predicate.  `#` starts a comment until end of line.
//!
//! A `sim` item is a similarity conjunct over an embedding-valued attribute:
//! `sim(emb, [0.5, -1, 2.25]) < 0.75` keeps nodes whose `emb` vector lies
//! within L2 distance `0.75` of the query vector, `... > 0.9` keeps nodes
//! whose cosine similarity exceeds `0.9`.  Floating-point literals are only
//! meaningful inside `sim(...)`; integers are accepted there as floats.
//!
//! ```
//! use gtpq_query::Gtpq;
//! let q: Gtpq = r#"
//!     inproceedings {                       # papers ...
//!         / [label = title]*                # ... returning their title child
//!         where (/[label = author, value = Alice]) & !(/[label = author, value = Bob])
//!     }
//! "#.parse().unwrap();
//! assert_eq!(q.size(), 4);
//! assert_eq!(q.to_string().parse::<Gtpq>().unwrap(), q);
//! ```
//!
//! # Canonical form
//!
//! `parse(display(q)) == q` holds for every query the parser itself produces
//! — node ids, names and output order included.  In `((pattern) | 1)` the
//! `1` absorbs the pattern, so its formula does not read it, and
//! [`GtpqBuilder::build`] drops it with its subtree.  The round-trip
//! property test in `tests/query_text.rs` checks the identity on random
//! queries.  For queries built by hand through [`GtpqBuilder`] the printed
//! text is always faithful, but re-parsing may renumber nodes: the text
//! lists each node's backbone children before its predicate children, so a
//! builder insertion order that interleaves them comes back in canonical
//! order (an equivalent query under `gtpq_analysis::equivalent`).  In every
//! case the printed text re-parses, and one `parse ∘ display` application
//! reaches a fixed point.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use gtpq_graph::AttrValue;
use gtpq_logic::BoolExpr;

use crate::builder::{GtpqBuilder, QueryError};
use crate::node::{EdgeKind, NodeKind, QueryNodeId};
use crate::predicate::{AttrComparison, AttrPredicate, CmpOp, SimComparison};
use crate::query::Gtpq;

/// Identifiers with grammatical meaning; they cannot be used bare as node
/// labels (quote them instead) or as `as` names.  Attribute names and values
/// inside `[...]` are positionally unambiguous, so they accept any word.
const RESERVED: [&str; 4] = ["where", "as", "true", "false"];

/// A byte range into the query source, identifying where an error was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TextSpan {
    /// Byte offset of the first offending character.
    pub start: usize,
    /// Byte offset one past the last offending character (`end >= start`).
    pub end: usize,
}

impl TextSpan {
    /// A span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }
}

impl fmt::Display for TextSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A parse error with the byte span of the offending input.
///
/// [`render`](ParseError::render) produces a caret diagnostic against the
/// original source (the REPL uses it); the plain [`Display`](fmt::Display)
/// form reports the byte span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Where in the input the error was detected.
    pub span: TextSpan,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl ParseError {
    fn new(span: TextSpan, message: impl Into<String>) -> Self {
        Self {
            span,
            message: message.into(),
        }
    }

    /// Renders a caret diagnostic pointing at the error inside `source`
    /// (which must be the string that was parsed):
    ///
    /// ```text
    /// parse error at line 2, column 11: expected `)`
    ///   |     where (//e2
    ///   |           ^
    /// ```
    pub fn render(&self, source: &str) -> String {
        let start = self.span.start.min(source.len());
        let line_start = source[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
        let line_end = source[start..]
            .find('\n')
            .map(|i| start + i)
            .unwrap_or(source.len());
        let line_no = source[..start].matches('\n').count() + 1;
        let column = source[line_start..start].chars().count() + 1;
        // Tabs are echoed as single spaces so the caret line (which counts
        // one column per character) stays aligned with the source line.
        let line = source[line_start..line_end].replace('\t', " ");
        let width = source[start..self.span.end.clamp(start, line_end)]
            .chars()
            .count()
            .max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "parse error at line {line_no}, column {column}: {}",
            self.message
        );
        let _ = writeln!(out, "  | {line}");
        let _ = write!(out, "  | {}{}", " ".repeat(column - 1), "^".repeat(width));
        out
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// A token; identifiers and string literals borrow from the query text.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TokKind<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f32),
    /// A string literal's text between its quotes, escapes still in it
    /// (see [`unescape`]).
    Str(&'a str),
    Slash,
    DSlash,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Star,
    Amp,
    Pipe,
    Bang,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    Eof,
}

impl TokKind<'_> {
    fn describe(&self) -> String {
        match self {
            TokKind::Ident(s) => format!("identifier `{s}`"),
            TokKind::Int(i) => format!("integer `{i}`"),
            TokKind::Float(v) => format!("floating-point literal `{v}`"),
            TokKind::Str(_) => "string literal".to_owned(),
            TokKind::Slash => "`/`".to_owned(),
            TokKind::DSlash => "`//`".to_owned(),
            TokKind::LBrace => "`{`".to_owned(),
            TokKind::RBrace => "`}`".to_owned(),
            TokKind::LBracket => "`[`".to_owned(),
            TokKind::RBracket => "`]`".to_owned(),
            TokKind::LParen => "`(`".to_owned(),
            TokKind::RParen => "`)`".to_owned(),
            TokKind::Comma => "`,`".to_owned(),
            TokKind::Star => "`*`".to_owned(),
            TokKind::Amp => "`&`".to_owned(),
            TokKind::Pipe => "`|`".to_owned(),
            TokKind::Bang => "`!`".to_owned(),
            TokKind::Lt => "`<`".to_owned(),
            TokKind::Le => "`<=`".to_owned(),
            TokKind::Gt => "`>`".to_owned(),
            TokKind::Ge => "`>=`".to_owned(),
            TokKind::Eq => "`=`".to_owned(),
            TokKind::Ne => "`!=`".to_owned(),
            TokKind::Eof => "end of input".to_owned(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Tok<'a> {
    kind: TokKind<'a>,
    span: TextSpan,
}

fn tokenize(input: &str) -> Result<Vec<Tok<'_>>, ParseError> {
    let bytes = input.as_bytes();
    // Query text runs at about one token per two to three bytes.
    let mut toks = Vec::with_capacity(input.len() / 2 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        let simple = |kind: TokKind<'static>, len: usize| Tok {
            kind,
            span: TextSpan::new(start, start + len),
        };
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    toks.push(simple(TokKind::DSlash, 2));
                    i += 2;
                } else {
                    toks.push(simple(TokKind::Slash, 1));
                    i += 1;
                }
            }
            b'{' => {
                toks.push(simple(TokKind::LBrace, 1));
                i += 1;
            }
            b'}' => {
                toks.push(simple(TokKind::RBrace, 1));
                i += 1;
            }
            b'[' => {
                toks.push(simple(TokKind::LBracket, 1));
                i += 1;
            }
            b']' => {
                toks.push(simple(TokKind::RBracket, 1));
                i += 1;
            }
            b'(' => {
                toks.push(simple(TokKind::LParen, 1));
                i += 1;
            }
            b')' => {
                toks.push(simple(TokKind::RParen, 1));
                i += 1;
            }
            b',' => {
                toks.push(simple(TokKind::Comma, 1));
                i += 1;
            }
            b'*' => {
                toks.push(simple(TokKind::Star, 1));
                i += 1;
            }
            b'&' => {
                toks.push(simple(TokKind::Amp, 1));
                i += 1;
            }
            b'|' => {
                toks.push(simple(TokKind::Pipe, 1));
                i += 1;
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(simple(TokKind::Ne, 2));
                    i += 2;
                } else {
                    toks.push(simple(TokKind::Bang, 1));
                    i += 1;
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(simple(TokKind::Le, 2));
                    i += 2;
                } else {
                    toks.push(simple(TokKind::Lt, 1));
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(simple(TokKind::Ge, 2));
                    i += 2;
                } else {
                    toks.push(simple(TokKind::Gt, 1));
                    i += 1;
                }
            }
            b'=' => {
                toks.push(simple(TokKind::Eq, 1));
                i += 1;
            }
            b'"' => {
                let (s, end) = lex_string(input, i)?;
                toks.push(Tok {
                    kind: TokKind::Str(s),
                    span: TextSpan::new(start, end),
                });
                i = end;
            }
            b'-' | b'0'..=b'9' => {
                let (kind, end) = lex_number(input, i)?;
                toks.push(Tok {
                    kind,
                    span: TextSpan::new(start, end),
                });
                i = end;
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident(&input[i..j]),
                    span: TextSpan::new(i, j),
                });
                i = j;
            }
            _ => {
                let ch = input[i..]
                    .chars()
                    .next()
                    .expect("offset is a char boundary");
                return Err(ParseError::new(
                    TextSpan::new(i, i + ch.len_utf8()),
                    format!("unexpected character `{ch}`"),
                ));
            }
        }
    }
    toks.push(Tok {
        kind: TokKind::Eof,
        span: TextSpan::new(input.len(), input.len()),
    });
    Ok(toks)
}

/// Lexes the string literal opening at `start`: its text between the quotes,
/// escapes still in it, and the offset past its closing quote.
fn lex_string(input: &str, start: usize) -> Result<(&str, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut i = start + 1; // past the opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((&input[start + 1..i], i + 1)),
            b'\\' => {
                match bytes.get(i + 1) {
                    Some(b'"' | b'\\' | b'n' | b't' | b'r') => {}
                    _ => {
                        return Err(ParseError::new(
                            TextSpan::new(i, (i + 2).min(input.len())),
                            "unknown escape sequence (supported: \\\" \\\\ \\n \\t \\r)",
                        ))
                    }
                }
                i += 2;
            }
            b'\n' => {
                return Err(ParseError::new(
                    TextSpan::new(start, i),
                    "unterminated string literal",
                ))
            }
            _ => i += 1,
        }
    }
    Err(ParseError::new(
        TextSpan::new(start, input.len()),
        "unterminated string literal",
    ))
}

/// The value of a string literal's text as [`lex_string`] returned it: its
/// escapes (already checked) resolved.  Borrowed when it has none.
fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('n') => '\n',
            Some('t') => '\t',
            Some('r') => '\r',
            Some(other) => other,
            None => unreachable!("the lexer checked every escape"),
        });
    }
    Cow::Owned(out)
}

fn lex_number(input: &str, start: usize) -> Result<(TokKind<'static>, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut i = start;
    if bytes[i] == b'-' {
        i += 1;
        if !bytes.get(i).is_some_and(u8::is_ascii_digit) {
            return Err(ParseError::new(
                TextSpan::new(start, i),
                "expected digits after `-`",
            ));
        }
    }
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    // A decimal point makes this a float token.  Floats are only valid
    // inside `sim(...)`; the parser rejects them at scalar value positions
    // with a dedicated message.
    if bytes.get(i) == Some(&b'.') {
        let mut j = i + 1;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        let text = &input[start..j];
        let value: f32 = text.parse().map_err(|_| {
            ParseError::new(
                TextSpan::new(start, j),
                format!("invalid floating-point literal `{text}`"),
            )
        })?;
        // `str::parse::<f32>` rounds an over-long literal to ±∞ instead of
        // failing; the query would then compare against a value its text
        // never wrote.
        if !value.is_finite() {
            return Err(ParseError::new(
                TextSpan::new(start, j),
                format!("floating-point literal `{text}` is out of range for f32"),
            ));
        }
        return Ok((TokKind::Float(value), j));
    }
    let text = &input[start..i];
    let value: i64 = text.parse().map_err(|_| {
        ParseError::new(
            TextSpan::new(start, i),
            format!("integer `{text}` out of range for i64"),
        )
    })?;
    Ok((TokKind::Int(value), i))
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses the textual form of a query into a validated [`Gtpq`].
///
/// See the [module documentation](self) for the grammar.  All structural
/// restrictions of the GTPQ definition are enforced, most of them with a
/// targeted message and span (output marker on a predicate node, backbone
/// child under a predicate node, unknown name in a `where` formula, missing
/// output nodes, ...).
pub fn parse_query(input: &str) -> Result<Gtpq, ParseError> {
    let toks = tokenize(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        builder: None,
    };
    p.parse_root(input.len())
}

struct Parser<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
    builder: Option<GtpqBuilder>,
}

/// The named predicate children visible to back-references inside one
/// node's `where` formula.
type NameScope<'a> = Vec<(&'a str, QueryNodeId)>;

/// A node's `as` name, with the name's span.
type AsName<'a> = Option<(&'a str, TextSpan)>;

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok<'a> {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.toks[self.pos.min(self.toks.len() - 1)];
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error_here(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.peek().span, message)
    }

    fn builder(&mut self) -> &mut GtpqBuilder {
        self.builder.as_mut().expect("root node created first")
    }

    fn parse_root(&mut self, input_len: usize) -> Result<Gtpq, ParseError> {
        if matches!(self.peek().kind, TokKind::Eof) {
            return Err(self.error_here("empty query: expected a node pattern"));
        }
        self.parse_node(None, NodeKind::Backbone)?;
        if !matches!(self.peek().kind, TokKind::Eof) {
            return Err(self.error_here(format!(
                "unexpected trailing input: found {} after the root node",
                self.peek().kind.describe()
            )));
        }
        let builder = self.builder.take().expect("root node created");
        builder.build().map_err(|e| {
            let message = match e {
                QueryError::NoOutputNodes => {
                    "the query marks no output node; append `*` to at least one backbone node"
                        .to_owned()
                }
                other => format!("invalid query: {other}"),
            };
            ParseError::new(TextSpan::new(0, input_len), message)
        })
    }

    /// Parses one node (pattern, optional `as` name, optional `*` output
    /// marker, optional `{}` body) and registers it with the builder.
    /// Returns the node id and its `as` name (with the name's span), which
    /// formula atoms use to populate the reference scope.
    fn parse_node(
        &mut self,
        parent: Option<(QueryNodeId, EdgeKind)>,
        kind: NodeKind,
    ) -> Result<(QueryNodeId, AsName<'a>), ParseError> {
        let attrs = self.parse_pattern()?;
        let id = match parent {
            None => {
                self.builder = Some(GtpqBuilder::new(attrs));
                self.builder().root_id()
            }
            Some((parent_id, edge)) => match kind {
                NodeKind::Backbone => self.builder().backbone_child(parent_id, edge, attrs),
                NodeKind::Predicate => self.builder().predicate_child(parent_id, edge, attrs),
            },
        };
        let mut name = None;
        if matches!(self.peek().kind, TokKind::Ident("as")) {
            self.bump();
            let tok = self.bump();
            let TokKind::Ident(n) = tok.kind else {
                return Err(ParseError::new(
                    tok.span,
                    format!("expected a name after `as`, found {}", tok.kind.describe()),
                ));
            };
            if RESERVED.contains(&n) {
                return Err(ParseError::new(
                    tok.span,
                    format!("`{n}` is a reserved word and cannot be used as a name"),
                ));
            }
            self.builder().set_name(id, n);
            name = Some((n, tok.span));
        }
        if matches!(self.peek().kind, TokKind::Star) {
            if kind == NodeKind::Predicate {
                return Err(self.error_here(
                    "a predicate node cannot be an output node; only backbone nodes \
                     (children written as `/`-clauses) produce output",
                ));
            }
            self.bump();
            self.builder().mark_output(id);
        }
        if matches!(self.peek().kind, TokKind::LBrace) {
            self.parse_body(id, kind)?;
        }
        Ok((id, name))
    }

    fn parse_body(&mut self, node: QueryNodeId, kind: NodeKind) -> Result<(), ParseError> {
        let open = self.bump(); // the `{`
        let mut where_seen = false;
        loop {
            match &self.peek().kind {
                TokKind::RBrace => {
                    self.bump();
                    return Ok(());
                }
                TokKind::Eof => {
                    return Err(ParseError::new(
                        open.span,
                        "unbalanced `{`: this body is never closed",
                    ));
                }
                TokKind::Slash | TokKind::DSlash => {
                    if kind == NodeKind::Predicate {
                        return Err(self.error_here(
                            "a predicate node cannot have backbone children; conditions \
                             below it belong in its `where` formula",
                        ));
                    }
                    if where_seen {
                        // Canonical clause order (backbone children first) is
                        // what makes `parse(display(q)) == q` hold; enforcing
                        // it keeps the text the unique spelling of the tree.
                        return Err(self.error_here(
                            "backbone children must be declared before the `where` clause",
                        ));
                    }
                    let edge = self.parse_edge();
                    self.parse_node(Some((node, edge)), NodeKind::Backbone)?;
                }
                TokKind::Ident("where") => {
                    let tok = self.bump();
                    if where_seen {
                        return Err(ParseError::new(
                            tok.span,
                            "duplicate `where` clause: a node has exactly one structural predicate",
                        ));
                    }
                    where_seen = true;
                    let mut scope = NameScope::new();
                    let fs = self.parse_formula(node, &mut scope)?;
                    self.builder().set_structural(node, fs);
                }
                _ => {
                    return Err(self.error_here(format!(
                        "expected `/`, `//`, `where` or `}}` in a node body, found {}",
                        self.peek().kind.describe()
                    )));
                }
            }
        }
    }

    fn parse_edge(&mut self) -> EdgeKind {
        match self.bump().kind {
            TokKind::Slash => EdgeKind::Child,
            TokKind::DSlash => EdgeKind::Descendant,
            _ => unreachable!("parse_edge called on a `/` or `//` token"),
        }
    }

    /// `formula = conj { "|" conj }`, with patterns as an extra kind of
    /// atom.
    fn parse_formula(
        &mut self,
        node: QueryNodeId,
        scope: &mut NameScope<'a>,
    ) -> Result<BoolExpr, ParseError> {
        let first = self.parse_conj(node, scope)?;
        if !matches!(self.peek().kind, TokKind::Pipe) {
            return Ok(first);
        }
        let mut items = vec![first];
        while matches!(self.peek().kind, TokKind::Pipe) {
            self.bump();
            items.push(self.parse_conj(node, scope)?);
        }
        Ok(BoolExpr::or(items))
    }

    fn parse_conj(
        &mut self,
        node: QueryNodeId,
        scope: &mut NameScope<'a>,
    ) -> Result<BoolExpr, ParseError> {
        let first = self.parse_unary(node, scope)?;
        if !matches!(self.peek().kind, TokKind::Amp) {
            return Ok(first);
        }
        let mut items = vec![first];
        while matches!(self.peek().kind, TokKind::Amp) {
            self.bump();
            items.push(self.parse_unary(node, scope)?);
        }
        Ok(BoolExpr::and(items))
    }

    fn parse_unary(
        &mut self,
        node: QueryNodeId,
        scope: &mut NameScope<'a>,
    ) -> Result<BoolExpr, ParseError> {
        if matches!(self.peek().kind, TokKind::Bang) {
            self.bump();
            return Ok(BoolExpr::not(self.parse_unary(node, scope)?));
        }
        self.parse_atom(node, scope)
    }

    fn parse_atom(
        &mut self,
        node: QueryNodeId,
        scope: &mut NameScope<'a>,
    ) -> Result<BoolExpr, ParseError> {
        match &self.peek().kind {
            TokKind::LParen => {
                let open = self.bump();
                let inner = self.parse_formula(node, scope)?;
                if !matches!(self.peek().kind, TokKind::RParen) {
                    return Err(ParseError::new(
                        open.span,
                        "unbalanced `(` in `where` formula: expected a closing `)`",
                    ));
                }
                self.bump();
                Ok(inner)
            }
            TokKind::Int(1) => {
                self.bump();
                Ok(BoolExpr::True)
            }
            TokKind::Int(0) => {
                self.bump();
                Ok(BoolExpr::False)
            }
            TokKind::Ident("true") => {
                self.bump();
                Ok(BoolExpr::True)
            }
            TokKind::Ident("false") => {
                self.bump();
                Ok(BoolExpr::False)
            }
            TokKind::Slash | TokKind::DSlash => {
                let edge = self.parse_edge();
                let (child, name) = self.parse_node(Some((node, edge)), NodeKind::Predicate)?;
                if let Some((n, span)) = name {
                    if scope.iter().any(|&(existing, _)| existing == n) {
                        return Err(ParseError::new(
                            span,
                            format!("duplicate name `{n}` in this `where` formula"),
                        ));
                    }
                    scope.push((n, child));
                }
                Ok(BoolExpr::Var(child.var()))
            }
            TokKind::Ident(name) => {
                let name = *name;
                let tok = self.bump();
                match scope.iter().find(|&&(n, _)| n == name) {
                    Some(&(_, child)) => Ok(BoolExpr::Var(child.var())),
                    None => Err(ParseError::new(
                        tok.span,
                        format!(
                            "unknown predicate-child name `{name}`; declare it earlier in \
                             this `where` formula with `... as {name}`"
                        ),
                    )),
                }
            }
            _ => Err(self.error_here(format!(
                "expected a condition (`(`, `!`, `/`, `//`, a declared name, or a \
                 0/1 constant), found {}",
                self.peek().kind.describe()
            ))),
        }
    }

    fn parse_pattern(&mut self) -> Result<AttrPredicate, ParseError> {
        match &self.peek().kind {
            TokKind::Star => {
                self.bump();
                Ok(AttrPredicate::any())
            }
            TokKind::Ident(label) => {
                let label = *label;
                if RESERVED.contains(&label) {
                    return Err(self.error_here(format!(
                        "`{label}` is a reserved word; quote it as \"{label}\" to use it as a label"
                    )));
                }
                self.bump();
                Ok(AttrPredicate::label(label))
            }
            TokKind::Str(label) => {
                let label = unescape(label);
                self.bump();
                Ok(AttrPredicate::label(&label))
            }
            TokKind::LBracket => {
                let open = self.bump();
                let mut comparisons = Vec::new();
                let mut sims = Vec::new();
                if !matches!(self.peek().kind, TokKind::RBracket) {
                    loop {
                        // `sim(` starts a similarity conjunct; a bare `sim`
                        // followed by anything else is an attribute name.
                        let is_sim = matches!(self.peek().kind, TokKind::Ident("sim"))
                            && matches!(
                                self.toks.get(self.pos + 1).map(|t| &t.kind),
                                Some(TokKind::LParen)
                            );
                        if is_sim {
                            sims.push(self.parse_sim()?);
                        } else {
                            comparisons.push(self.parse_comparison()?);
                        }
                        match &self.peek().kind {
                            TokKind::Comma => {
                                self.bump();
                            }
                            TokKind::RBracket => break,
                            TokKind::Eof => {
                                return Err(ParseError::new(
                                    open.span,
                                    "unbalanced `[`: expected a closing `]`",
                                ))
                            }
                            other => {
                                return Err(self.error_here(format!(
                                    "expected `,` or `]` in an attribute pattern, found {}",
                                    other.describe()
                                )))
                            }
                        }
                    }
                }
                self.bump(); // the `]`
                Ok(AttrPredicate { comparisons, sims })
            }
            other => Err(self.error_here(format!(
                "expected a node pattern (a label, a quoted string, `*`, or \
                 `[attr op value, ...]`), found {}",
                other.describe()
            ))),
        }
    }

    fn parse_comparison(&mut self) -> Result<AttrComparison, ParseError> {
        let tok = self.bump();
        let attr = match tok.kind {
            TokKind::Ident(s) => s.to_owned(),
            TokKind::Str(s) => unescape(s).into_owned(),
            other => {
                return Err(ParseError::new(
                    tok.span,
                    format!("expected an attribute name, found {}", other.describe()),
                ))
            }
        };
        let tok = self.bump();
        let op = match tok.kind {
            TokKind::Eq => CmpOp::Eq,
            TokKind::Ne => CmpOp::Ne,
            TokKind::Lt => CmpOp::Lt,
            TokKind::Le => CmpOp::Le,
            TokKind::Gt => CmpOp::Gt,
            TokKind::Ge => CmpOp::Ge,
            other => {
                return Err(ParseError::new(
                    tok.span,
                    format!(
                        "expected a comparison operator (`=`, `!=`, `<`, `<=`, `>`, `>=`), \
                         found {}",
                        other.describe()
                    ),
                ))
            }
        };
        let tok = self.bump();
        let value = match tok.kind {
            TokKind::Int(i) => AttrValue::Int(i),
            TokKind::Ident(s) => AttrValue::Str(s.to_owned()),
            TokKind::Str(s) => AttrValue::Str(unescape(s).into_owned()),
            // A decimal point is the one scalar value kind the data model
            // does not have; give it a dedicated message instead of the
            // generic one (floats belong inside `sim(...)`).
            TokKind::Float(_) => {
                return Err(ParseError::new(
                    tok.span,
                    "unknown attribute value type: floating-point literals are not supported \
                     (attribute values are integers or strings)",
                ))
            }
            other => {
                return Err(ParseError::new(
                    tok.span,
                    format!(
                        "expected an attribute value (integer, string, or bare word), found {}",
                        other.describe()
                    ),
                ))
            }
        };
        Ok(AttrComparison { attr, op, value })
    }

    /// `sim ( attr , [ num { , num } ] ) op num` — the caller has already
    /// checked that the next two tokens are `sim` and `(`.
    fn parse_sim(&mut self) -> Result<SimComparison, ParseError> {
        self.bump(); // `sim`
        self.bump(); // `(`
        let tok = self.bump();
        let attr = match tok.kind {
            TokKind::Ident(s) => s.to_owned(),
            TokKind::Str(s) => unescape(s).into_owned(),
            other => {
                return Err(ParseError::new(
                    tok.span,
                    format!(
                        "expected an attribute name in `sim(...)`, found {}",
                        other.describe()
                    ),
                ))
            }
        };
        let tok = self.bump();
        if !matches!(tok.kind, TokKind::Comma) {
            return Err(ParseError::new(
                tok.span,
                format!(
                    "expected `,` after the attribute name in `sim(...)`, found {}",
                    tok.kind.describe()
                ),
            ));
        }
        let open = self.bump();
        if !matches!(open.kind, TokKind::LBracket) {
            return Err(ParseError::new(
                open.span,
                format!(
                    "expected `[` starting the query vector in `sim(...)`, found {}",
                    open.kind.describe()
                ),
            ));
        }
        if matches!(self.peek().kind, TokKind::RBracket) {
            return Err(self.error_here("the query vector in `sim(...)` must not be empty"));
        }
        let mut query = Vec::new();
        loop {
            query.push(self.parse_number()?);
            match &self.peek().kind {
                TokKind::Comma => {
                    self.bump();
                }
                TokKind::RBracket => break,
                TokKind::Eof => {
                    return Err(ParseError::new(
                        open.span,
                        "unbalanced `[`: expected a closing `]` after the query vector",
                    ))
                }
                other => {
                    return Err(self.error_here(format!(
                        "expected `,` or `]` in a query vector, found {}",
                        other.describe()
                    )))
                }
            }
        }
        self.bump(); // the `]`
        let tok = self.bump();
        if !matches!(tok.kind, TokKind::RParen) {
            return Err(ParseError::new(
                tok.span,
                format!(
                    "expected `)` closing `sim(...)`, found {}",
                    tok.kind.describe()
                ),
            ));
        }
        let tok = self.bump();
        let op = match tok.kind {
            TokKind::Lt => CmpOp::Lt,
            TokKind::Le => CmpOp::Le,
            TokKind::Gt => CmpOp::Gt,
            TokKind::Ge => CmpOp::Ge,
            TokKind::Eq | TokKind::Ne => {
                return Err(ParseError::new(
                    tok.span,
                    "`sim(...)` supports only ordering operators (`<`/`<=` bound the L2 \
                     distance, `>`/`>=` bound the cosine similarity), not `=`/`!=`",
                ))
            }
            other => {
                return Err(ParseError::new(
                    tok.span,
                    format!(
                        "expected a comparison operator (`<`, `<=`, `>`, `>=`) after \
                         `sim(...)`, found {}",
                        other.describe()
                    ),
                ))
            }
        };
        let threshold = self.parse_number()?;
        Ok(SimComparison {
            attr,
            query,
            op,
            threshold,
        })
    }

    /// A numeric literal inside `sim(...)`: floats, with integers accepted
    /// and widened to `f32`.
    fn parse_number(&mut self) -> Result<f32, ParseError> {
        let tok = self.bump();
        match tok.kind {
            TokKind::Float(v) => Ok(v),
            TokKind::Int(i) => Ok(i as f32),
            other => Err(ParseError::new(
                tok.span,
                format!("expected a number, found {}", other.describe()),
            )),
        }
    }
}

impl std::str::FromStr for Gtpq {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_query(s)
    }
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

/// A node name as it may appear in the text: only identifier-shaped,
/// non-reserved names are spellable.
fn printable_name(name: Option<&str>) -> Option<&str> {
    name.filter(|n| ident_like(n))
}

fn ident_like(s: &str) -> bool {
    let mut chars = s.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !RESERVED.contains(&s)
}

fn write_quoted(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            _ => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

fn write_word(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    if ident_like(s) {
        f.write_str(s)
    } else {
        write_quoted(f, s)
    }
}

fn write_pattern(f: &mut fmt::Formatter<'_>, attr: &AttrPredicate) -> fmt::Result {
    if attr.comparisons.is_empty() && attr.sims.is_empty() {
        return f.write_str("*");
    }
    if attr.sims.is_empty() {
        if let [cmp] = attr.comparisons.as_slice() {
            if cmp.attr == gtpq_graph::LABEL_ATTR && cmp.op == CmpOp::Eq {
                if let AttrValue::Str(label) = &cmp.value {
                    return write_word(f, label);
                }
            }
        }
    }
    f.write_str("[")?;
    let mut first = true;
    for cmp in &attr.comparisons {
        if !first {
            f.write_str(", ")?;
        }
        first = false;
        write_word(f, &cmp.attr)?;
        write!(f, " {} ", cmp.op)?;
        match &cmp.value {
            AttrValue::Int(v) => write!(f, "{v}")?,
            AttrValue::Str(s) => write_word(f, s)?,
            // Unreachable from the parser (vector values only arise in
            // `sim(...)` conjuncts); printed as a bracketed list so the
            // output is at least readable, though it does not re-parse.
            AttrValue::Vec(v) => {
                f.write_str("[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")?;
            }
        }
    }
    for sim in &attr.sims {
        if !first {
            f.write_str(", ")?;
        }
        first = false;
        f.write_str("sim(")?;
        write_word(f, &sim.attr)?;
        f.write_str(", [")?;
        for (i, x) in sim.query.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "]) {} {}", sim.op, sim.threshold)?;
    }
    f.write_str("]")
}

/// How many spaces one indentation level is in
/// [`Gtpq::to_pretty_string`] output.
const INDENT: usize = 4;

/// How a node's `as` name is spelled when the node is printed.
#[derive(Clone, Copy)]
enum NameSpelling<'a> {
    /// Print the node's own name when it is spellable — backbone children
    /// and the root, whose names live outside any `where` scope.
    Own,
    /// Print exactly this name (`None` = omit) — predicate children inside a
    /// `where` clause, whose names share one scope that the caller
    /// de-duplicates so the printed formula always re-parses.
    Exactly(Option<&'a str>),
}

fn write_node(
    f: &mut fmt::Formatter<'_>,
    q: &Gtpq,
    u: QueryNodeId,
    name: NameSpelling<'_>,
    indent: Option<usize>,
) -> fmt::Result {
    let node = q.node(u);
    write_pattern(f, &node.attr)?;
    // Names that are not valid identifiers (or are reserved words) cannot be
    // spelled in the language; omit them so the output always parses.
    let spelled = match name {
        NameSpelling::Own => printable_name(node.name.as_deref()),
        NameSpelling::Exactly(n) => n,
    };
    if let Some(name) = spelled {
        write!(f, " as {name}")?;
    }
    if q.is_output(u) {
        f.write_str("*")?;
    }

    let fs = q.fs(u);
    let backbone = || q.children(u).iter().copied().filter(|&c| q.is_backbone(c));
    let has_where = *fs != BoolExpr::True;
    if backbone().next().is_none() && !has_where {
        return Ok(());
    }

    let child_indent = indent.map(|level| level + 1);
    let open_clause = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
        match child_indent {
            Some(level) => write!(f, "\n{}", " ".repeat(level * INDENT)),
            None => f.write_str(" "),
        }
    };
    f.write_str(" {")?;
    for c in backbone() {
        open_clause(f)?;
        write!(
            f,
            "{}",
            q.incoming_edge(c).expect("child has an incoming edge")
        )?;
        write_node(f, q, c, NameSpelling::Own, child_indent)?;
    }
    if has_where {
        open_clause(f)?;
        f.write_str("where ")?;
        write_where(f, q, u, fs)?;
    }
    match indent {
        Some(level) => write!(f, "\n{}}}", " ".repeat(level * INDENT)),
        None => f.write_str(" }"),
    }
}

/// Writes the `where` formula of `u`: `fs` with every variable expanded into
/// the pattern of its predicate child (first occurrence inline, later
/// occurrences as a name back-reference).
fn write_where(f: &mut fmt::Formatter<'_>, q: &Gtpq, u: QueryNodeId, fs: &BoolExpr) -> fmt::Result {
    // All `as` names of one `where` clause share a single parser scope, so
    // decide up front what each predicate child prints as — in render order
    // (fs first occurrences), first come first served.  A name
    // already used by an earlier sibling is re-spelled (when a back-reference
    // needs it) or omitted (when it is only cosmetic), so the printed formula
    // can never trip the parser's duplicate-name check.  `names` pairs each
    // child with what it prints as.
    let mut names: Vec<(QueryNodeId, Option<Cow<'_, str>>)> = Vec::new();
    first_occurrences(fs, &mut names);
    for i in 0..names.len() {
        let c = names[i].0;
        let used = |n: &str| names[..i].iter().any(|(_, e)| e.as_deref() == Some(n));
        let name = match printable_name(q.node(c).name.as_deref()) {
            Some(n) if !used(n) => Some(Cow::Borrowed(n)),
            _ if occurrences(fs, c.var()) > 1 => {
                let mut candidate = c.to_string();
                while used(&candidate) {
                    candidate.push('_');
                }
                Some(Cow::Owned(candidate))
            }
            _ => None,
        };
        names[i].1 = name;
    }
    write_formula(f, q, u, fs, |c| {
        let named = names.iter().find(|(o, _)| *o == c);
        named
            .expect("every predicate child is in render order")
            .1
            .as_deref()
    })
}

/// Writes `fs(u)` with each variable's first occurrence expanded into its
/// predicate child's pattern, printed with the name `name` gives it, and
/// later occurrences as that name.
fn write_formula<'n>(
    f: &mut fmt::Formatter<'_>,
    q: &Gtpq,
    u: QueryNodeId,
    fs: &BoolExpr,
    name: impl Fn(QueryNodeId) -> Option<&'n str>,
) -> fmt::Result {
    // Allocates only once a variable is printed.
    let seen = std::cell::RefCell::new(Vec::new());
    let rendered = fs.display_with(|v, f| {
        let c = QueryNodeId::from_var(v);
        debug_assert_eq!(q.parent(c), Some(u), "fs vars are predicate children");
        if !seen.borrow().contains(&v) {
            seen.borrow_mut().push(v);
            // First occurrence: the pattern itself, parenthesized so the
            // surrounding connectives never capture parts of the node.
            f.write_str("(")?;
            write!(
                f,
                "{}",
                q.incoming_edge(c).expect("child has an incoming edge")
            )?;
            write_node(f, q, c, NameSpelling::Exactly(name(c)), None)?;
            f.write_str(")")
        } else {
            f.write_str(name(c).expect("repeated vars are always given a name"))
        }
    });
    write!(f, "{rendered}")
}

/// Collects the predicate children of a formula in the order their variables
/// first occur left-to-right — the order `display_with` renders them in.
fn first_occurrences<'n>(e: &BoolExpr, order: &mut Vec<(QueryNodeId, Option<Cow<'n, str>>)>) {
    match e {
        BoolExpr::True | BoolExpr::False => {}
        BoolExpr::Var(v) => {
            let c = QueryNodeId::from_var(*v);
            if !order.iter().any(|(o, _)| *o == c) {
                order.push((c, None));
            }
        }
        BoolExpr::Not(inner) => first_occurrences(inner, order),
        BoolExpr::And(items) | BoolExpr::Or(items) => {
            for item in items {
                first_occurrences(item, order);
            }
        }
    }
}

/// How many times `var` occurs in `e`.
fn occurrences(e: &BoolExpr, var: gtpq_logic::VarId) -> usize {
    match e {
        BoolExpr::True | BoolExpr::False => 0,
        BoolExpr::Var(v) => usize::from(*v == var),
        BoolExpr::Not(inner) => occurrences(inner, var),
        BoolExpr::And(items) | BoolExpr::Or(items) => {
            items.iter().map(|item| occurrences(item, var)).sum()
        }
    }
}

/// Canonical single-line textual form of the query.
///
/// Per node: the pattern, `as` name, `*` output marker, then a `{ ... }`
/// body listing the backbone children (in order) followed by the `where`
/// formula with inline predicate-child patterns.  The output of `Display`
/// always parses back ([`parse_query`]); see the
/// [module documentation](self) on when the round trip is the identity.
impl fmt::Display for Gtpq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_node(f, self, self.root(), NameSpelling::Own, None)
    }
}

impl Gtpq {
    /// The textual form of the query with one clause per line and
    /// four-space indentation — same language as [`Display`](fmt::Display)
    /// (the two parse to the same query), but readable for large trees.
    pub fn to_pretty_string(&self) -> String {
        struct Pretty<'a>(&'a Gtpq);
        impl fmt::Display for Pretty<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write_node(f, self.0, self.0.root(), NameSpelling::Own, Some(0))
            }
        }
        Pretty(self).to_string()
    }
}

#[cfg(test)]
mod tests {
    use crate::fixtures::{example_graph, example_query};
    use crate::naive;

    use super::*;

    fn parse(s: &str) -> Gtpq {
        parse_query(s).unwrap_or_else(|e| panic!("{}", e.render(s)))
    }

    fn err(s: &str) -> ParseError {
        parse_query(s).expect_err("expected a parse error")
    }

    #[test]
    fn parses_a_minimal_query() {
        let q = parse("a1*");
        assert_eq!(q.size(), 1);
        assert!(q.is_output(q.root()));
        assert_eq!(q.node(q.root()).attr, AttrPredicate::label("a1"));
    }

    #[test]
    fn parses_axes_and_brackets() {
        let q = parse("a { /b* //[year >= 2000, label != x]* }");
        assert_eq!(q.size(), 3);
        let kids = q.backbone_children(q.root());
        assert_eq!(q.incoming_edge(kids[0]), Some(EdgeKind::Child));
        assert_eq!(q.incoming_edge(kids[1]), Some(EdgeKind::Descendant));
        let attr = &q.node(kids[1]).attr;
        assert_eq!(attr.comparisons.len(), 2);
        assert_eq!(attr.comparisons[0].op, CmpOp::Ge);
        assert_eq!(attr.comparisons[0].value, AttrValue::Int(2000));
    }

    #[test]
    fn wildcard_and_output_stars_coexist() {
        let q = parse("** { //**  /*  }");
        assert_eq!(q.size(), 3);
        assert!(q.is_output(q.root()));
        let kids = q.backbone_children(q.root());
        assert!(q.is_output(kids[0]));
        assert!(!q.is_output(kids[1]));
        assert_eq!(q.node(kids[1]).attr, AttrPredicate::any());
    }

    #[test]
    fn where_formula_declares_predicate_children() {
        let q = parse("a* { where !(//g) | (//b as b0) & (/d) & b0 }");
        assert_eq!(q.size(), 4);
        let preds = q.predicate_children(q.root());
        assert_eq!(preds.len(), 3);
        let fs = q.fs(q.root());
        // !g | (b & d & b)
        assert_eq!(
            *fs,
            BoolExpr::or2(
                BoolExpr::not(BoolExpr::Var(preds[0].var())),
                BoolExpr::and([
                    BoolExpr::Var(preds[1].var()),
                    BoolExpr::Var(preds[2].var()),
                    BoolExpr::Var(preds[1].var()),
                ]),
            )
        );
        assert_eq!(q.display_name(preds[1]), "b0");
    }

    #[test]
    fn nested_predicate_children_parse() {
        let q = parse("a* { where //b { where (//e) | (//[value = x]) } }");
        assert_eq!(q.size(), 4);
        let b = q.predicate_children(q.root())[0];
        assert_eq!(q.predicate_children(b).len(), 2);
    }

    #[test]
    fn quoted_labels_and_escapes() {
        let q = parse(r#""open auction" { /"quo\"te\\"* }"#);
        let child = q.backbone_children(q.root())[0];
        assert_eq!(q.node(child).attr, AttrPredicate::label("quo\"te\\"));
        assert_eq!(q.node(q.root()).attr, AttrPredicate::label("open auction"));
        // Every escape, in a label, an attribute name and a value.
        let q = parse(r#"["l\n\t\r\"\\ü" = "v\n", "a\tb" != x]*"#);
        let expected = AttrPredicate::eq("l\n\t\r\"\\ü", AttrValue::str("v\n")).and(
            "a\tb",
            CmpOp::Ne,
            "x".into(),
        );
        assert_eq!(q.node(q.root()).attr, expected);
        assert_eq!(parse(&q.to_string()), q, "printed escapes parse back");
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let q = parse("a* # root\n{ //b # child\n }");
        assert_eq!(q.size(), 2);
    }

    #[test]
    fn reserved_words_need_quotes() {
        let e = err("where*");
        assert!(e.message.contains("reserved"));
        assert_eq!(e.span, TextSpan::new(0, 5));
        let q = parse(r#""where"*"#);
        assert_eq!(q.node(q.root()).attr, AttrPredicate::label("where"));
    }

    #[test]
    fn error_spans_point_at_the_problem() {
        // Unbalanced paren in a formula: span of the opening `(`.
        let e = err("a* { where (//b }");
        assert!(e.message.contains("unbalanced `(`"));
        assert_eq!(e.span, TextSpan::new(11, 12));
        // Unbalanced body brace: span of the `{`.
        let e = err("a* { //b");
        assert!(e.message.contains("unbalanced `{`"));
        assert_eq!(e.span, TextSpan::new(3, 4));
        // Bad axis (`///` lexes as `//` `/`): the stray slash.
        let e = err("a* { ///b }");
        assert!(e.message.contains("expected a node pattern"));
        assert_eq!(e.span, TextSpan::new(7, 8));
        // Float attribute value.
        let e = err("[price = 1.5]*");
        assert!(e.message.contains("floating-point"));
        assert_eq!(e.span, TextSpan::new(9, 12));
        // Unknown name reference.
        let e = err("a* { where missing }");
        assert!(e.message.contains("unknown predicate-child name `missing`"));
        assert_eq!(e.span, TextSpan::new(11, 18));
    }

    #[test]
    fn parses_sim_predicates() {
        let q = parse("[label = doc, sim(emb, [0.5, -1, 2.25]) > 0.9]*");
        let attr = &q.node(q.root()).attr;
        assert_eq!(attr.comparisons.len(), 1);
        assert_eq!(attr.sims.len(), 1);
        let sim = &attr.sims[0];
        assert_eq!(sim.attr, "emb");
        assert_eq!(sim.query, vec![0.5, -1.0, 2.25]);
        assert_eq!(sim.op, CmpOp::Gt);
        assert_eq!(sim.threshold, 0.9);
        // Distance form; integers widen to floats inside `sim(...)`.
        let q = parse("[sim(emb, [1, 2]) <= 3]*");
        let sim = &q.node(q.root()).attr.sims[0];
        assert_eq!(sim.query, vec![1.0, 2.0]);
        assert_eq!(sim.op, CmpOp::Le);
        assert_eq!(sim.threshold, 3.0);
        // `sim` without `(` stays an ordinary attribute name or label.
        let q = parse("[sim = 3]*");
        assert_eq!(q.node(q.root()).attr.sims.len(), 0);
        assert_eq!(q.node(q.root()).attr.comparisons[0].attr, "sim");
        let q = parse("sim*");
        assert_eq!(q.node(q.root()).attr, AttrPredicate::label("sim"));
    }

    #[test]
    fn sim_parse_errors() {
        let e = err("[sim(emb, [1, 2]) = 5]*");
        assert!(e.message.contains("ordering operators"), "{e}");
        assert_eq!(e.span, TextSpan::new(18, 19));
        let e = err("[sim(emb, []) > 0.5]*");
        assert!(e.message.contains("must not be empty"), "{e}");
        let e = err("[sim(emb, [0.5, ]) > 0.9]*");
        assert!(e.message.contains("expected a number"), "{e}");
        let e = err("[sim(emb, [0.5) > 0.9]*");
        assert!(e.message.contains("`,` or `]` in a query vector"), "{e}");
        let e = err("[sim(emb [0.5]) > 0.9]*");
        assert!(
            e.message.contains("expected `,` after the attribute name"),
            "{e}"
        );
        // Floats stay rejected outside `sim(...)`, with the dedicated
        // message and the span of the literal.
        let e = err("a* { where 1.5 }");
        assert!(e.message.contains("floating-point literal `1.5`"), "{e}");
        // A literal too long for f32 is an error, not ±∞ — as a threshold
        // and as a vector component, with the span of the literal.
        let huge = format!("{}.0", "9".repeat(43));
        let e = err(&format!("[sim(emb, [1, 2]) < {huge}]*"));
        assert!(e.message.contains("out of range for f32"), "{e}");
        assert_eq!(e.span, TextSpan::new(20, 20 + huge.len()));
        let e = err(&format!("[sim(emb, [-{huge}, 2]) > 0.5]*"));
        assert!(e.message.contains("out of range for f32"), "{e}");
        assert_eq!(e.span, TextSpan::new(11, 12 + huge.len()));
    }

    #[test]
    fn structural_restrictions_error_early() {
        let e = err("a* { where //b { /c } }");
        assert!(e.message.contains("cannot have backbone children"));
        let e = err("a* { where //b* }");
        assert!(e.message.contains("cannot be an output node"));
        let e = err("a { //b }");
        assert!(e.message.contains("no output node"));
        assert_eq!(e.span, TextSpan::new(0, 9));
        let e = err("a* { where (//b) where (//c) }");
        assert!(e.message.contains("duplicate `where`"));
    }

    #[test]
    fn trailing_input_is_rejected() {
        let e = err("a* b");
        assert!(e.message.contains("trailing"));
        assert_eq!(e.span, TextSpan::new(3, 4));
        let e = err("");
        assert!(e.message.contains("empty query"));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let e = err("a* { where (//b as x) & (//c as x) }");
        assert!(e.message.contains("duplicate name `x`"));
        assert_eq!(e.span, TextSpan::new(32, 33));
    }

    #[test]
    fn render_produces_a_caret_diagnostic() {
        let src = "a* {\n  where (//e2\n}";
        let e = err(src);
        let rendered = e.render(src);
        assert!(rendered.contains("line 2, column 9"), "{rendered}");
        assert!(rendered.contains("^"), "{rendered}");
    }

    #[test]
    fn display_round_trips_simple_queries() {
        for text in [
            "a1*",
            "**",
            "a { /b* }",
            "a as root* { //b //c as x { /d* } }",
            "[year >= 1995, year <= 2005, label != x]*",
            r#""open auction"* { /[value = "x y"] }"#,
            "a* { //b where (//e) | !(//g) }",
            "a* { where ((//b as x) | (//c)) & (x | (//d { where (//e) })) }",
            "a* { where ((//e) | 1) }",
            "a* { where 0 }",
            "[sim(emb, [0.5, -1, 2.25]) > 0.9]*",
            "[label = doc, year >= 2000, sim(emb, [1, 0, 0.25, -0.125]) < 0.75]*",
            r#"[sim("embedding space", [0.1, 0.2]) >= 0.5]*"#,
            "doc* { //[sim(emb, [1, 2]) <= 3] where (/[sim(emb, [0.5]) > 0]) }",
        ] {
            let q = parse(text);
            let printed = q.to_string();
            let reparsed = parse(&printed);
            assert_eq!(reparsed, q, "canonical text `{printed}` of `{text}`");
            // Pretty form parses to the same query.
            assert_eq!(parse(&q.to_pretty_string()), q, "pretty of `{text}`");
        }
    }

    #[test]
    fn display_of_builder_queries_is_equivalent() {
        // The Fig. 2 fixture interleaves backbone and predicate children in
        // builder insertion order, so re-parsing renumbers the nodes — but
        // the answer on the running example is identical.
        let q = example_query();
        let g = example_graph();
        let printed = q.to_string();
        let reparsed = parse(&printed);
        // Output *ids* are renumbered, but the text preserves the output
        // nodes' tree order, so the tuple sets must coincide coordinate-wise.
        assert_eq!(
            naive::evaluate(&reparsed, &g).iter().collect::<Vec<_>>(),
            naive::evaluate(&q, &g).iter().collect::<Vec<_>>()
        );
        // The canonical form is a fixed point of display ∘ parse.
        assert_eq!(parse(&reparsed.to_string()), reparsed);
    }

    #[test]
    fn predicate_children_no_formula_reads_are_dropped() {
        // Inert branches three levels deep, named ones among them: the rest
        // is numbered densely and prints without them.
        let q = parse(
            "a* { /b* { where ((/c as x) | 1) & (/d { where ((/e { where (/f) }) | 1) & (/g) }) } \
             where ((//h as y { where (/i) }) | 1) & !(//j as z { where ((/k) | 1) }) }",
        );
        assert_eq!(
            q.to_string(),
            "a* { /b* { where (/d { where (/g) }) } where !(//j as z) }"
        );
        let var = |u: u32| BoolExpr::Var(QueryNodeId(u).var());
        assert_eq!(*q.fs(QueryNodeId(0)), BoolExpr::not(var(4)));
        assert_eq!(*q.fs(QueryNodeId(1)), var(2));
        assert_eq!(*q.fs(QueryNodeId(2)), var(3));
        let parents: Vec<Option<u32>> = q.node_ids().map(|u| q.parent(u).map(|p| p.0)).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(2), Some(0)]);
        assert_eq!(q.children(QueryNodeId(0)), [QueryNodeId(1), QueryNodeId(4)]);
        assert_eq!(parse(&q.to_string()), q);

        // A name the formula reads back keeps its child, even when its
        // pattern sits under `| 1`.
        let q = parse("a* { where ((/b as x) | 1) & ((/c as y) | 1) & x }");
        assert_eq!(q.to_string(), "a* { where (/b as x) }");
        let q = parse("a* { where ((/b as x) | 1) & !((/c as y) | 1) | x & !y }");
        assert_eq!(q.to_string(), "a* { where (/b as x) & !(/c as y) }");
        // A formula folded to a constant reads no child at all.
        let q = parse("a* { /b* { where (/c) & 0 } where ((/d) | (/e)) | 1 }");
        assert_eq!(q.to_string(), "a* { /b* { where 0 } }");
    }

    #[test]
    fn repeated_variables_print_as_back_references() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let p = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("e"));
        b.set_structural(
            root,
            BoolExpr::and2(
                BoolExpr::Var(p.var()),
                BoolExpr::or2(BoolExpr::Var(p.var()), BoolExpr::False),
            ),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let printed = q.to_string();
        let reparsed = parse(&printed);
        // The synthesized back-reference name is the only difference.
        assert_eq!(reparsed.size(), q.size());
        assert_eq!(reparsed.fs(root), q.fs(root));
        assert_eq!(parse(&reparsed.to_string()), reparsed);
    }

    #[test]
    fn backbone_clauses_after_where_are_rejected() {
        let e = err("a* { where (//b) /c }");
        assert!(e.message.contains("before the `where` clause"), "{e}");
        assert_eq!(e.span, TextSpan::new(17, 18));
    }

    #[test]
    fn synthesized_back_references_avoid_user_names() {
        // A sibling is explicitly named `u2` — exactly the name the printer
        // would otherwise synthesize for the unnamed repeated child (id 2).
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let named = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        b.set_name(named, "u2");
        let repeated = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
        b.set_structural(
            root,
            BoolExpr::and([
                BoolExpr::Var(named.var()),
                BoolExpr::Var(repeated.var()),
                BoolExpr::Var(repeated.var()),
            ]),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let printed = q.to_string();
        let reparsed = parse(&printed);
        assert_eq!(reparsed.size(), q.size(), "{printed}");
        assert_eq!(reparsed.fs(root).variables().len(), 2, "{printed}");
    }

    #[test]
    fn duplicate_sibling_names_still_print_parseably() {
        // Two predicate children of one node both named `x`, both referenced
        // twice — the printed formula must not redeclare `x`.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let p1 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let p2 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
        b.set_name(p1, "x");
        b.set_name(p2, "x");
        b.set_structural(
            root,
            BoolExpr::and([
                BoolExpr::Var(p1.var()),
                BoolExpr::Var(p2.var()),
                BoolExpr::or2(BoolExpr::Var(p1.var()), BoolExpr::Var(p2.var())),
            ]),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let printed = q.to_string();
        let reparsed = parse(&printed);
        assert_eq!(reparsed.size(), q.size(), "{printed}");
        assert_eq!(reparsed.fs(root).variables().len(), 2, "{printed}");
    }

    #[test]
    fn unspellable_names_are_omitted_from_the_text() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        b.set_name(root, "two words"); // not an identifier
        let p = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        b.set_name(p, "where"); // reserved
        b.set_structural(
            root,
            BoolExpr::and2(BoolExpr::Var(p.var()), BoolExpr::Var(p.var())),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let printed = q.to_string();
        let reparsed = parse(&printed);
        assert_eq!(reparsed.size(), q.size(), "{printed}");
        assert!(!printed.contains("two words as"), "{printed}");
    }

    #[test]
    fn from_str_works() {
        let q: Gtpq = "a* { //b }".parse().unwrap();
        assert_eq!(q.size(), 2);
        assert!("a* { //b".parse::<Gtpq>().is_err());
    }

    #[test]
    fn pretty_printing_indents_bodies() {
        let q = parse("a* { //b { /c* } where (//e) }");
        let pretty = q.to_pretty_string();
        assert!(pretty.contains("\n    //b {"), "{pretty}");
        assert!(pretty.contains("\n        /c*"), "{pretty}");
        assert!(pretty.contains("\n    where (//e)"), "{pretty}");
    }

    #[test]
    fn parse_evaluates_like_the_builder() {
        // The Fig. 2 example query, written textually in canonical order,
        // answers exactly like the builder-built fixture.
        let g = example_graph();
        let text = r#"
            a1 {
                //[label >= c, label < "c~"]* {
                    where //e2
                }
                //[label >= c, label < "c~"] {
                    //d1*
                    where !(//g1)
                        | (//[label >= b, label < "b~"] {
                               where (//[label >= e, label < "e~"])
                                   | (//[label >= e, label < "e~"])
                           })
                        & (//d1)
                }
            }
        "#;
        let q = parse(text);
        assert_eq!(q.size(), 10);
        let fixture = example_query();
        assert_eq!(
            naive::evaluate(&q, &g).iter().collect::<Vec<_>>(),
            naive::evaluate(&fixture, &g).iter().collect::<Vec<_>>()
        );
    }
}
