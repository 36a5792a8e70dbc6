//! Pull-based result enumeration in `ResultSet` order (`MatchStream`).
//!
//! `MatchStream` walks the maximal matching graph and yields the distinct
//! output tuples one at a time, **in exactly the order a materialized
//! `ResultSet` iterates them** (lexicographic over the output coordinates),
//! so `LIMIT`/`OFFSET` push down into the executor: pulling `offset + limit`
//! rows does the work those rows need, not the full product.
//!
//! # Layouts and runs
//!
//! Every node of the shrunk prime subtree gets a fixed **column layout**:
//! the output coordinates of its subtree, ascending.  The *list* of a node
//! under one candidate of its parent is the set of distinct projections of
//! its subtree matches onto that layout, ascending — rows of one fixed
//! width that compare exactly like the result-tuple slices they become.
//! Rows come out in one global coordinate order, so a list is walked in
//! attribute order like a trie level of a worst-case-optimal join, and it
//! exists in one of two forms, decided per node from the layouts alone:
//!
//! * **walked in place** (no storage) when the node is an output node whose
//!   own column *leads* its layout and whose children's layouts do not
//!   interleave.  The union over the node's candidates is then a
//!   *concatenation* in candidate order — the candidates are a sorted branch
//!   of the matching graph (for an output leaf the list *is* that branch
//!   slice), rows of different candidates differ in the leading column, so
//!   there is nothing to merge or deduplicate — and the product of the
//!   children's lists under one candidate is an *odometer*: children ordered
//!   by first column, the last one spinning fastest, each rewound when the
//!   one before it steps;
//! * **built** as a sorted run of fixed-width rows in the stream's one flat
//!   arena otherwise: a non-output node, or an own column that does not
//!   lead, can reach the same projection through several candidates, so the
//!   rows of all candidates are collected, sorted and deduplicated; and a
//!   product whose factors' coordinates interleave (only
//!   `GtpqBuilder::mark_output` orders the text parser never emits) does not
//!   come out of an odometer in order, so it is collected and sorted too.
//!   A built run is memoised per (node, parent candidate) by the
//!   candidate's dense position in `mat`, so shared sub-results and rewound
//!   odometer factors are built once.
//!
//! The top level is the same product over the shrunk components, with the
//! constant columns of shrunk-away output nodes written once.
//!
//! # What laziness guarantees
//!
//! Nothing is allocated or built per (node, candidate) up front: the state
//! of a stream is one cursor per shrunk query node plus the current row,
//! and a run is built when a cursor first opens it.  A request that stops
//! after `k` rows therefore touches only the candidates those rows come
//! from, plus the whole of any *built* list on the way (a built list cannot
//! know its first row before it has seen every candidate).  Products never
//! materialise unless they interleave.
//!
//! A pull first tries one cursor, the *tail*: the one the odometer would
//! step first, found once per source by following each walked node's last
//! factor that writes a column.  While the tail has a next row under the
//! candidates above it — the next candidate of a walked leaf, the next row
//! of a built run — the pull moves that cursor alone and rewrites only its
//! columns; every other row of the answer descends the odometer from the
//! top.  Nothing is read ahead, so `LIMIT` and the time to the first row
//! pay for no rows they do not return.
//!
//! Every pull, every candidate entered and every row collected into a run
//! polls the stream's [`ExecCtl`], so deadlines and cancellation interrupt
//! enumeration — including a long run build — with a clean [`Interrupt`].

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtpq_graph::NodeId;
use gtpq_query::result::append_sorted_distinct;
use gtpq_query::{Gtpq, QueryNodeId};

use crate::exec::{ExecCtl, Interrupt};
use crate::matching::MatchingGraph;
use crate::prime::ShrunkPrime;

/// Per-pull spans are recorded for the first this-many pulls of a traced
/// stream; later pulls go untraced so an unbounded enumeration cannot grow
/// the trace without bound (and so tracing a large answer stays cheap: each
/// pull span costs an allocation, which would dominate small queries).
const TRACED_PULLS: u64 = 16;

/// Where the candidates a plan node ranges over live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// The product over the shrunk components; has one pseudo-candidate.
    Top,
    /// A component root: candidates are `mat(u)`.
    Root,
    /// Any other shrunk node: candidates are a branch of the matching graph.
    Inner,
}

/// The enumeration plan of one shrunk query node (or of the top level).
#[derive(Debug)]
struct PlanNode {
    kind: Kind,
    /// The query node (unused for [`Kind::Top`]).
    u: QueryNodeId,
    /// Own output coordinate, when the node is an output node.
    own: Option<usize>,
    /// Column layout: the output coordinates of the subtree, ascending.
    cols: Vec<usize>,
    /// Children as `(plan index, child slot in the matching graph)`, most
    /// significant first: ascending first column, zero-width children last.
    factors: Vec<(usize, usize)>,
    /// Whether the node's lists are walked in place (own column leads, the
    /// factors' layouts do not interleave) rather than built into runs.
    lazy: bool,
    /// Number of parent candidates a built run is memoised by.
    contexts: usize,
}

/// The immutable, `Send + Sync` inputs of result enumeration: the maximal
/// matching graph, the pruned candidate sets and the per-node enumeration
/// plan (column layouts, odometer orders).
///
/// Kept apart from [`MatchStream`] so the pipeline can hand back what it
/// prepared without having started to walk it; a stream holds its source
/// behind an `Arc` and adds only cursors.
pub struct StreamSource {
    matching: MatchingGraph,
    mat: Vec<Vec<NodeId>>,
    /// One node per shrunk query node, children before parents, then the
    /// top level last.
    plan: Vec<PlanNode>,
    /// Constant columns of shrunk-away output nodes.
    constants: Vec<(usize, NodeId)>,
    output_len: usize,
    /// The plan node whose cursor the odometer steps first (see
    /// [`tail_of`]).
    tail: usize,
}

impl StreamSource {
    /// Captures the enumeration inputs.  `mat` must hold the candidate sets
    /// *after* both prune rounds, and `matching` the maximal matching graph
    /// built from them.
    pub fn new(
        q: &Gtpq,
        shrunk: ShrunkPrime,
        matching: MatchingGraph,
        mat: Vec<Vec<NodeId>>,
    ) -> Self {
        let outputs = q.output_nodes();
        let mut rank: Vec<Option<usize>> = vec![None; q.size()];
        for (i, &u) in outputs.iter().enumerate() {
            rank[u.index()] = Some(i);
        }
        let constants: Vec<(usize, NodeId)> = shrunk
            .constant_outputs
            .iter()
            .filter_map(|&(u, v)| rank[u.index()].map(|r| (r, v)))
            .collect();
        let mut plan = Vec::with_capacity(shrunk.len() + 1);
        let mut components = Vec::with_capacity(shrunk.roots.len());
        for (slot, &r) in shrunk.roots.iter().enumerate() {
            let n = plan_subtree(&mut plan, &shrunk, &rank, &mat, r, Kind::Root, 1);
            components.push((n, slot));
        }
        let top = push_node(&mut plan, Kind::Top, q.root(), None, components, 1);
        // Every component plus the constants covers every output coordinate
        // exactly once, so a walked row is never short.
        debug_assert_eq!(plan[top].cols.len() + constants.len(), outputs.len());
        let tail = tail_of(&plan, top);
        Self {
            matching,
            mat,
            plan,
            constants,
            output_len: outputs.len(),
            tail,
        }
    }

    fn top(&self) -> usize {
        self.plan.len() - 1
    }
}

/// The cursor a step of `top` moves first: down from `top` through walked
/// nodes, each time into the last factor that writes a column, to a built
/// node or a walked node with no such factor.  Zero-width factors are
/// skipped: they are built runs of at most one row, so they never step, and
/// rewinding them writes nothing.
fn tail_of(plan: &[PlanNode], top: usize) -> usize {
    let mut n = top;
    while plan[n].lazy {
        match plan[n]
            .factors
            .iter()
            .rev()
            .find(|&&(f, _)| !plan[f].cols.is_empty())
        {
            Some(&(f, _)) => n = f,
            None => break,
        }
    }
    n
}

/// Plans the shrunk subtree rooted at `u`, children first; returns `u`'s
/// plan index.
fn plan_subtree(
    plan: &mut Vec<PlanNode>,
    shrunk: &ShrunkPrime,
    rank: &[Option<usize>],
    mat: &[Vec<NodeId>],
    u: QueryNodeId,
    kind: Kind,
    contexts: usize,
) -> usize {
    let factors = shrunk
        .children_of(u)
        .iter()
        .enumerate()
        .map(|(slot, &c)| {
            let contexts = mat[u.index()].len();
            let n = plan_subtree(plan, shrunk, rank, mat, c, Kind::Inner, contexts);
            (n, slot)
        })
        .collect();
    push_node(plan, kind, u, rank[u.index()], factors, contexts)
}

fn push_node(
    plan: &mut Vec<PlanNode>,
    kind: Kind,
    u: QueryNodeId,
    own: Option<usize>,
    mut factors: Vec<(usize, usize)>,
    contexts: usize,
) -> usize {
    factors.sort_by_key(|&(f, _)| plan[f].cols.first().copied().unwrap_or(usize::MAX));
    let chained =
        factors.windows(2).all(
            |w| match (plan[w[0].0].cols.last(), plan[w[1].0].cols.first()) {
                (Some(last), Some(first)) => last < first,
                _ => true,
            },
        );
    let mut cols: Vec<usize> = factors
        .iter()
        .flat_map(|&(f, _)| plan[f].cols.iter().copied())
        .chain(own)
        .collect();
    cols.sort_unstable();
    let leads = kind == Kind::Top || (own.is_some() && own == cols.first().copied());
    plan.push(PlanNode {
        kind,
        u,
        own,
        cols,
        factors,
        lazy: leads && chained,
        contexts,
    });
    plan.len() - 1
}

/// A built list: `rows` fixed-width rows starting at `arena[start]`.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    start: usize,
    rows: usize,
}

/// The position of one plan node's list walk.
#[derive(Clone, Copy, Debug, Default)]
struct Cursor {
    /// Candidate range under the current parent candidate: into `mat(u)`
    /// for a component root, into the matching graph's targets otherwise.
    lo: usize,
    hi: usize,
    /// Lazy node: the current candidate, in `lo..hi`.  Built node: the
    /// current row of `run`.
    at: usize,
    run: Run,
}

/// The mutable state of one stream: a cursor per plan node, the current
/// row, and the arena of built runs.
#[derive(Default)]
struct Walk {
    cursors: Vec<Cursor>,
    /// The current output row; every cursor writes its own columns.
    row: Vec<NodeId>,
    /// Built runs, back to back.
    arena: Vec<NodeId>,
    /// Per plan node, per parent-candidate position: the built run.
    /// Allocated when the node first builds one.
    memo: Vec<Vec<Option<Run>>>,
    /// Unsorted rows of the runs being built — a stack, since a build can
    /// open (and so build) lists further down.
    scratch: Vec<NodeId>,
    /// Sort permutation of the run being sealed.
    order: Vec<usize>,
}

impl Walk {
    fn new(src: &StreamSource) -> Self {
        let mut row = vec![NodeId(0); src.output_len];
        for &(c, v) in &src.constants {
            row[c] = v;
        }
        Self {
            cursors: vec![Cursor::default(); src.plan.len()],
            row,
            arena: Vec::new(),
            memo: vec![Vec::new(); src.plan.len()],
            scratch: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Points `n`'s cursor at the first row of its list over the candidates
    /// in `range`, under the parent candidate at position `ctx`; `false`
    /// when the list is empty.
    fn open(
        &mut self,
        src: &StreamSource,
        ctl: &ExecCtl,
        n: usize,
        range: Range<usize>,
        ctx: usize,
    ) -> Result<bool, Interrupt> {
        self.cursors[n].lo = range.start;
        self.cursors[n].hi = range.end;
        if src.plan[n].lazy {
            self.cursors[n].at = range.start;
            return self.seek(src, ctl, n);
        }
        let run = match self.memo[n].get(ctx).copied().flatten() {
            Some(run) => run,
            None => self.build(src, ctl, n, range, ctx)?,
        };
        self.cursors[n].run = run;
        self.cursors[n].at = 0;
        if run.rows == 0 {
            return Ok(false);
        }
        self.load(src, n);
        Ok(true)
    }

    /// Moves to the next row.  When the tail cursor has a next row under the
    /// candidates above it, only that cursor moves: a walked leaf writes its
    /// next candidate, a built run loads its next row.  Otherwise the
    /// odometer steps from the top.
    fn advance(&mut self, src: &StreamSource, ctl: &ExecCtl) -> Result<bool, Interrupt> {
        let node = &src.plan[src.tail];
        let cursor = &mut self.cursors[src.tail];
        if node.lazy {
            if node.factors.is_empty() && cursor.at + 1 < cursor.hi {
                cursor.at += 1;
                let v = match node.kind {
                    Kind::Root => src.mat[node.u.index()][cursor.at],
                    _ => src.matching.targets()[cursor.at],
                };
                if let Some(c) = node.own {
                    self.row[c] = v;
                }
                return Ok(true);
            }
        } else if cursor.at + 1 < cursor.run.rows {
            cursor.at += 1;
            self.load(src, src.tail);
            return Ok(true);
        }
        self.step(src, ctl, src.top())
    }

    /// Moves `n`'s cursor to the next row of its list; `false` at the end.
    fn step(&mut self, src: &StreamSource, ctl: &ExecCtl, n: usize) -> Result<bool, Interrupt> {
        if src.plan[n].lazy {
            if self.spin(src, ctl, n)? {
                return Ok(true);
            }
            self.cursors[n].at += 1;
            return self.seek(src, ctl, n);
        }
        self.cursors[n].at += 1;
        if self.cursors[n].at == self.cursors[n].run.rows {
            return Ok(false);
        }
        self.load(src, n);
        Ok(true)
    }

    /// Puts `n`'s cursor back on the first row of the list it has open.
    fn rewind(&mut self, src: &StreamSource, ctl: &ExecCtl, n: usize) -> Result<(), Interrupt> {
        if src.plan[n].lazy {
            self.cursors[n].at = self.cursors[n].lo;
            let reopened = self.seek(src, ctl, n)?;
            debug_assert!(reopened, "a list that was walked has a first row");
        } else {
            self.cursors[n].at = 0;
            self.load(src, n);
        }
        Ok(())
    }

    /// Lazy node: enters the first candidate at or after the cursor that has
    /// a match; `false` when none is left.
    fn seek(&mut self, src: &StreamSource, ctl: &ExecCtl, n: usize) -> Result<bool, Interrupt> {
        while self.cursors[n].at < self.cursors[n].hi {
            if self.enter(src, ctl, n, self.cursors[n].at)? {
                return Ok(true);
            }
            self.cursors[n].at += 1;
        }
        Ok(false)
    }

    /// Binds `n` to its candidate at index `at`: writes the own column and
    /// opens every factor's list under it.  `false` when some factor has no
    /// match (the candidate contributes no row).
    fn enter(
        &mut self,
        src: &StreamSource,
        ctl: &ExecCtl,
        n: usize,
        at: usize,
    ) -> Result<bool, Interrupt> {
        ctl.check_sampled()?;
        let node = &src.plan[n];
        // The candidate, and its position in `mat(u)`: what the matching
        // graph's branches and the factors' memo tables are indexed by.
        let (v, pos) = match node.kind {
            Kind::Top => (None, 0),
            Kind::Root => (Some(src.mat[node.u.index()][at]), at),
            Kind::Inner => {
                let v = src.matching.targets()[at];
                let pos = if node.factors.is_empty() {
                    0
                } else {
                    src.mat[node.u.index()]
                        .binary_search(&v)
                        .expect("branch targets are candidates of the child node")
                };
                (Some(v), pos)
            }
        };
        if let (Some(c), Some(v)) = (node.own, v) {
            self.row[c] = v;
        }
        for &(f, slot) in &node.factors {
            let range = match node.kind {
                Kind::Top => 0..src.mat[src.plan[f].u.index()].len(),
                _ => src.matching.branch(node.u, pos, slot),
            };
            if !self.open(src, ctl, f, range, pos)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The odometer of `n`'s entered candidate: steps the last factor,
    /// carrying into the one before it when a factor runs out and rewinding
    /// the ones after the factor that stepped.  `false` once every
    /// combination has been walked.
    fn spin(&mut self, src: &StreamSource, ctl: &ExecCtl, n: usize) -> Result<bool, Interrupt> {
        let factors = &src.plan[n].factors;
        for i in (0..factors.len()).rev() {
            if self.step(src, ctl, factors[i].0)? {
                for &(f, _) in &factors[i + 1..] {
                    self.rewind(src, ctl, f)?;
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Copies the current row of `n`'s built run into the output row.
    fn load(&mut self, src: &StreamSource, n: usize) {
        let cols = &src.plan[n].cols;
        let Cursor { at, run, .. } = self.cursors[n];
        let from = run.start + at * cols.len();
        for (&c, &v) in cols.iter().zip(&self.arena[from..from + cols.len()]) {
            self.row[c] = v;
        }
    }

    /// Builds (and memoises) `n`'s list over the candidates in `range`:
    /// collects every candidate's product rows, then sorts and deduplicates
    /// them into the arena.
    fn build(
        &mut self,
        src: &StreamSource,
        ctl: &ExecCtl,
        n: usize,
        range: Range<usize>,
        ctx: usize,
    ) -> Result<Run, Interrupt> {
        let node = &src.plan[n];
        let base = self.scratch.len();
        let mut collected = 0usize;
        for at in range {
            if !self.enter(src, ctl, n, at)? {
                continue;
            }
            loop {
                ctl.check_sampled()?;
                self.scratch.extend(node.cols.iter().map(|&c| self.row[c]));
                collected += 1;
                if !self.spin(src, ctl, n)? {
                    break;
                }
            }
        }
        let run = self.seal(base, node.cols.len(), collected);
        if self.memo[n].is_empty() {
            self.memo[n].resize(node.contexts, None);
        }
        self.memo[n][ctx] = Some(run);
        Ok(run)
    }

    /// Moves the `collected` rows of `width` columns above `scratch[base]`
    /// into the arena, sorted and deduplicated.
    fn seal(&mut self, base: usize, width: usize, collected: usize) -> Run {
        let start = self.arena.len();
        let rows = match width {
            // A node with no output below it only says whether it matched.
            0 => collected.min(1),
            _ => append_sorted_distinct(
                &mut self.scratch[base..],
                width,
                &mut self.order,
                &mut self.arena,
            ),
        };
        self.scratch.truncate(base);
        debug_assert!(
            (1..rows).all(|i| {
                let at = start + i * width;
                self.arena[at - width..at] < self.arena[at..at + width]
            }),
            "a built run is strictly ascending"
        );
        Run { start, rows }
    }
}

#[derive(Clone, Copy, Debug)]
enum State {
    /// No row pulled yet: nothing has been opened.
    Fresh,
    Walking,
    Done,
    /// An interrupt left the cursors mid-step; it is reported again.
    Failed(Interrupt),
}

/// A pull-based iterator over the distinct result tuples of one evaluated
/// query, produced in [`ResultSet`](gtpq_query::ResultSet) iteration order.
///
/// Built by [`GteaEngine::match_stream`](crate::GteaEngine::match_stream)
/// after candidate selection, pruning and matching-graph construction; each
/// [`next_row`](Self::next_row) call does only the enumeration work that row
/// needs, which is what makes `LIMIT` pushdown and time-to-first-row cheap.
pub struct MatchStream {
    /// `None` for the empty stream.
    source: Option<Arc<StreamSource>>,
    walk: Walk,
    state: State,
    ctl: ExecCtl,
    rows_enumerated: u64,
    /// When the first pull began.
    started: Option<Instant>,
    /// First pull to the end of the answer or the interrupt, once reached.
    finished: Option<Duration>,
    time_to_first_row: Duration,
    /// The previous row, for the ascending-order check of debug builds.
    #[cfg(debug_assertions)]
    previous: Vec<NodeId>,
}

impl MatchStream {
    /// Builds the stream over a prepared source.
    pub fn from_source(source: Arc<StreamSource>, ctl: ExecCtl) -> Self {
        Self {
            walk: Walk::new(&source),
            source: Some(source),
            state: State::Fresh,
            ctl,
            rows_enumerated: 0,
            started: None,
            finished: None,
            time_to_first_row: Duration::ZERO,
            #[cfg(debug_assertions)]
            previous: Vec::new(),
        }
    }

    /// A stream that yields no rows (pruning proved the answer empty).
    pub fn empty(_q: &Gtpq, ctl: ExecCtl) -> Self {
        Self {
            walk: Walk::default(),
            source: None,
            state: State::Done,
            ctl,
            rows_enumerated: 0,
            started: None,
            finished: None,
            time_to_first_row: Duration::ZERO,
            #[cfg(debug_assertions)]
            previous: Vec::new(),
        }
    }

    /// Produces the next result tuple, in materialized-`ResultSet` order;
    /// `Ok(None)` once the answer is exhausted, `Err` when the deadline
    /// passes or the request is cancelled mid-enumeration (and on every
    /// call after that).
    ///
    /// A pull first tries the tail cursor, the one the odometer steps
    /// first: when it has a next row under the candidates above it, only
    /// that cursor moves and only its columns are rewritten; otherwise the
    /// odometer steps from the top.
    ///
    /// The tuple is lent from the stream's current row, so a pull allocates
    /// nothing; copy it to keep it past the next pull.  Each pull polls the
    /// control once before it moves a cursor; with a deadline set, the
    /// control reads the clock on every 64th poll.  For its own timings the
    /// stream reads the clock only at the first pull, at the first row and
    /// when the answer ends or the run is interrupted (see
    /// [`enumerate_time`](Self::enumerate_time)).
    ///
    /// When the stream's control carries an enabled tracer, each of the
    /// first `TRACED_PULLS` (16) pulls records a `pull N` span.
    pub fn next_row(&mut self) -> Result<Option<&[NodeId]>, Interrupt> {
        let _span =
            (self.ctl.tracer().is_enabled() && self.rows_enumerated < TRACED_PULLS).then(|| {
                let n = self.rows_enumerated;
                self.ctl.tracer().span_with(|| format!("pull {n}"))
            });
        let (Some(src), ctl) = (self.source.as_deref(), &self.ctl) else {
            return Ok(None);
        };
        let stepped = match self.state {
            State::Fresh => {
                self.started = Some(Instant::now());
                ctl.check_sampled()
                    .and_then(|()| self.walk.open(src, ctl, src.top(), 0..1, 0))
            }
            State::Walking => ctl
                .check_sampled()
                .and_then(|()| self.walk.advance(src, ctl)),
            State::Done => return Ok(None),
            State::Failed(interrupt) => return Err(interrupt),
        };
        match stepped {
            Ok(true) => {
                self.state = State::Walking;
                self.rows_enumerated += 1;
                if self.rows_enumerated == 1 {
                    self.time_to_first_row = self.enumerate_time();
                }
                #[cfg(debug_assertions)]
                {
                    debug_assert!(
                        self.rows_enumerated == 1 || self.previous < self.walk.row,
                        "rows must come out strictly ascending"
                    );
                    self.previous.clone_from(&self.walk.row);
                }
                Ok(Some(&self.walk.row))
            }
            Ok(false) => {
                self.state = State::Done;
                self.finished = Some(self.enumerate_time());
                Ok(None)
            }
            Err(interrupt) => {
                self.state = State::Failed(interrupt);
                self.finished = Some(self.enumerate_time());
                Err(interrupt)
            }
        }
    }

    /// Rows pulled from the enumerator so far (emitted plus any the caller
    /// skipped over an `OFFSET`).
    pub fn rows_enumerated(&self) -> u64 {
        self.rows_enumerated
    }

    /// Wall time from the first [`next_row`](Self::next_row) call to the
    /// pull that found the answer exhausted or was interrupted — or to now,
    /// while the stream is still open.  It therefore includes whatever the
    /// caller did between pulls, such as copying each row out; zero before
    /// the first pull.
    pub fn enumerate_time(&self) -> Duration {
        match (self.finished, self.started) {
            (Some(finished), _) => finished,
            (None, Some(started)) => started.elapsed(),
            (None, None) => Duration::ZERO,
        }
    }

    /// Wall time from the first [`next_row`](Self::next_row) call to the
    /// first produced row, read once when that row is produced (zero until
    /// then).
    pub(crate) fn time_to_first_row(&self) -> Duration {
        self.time_to_first_row
    }
}

#[cfg(test)]
mod tests {
    use gtpq_query::fixtures::{example_answer_pairs, example_graph, example_query};
    use gtpq_reach::ThreeHop;

    use crate::options::GteaOptions;
    use crate::plan::{execute_candidates, Planner};
    use crate::prime::{PrimeSubtree, ShrunkPrime};
    use crate::prune::{prune_downward, prune_upward};
    use crate::stats::EvalStats;

    use super::*;

    fn pruned_example() -> (Gtpq, ShrunkPrime, MatchingGraph, Vec<Vec<NodeId>>) {
        let g = example_graph();
        let q = example_query();
        let index = ThreeHop::new(&g);
        let options = GteaOptions::default();
        let ctl = ExecCtl::unbounded();
        let mut stats = EvalStats::default();
        let plan = Planner::new(&g).plan(&q);
        let mut mat = execute_candidates(&q, &g, &plan, &mut stats, &ctl).unwrap();
        prune_downward(
            &q,
            &g,
            &index,
            &options,
            plan.normalized_prune_down(&q),
            &mut mat,
            &mut stats,
            &ctl,
        )
        .unwrap();
        let prime = PrimeSubtree::new(&q);
        prune_upward(
            &q, &g, &index, &options, &prime, 0, &mut mat, &mut stats, &ctl,
        )
        .unwrap();
        let shrunk = ShrunkPrime::new(&q, &prime, &mat, true);
        let matching =
            MatchingGraph::build(&q, &g, &index, &shrunk, &mat, &mut stats, &ctl).unwrap();
        (q, shrunk, matching, mat)
    }

    #[test]
    fn stream_emits_the_example_answer_in_sorted_order() {
        let (q, shrunk, matching, mat) = pruned_example();
        let source = Arc::new(StreamSource::new(&q, shrunk, matching, mat));
        let mut stream = MatchStream::from_source(source, ExecCtl::unbounded());
        let mut rows = Vec::new();
        while let Some(row) = stream.next_row().unwrap() {
            rows.push(row.to_vec());
        }
        let mut expected: Vec<Vec<NodeId>> = example_answer_pairs()
            .into_iter()
            .map(|(a, b)| vec![NodeId(a - 1), NodeId(b - 1)])
            .collect();
        expected.sort();
        assert_eq!(rows, expected, "sorted order and exact multiset");
        assert_eq!(stream.rows_enumerated(), expected.len() as u64);
        assert!(stream.time_to_first_row() <= stream.enumerate_time());
    }

    /// `r { a { a1 }, b }` (query nodes 0–3) with the `outputs` marked in
    /// that order, planned over `candidates[u]` candidates per node (one
    /// shrinks the node away) and an empty matching graph.
    fn planned(outputs: &[usize], candidates: [u32; 4]) -> StreamSource {
        use gtpq_query::{AttrPredicate, EdgeKind, GtpqBuilder};
        let mut b = GtpqBuilder::new(AttrPredicate::label("r"));
        let r = b.root_id();
        let a = b.backbone_child(r, EdgeKind::Descendant, AttrPredicate::label("a"));
        let a1 = b.backbone_child(a, EdgeKind::Descendant, AttrPredicate::label("a1"));
        let bb = b.backbone_child(r, EdgeKind::Descendant, AttrPredicate::label("b"));
        let nodes = [r, a, a1, bb];
        for &o in outputs {
            b.mark_output(nodes[o]);
        }
        let q = b.build().unwrap();
        let mat: Vec<Vec<NodeId>> = candidates
            .iter()
            .map(|&n| (0..n).map(NodeId).collect())
            .collect();
        let shrunk = ShrunkPrime::new(&q, &PrimeSubtree::new(&q), &mat, true);
        StreamSource::new(&q, shrunk, MatchingGraph::default(), mat)
    }

    #[test]
    fn a_list_is_walked_in_place_exactly_when_its_own_column_leads_and_its_factors_chain() {
        // Two candidates keep a node in the shrunk tree.
        let lazy_nodes = |outputs: &[usize], root_candidates: u32| -> Vec<bool> {
            let source = planned(outputs, [root_candidates, 2, 2, 2]);
            // In query-node order, then the top level.
            let mut plan: Vec<&PlanNode> = source.plan.iter().collect();
            plan.sort_by_key(|n| (n.kind == Kind::Top, n.u));
            plan.iter().map(|n| n.lazy).collect()
        };
        // Marked in document order (all the text parser emits): every list
        // is a concatenation of odometers.
        assert_eq!(lazy_nodes(&[0, 1, 2, 3], 2), [true; 5]);
        // The root marked after `a`: its column does not lead its layout.
        assert_eq!(lazy_nodes(&[1, 0, 3], 2), [false, true, true, true]);
        // A non-output root (and a non-output `a` over an output `a1`).
        assert_eq!(lazy_nodes(&[2, 3], 2), [false, false, true, true, true]);
        // `b` marked between `a` and `a1`: the root's factors interleave.
        assert_eq!(
            lazy_nodes(&[0, 1, 3, 2], 2),
            [false, true, true, true, true]
        );
        // The same order with a single-candidate root, which is shrunk away:
        // `a` and `b` are components, and the top level's factors interleave.
        assert_eq!(lazy_nodes(&[0, 1, 3, 2], 1), [true, true, true, false]);
    }

    #[test]
    fn the_tail_is_the_cursor_the_odometer_steps_first() {
        // The tail's kind, query node and walkedness, and whether it is the
        // top level.
        let tail = |outputs: &[usize], candidates: u32| {
            let source = planned(outputs, [candidates; 4]);
            let node = &source.plan[source.tail];
            let top = source.tail == source.top();
            (node.kind, node.u.index(), node.lazy, top)
        };
        // Marked in document order: the root's last factor `b` is a walked
        // leaf.
        assert_eq!(tail(&[0, 1, 2, 3], 2), (Kind::Inner, 3, true, false));
        // A non-output root is built, so the walk stops at it.
        assert_eq!(tail(&[2, 3], 2), (Kind::Root, 0, false, false));
        // `b` is zero-width and sorts last: the tail is `a`'s leaf `a1`.
        assert_eq!(tail(&[0, 1, 2], 2), (Kind::Inner, 2, true, false));
        // Everything shrunk away: the tail is the top, whose range is `0..1`,
        // so a pull never moves it alone.
        assert_eq!(tail(&[0, 1, 2, 3], 1), (Kind::Top, 0, true, true));
    }

    #[test]
    fn enumerate_time_runs_from_the_first_pull_to_the_end() {
        let (q, shrunk, matching, mat) = pruned_example();
        let source = Arc::new(StreamSource::new(&q, shrunk, matching, mat));
        let mut stream = MatchStream::from_source(source, ExecCtl::unbounded());
        let pause = Duration::from_millis(20);
        std::thread::sleep(pause);
        assert_eq!(stream.enumerate_time(), Duration::ZERO, "no pull yet");
        assert!(stream.next_row().unwrap().is_some());
        std::thread::sleep(pause);
        // An open stream reads the clock up to now: the caller's time
        // between pulls counts.
        assert!(stream.enumerate_time() >= pause);
        assert!(stream.time_to_first_row() < pause);
        while stream.next_row().unwrap().is_some() {}
        let finished = stream.enumerate_time();
        std::thread::sleep(pause);
        assert_eq!(stream.enumerate_time(), finished, "stopped at the end");
    }

    #[test]
    fn stream_respects_cancellation() {
        let (q, shrunk, matching, mat) = pruned_example();
        let token = crate::exec::CancelToken::new();
        token.cancel();
        let ctl = ExecCtl::unbounded().with_cancel(token);
        let source = Arc::new(StreamSource::new(&q, shrunk, matching, mat));
        let mut stream = MatchStream::from_source(source, ctl);
        assert_eq!(stream.next_row(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let q = example_query();
        let mut stream = MatchStream::empty(&q, ExecCtl::unbounded());
        assert_eq!(stream.next_row(), Ok(None));
        assert_eq!(stream.rows_enumerated(), 0);
    }
}
