//! Set-at-a-time reachability: one traversal of the SCC condensation from a
//! whole node set.
//!
//! The prune rounds of GTEA (§4.2, Procedures 6–7) ask, for every candidate
//! `v` of one query node, whether `v` reaches *some* candidate of a child
//! (resp. is reached by some candidate of the parent).  Answering that pair
//! by pair costs `|mat(u)| · |mat(child)|` index probes; [`sweep`] answers it
//! for all `v` at once by walking the condensation DAG backwards (resp.
//! forwards) from the components of the set and marking what it meets, in
//! O(components / 64 + edges actually reached).  Afterwards a membership test
//! is `component_of(v)` plus one bit test.
//!
//! The prune rounds read only the members of one side, though: [`reaching`]
//! races that sweep against a memoised search outwards from the members
//! themselves, in turns of [`CHUNK`] edges, and takes whichever answer is
//! complete first — at most about twice the cheaper side's edges, with no
//! estimate of either.
//!
//! The matching graph (§4.3) asks the many-to-many version: for every
//! candidate `v` of a query node, *which* candidates of an AD child does it
//! reach.  [`branches`] answers that for all `v` in one pass too — a backward
//! [`sweep`] bounds the region, then per-component bitset rows over the
//! child's candidates are ORed up a post-order walk of that region and each
//! `v`'s branch is read off its component's row, already sorted.
//!
//! Both take the condensation the graph carries
//! ([`DataGraph::condensation`](crate::DataGraph::condensation)), so GTEA
//! evaluates without any reachability index.

use std::fmt;

use crate::condensation::CompId;
use crate::{Condensation, NodeId};

/// Dense bitset over the component ids of one condensation.
#[derive(Clone, Debug, Default)]
pub struct ComponentSet {
    words: Vec<u64>,
}

impl ComponentSet {
    /// An empty set over `components` component ids.
    pub(crate) fn new(components: usize) -> Self {
        Self {
            words: vec![0; components.div_ceil(64)],
        }
    }

    /// Adds component index `i`; returns whether it was newly added.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether component `c` is in the set.
    #[inline]
    pub fn contains(&self, c: CompId) -> bool {
        self.get(c.index())
    }

    /// Number of components in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no component.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Which way [`sweep`] walks the condensation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Against the edges: marks the components that *reach* the set.
    Ancestors,
    /// Along the edges: marks the components the set *reaches*.
    Descendants,
}

/// The outcome of one [`sweep`] or [`reaching`].
#[derive(Clone, Debug)]
pub struct Swept {
    /// Every component with a non-empty path to (resp. from) a set member —
    /// after [`reaching`], at least every such component of a `from` member,
    /// and never one without such a path.
    pub reached: ComponentSet,
    /// Condensation edges the traversal looked at — its whole cost beyond
    /// the bitset allocation, and what a caller counting `#index` adds per
    /// sweep.  After [`reaching`], both sides' edges.
    pub edges_visited: u64,
    /// Which traversal produced `reached`.
    pub side: Side,
}

/// Which traversal answered: [`sweep`] always reports `Sweep`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The set sweep from the `to` members.
    Sweep,
    /// The memoised search from the `from` members.
    Search,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Sweep => "sweep",
            Side::Search => "search",
        })
    }
}

/// The adjacency list of `c` that a walk in `direction` follows.
fn adjacent(cond: &Condensation, c: CompId, direction: Direction) -> &[CompId] {
    match direction {
        Direction::Ancestors => cond.predecessors(c),
        Direction::Descendants => cond.successors(c),
    }
}

/// Marks every component that reaches (`Ancestors`) or is reached from
/// (`Descendants`) some member of `nodes` by a *non-empty* path.
///
/// That is every strict ancestor (resp. descendant) component of a member's
/// component, plus a member's own component when it is cyclic — the paper's
/// AD relationship: a node reaches itself only on a cycle, and two distinct
/// nodes of one component always lie on one.  An acyclic member component is
/// marked only when the walk arrives at it from another member.  Duplicate
/// members and an empty set are fine.
pub fn sweep(cond: &Condensation, nodes: &[NodeId], direction: Direction) -> Swept {
    let mut walk = SetSweep::new(cond, nodes, direction);
    walk.run(usize::MAX);
    walk.finish(0)
}

/// Edges one side of [`reaching`] looks at per turn.
pub const CHUNK: usize = 128;

/// Marks which members of `from` reach (`Ancestors`) or are reached from
/// (`Descendants`) some member of `to` by a *non-empty* path — the rule
/// [`sweep`] documents — from whichever side is cheaper.
///
/// `direction` is the direction of `sweep(cond, to, direction)`, one side
/// of the race.  The other is a depth-first search from each `from`
/// member's component the opposite way, stopped at the first component
/// holding a `to` member and memoised across members.  The two take turns
/// of [`CHUNK`] edges, the sweep first, and the first to finish answers, so
/// `edges_visited` (both sides together) is at most `2·min(sweep, search) +
/// CHUNK`.  Either way `reached.contains(cond.component_of(v))` answers
/// every `v` in `from` exactly; `side` names the winner.  Duplicates and
/// empty sets are fine on both sides.
pub fn reaching(
    cond: &Condensation,
    from: &[NodeId],
    to: &[NodeId],
    direction: Direction,
) -> Swept {
    let mut set = SetSweep::new(cond, to, direction);
    let mut search = Search::new(cond, from, to, direction);
    loop {
        if set.run(CHUNK) {
            return set.finish(search.edges_visited);
        }
        if search.run(CHUNK) {
            return search.finish(set.edges_visited);
        }
    }
}

/// [`sweep`] as a walk that can pause after any edge.
struct SetSweep<'c> {
    cond: &'c Condensation,
    direction: Direction,
    reached: ComponentSet,
    /// Seeds and reached components, each expanded exactly once.
    queued: ComponentSet,
    stack: Vec<CompId>,
    /// The rest of the adjacency list being looked at.
    next: &'c [CompId],
    edges_visited: u64,
}

impl<'c> SetSweep<'c> {
    fn new(cond: &'c Condensation, nodes: &[NodeId], direction: Direction) -> Self {
        let n = cond.component_count();
        let mut walk = Self {
            cond,
            direction,
            reached: ComponentSet::new(n),
            queued: ComponentSet::new(n),
            stack: Vec::new(),
            next: &[],
            edges_visited: 0,
        };
        for &v in nodes {
            let c = cond.component_of(v);
            if walk.queued.insert(c.index()) {
                walk.stack.push(c);
                if cond.is_cyclic(c) {
                    walk.reached.insert(c.index());
                }
            }
        }
        walk
    }

    /// Looks at up to `budget` more edges; whether the walk is complete.
    fn run(&mut self, budget: usize) -> bool {
        let mut left = budget;
        loop {
            if self.next.is_empty() {
                let Some(c) = self.stack.pop() else {
                    return true;
                };
                self.next = adjacent(self.cond, c, self.direction);
                continue;
            }
            if left == 0 {
                return false;
            }
            let (now, rest) = self.next.split_at(self.next.len().min(left));
            for &d in now {
                self.reached.insert(d.index());
                if self.queued.insert(d.index()) {
                    self.stack.push(d);
                }
            }
            self.next = rest;
            left -= now.len();
            self.edges_visited += now.len() as u64;
        }
    }

    fn finish(self, other_edges: u64) -> Swept {
        Swept {
            reached: self.reached,
            edges_visited: self.edges_visited + other_edges,
            side: Side::Sweep,
        }
    }
}

/// The `from` side of [`reaching`]: a depth-first search from each member's
/// component away from the sweep's direction, cut short at the first
/// component holding a `to` member.
struct Search<'c> {
    cond: &'c Condensation,
    /// The way the search walks: against the sweep's direction.
    direction: Direction,
    /// Members whose search has not started yet.
    from: &'c [NodeId],
    /// Components holding a `to` member.
    targets: ComponentSet,
    /// Components the search has entered.  One entered, left and not in
    /// `reached` has no non-empty path to a target — the memo.
    seen: ComponentSet,
    /// Components known to have a non-empty path to a target.
    reached: ComponentSet,
    /// The search path, each component with the rest of its adjacency list.
    stack: Vec<(CompId, &'c [CompId])>,
    edges_visited: u64,
}

impl<'c> Search<'c> {
    fn new(cond: &'c Condensation, from: &'c [NodeId], to: &[NodeId], swept: Direction) -> Self {
        let n = cond.component_count();
        let mut targets = ComponentSet::new(n);
        for &t in to {
            targets.insert(cond.component_of(t).index());
        }
        Self {
            cond,
            direction: match swept {
                Direction::Ancestors => Direction::Descendants,
                Direction::Descendants => Direction::Ancestors,
            },
            from,
            targets,
            seen: ComponentSet::new(n),
            reached: ComponentSet::new(n),
            stack: Vec::new(),
            edges_visited: 0,
        }
    }

    /// Looks at up to `budget` more edges; whether every member is answered.
    fn run(&mut self, budget: usize) -> bool {
        let mut left = budget;
        loop {
            let Some(&(_, next)) = self.stack.last() else {
                let Some((&v, rest)) = self.from.split_first() else {
                    return true;
                };
                self.from = rest;
                let c = self.cond.component_of(v);
                if self.cond.is_cyclic(c) && self.targets.contains(c) {
                    // A cycle through a target: the path need not leave `c`.
                    self.reached.insert(c.index());
                } else if self.seen.insert(c.index()) {
                    self.stack.push((c, adjacent(self.cond, c, self.direction)));
                }
                continue;
            };
            let Some((&d, rest)) = next.split_first() else {
                // Every path from the top of the stack is exhausted.
                self.stack.pop();
                continue;
            };
            if left == 0 {
                return false;
            }
            left -= 1;
            self.edges_visited += 1;
            let top = self.stack.len() - 1;
            self.stack[top].1 = rest;
            if self.targets.contains(d) || self.reached.contains(d) {
                // Each component on the path reaches the next, so all of
                // them reach `d`'s target.
                for (c, _) in self.stack.drain(..) {
                    self.reached.insert(c.index());
                }
            } else if self.seen.insert(d.index()) {
                self.stack.push((d, adjacent(self.cond, d, self.direction)));
            }
        }
    }

    fn finish(self, other_edges: u64) -> Swept {
        Swept {
            reached: self.reached,
            edges_visited: self.edges_visited + other_edges,
            side: Side::Search,
        }
    }
}

/// The AD branches of one (parent, child) edge of the matching graph, flat:
/// what every member of `sources` reaches among `targets`.
#[derive(Clone, Debug, Default)]
pub struct Branches {
    /// The branch of `sources[i]` is `targets[bounds[i]..bounds[i + 1]]`.
    pub bounds: Vec<usize>,
    /// Every branch back to back; each is a strictly ascending sub-list of
    /// the `targets` argument.
    pub targets: Vec<NodeId>,
    /// Components that were given a bitset row: those below a source that
    /// have a non-empty path to a target.
    pub region: usize,
    /// Condensation edges looked at: the backward sweep's, the region
    /// walk's, and the region's again per column block when rows are ORed.
    pub edges_visited: u64,
    /// `u64` words of the row arena (`region` rows of one block's width).
    pub row_words: usize,
}

/// Cap on the row arena of one [`branches`] call, in `u64` words (1 MiB).
/// Rows wider than `ARENA_WORDS / region` words are computed in column
/// blocks of that width, one block of targets at a time; only a region of
/// more than `ARENA_WORDS` components exceeds the cap, by its one word per
/// row.
const ARENA_WORDS: usize = 1 << 17;

/// For every member of `sources`, the members of `targets` it reaches by a
/// *non-empty* path (the rule [`sweep`] documents), in one pass.
///
/// Both lists must be strictly ascending.  A backward [`sweep`] from
/// `targets` bounds the region; a memoised post-order walk from the sources'
/// components through it orders the region children-first; then each
/// component's row — one bit per target — is the OR of its successors' rows
/// plus the bits of the targets *in* those successors, so a component's own
/// members count only for its strict ancestors, or for itself when it is
/// cyclic.  `poll` is called once per component expanded and once per row
/// computed; its error aborts the call.
pub fn branches<E>(
    cond: &Condensation,
    sources: &[NodeId],
    targets: &[NodeId],
    poll: impl FnMut() -> Result<(), E>,
) -> Result<Branches, E> {
    branches_within(cond, sources, targets, ARENA_WORDS, poll)
}

/// Slot-map value of a component outside the region.
const NO_ROW: u32 = u32::MAX;
/// Slot-map flag of a target component outside the swept set — an acyclic
/// singleton with no target below it.  It gets no row: the low bits are the
/// target's position, set directly in its predecessors' rows.
const LEAF: u32 = 1 << 31;

/// [`branches`] under an explicit arena cap (tests shrink it to force
/// several column blocks).
fn branches_within<E>(
    cond: &Condensation,
    sources: &[NodeId],
    targets: &[NodeId],
    arena_words: usize,
    mut poll: impl FnMut() -> Result<(), E>,
) -> Result<Branches, E> {
    debug_assert!(sources.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(targets.windows(2).all(|w| w[0] < w[1]));
    assert!(targets.len() < LEAF as usize, "too many targets");
    let back = sweep(cond, targets, Direction::Ancestors);
    let mut edges_visited = back.edges_visited;

    // Component -> row slot (post-order number), `LEAF | position`, or
    // `NO_ROW`.
    let mut slot = vec![NO_ROW; cond.component_count()];
    for (pos, &t) in targets.iter().enumerate() {
        let c = cond.component_of(t);
        if !back.reached.contains(c) {
            slot[c.index()] = LEAF | pos as u32;
        }
    }

    // Post-order of the region below the sources: successors get smaller
    // slots than their predecessors.  `OPEN` marks a component on the walk's
    // stack; the condensation is a DAG, so it is never met again while open.
    const OPEN: u32 = NO_ROW - 1;
    let mut order: Vec<CompId> = Vec::new();
    let mut stack: Vec<(CompId, usize)> = Vec::new();
    for &v in sources {
        let root = cond.component_of(v);
        if slot[root.index()] != NO_ROW || !back.reached.contains(root) {
            continue;
        }
        slot[root.index()] = OPEN;
        stack.push((root, 0));
        while let Some(&mut (c, ref mut cursor)) = stack.last_mut() {
            let successors = cond.successors(c);
            if *cursor == 0 {
                poll()?;
                edges_visited += successors.len() as u64;
            }
            if let Some(&d) = successors.get(*cursor) {
                *cursor += 1;
                if slot[d.index()] == NO_ROW && back.reached.contains(d) {
                    slot[d.index()] = OPEN;
                    stack.push((d, 0));
                }
            } else {
                slot[c.index()] = order.len() as u32;
                order.push(c);
                stack.pop();
            }
        }
    }

    let region = order.len();
    if region == 0 {
        // No source has a non-empty path to a target: every branch is empty.
        return Ok(Branches {
            bounds: vec![0; sources.len() + 1],
            edges_visited,
            ..Branches::default()
        });
    }
    let total_words = targets.len().div_ceil(64);
    let width = (arena_words / region).clamp(1, total_words);
    let mut rows = vec![0u64; region * width];
    let mut blocks: Vec<(Vec<usize>, Vec<NodeId>)> = Vec::new();
    for first_word in (0..total_words).step_by(width) {
        let lo = first_word * 64;
        let hi = targets.len().min(lo + width * 64);
        rows.fill(0);
        // A target inside the region is seen by its component's strict
        // ancestors through the component's row (and by the component's own
        // members when the row is read below).
        for (bit, &t) in targets[lo..hi].iter().enumerate() {
            let s = slot[cond.component_of(t).index()];
            if s < LEAF {
                rows[s as usize * width + bit / 64] |= 1 << (bit % 64);
            }
        }
        for (i, &c) in order.iter().enumerate() {
            poll()?;
            let successors = cond.successors(c);
            edges_visited += successors.len() as u64;
            let (below, row) = rows.split_at_mut(i * width);
            let row = &mut row[..width];
            for &d in successors {
                let s = slot[d.index()];
                if s < LEAF {
                    let from = &below[s as usize * width..][..width];
                    for (a, b) in row.iter_mut().zip(from) {
                        *a |= *b;
                    }
                } else if s != NO_ROW {
                    let pos = (s & !LEAF) as usize;
                    if (lo..hi).contains(&pos) {
                        row[(pos - lo) / 64] |= 1 << ((pos - lo) % 64);
                    }
                }
            }
        }
        let mut bounds = Vec::with_capacity(sources.len() + 1);
        let mut found: Vec<NodeId> = Vec::new();
        bounds.push(0);
        for &v in sources {
            let c = cond.component_of(v);
            let s = slot[c.index()];
            if s < LEAF {
                // An acyclic component is `{v}`: its row holds `v`'s own bit
                // when `v` is a target, and `v` does not reach itself.
                let skip = if cond.is_cyclic(c) { None } else { Some(v) };
                let row = &rows[s as usize * width..][..width];
                for (w, &word) in row.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let t = targets[lo + w * 64 + word.trailing_zeros() as usize];
                        word &= word - 1;
                        if Some(t) != skip {
                            found.push(t);
                        }
                    }
                }
            }
            bounds.push(found.len());
        }
        blocks.push((bounds, found));
    }

    // One block is the answer as is; several are stitched per source, in
    // block order, which keeps every branch ascending.
    let (bounds, found) = if blocks.len() == 1 {
        blocks.pop().expect("one block")
    } else {
        let mut bounds = Vec::with_capacity(sources.len() + 1);
        let mut found = Vec::with_capacity(blocks.iter().map(|(_, f)| f.len()).sum());
        bounds.push(0);
        for i in 0..sources.len() {
            for (b, f) in &blocks {
                found.extend_from_slice(&f[b[i]..b[i + 1]]);
            }
            bounds.push(found.len());
        }
        (bounds, found)
    };
    Ok(Branches {
        bounds,
        targets: found,
        region,
        edges_visited,
        row_words: rows.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{ancestors, descendants};
    use crate::{DataGraph, GraphBuilder};

    /// splitmix64: a seeded generator small enough to inline.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn build(n: u32, edges: &[(u32, u32)]) -> DataGraph {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..n).map(|_| b.add_node()).collect();
        for &(x, y) in edges {
            b.add_edge(v[x as usize], v[y as usize]);
        }
        b.build()
    }

    /// Random edges in both directions plus the odd self-loop: cycles of
    /// every size next to acyclic stretches.
    fn random_cyclic_graph(seed: u64, n: u32, m: usize) -> DataGraph {
        let mut state = seed;
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                let x = (next(&mut state) % n as u64) as u32;
                let y = (next(&mut state) % n as u64) as u32;
                (x, y)
            })
            .collect();
        build(n, &edges)
    }

    #[test]
    fn sweeps_follow_the_non_empty_path_rule_on_named_cases() {
        // {0,1,2} is a cycle, 2 -> 3 -> 4 an acyclic tail, 5 is isolated.
        let g = build(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let cond = Condensation::new(&g);
        let marked = |set: &[u32], direction| -> Vec<u32> {
            let set: Vec<NodeId> = set.iter().map(|&v| NodeId(v)).collect();
            let swept = sweep(&cond, &set, direction);
            g.nodes()
                .filter(|&v| swept.reached.contains(cond.component_of(v)))
                .map(|v| v.0)
                .collect()
        };
        // A target inside a cyclic SCC: every member reaches it, itself too.
        assert_eq!(marked(&[1], Direction::Ancestors), [0, 1, 2]);
        // A singleton acyclic target does not reach itself.
        assert_eq!(marked(&[3], Direction::Ancestors), [0, 1, 2]);
        assert_eq!(marked(&[3], Direction::Descendants), [4]);
        // An acyclic member is marked when another member lies beyond it.
        assert_eq!(marked(&[3, 4], Direction::Ancestors), [0, 1, 2, 3]);
        // Duplicates change nothing; neither does an unconnected member.
        assert_eq!(marked(&[3, 3, 5, 3], Direction::Ancestors), [0, 1, 2]);
        // The empty set reaches nothing and visits nothing.
        let empty = sweep(&cond, &[], Direction::Descendants);
        assert!(empty.reached.is_empty());
        assert_eq!(empty.reached.len(), 0);
        assert_eq!(empty.edges_visited, 0);
    }

    #[test]
    fn a_sweep_visits_each_reached_edge_once() {
        // Diamond 0 -> {1,2} -> 3 -> 4: from {3,4} backwards the walk looks
        // at 3's two in-edges, 4's one, and one each for 1 and 2.
        let g = build(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let cond = Condensation::new(&g);
        let swept = sweep(&cond, &[NodeId(4), NodeId(3)], Direction::Ancestors);
        assert_eq!(swept.edges_visited, 5);
        assert_eq!(swept.reached.len(), 4);
    }

    /// A sorted, duplicate-free sample of `size` node ids below `n`.
    fn random_set(state: &mut u64, n: u32, size: usize) -> Vec<NodeId> {
        let mut set: Vec<NodeId> = (0..size)
            .map(|_| NodeId((next(state) % n as u64) as u32))
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Runs the kernel under `arena_words` and holds every branch to BFS:
    /// `descendants(v) ∩ targets`, strictly ascending, arena within its cap.
    fn assert_branches_match_bfs(
        g: &DataGraph,
        sources: &[NodeId],
        targets: &[NodeId],
        arena_words: usize,
    ) -> Branches {
        let cond = g.condensation();
        let never = || Ok::<(), ()>(());
        let found = branches_within(cond, sources, targets, arena_words, never).unwrap();
        assert_eq!(found.bounds.len(), sources.len() + 1);
        assert_eq!(found.bounds.last(), Some(&found.targets.len()));
        for (i, &v) in sources.iter().enumerate() {
            let branch = &found.targets[found.bounds[i]..found.bounds[i + 1]];
            let mut expected = descendants(g, v);
            expected.retain(|t| targets.binary_search(t).is_ok());
            expected.sort_unstable();
            assert_eq!(branch, expected, "{v} of {sources:?} into {targets:?}");
            assert!(branch.windows(2).all(|w| w[0] < w[1]), "{branch:?}");
        }
        assert!(
            found.row_words <= arena_words.max(found.region),
            "{} row words over {arena_words} with {} rows",
            found.row_words,
            found.region
        );
        found
    }

    #[test]
    fn branches_match_bfs_on_random_cyclic_graphs_in_one_block_and_in_many() {
        const N: u32 = 220;
        let mut multi_block_cases = 0;
        for seed in 0..8u64 {
            let g = random_cyclic_graph(seed, N, 260);
            let cond = g.condensation();
            assert!(!cond.input_was_dag(), "seed {seed}");
            let on_cycle = g.nodes().find(|&v| cond.is_cyclic(cond.component_of(v)));
            let off_cycle = g
                .nodes()
                .find(|&v| !cond.is_cyclic(cond.component_of(v)) && g.out_degree(v) > 0);
            let (on_cycle, off_cycle) = (on_cycle.unwrap(), off_cycle.unwrap());

            let mut state = seed ^ 0x5eed;
            let mut cases: Vec<(Vec<NodeId>, Vec<NodeId>)> = vec![
                (Vec::new(), Vec::new()),
                (random_set(&mut state, N, 9), Vec::new()),
                (Vec::new(), random_set(&mut state, N, 9)),
                // Every node on both sides: each source is also a target, on
                // a cycle (it reaches itself) and off one (it does not).
                (g.nodes().collect(), g.nodes().collect()),
            ];
            for (n_sources, n_targets) in [(1, 1), (5, 40), (60, 7), (90, 150)] {
                let mut sources = random_set(&mut state, N, n_sources);
                let mut targets = random_set(&mut state, N, n_targets);
                // Overlap by construction, with the two named nodes in both.
                for extra in [on_cycle, off_cycle, sources[0]] {
                    sources.push(extra);
                    targets.push(extra);
                }
                for set in [&mut sources, &mut targets] {
                    set.sort_unstable();
                    set.dedup();
                }
                cases.push((sources, targets));
            }

            for (sources, targets) in &cases {
                let whole = assert_branches_match_bfs(&g, sources, targets, ARENA_WORDS);
                // One word per row: 64 targets a block, so the larger target
                // sets span three and four blocks.
                let blocked = assert_branches_match_bfs(&g, sources, targets, 1);
                assert_eq!(whole.bounds, blocked.bounds);
                assert_eq!(whole.targets, blocked.targets);
                assert_eq!(whole.region, blocked.region);
                if targets.len() > 64 && whole.region > 0 {
                    multi_block_cases += 1;
                    assert_eq!(blocked.row_words, blocked.region);
                    assert!(blocked.edges_visited > whole.edges_visited);
                }
                // The work is a function of the input alone: it repeats
                // exactly, also when two threads run the kernel at once.
                let again = assert_branches_match_bfs(&g, sources, targets, ARENA_WORDS);
                assert_eq!(again.edges_visited, whole.edges_visited);
                let threaded: Vec<u64> = std::thread::scope(|scope| {
                    let run = || assert_branches_match_bfs(&g, sources, targets, 1).edges_visited;
                    let handles = [scope.spawn(run), scope.spawn(run)];
                    handles.map(|h| h.join().unwrap()).to_vec()
                });
                assert_eq!(threaded, [blocked.edges_visited; 2]);
            }
        }
        assert!(multi_block_cases >= 16, "{multi_block_cases}");
    }

    #[test]
    fn branches_follow_the_non_empty_path_rule_and_stop_when_polled_to() {
        // {0,1,2} is a cycle, 2 -> 3 -> 4 an acyclic tail, 5 is isolated.
        let g = build(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let all: Vec<NodeId> = g.nodes().collect();
        let found = assert_branches_match_bfs(&g, &all, &all, ARENA_WORDS);
        let branch = |i: usize| -> Vec<u32> {
            let range = found.bounds[i]..found.bounds[i + 1];
            found.targets[range].iter().map(|t| t.0).collect()
        };
        // A cycle member reaches the whole cycle, itself included...
        assert_eq!(branch(1), [0, 1, 2, 3, 4]);
        // ...an acyclic node only what lies strictly below it.
        assert_eq!(branch(3), [4]);
        assert_eq!(branch(4), [0u32; 0]);
        assert_eq!(branch(5), [0u32; 0]);
        // Rows exist for the cycle and for 3 (which has a target below it);
        // 4 is a leaf target, set straight into 3's row.
        assert_eq!(found.region, 2);

        let mut polls = 0;
        let stopped = branches(g.condensation(), &all, &all, || {
            polls += 1;
            if polls == 2 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!(stopped.unwrap_err(), "stop");
    }

    #[test]
    fn reaching_matches_bfs_from_either_side_within_twice_the_cheaper_one() {
        // Small graphs, and larger ones where a side can cost many chunks.
        let (mut wins, mut with_teeth) = ([0usize; 2], 0);
        for seed in 0..8u64 {
            let (n, m) = if seed % 2 == 0 {
                (220, 260)
            } else {
                (2400, 3000)
            };
            let g = random_cyclic_graph(seed, n, m);
            let cond = g.condensation();
            assert!(!cond.input_was_dag(), "seed {seed}");
            let on_cycle = g.nodes().find(|&v| cond.is_cyclic(cond.component_of(v)));
            let off_cycle = g
                .nodes()
                .find(|&v| !cond.is_cyclic(cond.component_of(v)) && g.out_degree(v) > 0);
            let (on_cycle, off_cycle) = (on_cycle.unwrap(), off_cycle.unwrap());
            let self_loop = g.nodes().find(|&v| g.children(v).contains(&v));

            let mut state = seed ^ 0x7ace;
            let mut cases: Vec<(Vec<NodeId>, Vec<NodeId>)> = vec![
                (Vec::new(), Vec::new()),
                (random_set(&mut state, n, 9), Vec::new()),
                (Vec::new(), random_set(&mut state, n, 9)),
            ];
            if n < 1000 {
                // Every node on both sides (one BFS per node on the small
                // graphs only).
                cases.push((g.nodes().collect(), g.nodes().collect()));
            }
            for (n_from, n_to) in [(1, 1), (1, 150), (5, 40), (60, 7), (90, 150), (150, 1)] {
                let from = random_set(&mut state, n, n_from);
                let to = random_set(&mut state, n, n_to);
                // Disjoint sides, then overlapping ones with the named nodes
                // on both.
                let disjoint = from.iter().filter(|v| !to.contains(v)).copied();
                cases.push((disjoint.collect(), to.clone()));
                let (mut from, mut to) = (from, to);
                for extra in [Some(on_cycle), Some(off_cycle), self_loop]
                    .into_iter()
                    .flatten()
                {
                    from.push(extra);
                    to.push(extra);
                }
                cases.push((from, to));
            }

            for (from, to) in &cases {
                let mut in_to = vec![false; n as usize];
                for t in to {
                    in_to[t.index()] = true;
                }
                for direction in [Direction::Ancestors, Direction::Descendants] {
                    let set_alone = sweep(cond, to, direction);
                    let mut search = Search::new(cond, from, to, direction);
                    assert!(search.run(usize::MAX));
                    let search_alone = search.finish(0);
                    let race = reaching(cond, from, to, direction);
                    for &v in from {
                        let beyond = match direction {
                            Direction::Ancestors => descendants(&g, v),
                            Direction::Descendants => ancestors(&g, v),
                        };
                        let expected = beyond.iter().any(|t| in_to[t.index()]);
                        let c = cond.component_of(v);
                        let tag = format!("seed {seed} {direction:?} {v} into {to:?}");
                        assert_eq!(race.reached.contains(c), expected, "{tag}");
                        assert_eq!(search_alone.reached.contains(c), expected, "{tag}");
                    }
                    // Whichever side answers, it marks no component that the
                    // sweep's exact set lacks.
                    for reached in [&race.reached, &search_alone.reached] {
                        assert!(g.nodes().all(|v| {
                            let c = cond.component_of(v);
                            !reached.contains(c) || set_alone.reached.contains(c)
                        }));
                    }
                    let (swept, searched) = (set_alone.edges_visited, search_alone.edges_visited);
                    let bound = 2 * swept.min(searched) + 2 * CHUNK as u64;
                    with_teeth += usize::from(swept.max(searched) > bound);
                    assert!(
                        race.edges_visited <= bound,
                        "{} edges raced; alone {} swept, {} searched",
                        race.edges_visited,
                        swept,
                        searched
                    );
                    wins[usize::from(race.side == Side::Search)] += 1;
                }
            }
        }
        // Both sides answer some of the cases, and in some the dearer side
        // alone would break the bound.
        assert!(wins.iter().all(|&n| n >= 16), "sweep/search wins {wins:?}");
        assert!(
            with_teeth >= 8,
            "{with_teeth} cases where the bound has teeth"
        );
    }
}
