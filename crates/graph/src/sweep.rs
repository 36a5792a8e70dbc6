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

/// The outcome of one [`sweep`].
#[derive(Clone, Debug)]
pub struct Swept {
    /// Every component with a non-empty path to (resp. from) a set member.
    pub reached: ComponentSet,
    /// Condensation edges the traversal looked at — its whole cost beyond
    /// the bitset allocation, and what a caller counting `#index` adds per
    /// sweep.
    pub edges_visited: u64,
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
    let n = cond.component_count();
    let mut reached = ComponentSet::new(n);
    // Seeds and reached components, each expanded exactly once.
    let mut queued = ComponentSet::new(n);
    let mut stack: Vec<CompId> = Vec::new();
    for &v in nodes {
        let c = cond.component_of(v);
        if queued.insert(c.index()) {
            stack.push(c);
            if cond.is_cyclic(c) {
                reached.insert(c.index());
            }
        }
    }
    let mut edges_visited = 0u64;
    while let Some(c) = stack.pop() {
        let next = match direction {
            Direction::Ancestors => cond.predecessors(c),
            Direction::Descendants => cond.successors(c),
        };
        edges_visited += next.len() as u64;
        for &d in next {
            reached.insert(d.index());
            if queued.insert(d.index()) {
                stack.push(d);
            }
        }
    }
    Swept {
        reached,
        edges_visited,
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
    use crate::traversal::descendants;
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
}
