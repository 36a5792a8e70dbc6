//! Build-time attribute inverted index.
//!
//! For every `(attribute, value)` pair present in the graph the index stores a
//! sorted posting list of the nodes carrying exactly that pair, plus two
//! coarser access paths:
//!
//! * a per-attribute-name posting list (every node carrying the attribute,
//!   whatever its value) — the fallback superset for predicates the exact
//!   postings cannot answer (`!=`, string ranges), and
//! * a per-attribute sorted `(int value, node)` run answering integer range
//!   predicates (`<, <=, >, >=`) with two binary searches.
//!
//! All posting lists live in two flat arrays (offsets + nodes), mirroring the
//! CSR adjacency layout.  The value postings are keyed by three parallel
//! columns in canonical `(attribute, value)` order, which a probe
//! binary-searches — the same columns a snapshot stores, so a mapped graph
//! serves them in place; the name postings are keyed by a small map.  Posting
//! lists are sorted by node id, so conjunctive predicates intersect them with
//! the galloping merge of [`crate::bitset`].

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::attr::{AttrValue, Attribute};
use crate::graph::NodeId;
use crate::run::{window, IntRun};
use crate::symbol::Symbol;
use crate::tuples::{StrDict, TAG_INT, TAG_STR};

/// A value-slot key, borrowed: ints before strings, each sorted naturally
/// (strings byte-wise, which is `str`'s order).  Both the full build and the
/// incremental merge assign posting slots in `(Symbol, SlotKey)` order, which
/// is what makes the two paths produce identical indexes and what lets a
/// probe binary-search the keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum SlotKey<'a> {
    Int(i64),
    Str(&'a [u8]),
}

impl<'a> SlotKey<'a> {
    /// The key of `value`; `None` for a vector.  Embeddings stay out of the
    /// per-`(attribute, value)` equality postings: no query compares vectors
    /// with `=`, and similarity predicates go through the dedicated sim
    /// tables ([`crate::sim_index`]) instead.  Nodes carrying a vector
    /// attribute still enter the per-name postings — the fallback superset
    /// the verify-everything path scans.
    pub(crate) fn of(value: &'a AttrValue) -> Option<Self> {
        match value {
            AttrValue::Int(i) => Some(SlotKey::Int(*i)),
            AttrValue::Str(s) => Some(SlotKey::Str(s.as_bytes())),
            AttrValue::Vec(_) => None,
        }
    }
}

/// The value-posting slot keys: the three columns a snapshot stores
/// (`ValSyms`, `ValTags`, `ValPayloads`), owned or mapped, in ascending
/// `(symbol, key)` order, and the string dictionary a string key's payload
/// indexes (a loaded graph's is the file's `Strings` section, shared with the
/// attribute columns).  Nothing is decoded or hashed: a probe
/// binary-searches the columns in place.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotKeys {
    pub(crate) syms: IntRun<Symbol>,
    pub(crate) tags: IntRun<u8>,
    pub(crate) payloads: IntRun<u64>,
    pub(crate) strings: StrDict,
}

impl SlotKeys {
    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.syms.len()
    }

    /// The key of slot `i`; `None` where no key can be read — an unknown tag
    /// or a string id past the dictionary, which only a damaged file loaded
    /// unverified holds.  Such a slot is never found by a probe.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> Option<SlotKey<'_>> {
        match (*self.tags.get(i)?, *self.payloads.get(i)?) {
            (TAG_INT, payload) => Some(SlotKey::Int(payload as i64)),
            (TAG_STR, payload) => self.strings.bytes(payload).map(SlotKey::Str),
            _ => None,
        }
    }

    /// The slot keyed `(attr, key)`: one binary search over the three
    /// columns that compares the symbol, then the tag, and a payload only
    /// where both match — an int probe never reads the dictionary, a string
    /// probe only within its attribute's strings.  Keys out of order (a
    /// damaged file loaded unverified) make the search miss, never panic.
    #[inline]
    fn find(&self, attr: Symbol, key: SlotKey<'_>) -> Option<usize> {
        let (syms, tags, payloads) = (&*self.syms, &*self.tags, &*self.payloads);
        let (tag, int) = match key {
            SlotKey::Int(i) => (TAG_INT, i),
            SlotKey::Str(_) => (TAG_STR, 0),
        };
        // Whether slot `i` sorts after the probe; branch-free up to the
        // string comparison.
        let after = |i: usize| {
            let (s, t, p) = (syms[i], tags[i], payloads[i]);
            let here = s == attr && t == tag;
            let value_after = match key {
                SlotKey::Int(_) => (p as i64) > int,
                SlotKey::Str(probe) => here && self.strings.bytes(p).is_none_or(|s| s > probe),
            };
            (s > attr) | ((s == attr) & ((t > tag) | (here & value_after)))
        };
        // `slice::binary_search_by`'s loop, over slot indices: `base` ends
        // on the last slot not after the probe.
        let mut size = syms.len().min(tags.len()).min(payloads.len());
        let mut base = 0;
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            base = if after(mid) { base } else { mid };
            size -= half;
        }
        let found = size == 1 && syms[base] == attr && tags[base] == tag;
        let equal = found
            && match key {
                SlotKey::Int(_) => payloads[base] as i64 == int,
                SlotKey::Str(probe) => self.strings.bytes(payloads[base]) == Some(probe),
            };
        equal.then_some(base)
    }

    /// Every slot's `(attr, value)`, in slot order; `None` where the key
    /// cannot be read or its string is not UTF-8.
    #[cfg(test)]
    pub(crate) fn values(&self) -> impl Iterator<Item = Option<(Symbol, AttrValue)>> + '_ {
        (0..self.len()).map(|i| {
            let value = match self.key(i)? {
                SlotKey::Int(v) => AttrValue::Int(v),
                SlotKey::Str(s) => AttrValue::Str(String::from_utf8(s.to_vec()).ok()?),
            };
            Some((self.syms[i], value))
        })
    }
}

impl PartialEq for SlotKeys {
    /// Equal when every slot holds the same key; the dictionaries behind the
    /// string keys may differ (a built index owns its own, a loaded one
    /// shares the file's).
    fn eq(&self, other: &Self) -> bool {
        self.syms == other.syms && (0..self.len()).all(|i| self.key(i) == other.key(i))
    }
}

/// Slot keys appended in canonical order.
#[derive(Default)]
struct SlotKeysBuilder<'a> {
    syms: Vec<Symbol>,
    tags: Vec<u8>,
    payloads: Vec<u64>,
    strings: Vec<&'a [u8]>,
}

impl<'a> SlotKeysBuilder<'a> {
    fn push(&mut self, sym: Symbol, key: SlotKey<'a>) {
        let (tag, payload) = match key {
            SlotKey::Int(i) => (TAG_INT, i as u64),
            SlotKey::Str(s) => {
                self.strings.push(s);
                (TAG_STR, self.strings.len() as u64 - 1)
            }
        };
        self.syms.push(sym);
        self.tags.push(tag);
        self.payloads.push(payload);
    }

    fn finish(self) -> SlotKeys {
        SlotKeys {
            syms: self.syms.into(),
            tags: self.tags.into(),
            payloads: self.payloads.into(),
            strings: StrDict::from_strs(self.strings),
        }
    }
}

/// Merges `base \ removed` with `added` (all sorted by node id) into `out`.
/// `removed` is a subset of `base` whenever the tuples and the postings of
/// the base graph agree; a base mapped unverified from a damaged file may
/// break that, and the merge then drops what it can find — it must not panic.
fn merge_posting(base: &[NodeId], removed: &[NodeId], added: &[NodeId], out: &mut Vec<NodeId>) {
    let mut ri = 0usize;
    let mut ai = 0usize;
    for &v in base {
        if ri < removed.len() && removed[ri] == v {
            ri += 1;
            continue;
        }
        while ai < added.len() && added[ai] < v {
            out.push(added[ai]);
            ai += 1;
        }
        out.push(v);
    }
    out.extend_from_slice(&added[ai..]);
}

/// One per-attribute integer run: the logical `(int value, node)` pairs
/// sorted by value then node, stored as two parallel flat arrays so both
/// halves can live in mapped snapshot sections (Rust tuple layout is
/// unspecified, parallel primitive runs are not).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct IntPairs {
    pub(crate) values: IntRun<i64>,
    pub(crate) nodes: IntRun<NodeId>,
}

impl IntPairs {
    /// Splits sorted `(value, node)` pairs into the parallel representation.
    pub(crate) fn from_pairs(pairs: Vec<(i64, NodeId)>) -> Self {
        let mut values = Vec::with_capacity(pairs.len());
        let mut nodes = Vec::with_capacity(pairs.len());
        for (value, node) in pairs {
            values.push(value);
            nodes.push(node);
        }
        Self {
            values: values.into(),
            nodes: nodes.into(),
        }
    }

    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Iterates the logical pairs in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (i64, NodeId)> + '_ {
        self.values.iter().copied().zip(self.nodes.iter().copied())
    }
}

/// The inverted index over node attributes, built by
/// [`GraphBuilder::build`](crate::GraphBuilder::build).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AttrIndex {
    /// One `(attr, value)` key per slot of the value posting arrays.  A
    /// probe borrows the caller's `&AttrValue` — no owned key, no clone on
    /// the hot candidate-selection path.
    pub(crate) value_keys: SlotKeys,
    pub(crate) value_offsets: IntRun<u32>,
    pub(crate) value_nodes: IntRun<NodeId>,
    /// attr → slot into the name posting arrays.
    pub(crate) name_slots: HashMap<Symbol, u32>,
    pub(crate) name_offsets: IntRun<u32>,
    pub(crate) name_nodes: IntRun<NodeId>,
    /// attr → `(int value, node)` runs sorted by value then node.
    pub(crate) int_runs: HashMap<Symbol, IntPairs>,
}

impl AttrIndex {
    /// The `(device, inode)` of the snapshot file any of the posting runs
    /// borrow, when this index is a mapped view (see [`crate::snap`]).
    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        self.value_offsets
            .backing_file_id()
            .or_else(|| self.value_nodes.backing_file_id())
            .or_else(|| self.value_keys.syms.backing_file_id())
            .or_else(|| self.value_keys.strings.backing_file_id())
            .or_else(|| self.name_offsets.backing_file_id())
            .or_else(|| self.name_nodes.backing_file_id())
            .or_else(|| {
                self.int_runs.values().find_map(|p| {
                    p.values
                        .backing_file_id()
                        .or_else(|| p.nodes.backing_file_id())
                })
            })
    }

    /// Builds the index from the per-node attribute tuples (node order gives
    /// posting lists sorted by id for free).
    pub fn build(attrs: &[Vec<Attribute>]) -> Self {
        let mut by_value: HashMap<(Symbol, SlotKey<'_>), Vec<NodeId>> = HashMap::new();
        let mut by_name: HashMap<Symbol, Vec<NodeId>> = HashMap::new();
        let mut int_runs: HashMap<Symbol, Vec<(i64, NodeId)>> = HashMap::new();
        for (i, tuple) in attrs.iter().enumerate() {
            let v = NodeId(i as u32);
            for attr in tuple {
                if let Some(key) = SlotKey::of(&attr.value) {
                    by_value.entry((attr.name, key)).or_default().push(v);
                }
                by_name.entry(attr.name).or_default().push(v);
                if let AttrValue::Int(value) = attr.value {
                    int_runs.entry(attr.name).or_default().push((value, v));
                }
            }
        }
        for run in int_runs.values_mut() {
            run.sort_unstable();
        }
        let int_runs: HashMap<Symbol, IntPairs> = int_runs
            .into_iter()
            .map(|(sym, run)| (sym, IntPairs::from_pairs(run)))
            .collect();

        // One slot per distinct key, in canonical key order.
        let mut by_value: Vec<_> = by_value.into_iter().collect();
        by_value.sort_unstable_by_key(|&(key, _)| key);
        let mut value_keys = SlotKeysBuilder::default();
        let mut value_offsets = Vec::with_capacity(by_value.len() + 1);
        let mut value_nodes = Vec::new();
        value_offsets.push(0);
        for ((sym, key), nodes) in by_value {
            value_keys.push(sym, key);
            value_nodes.extend_from_slice(&nodes);
            value_offsets.push(value_nodes.len() as u32);
        }

        let mut name_slots = HashMap::with_capacity(by_name.len());
        let mut name_offsets = Vec::with_capacity(by_name.len() + 1);
        let mut name_nodes = Vec::new();
        name_offsets.push(0);
        let mut name_keys: Vec<Symbol> = by_name.keys().copied().collect();
        name_keys.sort_unstable();
        for key in name_keys {
            let nodes = &by_name[&key];
            name_slots.insert(key, name_slots.len() as u32);
            name_nodes.extend_from_slice(nodes);
            name_offsets.push(name_nodes.len() as u32);
        }

        Self {
            value_keys: value_keys.finish(),
            value_offsets: value_offsets.into(),
            value_nodes: value_nodes.into(),
            name_slots,
            name_offsets: name_offsets.into(),
            name_nodes: name_nodes.into(),
            int_runs,
        }
    }

    /// Incrementally maintains the index across one mutation epoch by
    /// sorted-run merges — no full node scan, no global re-sort, and the
    /// result is bit-identical to [`AttrIndex::build`] over the mutated
    /// tuples (posting lists stay sorted, so galloping intersection keeps
    /// working unchanged).
    ///
    /// `removed` / `added` are the `(attr, value, node)` entries leaving and
    /// entering the index; `name_added` lists nodes newly carrying an
    /// attribute name at all (upserts never remove a name).  Entries may
    /// arrive in any order — they are sorted into canonical key order here.
    pub(crate) fn merge_updates(
        &self,
        removed: Vec<(Symbol, AttrValue, NodeId)>,
        added: Vec<(Symbol, AttrValue, NodeId)>,
        mut name_added: Vec<(Symbol, NodeId)>,
    ) -> Self {
        // Vector values never enter the equality postings (see
        // `SlotKey::of`), so their deltas only matter to the per-name
        // postings, which `name_added` already carries.
        fn keyed(entries: &[(Symbol, AttrValue, NodeId)]) -> Vec<(Symbol, SlotKey<'_>, NodeId)> {
            let mut keyed: Vec<_> = entries
                .iter()
                .filter_map(|(sym, value, node)| Some((*sym, SlotKey::of(value)?, *node)))
                .collect();
            keyed.sort_unstable();
            keyed
        }
        let (removed, added) = (keyed(&removed), keyed(&added));
        name_added.sort_unstable();

        // --- value postings: merge the base key stream (already in slot =
        // canonical order) with the added key stream, re-slotting on the fly.
        let base = &self.value_keys;
        let mut value_keys = SlotKeysBuilder::default();
        let mut value_offsets = Vec::with_capacity(base.len() + 1);
        let mut value_nodes = Vec::with_capacity(
            (self.value_nodes.len() + added.len()).saturating_sub(removed.len()),
        );
        value_offsets.push(0);
        let mut bi = 0usize; // base slot cursor
        let mut ai = 0usize; // added cursor
        let mut ri = 0usize; // removed cursor
        loop {
            let from_base = base.syms.get(bi).copied().zip(base.key(bi));
            if from_base.is_none() && bi < base.len() {
                // A key no probe can find (a damaged file loaded unverified)
                // takes its posting with it.
                bi += 1;
                continue;
            }
            let from_added = added.get(ai).map(|e| (e.0, e.1));
            let (sym, key, base_run) = match (from_base, from_added) {
                (Some(b), a) if a.is_none_or(|a| b <= a) => {
                    let run = window(&self.value_offsets, bi, &self.value_nodes);
                    bi += 1;
                    (b.0, b.1, run)
                }
                (_, Some(a)) => (a.0, a.1, &[][..]),
                _ => break,
            };
            // Removals of keys the base no longer holds are skipped, so one
            // cannot hold up the removals after it.
            while ri < removed.len() && (removed[ri].0, removed[ri].1) < (sym, key) {
                ri += 1;
            }
            let rstart = ri;
            while ri < removed.len() && (removed[ri].0, removed[ri].1) == (sym, key) {
                ri += 1;
            }
            let astart = ai;
            while ai < added.len() && (added[ai].0, added[ai].1) == (sym, key) {
                ai += 1;
            }
            let removed_nodes: Vec<NodeId> = removed[rstart..ri].iter().map(|e| e.2).collect();
            let added_nodes: Vec<NodeId> = added[astart..ai].iter().map(|e| e.2).collect();
            let start = value_nodes.len();
            merge_posting(base_run, &removed_nodes, &added_nodes, &mut value_nodes);
            if value_nodes.len() > start {
                value_keys.push(sym, key);
                value_offsets.push(value_nodes.len() as u32);
            }
            // An emptied posting drops its key, exactly as a rebuild would.
        }

        // --- name postings: merge-only (upserts never remove a name).
        let name_count = self.name_offsets.len().saturating_sub(1);
        let mut base_names: Vec<Option<Symbol>> = vec![None; name_count];
        for (&sym, &slot) in &self.name_slots {
            base_names[slot as usize] = Some(sym);
        }
        let mut name_slots = HashMap::with_capacity(name_count);
        let mut name_offsets = Vec::with_capacity(name_count + 1);
        let mut name_nodes = Vec::with_capacity(self.name_nodes.len() + name_added.len());
        name_offsets.push(0);
        let mut bi = 0usize;
        let mut ai = 0usize;
        loop {
            let from_base = base_names.get(bi).map(|k| k.expect("every slot has a key"));
            let from_added = name_added.get(ai).map(|&(sym, _)| sym);
            let use_base = match (from_base, from_added) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(b), Some(a)) => b <= a,
            };
            let (sym, base_run): (Symbol, &[NodeId]) = if use_base {
                let sym = base_names[bi].expect("every slot has a key");
                let run = window(&self.name_offsets, bi, &self.name_nodes);
                bi += 1;
                (sym, run)
            } else {
                (from_added.expect("added stream is non-empty"), &[])
            };
            let astart = ai;
            while ai < name_added.len() && name_added[ai].0 == sym {
                ai += 1;
            }
            let added_nodes: Vec<NodeId> = name_added[astart..ai].iter().map(|e| e.1).collect();
            name_slots.insert(sym, name_slots.len() as u32);
            merge_posting(base_run, &[], &added_nodes, &mut name_nodes);
            name_offsets.push(name_nodes.len() as u32);
        }

        // --- int runs: filter removed pairs out, merge added pairs in.
        let mut int_removed: HashMap<Symbol, Vec<(i64, NodeId)>> = HashMap::new();
        for &(sym, key, node) in &removed {
            if let SlotKey::Int(i) = key {
                int_removed.entry(sym).or_default().push((i, node));
            }
        }
        let mut int_added: HashMap<Symbol, Vec<(i64, NodeId)>> = HashMap::new();
        for &(sym, key, node) in &added {
            if let SlotKey::Int(i) = key {
                int_added.entry(sym).or_default().push((i, node));
            }
        }
        let mut int_runs: HashMap<Symbol, IntPairs> = HashMap::new();
        let empty = IntPairs::default();
        let syms: std::collections::BTreeSet<Symbol> = self
            .int_runs
            .keys()
            .chain(int_added.keys())
            .copied()
            .collect();
        for sym in syms {
            let base = self.int_runs.get(&sym).unwrap_or(&empty);
            let mut rem = int_removed.remove(&sym).unwrap_or_default();
            rem.sort_unstable();
            let mut add = int_added.remove(&sym).unwrap_or_default();
            add.sort_unstable();
            let mut run = Vec::with_capacity((base.len() + add.len()).saturating_sub(rem.len()));
            let mut rj = 0usize;
            let mut aj = 0usize;
            for pair in base.iter() {
                if rj < rem.len() && rem[rj] == pair {
                    rj += 1;
                    continue;
                }
                while aj < add.len() && add[aj] < pair {
                    run.push(add[aj]);
                    aj += 1;
                }
                run.push(pair);
            }
            run.extend_from_slice(&add[aj..]);
            if !run.is_empty() {
                int_runs.insert(sym, IntPairs::from_pairs(run));
            }
        }

        Self {
            value_keys: value_keys.finish(),
            value_offsets: value_offsets.into(),
            value_nodes: value_nodes.into(),
            name_slots,
            name_offsets: name_offsets.into(),
            name_nodes: name_nodes.into(),
            int_runs,
        }
    }

    /// Sorted posting list of nodes where `attr = value` (empty when the pair
    /// never occurs): a binary search of the slot keys and a borrowed slice.
    pub fn nodes_eq(&self, attr: Symbol, value: &AttrValue) -> &[NodeId] {
        match SlotKey::of(value).and_then(|key| self.value_keys.find(attr, key)) {
            Some(slot) => window(&self.value_offsets, slot, &self.value_nodes),
            None => &[],
        }
    }

    /// Sorted posting list of nodes carrying attribute `attr` at all.
    pub fn nodes_with_name(&self, attr: Symbol) -> &[NodeId] {
        match self.name_slots.get(&attr) {
            Some(&slot) => window(&self.name_offsets, slot as usize, &self.name_nodes),
            None => &[],
        }
    }

    /// Nodes whose integer-valued attribute `attr` lies in `[lo, hi]`
    /// (inclusive), sorted by id.
    pub fn nodes_int_range(&self, attr: Symbol, lo: i64, hi: i64) -> Vec<NodeId> {
        let mut nodes = self.int_range(attr, lo, hi).to_vec();
        nodes.sort_unstable();
        nodes
    }

    /// Number of nodes whose integer-valued `attr` lies in `[lo, hi]`,
    /// computed by two binary searches without building the node list.
    pub fn count_int_range(&self, attr: Symbol, lo: i64, hi: i64) -> usize {
        self.int_range(attr, lo, hi).len()
    }

    /// The nodes whose integer-valued `attr` lies in `[lo, hi]`, in value
    /// order.
    fn int_range(&self, attr: Symbol, lo: i64, hi: i64) -> &[NodeId] {
        match self.int_runs.get(&attr) {
            Some(run) if lo <= hi => {
                // Pairs are sorted by `(value, node)`, so partitioning on the
                // value half alone lands on the same boundaries.
                let start = run.values.partition_point(|&v| v < lo);
                let end = run.values.partition_point(|&v| v <= hi);
                &run.nodes[start..end]
            }
            _ => &[],
        }
    }

    /// Total number of posting entries across every access path.
    pub(crate) fn entry_count(&self) -> usize {
        self.value_nodes.len()
            + self.name_nodes.len()
            + self.int_runs.values().map(IntPairs::len).sum::<usize>()
    }

    /// Number of distinct values of attribute `attr` present in the graph.
    pub(crate) fn distinct_values(&self, attr: Symbol) -> usize {
        let syms = &self.value_keys.syms;
        let lo = syms.partition_point(|&s| s < attr);
        syms[lo..].partition_point(|&s| s == attr)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::LABEL_ATTR;

    use super::*;

    fn sample() -> (crate::DataGraph, Symbol, Symbol) {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("x");
        b.set_attr(a, "year", AttrValue::int(2000));
        let c = b.add_node_with_label("y");
        b.set_attr(c, "year", AttrValue::int(2005));
        let d = b.add_node_with_label("x");
        b.set_attr(d, "year", AttrValue::int(2010));
        let _e = b.add_node(); // no attributes at all
        let g = b.build();
        let label = g.symbols().get(LABEL_ATTR).unwrap();
        let year = g.symbols().get("year").unwrap();
        (g, label, year)
    }

    #[test]
    fn eq_postings_are_sorted_and_exact() {
        let (g, label, year) = sample();
        let idx = g.attr_index();
        assert_eq!(
            idx.nodes_eq(label, &AttrValue::str("x")),
            &[NodeId(0), NodeId(2)]
        );
        assert_eq!(idx.nodes_eq(label, &AttrValue::str("y")), &[NodeId(1)]);
        assert_eq!(idx.nodes_eq(label, &AttrValue::str("zz")), &[]);
        assert_eq!(idx.distinct_values(year), 3);
        assert_eq!(idx.distinct_values(label), 2);
    }

    #[test]
    fn name_postings_cover_every_carrier() {
        let (g, label, year) = sample();
        let idx = g.attr_index();
        assert_eq!(
            idx.nodes_with_name(label),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(idx.nodes_with_name(year).len(), 3);
    }

    #[test]
    fn int_ranges_answer_inclusive_bounds() {
        let (g, _, year) = sample();
        let idx = g.attr_index();
        assert_eq!(
            idx.nodes_int_range(year, 2000, 2005),
            vec![NodeId(0), NodeId(1)]
        );
        assert_eq!(idx.nodes_int_range(year, 2006, i64::MAX), vec![NodeId(2)]);
        assert_eq!(idx.nodes_int_range(year, 3000, 4000), Vec::<NodeId>::new());
        assert_eq!(idx.nodes_int_range(year, 10, 5), Vec::<NodeId>::new());
    }

    #[test]
    fn range_counts_agree_with_range_postings() {
        let (g, _, year) = sample();
        let idx = g.attr_index();
        assert_eq!(
            idx.count_int_range(year, 2000, 2005),
            idx.nodes_int_range(year, 2000, 2005).len()
        );
        assert_eq!(idx.count_int_range(year, 10, 5), 0);
        assert_eq!(idx.count_int_range(year, 3000, 4000), 0);
    }

    #[test]
    fn hostile_offsets_read_as_empty_postings_and_still_merge() {
        let (g, label, year) = sample();
        let mut idx = g.attr_index().clone();
        // What a plain-mmap open can hand over: both ends check out, the
        // middle is decreasing, then past every posting.
        let mut offsets = idx.value_offsets.to_vec();
        offsets[1] = 4;
        offsets[2] = 1;
        offsets[3] = u32::MAX;
        idx.value_offsets = offsets.into();
        let mut offsets = idx.name_offsets.to_vec();
        offsets[1] = u32::MAX;
        idx.name_offsets = offsets.into();
        for (slot, key) in idx.value_keys.values().enumerate() {
            let (sym, value) = key.expect("an honest key");
            let posting = idx.nodes_eq(sym, &value);
            assert_eq!(posting.is_empty(), (1..4).contains(&slot), "slot {slot}");
        }
        assert_eq!(idx.nodes_with_name(label), &[]);
        assert_eq!(idx.nodes_with_name(year), &[]);
        // A commit merges over whatever the accessors serve, including
        // removals the emptied postings no longer hold.
        let merged = idx.merge_updates(
            vec![(year, AttrValue::int(2005), NodeId(1))],
            vec![(year, AttrValue::int(2006), NodeId(1))],
            vec![(year, NodeId(3))],
        );
        assert_eq!(merged.nodes_eq(year, &AttrValue::int(2006)), &[NodeId(1)]);
        assert_eq!(merged.nodes_with_name(year), &[NodeId(3)]);
    }

    #[test]
    fn entry_count_sums_all_paths() {
        let (g, _, _) = sample();
        // 6 value entries + 6 name entries + 3 int-run entries.
        assert_eq!(g.attr_index().entry_count(), 15);
    }
}
