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
//! Every family is held in one layout, mirroring the CSR adjacency: an
//! ascending key column (three parallel columns in canonical `(attribute,
//! value)` order for the value postings, the attribute symbol for the other
//! two), an offsets run and flat item runs.  A probe binary-searches the
//! keys — the same columns a snapshot stores, so a mapped graph serves all
//! three families in place — and a commit maintains all three with one
//! keyed walk over `run::merge_run`.  Posting lists are sorted by
//! node id, so conjunctive predicates intersect them with the galloping
//! merge of [`crate::bitset`].

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::attr::{AttrValue, Attribute};
use crate::graph::NodeId;
use crate::run::{merge_run, window, IntRun};
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
    /// The columns of `keys`, given in canonical order; the string keys
    /// become a fresh dictionary, in key order.
    fn from_keys(keys: &[(Symbol, SlotKey<'_>)]) -> Self {
        let mut strings = Vec::new();
        let (tags, payloads): (Vec<u8>, Vec<u64>) = keys
            .iter()
            .map(|&(_, key)| match key {
                SlotKey::Int(i) => (TAG_INT, i as u64),
                SlotKey::Str(s) => {
                    strings.push(s);
                    (TAG_STR, strings.len() as u64 - 1)
                }
            })
            .unzip();
        Self {
            syms: keys.iter().map(|&(sym, _)| sym).collect::<Vec<_>>().into(),
            tags: tags.into(),
            payloads: payloads.into(),
            strings: StrDict::from_strs(strings),
        }
    }

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

/// One posting family in the layout a snapshot stores: ascending keys, an
/// offsets run with one window per key, and the items of every key's run,
/// concatenated.
struct Postings<K, T> {
    keys: Vec<K>,
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<K: Copy + Ord, T: Copy + Ord> Postings<K, T> {
    fn with_capacity(items: usize) -> Self {
        Self {
            keys: Vec::new(),
            offsets: vec![0],
            items: Vec::with_capacity(items),
        }
    }

    /// The family of `runs`, given in ascending key order.
    fn from_runs(runs: impl IntoIterator<Item = (K, Vec<T>)>) -> Self {
        let mut postings = Self::with_capacity(0);
        for (key, run) in runs {
            postings.items.extend_from_slice(&run);
            postings.close(key);
        }
        postings
    }

    /// Files the items appended since the last key under `key`; an empty
    /// run drops its key, as a rebuild would never create it.
    fn close(&mut self, key: K) {
        let end = self.items.len();
        if end > self.offsets.last().map_or(0, |&o| o as usize) {
            self.keys.push(key);
            self.offsets
                .push(u32::try_from(end).expect("posting run overflows u32 offsets"));
        }
    }

    /// Merges a base family — base key `i` owns `window(offsets, i, items)`
    /// — with `(key, item)` removals and additions, both ascending: one
    /// [`merge_run`] per key, in key order.  A base key that is `None` (one
    /// no probe can read, in a damaged file loaded unverified) takes its run
    /// with it, and removals of keys the base does not hold are skipped.
    fn merge(
        base_keys: impl IntoIterator<Item = Option<K>>,
        offsets: &[u32],
        items: &[T],
        mut removed: &[(K, T)],
        mut added: &[(K, T)],
    ) -> Self {
        let mut base = base_keys
            .into_iter()
            .enumerate()
            .filter_map(|(i, key)| Some((key?, window(offsets, i, items))))
            .peekable();
        let mut out = Self::with_capacity(items.len() + added.len());
        let (mut gone, mut new) = (Vec::new(), Vec::new());
        loop {
            let key = match (base.peek(), added.first()) {
                (Some(&(b, _)), Some(&(a, _))) => b.min(a),
                (Some(&(key, _)), None) | (None, Some(&(key, _))) => key,
                (None, None) => break,
            };
            let run = base
                .next_if(|&(b, _)| b == key)
                .map_or(&[][..], |(_, run)| run);
            take_key(&mut removed, key, &mut gone);
            take_key(&mut added, key, &mut new);
            merge_run(run, &gone, &new, &mut out.items);
            out.close(key);
        }
        out
    }
}

/// Moves the items keyed `key` off the front of `entries` (ascending) into
/// `items`, dropping the entries keyed below it.
fn take_key<K: Ord, T: Copy>(entries: &mut &[(K, T)], key: K, items: &mut Vec<T>) {
    let below = entries.iter().take_while(|e| e.0 < key).count();
    let at = entries[below..].iter().take_while(|e| e.0 == key).count();
    items.clear();
    items.extend(entries[below..below + at].iter().map(|e| e.1));
    *entries = &entries[below + at..];
}

/// The inverted index over node attributes, built by
/// [`GraphBuilder::build`](crate::GraphBuilder::build).
///
/// Each of the three posting families is held as a snapshot stores it
/// (`snap.rs`'s `Val*`, `Name*` and `Int*` sections), owned or mapped: an
/// ascending key column a probe binary-searches, an offsets run and flat
/// item runs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AttrIndex {
    /// One `(attr, value)` key per slot of the value posting arrays.  A
    /// probe borrows the caller's `&AttrValue` — no owned key, no clone on
    /// the hot candidate-selection path.
    pub(crate) value_keys: SlotKeys,
    pub(crate) value_offsets: IntRun<u32>,
    pub(crate) value_nodes: IntRun<NodeId>,
    /// The attributes any node carries, ascending, one name posting each.
    pub(crate) name_syms: IntRun<Symbol>,
    pub(crate) name_offsets: IntRun<u32>,
    pub(crate) name_nodes: IntRun<NodeId>,
    /// The attributes with an integer value, ascending, one run each of
    /// the `(int value, node)` pairs sorted by value then node, held as
    /// two parallel columns.
    pub(crate) int_syms: IntRun<Symbol>,
    pub(crate) int_offsets: IntRun<u32>,
    pub(crate) int_values: IntRun<i64>,
    pub(crate) int_nodes: IntRun<NodeId>,
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
            .or_else(|| self.int_values.backing_file_id())
            .or_else(|| self.int_nodes.backing_file_id())
    }

    /// Assembles the index from its three families.
    fn from_postings(
        values: Postings<(Symbol, SlotKey<'_>), NodeId>,
        names: Postings<Symbol, NodeId>,
        ints: Postings<Symbol, (i64, NodeId)>,
    ) -> Self {
        let (int_values, int_nodes): (Vec<i64>, Vec<NodeId>) = ints.items.into_iter().unzip();
        Self {
            value_keys: SlotKeys::from_keys(&values.keys),
            value_offsets: values.offsets.into(),
            value_nodes: values.items.into(),
            name_syms: names.keys.into(),
            name_offsets: names.offsets.into(),
            name_nodes: names.items.into(),
            int_syms: ints.keys.into(),
            int_offsets: ints.offsets.into(),
            int_values: int_values.into(),
            int_nodes: int_nodes.into(),
        }
    }

    /// Builds the index from the per-node attribute tuples (node order gives
    /// posting lists sorted by id for free).
    pub fn build(attrs: &[Vec<Attribute>]) -> Self {
        let mut by_value: HashMap<(Symbol, SlotKey<'_>), Vec<NodeId>> = HashMap::new();
        let mut by_name: BTreeMap<Symbol, Vec<NodeId>> = BTreeMap::new();
        let mut by_int: BTreeMap<Symbol, Vec<(i64, NodeId)>> = BTreeMap::new();
        for (i, tuple) in attrs.iter().enumerate() {
            let v = NodeId(i as u32);
            for attr in tuple {
                if let Some(key) = SlotKey::of(&attr.value) {
                    by_value.entry((attr.name, key)).or_default().push(v);
                }
                by_name.entry(attr.name).or_default().push(v);
                if let AttrValue::Int(value) = attr.value {
                    by_int.entry(attr.name).or_default().push((value, v));
                }
            }
        }
        // One slot per distinct key, in canonical key order.
        let mut by_value: Vec<_> = by_value.into_iter().collect();
        by_value.sort_unstable_by_key(|&(key, _)| key);
        for run in by_int.values_mut() {
            run.sort_unstable();
        }
        Self::from_postings(
            Postings::from_runs(by_value),
            Postings::from_runs(by_name),
            Postings::from_runs(by_int),
        )
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
        type Entry = (Symbol, AttrValue, NodeId);
        fn sorted<'a, K: Ord, T: Ord>(
            entries: &'a [Entry],
            pick: fn(&'a Entry) -> Option<(K, T)>,
        ) -> Vec<(K, T)> {
            let mut picked: Vec<_> = entries.iter().filter_map(pick).collect();
            picked.sort_unstable();
            picked
        }
        // Vector values never enter the equality postings (see
        // `SlotKey::of`), so their deltas only matter to the per-name
        // postings, which `name_added` already carries.
        fn slot((sym, value, node): &Entry) -> Option<((Symbol, SlotKey<'_>), NodeId)> {
            Some(((*sym, SlotKey::of(value)?), *node))
        }
        let int = |(sym, value, node): &Entry| match value {
            AttrValue::Int(i) => Some((*sym, (*i, *node))),
            _ => None,
        };
        name_added.sort_unstable();

        let keys = &self.value_keys;
        let base_ints: Vec<(i64, NodeId)> = self
            .int_values
            .iter()
            .copied()
            .zip(self.int_nodes.iter().copied())
            .collect();
        Self::from_postings(
            Postings::merge(
                (0..keys.len()).map(|i| keys.syms.get(i).copied().zip(keys.key(i))),
                &self.value_offsets,
                &self.value_nodes,
                &sorted(&removed, slot),
                &sorted(&added, slot),
            ),
            Postings::merge(
                self.name_syms.iter().copied().map(Some),
                &self.name_offsets,
                &self.name_nodes,
                &[],
                &name_added,
            ),
            Postings::merge(
                self.int_syms.iter().copied().map(Some),
                &self.int_offsets,
                &base_ints,
                &sorted(&removed, int),
                &sorted(&added, int),
            ),
        )
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
        match self.name_syms.binary_search(&attr) {
            Ok(slot) => window(&self.name_offsets, slot, &self.name_nodes),
            Err(_) => &[],
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
        match self.int_syms.binary_search(&attr) {
            Ok(slot) if lo <= hi => {
                // Pairs are sorted by `(value, node)`, so partitioning on the
                // value half alone lands on the same boundaries.
                let values = window(&self.int_offsets, slot, &self.int_values);
                let nodes = window(&self.int_offsets, slot, &self.int_nodes);
                let start = values.partition_point(|&v| v < lo);
                let end = values.partition_point(|&v| v <= hi);
                nodes.get(start..end).unwrap_or(&[])
            }
            _ => &[],
        }
    }

    /// Total number of posting entries across every access path.
    pub(crate) fn entry_count(&self) -> usize {
        self.value_nodes.len() + self.name_nodes.len() + self.int_nodes.len()
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
