//! Owned-or-lazy per-node attribute tuples.
//!
//! A built [`DataGraph`](crate::DataGraph) owns its attribute tuples as a
//! plain `Vec<Vec<Attribute>>`.  A graph loaded from a `.gtpq` snapshot keeps
//! the four columnar attribute sections (offsets, names, tags, payloads)
//! *mapped* instead and decodes them into tuples only on the first access
//! that actually needs per-node attribute data — cold start never pays the
//! per-node allocations and string clones, and a process that answers purely
//! index-served queries never touches those file pages at all.
//!
//! The decoded form is cached in a [`OnceLock`], so after the first
//! materialization every access is exactly the pre-lazy borrow.  Operations
//! that need the whole table anyway (snapshot writing, mutation commits,
//! structural equality) transparently materialize it.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::attr::{AttrValue, Attribute};
use crate::run::{window, IntRun};
use crate::symbol::Symbol;

/// Attribute value tag: the payload is the `i64` value itself.
pub(crate) const TAG_INT: u8 = 0;
/// Attribute value tag: the payload indexes the string dictionary.
pub(crate) const TAG_STR: u8 = 1;
/// Attribute value tag: the payload indexes the vector dictionary.
pub(crate) const TAG_VEC: u8 = 2;

/// The snapshot vector dictionary: every distinct embedding stored once as a
/// window into one flat f32 column, CSR-style.  Like the attribute columns it
/// is owned-or-mapped — a loaded graph keeps the file pages borrowed and only
/// copies a vector out when a tuple materializes.
#[derive(Clone, Default)]
pub(crate) struct VecDict {
    /// `entries + 1` offsets into `data`; empty means "no dictionary".
    pub(crate) offsets: IntRun<u32>,
    /// Concatenated vector payloads.
    pub(crate) data: IntRun<f32>,
}

impl VecDict {
    /// Number of dictionary entries.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The floats of entry `id`; `None` when the id is out of range
    /// (defensive for plain-mmap loads of damaged files).
    pub(crate) fn get(&self, id: usize) -> Option<&[f32]> {
        (id < self.len()).then(|| window(&self.offsets, id, &self.data))
    }

    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        self.offsets
            .backing_file_id()
            .or_else(|| self.data.backing_file_id())
    }
}

/// A string dictionary in the snapshot's string-table shape: `entries + 1`
/// offsets cutting one UTF-8 text, owned or mapped like [`VecDict`].  A
/// loaded graph serves its attribute strings and value-slot keys from the
/// file's `Strings` section in place; nothing is parsed into `String`s at
/// open, and an entry is only read (and UTF-8-checked) when it is used.
#[derive(Clone, Debug, Default)]
pub(crate) struct StrDict {
    /// `entries + 1` byte offsets into `text`; empty means "no dictionary".
    pub(crate) offsets: IntRun<u32>,
    /// Concatenated UTF-8 text.
    pub(crate) text: IntRun<u8>,
}

impl StrDict {
    /// An owned dictionary of `strings`, in order.
    pub(crate) fn from_strs<'a>(strings: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut offsets = vec![0u32];
        let mut text = Vec::new();
        for s in strings {
            text.extend_from_slice(s);
            offsets.push(u32::try_from(text.len()).expect("string dictionary under 4 GiB"));
        }
        Self {
            offsets: offsets.into(),
            text: text.into(),
        }
    }

    /// Number of dictionary entries.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The bytes of entry `id`; `None` when the id is out of range
    /// (defensive for plain-mmap loads of damaged files).
    #[inline]
    pub(crate) fn bytes(&self, id: u64) -> Option<&[u8]> {
        let id = usize::try_from(id).ok().filter(|&id| id < self.len())?;
        Some(window(&self.offsets, id, &self.text))
    }

    /// Entry `id` as text; `None` when the id is out of range or the entry
    /// is not UTF-8.
    pub(crate) fn get(&self, id: u64) -> Option<&str> {
        std::str::from_utf8(self.bytes(id)?).ok()
    }

    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        self.offsets
            .backing_file_id()
            .or_else(|| self.text.backing_file_id())
    }
}

/// The columnar snapshot encoding of every node's attribute tuple:
/// CSR-style offsets plus parallel name/tag/payload runs, and the shared
/// string/vector dictionaries the payloads of string- and vector-valued
/// attributes index into.
#[derive(Clone)]
pub(crate) struct AttrColumns {
    pub(crate) offsets: IntRun<u32>,
    pub(crate) names: IntRun<Symbol>,
    pub(crate) tags: IntRun<u8>,
    pub(crate) payloads: IntRun<u64>,
    pub(crate) strings: StrDict,
    pub(crate) vectors: Arc<VecDict>,
}

impl AttrColumns {
    /// Decodes every tuple.  Verifying load modes validate each entry up
    /// front, but the decode stays defensive regardless — an entry that no
    /// longer makes sense (plain-mmap load of a file corrupted on disk) is
    /// skipped rather than panicking.
    fn decode(&self) -> Vec<Vec<Attribute>> {
        let n = self.offsets.len().saturating_sub(1);
        // Window every span into columns cut to the shortest one, so a
        // corrupt offset (a mapped file damaged on disk) degrades to an empty
        // tuple in all three alike — it can neither size a multi-GB
        // allocation nor spin through billions of entries below.
        let entries = self
            .names
            .len()
            .min(self.tags.len())
            .min(self.payloads.len());
        let (names, tags, payloads) = (
            &self.names[..entries],
            &self.tags[..entries],
            &self.payloads[..entries],
        );
        let mut out = Vec::with_capacity(n);
        for v in 0..n {
            let names = window(&self.offsets, v, names);
            let tags = window(&self.offsets, v, tags);
            let payloads = window(&self.offsets, v, payloads);
            let mut tuple = Vec::with_capacity(names.len());
            for ((&name, &tag), &payload) in names.iter().zip(tags).zip(payloads) {
                let value = match tag {
                    TAG_INT => AttrValue::Int(payload as i64),
                    TAG_STR => match self.strings.get(payload) {
                        Some(s) => AttrValue::Str(s.to_owned()),
                        None => continue,
                    },
                    TAG_VEC => match usize::try_from(payload)
                        .ok()
                        .and_then(|id| self.vectors.get(id))
                    {
                        Some(v) => AttrValue::Vec(v.to_vec()),
                        None => continue,
                    },
                    _ => continue,
                };
                tuple.push(Attribute::new(name, value));
            }
            out.push(tuple);
        }
        out
    }
}

/// The attribute tuples `f(v)` of a [`DataGraph`](crate::DataGraph):
/// either an owned table (graphs built in memory) or mapped snapshot columns
/// decoded lazily on first access and cached from then on.
///
/// Cloning an undecoded store clones only the column views (refcount bumps
/// for mapped runs); equality and [`tuples`](Self::tuples) go through the
/// materialized table, so an owned store and a lazy store over the same data
/// compare equal.
pub(crate) struct AttrTuples {
    /// Node count, known without materializing.
    len: usize,
    /// The mapped columns; `None` for stores built from owned tuples.
    columns: Option<AttrColumns>,
    /// The materialized table; set at construction for owned stores.
    tuples: OnceLock<Vec<Vec<Attribute>>>,
}

impl AttrTuples {
    pub(crate) fn from_columns(len: usize, columns: AttrColumns) -> Self {
        Self {
            len,
            columns: Some(columns),
            tuples: OnceLock::new(),
        }
    }

    /// Number of nodes (O(1), never materializes).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Total attribute entries across all nodes (O(1), never materializes).
    pub(crate) fn entry_count(&self) -> usize {
        match &self.columns {
            Some(c) => c.names.len(),
            None => self
                .tuples
                .get()
                .map_or(0, |t| t.iter().map(Vec::len).sum()),
        }
    }

    /// The materialized per-node tuples.
    ///
    /// The first call on a snapshot-loaded graph decodes every column into
    /// owned `Attribute`s and caches the result; later calls (and every call
    /// on a built graph) are a plain borrow.
    #[inline]
    pub(crate) fn tuples(&self) -> &[Vec<Attribute>] {
        self.tuples.get_or_init(|| {
            self.columns
                .as_ref()
                .map(AttrColumns::decode)
                .unwrap_or_default()
        })
    }

    /// An owned copy of every tuple — the copy-on-write step of the mutation
    /// commit path.
    pub(crate) fn to_tuples_vec(&self) -> Vec<Vec<Attribute>> {
        self.tuples().to_vec()
    }

    /// The `(device, inode)` of the snapshot file the columns borrow, when
    /// this store is a mapped view (see [`crate::snap`]).
    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        let c = self.columns.as_ref()?;
        c.offsets
            .backing_file_id()
            .or_else(|| c.names.backing_file_id())
            .or_else(|| c.tags.backing_file_id())
            .or_else(|| c.payloads.backing_file_id())
            .or_else(|| c.strings.backing_file_id())
            .or_else(|| c.vectors.backing_file_id())
    }
}

impl From<Vec<Vec<Attribute>>> for AttrTuples {
    fn from(tuples: Vec<Vec<Attribute>>) -> Self {
        let len = tuples.len();
        let cell = OnceLock::new();
        let _ = cell.set(tuples);
        Self {
            len,
            columns: None,
            tuples: cell,
        }
    }
}

impl Clone for AttrTuples {
    fn clone(&self) -> Self {
        match (&self.columns, self.tuples.get()) {
            // Never decoded: clone the cheap column views and stay lazy.
            (Some(c), None) => Self::from_columns(self.len, c.clone()),
            (_, Some(t)) => t.clone().into(),
            (None, None) => Vec::new().into(),
        }
    }
}

impl PartialEq for AttrTuples {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.tuples() == other.tuples()
    }
}

impl fmt::Debug for AttrTuples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tuples.get() {
            Some(t) => t.fmt(f),
            None => f
                .debug_struct("AttrTuples")
                .field("len", &self.len)
                .field("decoded", &false)
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_store_round_trips() {
        let raw = vec![
            vec![Attribute::new(Symbol(0), AttrValue::int(7))],
            Vec::new(),
        ];
        let store: AttrTuples = raw.clone().into();
        assert_eq!(store.len(), 2);
        assert_eq!(store.entry_count(), 1);
        assert_eq!(store.tuples(), &raw[..]);
        assert_eq!(store.to_tuples_vec(), raw);
        assert_eq!(store.clone(), store);
    }

    fn columns(
        offsets: Vec<u32>,
        names: Vec<Symbol>,
        tags: Vec<u8>,
        payloads: Vec<u64>,
        strings: Vec<&str>,
    ) -> AttrColumns {
        AttrColumns {
            offsets: offsets.into(),
            names: names.into(),
            tags: tags.into(),
            payloads: payloads.into(),
            strings: StrDict::from_strs(strings.into_iter().map(str::as_bytes)),
            vectors: Arc::new(VecDict::default()),
        }
    }

    #[test]
    fn lazy_store_decodes_on_first_access() {
        let c = columns(
            vec![0, 2, 2, 3],
            vec![Symbol(0), Symbol(1), Symbol(0)],
            vec![TAG_INT, TAG_STR, TAG_INT],
            vec![(-3i64) as u64, 0, 42],
            vec!["hi"],
        );
        let store = AttrTuples::from_columns(3, c);
        assert_eq!(store.len(), 3);
        assert_eq!(store.entry_count(), 3);
        let want = vec![
            vec![
                Attribute::new(Symbol(0), AttrValue::int(-3)),
                Attribute::new(Symbol(1), AttrValue::str("hi")),
            ],
            Vec::new(),
            vec![Attribute::new(Symbol(0), AttrValue::int(42))],
        ];
        assert_eq!(store.tuples(), &want[..]);
        let owned: AttrTuples = want.into();
        assert_eq!(store, owned);
        assert_eq!(store.clone(), owned);
    }

    #[test]
    fn vector_entries_decode_from_the_dictionary() {
        let mut c = columns(
            vec![0, 2, 3],
            vec![Symbol(0), Symbol(1), Symbol(0)],
            vec![TAG_VEC, TAG_INT, TAG_VEC],
            vec![1, 5, 99], // 99 is out of dictionary range: skipped
            vec![],
        );
        c.vectors = Arc::new(VecDict {
            offsets: vec![0u32, 2, 5].into(),
            data: vec![9.0f32, 8.0, 1.0, 2.0, 3.0].into(),
        });
        assert_eq!(c.vectors.len(), 2);
        assert_eq!(c.vectors.get(0), Some(&[9.0f32, 8.0][..]));
        assert_eq!(c.vectors.get(2), None);
        let store = AttrTuples::from_columns(2, c);
        assert_eq!(
            store.tuples(),
            &[
                vec![
                    Attribute::new(Symbol(0), AttrValue::Vec(vec![1.0, 2.0, 3.0])),
                    Attribute::new(Symbol(1), AttrValue::int(5)),
                ],
                Vec::new(),
            ][..]
        );
    }

    #[test]
    fn corrupt_entries_are_skipped_not_panicked_on() {
        // Out-of-range string id, unknown tag, offsets past the runs: every
        // bad entry degrades to an absent attribute.
        let c = columns(
            vec![0, 3, 9],
            vec![Symbol(0), Symbol(1), Symbol(2)],
            vec![TAG_STR, 77, TAG_INT],
            vec![999, 0, 5],
            vec!["only"],
        );
        let store = AttrTuples::from_columns(2, c);
        assert_eq!(
            store.tuples(),
            &[
                vec![Attribute::new(Symbol(2), AttrValue::int(5))],
                Vec::new(),
            ][..]
        );
    }

    #[test]
    fn debug_does_not_force_materialization() {
        let c = columns(vec![0, 1], vec![Symbol(0)], vec![TAG_INT], vec![9], vec![]);
        let store = AttrTuples::from_columns(1, c);
        let undecoded = format!("{store:?}");
        assert!(undecoded.contains("decoded: false"), "{undecoded}");
        let _ = store.tuples();
        assert!(!format!("{store:?}").contains("decoded: false"));
    }
}
