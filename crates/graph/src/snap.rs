//! `.gtpq` binary snapshots: versioned, checksummed, mmap-loadable.
//!
//! The container lays every large array of a [`DataGraph`] and its
//! [`Condensation`] out as 64-byte-aligned little-endian *int runs* so a
//! loader can reinterpret the file bytes in place: [`GraphSnapshot::open`]
//! with [`LoadMode::Mmap`] maps the file read-only and rebuilds the graph as
//! borrowed `IntRun` views over the mapping — cold
//! start is O(page faults) plus a decode of the few sections sized by the
//! attribute-name count, not O(parse): even the string dictionary and the
//! value-posting keys are served in place.
//!
//! # On-disk layout
//!
//! ```text
//! [ header: 64 bytes ]
//! [ section 0 data, padded to 64 ]
//! [ section 1 data, padded to 64 ]
//! ...
//! [ TOC: 32 bytes per section ]
//! ```
//!
//! The fixed header is written last (the writer seeks back):
//!
//! | offset | field | type |
//! |--------|-------|------|
//! | 0  | magic `GTPQSNAP` | `[u8; 8]` |
//! | 8  | format version (= 3) | `u32` |
//! | 12 | flags | `u32` |
//! | 16 | section count | `u64` |
//! | 24 | TOC byte offset | `u64` |
//! | 32 | total file length | `u64` |
//! | 40 | epoch | `u64` |
//! | 48 | TOC CRC-32 | `u32` |
//! | 52 | header CRC-32 (bytes 0..52) | `u32` |
//! | 56 | reserved (zero) | `u64` |
//!
//! Each TOC entry is `{ kind: u32, crc: u32, offset: u64, byte_len: u64,
//! reserved: u64 }`.  Section offsets are multiples of 64, so every aligned
//! integer run in the file is aligned in the mapping too (mmap bases are
//! page-aligned; the heap fallback buffer is 8-byte aligned).
//!
//! # The section table
//!
//! What the sections *are* is data, not code: the `sections!` table below
//! gives each one its on-disk id, element type, length rule, the run it is
//! an offsets index into, its verification class and the first format
//! version that carries it.  The writer emits the rows in table order from
//! one borrowed [`SnapshotColumns`] set; the loader checks them in one loop
//! per policy and hands the decoder one typed run per row.  Adding a section
//! is one row plus its producer and its consumer (`docs/ARCHITECTURE.md`,
//! "Snapshot format", renders the table and says how to pick a class).
//!
//! # Verification policy
//!
//! The header and TOC checksums, the section-table bounds, every length
//! rule (cross-checked against the `Meta` section) and the two **ends** of
//! every offsets run (leading `0`, last entry equal to the length of the run
//! it spans) are verified on **every** load; all of that is independent of
//! the node and edge count.  Sections the open reads — decodes into owned
//! structures, or holds in range and strictly ascending, as it does the
//! name-posting and integer-run symbol columns a probe binary-searches in
//! place — are always CRC-checked and validated field by field, and the
//! offsets runs among them ("every open" rows with a `spans` column) are scanned for
//! monotonicity at every open too, because the decoder slices through them
//! right there.  A string table is an offsets run over its own text: its
//! ends are checked at every open, its monotonicity and UTF-8 by the same
//! class rule.  The big mapped runs (adjacency offsets and targets, posting
//! keys, offsets and nodes, the string dictionary, condensation arrays, and
//! the attribute tuple columns — decoded lazily, see `AttrTuples`) are
//! CRC-checked, scanned for monotone offsets *and* field-validated by
//! [`LoadMode::Heap`]; plain [`LoadMode::Mmap`] skips those passes so that
//! an open costs the pages it touches, not the pages the file has — load
//! files you do not trust with `Heap`.  What plain mmap gives instead is **total accessors**: every
//! reader of a mapped offsets run goes through the total `run::window`, so a
//! damaged middle offset serves the empty run for the affected node, a
//! damaged value-slot key misses its probe and reads as an empty posting,
//! and a malformed attribute entry degrades to a skipped attribute at access
//! time — the data may be wrong, no accessor panics.  Loading never causes
//! undefined behaviour in any mode: every mapped window is bounds- and
//! alignment-checked before it is wrapped.
//!
//! # External modification hazard
//!
//! A mapped load ([`LoadMode::Mmap`]) borrows
//! the file's pages for the lifetime of the graph.  The mapping is private
//! and read-only, but it cannot protect against **another process**
//! truncating or rewriting the file in place while it is mapped: touching a
//! page past a new, shorter EOF raises `SIGBUS`, and in-place rewrites can
//! be observed as torn data.  Replacing the file via `rename(2)` is always
//! safe — the mapping keeps the old inode alive — and
//! [`GraphSnapshot::save`] itself only ever publishes by rename.  Where the
//! file may be truncated or rewritten in place by other software, load with
//! [`LoadMode::Heap`].
//!
//! # Version policy
//!
//! Backwards-compatible additions introduce new section kinds and need no
//! version bump: readers skip kinds they do not know, and a reader that
//! does know a section added after version 1 accepts a file without it —
//! the section then reads as its canonical empty run (`[0]` for an offsets
//! run, nothing otherwise).  The length rules are checked against that
//! empty run like against any other, so sections that size each other are
//! absent or present as a group.  Anything else bumps the format version
//! and old readers reject the file with
//! [`SnapshotError::UnsupportedVersion`].
//!
//! Version 2 added the embedding layer: a shared vector-value dictionary
//! (kinds 34–35) and the per-attribute similarity tables (kinds 36–47, see
//! [`crate::sim_index`]).  Version-1 files remain loadable: their graphs
//! simply carry no vector values and an empty sim catalog.
//!
//! Version 3 dropped the component member lists (kinds 26–27,
//! `MembersOffsets` and `Members`), which no reader of a condensation used.
//! Version-1 and version-2 files still carry them and still open: the
//! loader skips the two kinds like any other it does not know.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::attr::AttrValue;
use crate::condensation::{CompId, Condensation};
use crate::csr::Csr;
use crate::graph::{DataGraph, NodeId};
use crate::index::{AttrIndex, SlotKey, SlotKeys};
use crate::mutate::GraphSnapshot;
use crate::run::{AlignedBytes, IntRun, RunElem, SnapshotBytes};
use crate::sim_index::{SimCatalog, SimTable};
use crate::symbol::{Symbol, SymbolTable};
use crate::tuples::{AttrColumns, AttrTuples, StrDict, VecDict, TAG_INT, TAG_STR, TAG_VEC};

/// `GTPQSNAP`.
pub const MAGIC: [u8; 8] = *b"GTPQSNAP";
/// Current format version.  Version 2 added vector attribute values and the
/// similarity-table sections, version 3 dropped the component member lists;
/// readers accept versions `1..=FORMAT_VERSION`.
pub const FORMAT_VERSION: u32 = 3;
/// Section data alignment, in bytes.
pub(crate) const SECTION_ALIGN: u64 = 64;

const HEADER_LEN: u64 = 64;
const TOC_ENTRY_LEN: u64 = 32;
/// Hard cap on the section count — a corrupt header cannot make the loader
/// allocate an absurd TOC.
const MAX_SECTIONS: u64 = 4096;

/// How to load a snapshot file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Zero-copy `mmap`; the big runs borrow the mapping and neither their
    /// checksums nor the monotonicity of their offsets are verified (header,
    /// TOC, the two ends of every offsets run and the materialized sections
    /// always are), so the open is independent of the graph's size and of
    /// its dictionaries' sizes.  A file damaged inside a big run still opens:
    /// its accessors stay panic-free and serve an empty run, an empty posting
    /// or a skipped attribute where the damage is.
    /// Falls back to [`LoadMode::Heap`] when mapping is unavailable.  The
    /// file must not be truncated or rewritten in place by another process
    /// while the graph is alive (see the
    /// [module docs](crate::snap#external-modification-hazard)); replacing
    /// it via rename — as [`GraphSnapshot::save`] does — is safe.
    Mmap,
    /// Portable and verifying: read the whole file into an aligned heap
    /// buffer, then run a full checksum pass over every section, the
    /// monotonicity scan of every offsets run and string table, and field
    /// validation of the attribute columns, the value-slot keys (readable
    /// and strictly ascending) and the string dictionary (UTF-8).  The runs
    /// still borrow the shared buffer, so this path exercises the same code
    /// as the mapped one.
    Heap,
}

/// Typed failure of snapshot save/load.  Loading a corrupt or truncated file
/// reports one of these — it never panics and never touches invalid memory.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file is shorter than a header, or a declared region runs past the
    /// end of the file.
    Truncated {
        /// Which region was cut off.
        what: &'static str,
    },
    /// The magic bytes are not `GTPQSNAP`.
    BadMagic,
    /// The format version is newer than this reader.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A stored CRC-32 does not match the bytes.
    ChecksumMismatch {
        /// Which region failed.
        section: &'static str,
    },
    /// Structurally invalid content (bad counts, non-monotone offsets,
    /// out-of-range ids, invalid UTF-8, ...).
    Malformed {
        /// Human-readable description.
        what: String,
    },
    /// Refused to save onto the file currently backing this graph's live
    /// mapping.  Although saves are atomic (temp file + rename, so the
    /// mapped inode itself would survive), replacing the source of a mapped
    /// graph with a copy of itself is almost always a mistake — save to a
    /// different path, or reload with [`LoadMode::Heap`] first.
    OverwritesMapped {
        /// The refused target path.
        path: PathBuf,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Truncated { what } => write!(f, "snapshot truncated: {what}"),
            SnapshotError::BadMagic => write!(f, "not a .gtpq snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this reader supports 1..={FORMAT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot checksum mismatch in {section}")
            }
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
            SnapshotError::OverwritesMapped { path } => write!(
                f,
                "refusing to save onto `{}`: it backs this graph's live mapping \
                 (save to a different path, or reload with LoadMode::Heap)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn malformed(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed { what: what.into() }
}

// ---------------------------------------------------------------------------
// The section table
// ---------------------------------------------------------------------------

/// The words of the `Meta` section, in on-disk order: the element counts
/// the length rules below are written in.
#[derive(Clone, Copy, Debug)]
enum Count {
    /// Nodes in the graph.
    Nodes,
    /// Directed edges.
    Edges,
    /// Interned attribute-name symbols.
    Symbols,
    /// Distinct attribute string values.
    Strings,
    /// Total attribute entries across all nodes.
    Attrs,
    /// Value-posting slots.
    ValueSlots,
    /// Total value-posting entries.
    ValueNodes,
    /// Name-posting slots.
    NameSlots,
    /// Total name-posting entries.
    NameNodes,
    /// Attributes carrying an integer run.
    IntAttrs,
    /// Total integer-run pairs.
    IntPairs,
    /// Strongly connected components.
    Components,
    /// Condensation DAG edges.
    CompEdges,
}

impl Count {
    const WORDS: usize = Count::CompEdges as usize + 1;
}

/// The decoded `Meta` section, indexed by [`Count`].
type MetaCounts = [u64; Count::WORDS];

/// What a section is a run of.
#[derive(Clone, Copy)]
enum Elem {
    /// Fixed-width little-endian values: type name and byte width.
    Ints(&'static str, usize),
    /// `entries + 1` `u32` offsets followed by the UTF-8 text they cut up.
    StringTable,
}

/// A length rule: the section holds `mul × base + add` entries.
#[derive(Clone, Copy)]
struct Len(Base, u64, u64);

#[derive(Clone, Copy)]
enum Base {
    /// A `Meta` word.
    Meta(Count),
    /// However many whole elements the section's own byte length holds.
    Own,
    /// As many entries as another run holds.
    Run(SectionKind),
}

impl std::fmt::Display for Len {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Len(base, mul, add) = *self;
        if mul != 1 {
            write!(f, "{mul} × ")?;
        }
        match base {
            Base::Meta(count) => write!(f, "{count:?}")?,
            Base::Own => write!(f, "own")?,
            Base::Run(kind) => write!(f, "len({kind:?})")?,
        }
        if add != 0 {
            write!(f, " + {add}")?;
        }
        Ok(())
    }
}

/// When a section's checksum is verified.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Check {
    /// At every open: the section is read at open — decoded into an owned
    /// structure, or checked entry by entry where it stays mapped (the
    /// name-posting and integer-run symbol columns) — so its pages are read
    /// anyway, and checksumming it first makes a bit-flipped file fail as
    /// `ChecksumMismatch`, not `Malformed`.
    EveryOpen,
    /// Only by [`LoadMode::Heap`] (and plain [`LoadMode::Mmap`]'s heap
    /// fallback): the run stays mapped and a mapped open must not fault its
    /// pages in.
    Verifying,
}

/// One row of the section table.
struct Section {
    kind: SectionKind,
    /// The variant name, for error messages and the docs.
    name: &'static str,
    elem: Elem,
    len: Len,
    /// The run this one is an offsets index into.  Every open checks its two
    /// ends (leading 0, ending at the target's length); the monotonicity
    /// scan in between runs at every open for an [`Check::EveryOpen`] row —
    /// the decoder slices through it — and in a verifying open for a
    /// [`Check::Verifying`] row, whose readers go through the total
    /// [`crate::run::window`] instead.
    spans: Option<SectionKind>,
    check: Check,
    /// First format version whose writers emit the section.  What version 1
    /// wrote is mandatory; a later addition may be absent from a file and
    /// then reads as its canonical empty run.
    since: u32,
}

impl SectionKind {
    fn row(self) -> &'static Section {
        let row = TABLE.iter().find(|row| row.kind == self);
        row.expect("every kind has a row")
    }
}

/// The one length-rule evaluator, for the loader and the writer alike: how
/// many entries the table says the section of `row` holds, given the `Meta`
/// counts and how many entries each section actually has.
fn declared_len(
    row: &Section,
    counts: &MetaCounts,
    entries: impl Fn(&Section) -> u64,
) -> Result<u64, SnapshotError> {
    let Len(base, mul, add) = row.len;
    let base = match base {
        Base::Meta(count) => counts[count as usize],
        Base::Own => entries(row),
        Base::Run(run) => entries(run.row()),
    };
    base.checked_mul(mul)
        .and_then(|n| n.checked_add(add))
        .ok_or_else(|| malformed(format!("section {}: length overflow", row.name)))
}

macro_rules! len {
    (own) => {
        Len(Base::Own, 1, 0)
    };
    ($($mul:literal *)? len($run:ident) $(+ $add:literal)?) => {
        Len(Base::Run(SectionKind::$run), 1 $(* $mul)?, 0 $(+ $add)?)
    };
    ($count:ident $(+ $add:literal)?) => {
        Len(Base::Meta(Count::$count), 1, 0 $(+ $add)?)
    };
}

// Per element type: the descriptor, the borrowed column a producer fills
// and the run a consumer gets.
macro_rules! elem {
    (desc str) => { Elem::StringTable };
    (desc $t:ty) => { Elem::Ints(stringify!($t), <$t as SectionElem>::WIDTH) };
    (column $lt:lifetime str) => { &$lt [&$lt str] };
    (column $lt:lifetime $t:ty) => { &$lt [$t] };
    (run str) => { StrDict };
    (run $t:ty) => { IntRun<$t> };
}

// What a row's optional `spans Target` clause means for its descriptor and
// for its canonical empty run: an offsets run is never shorter than its
// leading 0, anything else is empty.
macro_rules! spans {
    (row) => {
        None
    };
    (row $target:ident) => {
        Some(SectionKind::$target)
    };
    (empty) => {
        &[]
    };
    (empty $target:ident) => {
        &[0]
    };
}

// The one place that knows the format.  A row reads
//
//     Variant field = id: element [length rule] Class since version(, spans Target)?;
//
// and everything per-section expands from it: the enum and its on-disk ids
// (never renumber one), the `TABLE` the writer and the load-time loops walk
// (table order *is* file order), the column a producer fills and the run a
// consumer receives.  `Meta` closes the file and is the one section the
// writer computes rather than borrows.
macro_rules! sections {
    ($(
        $(#[$doc:meta])*
        $name:ident $field:ident = $id:literal: $elem:tt [$($len:tt)+]
            $check:ident since $since:literal $(, spans $target:ident)?;
    )*) => {
        /// Identifies one section of a `.gtpq` container.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u32)]
        enum SectionKind {
            $($(#[$doc])* $name = $id,)*
            /// Count cross-check block: one `u64` per [`Count`].
            Meta = 1,
        }

        /// Every section, in file order.
        const TABLE: &[Section] = &[
            $(Section {
                kind: SectionKind::$name,
                name: stringify!($name),
                elem: elem!(desc $elem),
                len: len!($($len)+),
                spans: spans!(row $($target)?),
                check: Check::$check,
                since: $since,
            },)*
            Section {
                kind: SectionKind::Meta,
                name: "Meta",
                elem: elem!(desc u64),
                len: len!(own),
                spans: None,
                check: Check::EveryOpen,
                since: 1,
            },
        ];

        /// Everything a `.gtpq` file stores, as one borrowed column per
        /// section: fill what the graph has (nothing is copied) and call
        /// [`write`](Self::write).  [`Default`] is the canonical empty run
        /// of every column, so a producer without vectors or `sim(...)`
        /// tables just leaves those groups out.
        #[derive(Clone, Copy)]
        pub struct SnapshotColumns<'a> {
            $($(#[$doc])* pub $field: elem!(column 'a $elem),)*
        }

        impl Default for SnapshotColumns<'_> {
            fn default() -> Self {
                Self { $($field: spans!(empty $($target)?),)* }
            }
        }

        impl SnapshotColumns<'_> {
            /// The column of `kind`; `None` for the computed `Meta`.
            fn column(&self, kind: SectionKind) -> Option<&dyn Column> {
                match kind {
                    $(SectionKind::$name => Some(&self.$field),)*
                    SectionKind::Meta => None,
                }
            }
        }

        /// Every section of an open file but `Meta`, as one typed run per
        /// row — length-, checksum- and span-checked by [`Loader::verify`].
        struct Runs {
            $($field: elem!(run $elem),)*
        }

        impl Runs {
            fn load(l: &Loader) -> Result<Self, SnapshotError> {
                Ok(Self { $($field: Load::load(l, SectionKind::$name.row())?,)* })
            }
        }
    };
}

sections! {
    /// Forward CSR offsets.
    FwdOffsets fwd_offsets = 2: u32 [Nodes + 1] Verifying since 1, spans FwdTargets;
    /// Forward CSR targets.
    FwdTargets fwd_targets = 3: NodeId [Edges] Verifying since 1;
    /// Reverse CSR offsets.
    RevOffsets rev_offsets = 4: u32 [Nodes + 1] Verifying since 1, spans RevTargets;
    /// Reverse CSR targets.
    RevTargets rev_targets = 5: NodeId [Edges] Verifying since 1;
    /// Attribute names, in symbol order.
    Symbols symbols = 6: str [Symbols] EveryOpen since 1;
    /// Distinct attribute string values, in first-use order.
    Strings strings = 7: str [Strings] Verifying since 1;
    /// Per-node offsets into the three attribute-entry columns.
    AttrOffsets attr_offsets = 8: u32 [Nodes + 1] Verifying since 1, spans AttrNames;
    /// Attribute entries: name symbol.
    AttrNames attr_names = 9: Symbol [Attrs] Verifying since 1;
    /// Attribute entries: value tag (see [`ValueColumns`]).
    AttrTags attr_tags = 10: u8 [Attrs] Verifying since 1;
    /// Attribute entries: value payload (see [`ValueColumns`]).
    AttrPayloads attr_payloads = 11: u64 [Attrs] Verifying since 1;
    /// Vector-value dictionary offsets, in `f32` units.
    VecOffsets vec_offsets = 34: u32 [own] EveryOpen since 2, spans VecData;
    /// Vector-value dictionary data, concatenated.
    VecData vec_data = 35: f32 [own] Verifying since 2;
    /// Value-posting slot keys: attribute symbol.
    ValSyms val_syms = 12: Symbol [ValueSlots] Verifying since 1;
    /// Value-posting slot keys: value tag.
    ValTags val_tags = 13: u8 [ValueSlots] Verifying since 1;
    /// Value-posting slot keys: value payload.
    ValPayloads val_payloads = 14: u64 [ValueSlots] Verifying since 1;
    /// Value-posting offsets, one list per slot.
    ValOffsets val_offsets = 15: u32 [ValueSlots + 1] Verifying since 1, spans ValNodes;
    /// Value-posting node lists, concatenated.
    ValNodes val_nodes = 16: NodeId [ValueNodes] Verifying since 1;
    /// Name-posting slot keys: attribute symbol.
    NameSyms name_syms = 17: Symbol [NameSlots] EveryOpen since 1;
    /// Name-posting offsets, one list per slot.
    NameOffsets name_offsets = 18: u32 [NameSlots + 1] Verifying since 1, spans NameNodes;
    /// Name-posting node lists, concatenated.
    NameNodes name_nodes = 19: NodeId [NameNodes] Verifying since 1;
    /// Integer-run attribute symbols, ascending.
    IntSyms int_syms = 20: Symbol [IntAttrs] EveryOpen since 1;
    /// Integer-run offsets, one `(value, node)` run per attribute.
    IntOffsets int_offsets = 21: u32 [IntAttrs + 1] EveryOpen since 1, spans IntValues;
    /// Integer-run values, concatenated.
    IntValues int_values = 22: i64 [IntPairs] Verifying since 1;
    /// Integer-run nodes, parallel to the values.
    IntNodes int_nodes = 23: NodeId [IntPairs] Verifying since 1;
    /// Sim-table attribute symbols, one per table, ascending.
    SimSyms sim_syms = 36: Symbol [own] EveryOpen since 2;
    /// Sim-table vector dimensionalities, one per table.
    SimDims sim_dims = 37: u32 [len(SimSyms)] EveryOpen since 2;
    /// Sim-table indexed-node offsets.
    SimNodeOffsets sim_node_offsets = 38: u32 [len(SimSyms) + 1] EveryOpen since 2, spans SimNodes;
    /// Sim-table indexed nodes, concatenated.
    SimNodes sim_nodes = 39: NodeId [own] Verifying since 2;
    /// Sim-table stored-vector offsets, in `f32` units.
    SimVecOffsets sim_vec_offsets = 40: u32 [len(SimSyms) + 1] EveryOpen since 2, spans SimVecData;
    /// Sim-table stored vectors, row-major concatenated.
    SimVecData sim_vec_data = 41: f32 [own] Verifying since 2;
    /// Sim-table pivot offsets, in `f32` units.
    SimPivotOffsets sim_pivot_offsets = 42: u32 [len(SimSyms) + 1] EveryOpen since 2, spans SimPivotData;
    /// Sim-table pivot vectors, row-major concatenated.
    SimPivotData sim_pivot_data = 43: f32 [own] Verifying since 2;
    /// Sim-table pivot-distance offsets, in `f32` units.
    SimDistOffsets sim_dist_offsets = 44: u32 [len(SimSyms) + 1] EveryOpen since 2, spans SimDistData;
    /// Sim-table pivot-distance rows, concatenated.
    SimDistData sim_dist_data = 45: f32 [own] Verifying since 2;
    /// Sim-table sorted first-pivot distances, one per indexed node (cut up
    /// by the indexed-node offsets).
    SimSortedHead sim_sorted_head = 46: f32 [len(SimNodes)] Verifying since 2;
    /// Sim-table norm bounds: `[min, max]` per table.
    SimNormBounds sim_norm_bounds = 47: f32 [2 * len(SimSyms)] EveryOpen since 2;
    /// Component of each node.
    CompOf comp_of = 24: CompId [Nodes] Verifying since 1;
    /// Per-component cyclicity flags.
    Cyclic cyclic = 25: u8 [Components] Verifying since 1;
    /// Condensation DAG out-edge offsets.
    CompOutOffsets comp_out_offsets = 28: u32 [Components + 1] Verifying since 1, spans CompOut;
    /// Condensation DAG out-edges.
    CompOut comp_out = 29: CompId [CompEdges] Verifying since 1;
    /// Condensation DAG in-edge offsets.
    CompInOffsets comp_in_offsets = 30: u32 [Components + 1] Verifying since 1, spans CompIn;
    /// Condensation DAG in-edges.
    CompIn comp_in = 31: CompId [CompEdges] Verifying since 1;
    /// Components in topological order.
    Topo topo = 32: CompId [Components] Verifying since 1;
}

/// The section table as the Markdown table of `docs/ARCHITECTURE.md`
/// ("Snapshot format"); `tests/architecture_docs.rs` holds the document to
/// it, so the docs cannot drift from the rows.
pub fn section_table_markdown() -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "| id | section | element | entries | spans | CRC checked | since |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for row in TABLE {
        let elem = match row.elem {
            Elem::Ints(name, _) => name,
            Elem::StringTable => "string table",
        };
        let spans = row.spans.map_or("—".to_owned(), |t| format!("`{t:?}`"));
        let check = match row.check {
            Check::EveryOpen => "every open",
            Check::Verifying => "verifying modes",
        };
        writeln!(
            out,
            "| {} | `{}` | `{elem}` | `{}` | {spans} | {check} | v{} |",
            row.kind as u32, row.name, row.len, row.since
        )
        .expect("writing to a String cannot fail");
    }
    out
}

// ---------------------------------------------------------------------------
// Little-endian element encoding
// ---------------------------------------------------------------------------

/// Element types that can be written to / read from a snapshot section:
/// the primitive run elements and the `repr(transparent)` id wrappers.
trait SectionElem: RunElem {
    /// Serialized width in bytes.
    const WIDTH: usize;
    fn put_le(self, out: &mut Vec<u8>);
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! section_elem {
    ($t:ty, $w:expr, |$v:ident| $put:expr, |$b:ident| $read:expr) => {
        impl SectionElem for $t {
            const WIDTH: usize = $w;
            fn put_le(self, out: &mut Vec<u8>) {
                let $v = self;
                out.extend_from_slice(&$put);
            }
            fn read_le($b: &[u8]) -> Self {
                $read
            }
        }
    };
}

section_elem!(u8, 1, |v| [v], |b| b[0]);
section_elem!(u32, 4, |v| v.to_le_bytes(), |b| u32::from_le_bytes(
    b[..4].try_into().expect("width-checked slice")
));
section_elem!(u64, 8, |v| v.to_le_bytes(), |b| u64::from_le_bytes(
    b[..8].try_into().expect("width-checked slice")
));
section_elem!(i64, 8, |v| v.to_le_bytes(), |b| i64::from_le_bytes(
    b[..8].try_into().expect("width-checked slice")
));
// Floats travel as their raw bit pattern: bit-exact round trips, NaNs and
// signed zeros included.
section_elem!(f32, 4, |v| v.to_bits().to_le_bytes(), |b| f32::from_bits(
    u32::read_le(b)
));
section_elem!(NodeId, 4, |v| v.0.to_le_bytes(), |b| NodeId(u32::read_le(
    b
)));
section_elem!(Symbol, 4, |v| v.0.to_le_bytes(), |b| Symbol(u32::read_le(
    b
)));
section_elem!(CompId, 4, |v| v.0.to_le_bytes(), |b| CompId(u32::read_le(
    b
)));

/// The little-endian byte image of `data`: a zero-copy reinterpretation on
/// little-endian hosts, an element-by-element encode elsewhere.
fn le_image<T: SectionElem>(data: &[T]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: `T: RunElem` guarantees a padding-free plain-old-data
        // layout, and on little-endian hosts the native image *is* the
        // little-endian image.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data))
        })
    } else {
        let mut out = Vec::with_capacity(data.len() * T::WIDTH);
        for &v in data {
            v.put_le(&mut out);
        }
        Cow::Owned(out)
    }
}

/// Decodes a little-endian byte window into owned elements.  `bytes.len()`
/// must be a multiple of `T::WIDTH` (callers validate counts first).
fn decode_elems<T: SectionElem>(bytes: &[u8]) -> Vec<T> {
    bytes.chunks_exact(T::WIDTH).map(T::read_le).collect()
}

/// A borrowed column and the section bytes it becomes.
trait Column {
    fn entries(&self) -> u64;
    fn image(&self) -> Cow<'_, [u8]>;
}

impl<T: SectionElem> Column for &[T] {
    fn entries(&self) -> u64 {
        self.len() as u64
    }
    fn image(&self) -> Cow<'_, [u8]> {
        le_image(self)
    }
}

impl Column for &[&str] {
    fn entries(&self) -> u64 {
        self.len() as u64
    }
    /// A string table: `len + 1` little-endian `u32` offsets into the UTF-8
    /// byte region that follows.
    fn image(&self) -> Cow<'_, [u8]> {
        let mut offsets: Vec<u32> = Vec::with_capacity(self.len() + 1);
        let mut text = Vec::new();
        offsets.push(0);
        for s in self.iter() {
            text.extend_from_slice(s.as_bytes());
            offsets.push(u32::try_from(text.len()).expect("string table under 4 GiB"));
        }
        let mut out = le_image(&offsets).into_owned();
        out.extend_from_slice(&text);
        Cow::Owned(out)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The file being written: sections are appended one at a time, then
/// [`finish`](Self::finish) stamps the TOC and the header.
///
/// Saves are **atomic**: the data streams into a hidden temp file next to
/// the destination and [`finish`](Self::finish) renames it into place, so a
/// crash or error mid-save never leaves a truncated or half-written file at
/// the target path — a previously good snapshot there survives untouched.
/// Dropping an unfinished writer removes the temp file.
struct SnapshotWriter {
    w: BufWriter<File>,
    pos: u64,
    /// The TOC so far: one serialized 32-byte entry per section written.
    toc: Vec<u8>,
    epoch: u64,
    /// Final destination; data streams into `tmp_path` until `finish`
    /// renames it over this.
    dest: PathBuf,
    tmp_path: PathBuf,
    finished: bool,
}

/// A unique hidden sibling of `dest` for in-progress writes (pid + a
/// process-wide counter, so concurrent writers never collide).
fn tmp_sibling(dest: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let name = dest
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_owned());
    dest.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()))
}

impl SnapshotWriter {
    /// Opens a writer targeting `path` and reserves the header.  Nothing
    /// appears at `path` until [`finish`](Self::finish) atomically renames
    /// the finished temp file over it.
    fn create(path: &Path, epoch: u64) -> Result<Self, SnapshotError> {
        let dest = path.to_path_buf();
        let tmp_path = tmp_sibling(&dest);
        let file = File::create(&tmp_path)?;
        let mut w = BufWriter::new(file);
        if let Err(e) = w.write_all(&[0u8; HEADER_LEN as usize]) {
            drop(w);
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e.into());
        }
        Ok(Self {
            w,
            pos: HEADER_LEN,
            toc: Vec::new(),
            epoch,
            dest,
            tmp_path,
            finished: false,
        })
    }

    fn pad_to_alignment(&mut self) -> Result<(), SnapshotError> {
        let rem = self.pos % SECTION_ALIGN;
        if rem != 0 {
            let pad = (SECTION_ALIGN - rem) as usize;
            self.w.write_all(&[0u8; SECTION_ALIGN as usize][..pad])?;
            self.pos += pad as u64;
        }
        Ok(())
    }

    /// Appends one section.
    fn section(&mut self, kind: SectionKind, data: &[u8]) -> Result<(), SnapshotError> {
        self.pad_to_alignment()?;
        self.toc.extend_from_slice(&(kind as u32).to_le_bytes());
        self.toc.extend_from_slice(&crc32(data).to_le_bytes());
        self.toc.extend_from_slice(&self.pos.to_le_bytes());
        self.toc
            .extend_from_slice(&(data.len() as u64).to_le_bytes());
        self.toc.extend_from_slice(&0u64.to_le_bytes()); // reserved
        self.w.write_all(data)?;
        self.pos += data.len() as u64;
        Ok(())
    }

    /// Writes the TOC, seeks back to patch the header, flushes and syncs the
    /// temp file, then atomically renames it over the destination path.
    fn finish(mut self) -> Result<(), SnapshotError> {
        self.pad_to_alignment()?;
        let toc_offset = self.pos;
        self.w.write_all(&self.toc)?;
        let file_len = toc_offset + self.toc.len() as u64;

        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes()); // flags
        header.extend_from_slice(&(self.toc.len() as u64 / TOC_ENTRY_LEN).to_le_bytes());
        header.extend_from_slice(&toc_offset.to_le_bytes());
        header.extend_from_slice(&file_len.to_le_bytes());
        header.extend_from_slice(&self.epoch.to_le_bytes());
        header.extend_from_slice(&crc32(&self.toc).to_le_bytes());
        let hcrc = crc32(&header);
        header.extend_from_slice(&hcrc.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes()); // reserved
        debug_assert_eq!(header.len() as u64, HEADER_LEN);

        self.w.seek(SeekFrom::Start(0))?;
        self.w.write_all(&header)?;
        self.w.flush()?;
        // Durability before visibility: the rename must never publish a file
        // whose pages are still only in the page cache of a dying process.
        self.w.get_ref().sync_all()?;
        std::fs::rename(&self.tmp_path, &self.dest)?;
        self.finished = true;
        Ok(())
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
}

impl<'a> SnapshotColumns<'a> {
    /// Borrows the seven condensation columns from `c`.
    pub fn with_condensation(self, c: &'a Condensation) -> Self {
        Self {
            comp_of: &c.comp_of,
            cyclic: &c.cyclic,
            comp_out_offsets: c.comp_out.offsets_raw(),
            comp_out: c.comp_out.targets_raw(),
            comp_in_offsets: c.comp_in.offsets_raw(),
            comp_in: c.comp_in.targets_raw(),
            topo: &c.topo,
            ..self
        }
    }

    /// The `Meta` counts these columns imply: each word is the length of
    /// the columns whose rule is that word alone.  Every column is then held
    /// to its length rule under those counts, so columns that disagree with
    /// each other are refused here instead of becoming a file no load mode
    /// opens.
    fn counts(&self) -> Result<MetaCounts, SnapshotError> {
        // `Meta` has no column; its rule is `own`, so 0 agrees with itself.
        let entries = |row: &Section| self.column(row.kind).map_or(0, |c| c.entries());
        let mut counts = [0; Count::WORDS];
        for row in TABLE {
            if let Len(Base::Meta(count), 1, 0) = row.len {
                counts[count as usize] = entries(row);
            }
        }
        for row in TABLE {
            let declared = declared_len(row, &counts, entries)?;
            if declared != entries(row) {
                return Err(malformed(format!(
                    "column {} holds {} entries, `{}` implies {declared}",
                    row.name,
                    entries(row),
                    row.len
                )));
            }
        }
        Ok(counts)
    }

    /// Writes the columns to `path` as a `.gtpq` snapshot of epoch `epoch`:
    /// every section of the table in table order, `Meta` computed from the
    /// column lengths ([`SnapshotError::Malformed`] when a column's length
    /// breaks its rule).  The write is atomic — the data streams into a
    /// hidden temp file next to `path` and is renamed over it only once
    /// complete and synced, so a failed write never damages a good file at
    /// `path`.
    pub fn write<P: AsRef<Path>>(&self, path: P, epoch: u64) -> Result<(), SnapshotError> {
        let counts = self.counts()?;
        let mut w = SnapshotWriter::create(path.as_ref(), epoch)?;
        for row in TABLE {
            let image = self
                .column(row.kind)
                .map_or(le_image(&counts), Column::image);
            w.section(row.kind, &image)?;
        }
        w.finish()
    }
}

/// Attribute values in the format's encoding: a tag column and a parallel
/// 64-bit payload column (the `i64` itself, or an index into the string or
/// vector dictionary).
#[derive(Default)]
pub struct ValueColumns {
    /// One tag per value.
    pub tags: Vec<u8>,
    /// One payload per value.
    pub payloads: Vec<u64>,
}

impl ValueColumns {
    /// Empty columns with room for `n` values.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            tags: Vec::with_capacity(n),
            payloads: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, tag: u8, payload: u64) {
        self.tags.push(tag);
        self.payloads.push(payload);
    }

    /// Appends an integer value.
    pub fn push_int(&mut self, value: i64) {
        self.push(TAG_INT, value as u64);
    }

    /// Appends the string with dictionary id `id`.
    pub fn push_str(&mut self, id: usize) {
        self.push(TAG_STR, id as u64);
    }

    /// Appends the vector with dictionary id `id`.
    pub(crate) fn push_vec(&mut self, id: usize) {
        self.push(TAG_VEC, id as u64);
    }
}

// ---------------------------------------------------------------------------
// Saving a graph
// ---------------------------------------------------------------------------

/// Closes the list that `data` has grown by: pushes its new end offset.
fn push_end<T>(offsets: &mut Vec<u32>, data: &[T]) {
    offsets.push(u32::try_from(data.len()).expect("snapshot run overflows u32 offsets"));
}

/// Flattens `g` and `c` into the column set and writes it.
fn write_graph(
    path: &Path,
    epoch: u64,
    g: &DataGraph,
    c: &Condensation,
) -> Result<(), SnapshotError> {
    let symbols: Vec<&str> = g.symbols().iter().map(|(_, s)| s).collect();

    // Attribute tuples: string values are interned into a first-use-order
    // dictionary and vector values into a parallel one (keyed by bit
    // pattern, so NaN payloads dedupe too); each attribute becomes
    // (name symbol, tag, payload).
    let mut dict: HashMap<&[u8], usize> = HashMap::new();
    let mut strings: Vec<&str> = Vec::new();
    let mut vec_dict: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut vec_offsets: Vec<u32> = vec![0];
    let mut vec_data: Vec<f32> = Vec::new();
    let mut attr_offsets: Vec<u32> = Vec::with_capacity(g.node_count() + 1);
    let mut attr_names: Vec<Symbol> = Vec::new();
    let mut attr_values = ValueColumns::default();
    attr_offsets.push(0);
    for tuple in g.attrs.tuples() {
        for a in tuple {
            attr_names.push(a.name);
            match &a.value {
                AttrValue::Int(i) => attr_values.push_int(*i),
                AttrValue::Str(s) => {
                    attr_values.push_str(*dict.entry(s.as_bytes()).or_insert_with(|| {
                        strings.push(s);
                        strings.len() - 1
                    }))
                }
                AttrValue::Vec(v) => {
                    let bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
                    attr_values.push_vec(*vec_dict.entry(bits).or_insert_with(|| {
                        vec_data.extend_from_slice(v);
                        push_end(&mut vec_offsets, &vec_data);
                        vec_offsets.len() - 2
                    }));
                }
            }
        }
        push_end(&mut attr_offsets, &attr_names);
    }

    // Value postings: the slot keys in slot order (the canonical build
    // order, so round-tripping reproduces the index bit-for-bit), each string
    // re-encoded as its id in the dictionary above.
    let idx = &g.index;
    let keys = &idx.value_keys;
    let mut val_values = ValueColumns::with_capacity(keys.len());
    for slot in 0..keys.len() {
        match keys.key(slot) {
            Some(SlotKey::Int(v)) => val_values.push_int(v),
            Some(SlotKey::Str(s)) => val_values.push_str(
                *dict
                    .get(s)
                    .ok_or_else(|| malformed("a value-slot key names no attribute value"))?,
            ),
            None => return Err(malformed("an unreadable value-slot key")),
        }
    }

    // Similarity tables, flattened CSR-style in catalog (symbol) order.  All
    // offsets are in element units.
    let mut sim_syms: Vec<Symbol> = Vec::new();
    let mut sim_dims: Vec<u32> = Vec::new();
    let mut sim_node_offsets: Vec<u32> = vec![0];
    let mut sim_nodes: Vec<NodeId> = Vec::new();
    let mut sim_vec_offsets: Vec<u32> = vec![0];
    let mut sim_vec_data: Vec<f32> = Vec::new();
    let mut sim_pivot_offsets: Vec<u32> = vec![0];
    let mut sim_pivot_data: Vec<f32> = Vec::new();
    let mut sim_dist_offsets: Vec<u32> = vec![0];
    let mut sim_dist_data: Vec<f32> = Vec::new();
    let mut sim_sorted_head: Vec<f32> = Vec::new();
    let mut sim_norm_bounds: Vec<f32> = Vec::new();
    for (sym, table) in g.sims.iter() {
        sim_syms.push(sym);
        sim_dims.push(table.dim);
        sim_nodes.extend_from_slice(&table.nodes);
        sim_vec_data.extend_from_slice(&table.vecs);
        sim_pivot_data.extend_from_slice(&table.pivots);
        sim_dist_data.extend_from_slice(&table.dists);
        sim_sorted_head.extend_from_slice(&table.sorted_d0);
        sim_norm_bounds.extend([table.norm_min, table.norm_max]);
        push_end(&mut sim_node_offsets, &sim_nodes);
        push_end(&mut sim_vec_offsets, &sim_vec_data);
        push_end(&mut sim_pivot_offsets, &sim_pivot_data);
        push_end(&mut sim_dist_offsets, &sim_dist_data);
    }

    SnapshotColumns {
        fwd_offsets: g.fwd.offsets_raw(),
        fwd_targets: g.fwd.targets_raw(),
        rev_offsets: g.rev.offsets_raw(),
        rev_targets: g.rev.targets_raw(),
        symbols: &symbols,
        strings: &strings,
        attr_offsets: &attr_offsets,
        attr_names: &attr_names,
        attr_tags: &attr_values.tags,
        attr_payloads: &attr_values.payloads,
        vec_offsets: &vec_offsets,
        vec_data: &vec_data,
        val_syms: &keys.syms,
        val_tags: &val_values.tags,
        val_payloads: &val_values.payloads,
        val_offsets: &idx.value_offsets,
        val_nodes: &idx.value_nodes,
        name_syms: &idx.name_syms,
        name_offsets: &idx.name_offsets,
        name_nodes: &idx.name_nodes,
        int_syms: &idx.int_syms,
        int_offsets: &idx.int_offsets,
        int_values: &idx.int_values,
        int_nodes: &idx.int_nodes,
        sim_syms: &sim_syms,
        sim_dims: &sim_dims,
        sim_node_offsets: &sim_node_offsets,
        sim_nodes: &sim_nodes,
        sim_vec_offsets: &sim_vec_offsets,
        sim_vec_data: &sim_vec_data,
        sim_pivot_offsets: &sim_pivot_offsets,
        sim_pivot_data: &sim_pivot_data,
        sim_dist_offsets: &sim_dist_offsets,
        sim_dist_data: &sim_dist_data,
        sim_sorted_head: &sim_sorted_head,
        sim_norm_bounds: &sim_norm_bounds,
        ..SnapshotColumns::default()
    }
    .with_condensation(c)
    .write(path, epoch)
}

/// The `(device, inode)` identity of the file at `path`, when it exists.
#[cfg(unix)]
fn file_id_of(path: &Path) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).ok().map(|m| (m.dev(), m.ino()))
}

#[cfg(not(unix))]
fn file_id_of(_path: &Path) -> Option<(u64, u64)> {
    None
}

impl GraphSnapshot {
    /// Serializes this epoch's graph and condensation to `path` as a `.gtpq`
    /// binary snapshot.  Only the *committed* state is written; a live
    /// handle's staged-but-uncommitted operations are not part of a snapshot.
    ///
    /// The save is atomic: data streams into a temp file next to `path`
    /// which is renamed over it only once complete, so a failed save never
    /// corrupts a previously good snapshot at `path`.  Saving onto the file
    /// currently backing this graph's own mapping is refused with
    /// [`SnapshotError::OverwritesMapped`].
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let backing = self
            .graph()
            .backing_file_id()
            .or_else(|| self.condensation().backing_file_id());
        if backing.is_some() && backing == file_id_of(path) {
            return Err(SnapshotError::OverwritesMapped {
                path: path.to_path_buf(),
            });
        }
        write_graph(path, self.epoch(), self.graph(), self.condensation())
    }

    /// Loads a snapshot produced by [`GraphSnapshot::save`] (or the streamed
    /// datagen writer) with the given [`LoadMode`].
    pub fn open<P: AsRef<Path>>(path: P, mode: LoadMode) -> Result<Self, SnapshotError> {
        load_snapshot(path.as_ref(), mode)
    }

    /// Zero-copy open: maps the file and serves the big runs straight from
    /// the mapping.  Equivalent to [`GraphSnapshot::open`] with
    /// [`LoadMode::Mmap`].
    ///
    /// While the returned graph is alive the file must not be truncated or
    /// rewritten in place by another process — a changed page under the
    /// mapping means `SIGBUS` or torn reads (see the
    /// [module docs](crate::snap#external-modification-hazard)).  Replacing
    /// the file atomically via rename (what [`GraphSnapshot::save`] does) is
    /// safe; where in-place modification is possible, use
    /// [`GraphSnapshot::open_heap`] instead.
    pub fn open_mmap<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::open(path, LoadMode::Mmap)
    }

    /// Portable fully-verified open into an aligned heap buffer.  Equivalent
    /// to [`GraphSnapshot::open`] with [`LoadMode::Heap`].
    pub fn open_heap<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::open(path, LoadMode::Heap)
    }
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

struct RawSection {
    offset: usize,
    byte_len: usize,
    crc: u32,
}

struct Loader {
    bytes: Arc<SnapshotBytes>,
    sections: HashMap<u32, RawSection>,
    counts: MetaCounts,
}

impl Loader {
    fn get(&self, kind: SectionKind) -> Option<&RawSection> {
        self.sections.get(&(kind as u32))
    }

    fn window(&self, s: &RawSection) -> &[u8] {
        &self.bytes.as_slice()[s.offset..s.offset + s.byte_len]
    }

    fn check_crc(&self, row: &Section, s: &RawSection) -> Result<(), SnapshotError> {
        if crc32(self.window(s)) != s.crc {
            return Err(SnapshotError::ChecksumMismatch { section: row.name });
        }
        Ok(())
    }

    /// Reads the `Meta` block — the root of the length cross-checks, so it
    /// is verified before anything else looks at a count.
    fn read_meta(&self) -> Result<MetaCounts, SnapshotError> {
        let row = SectionKind::Meta.row();
        let meta = self
            .get(row.kind)
            .ok_or_else(|| malformed("missing section Meta"))?;
        self.check_crc(row, meta)?;
        if meta.byte_len != Count::WORDS * 8 {
            return Err(malformed("Meta section has the wrong length"));
        }
        let words: Vec<u64> = decode_elems(self.window(meta));
        let counts: MetaCounts = words.try_into().expect("length checked above");
        // Every id and offset in the format is a `u32`.
        if counts.iter().any(|&word| word > u32::MAX as u64) {
            return Err(malformed("counts overflow u32 offsets"));
        }
        Ok(counts)
    }

    /// Whole elements in the section of `row` (for one the file does not
    /// carry: in its canonical empty run).
    fn entries(&self, row: &Section) -> u64 {
        match (self.get(row.kind), row.elem) {
            (Some(s), Elem::Ints(_, width)) => (s.byte_len / width) as u64,
            (Some(s), Elem::StringTable) => s.byte_len as u64,
            (None, _) => row.spans.is_some() as u64,
        }
    }

    /// How many entries the table says the section of `row` holds in this
    /// file.
    fn declared_len(&self, row: &Section) -> Result<u64, SnapshotError> {
        declared_len(row, &self.counts, |row| self.entries(row))
    }

    /// Everything that is checked before a run is handed out, one loop per
    /// policy over the section table: checksums (every section in verifying
    /// modes, the [`Check::EveryOpen`] class otherwise; `Meta`'s is already
    /// done), byte lengths against the length rules, and the span check of
    /// every offsets run (its ends always, its monotonicity by the same
    /// class rule as the checksums).  The last two take a section the file
    /// does not carry as its canonical empty run, so whatever the decoder
    /// indexes one run by another's length is there.
    fn verify(&self, verify_all: bool) -> Result<(), SnapshotError> {
        let in_full = |row: &Section| verify_all || row.check == Check::EveryOpen;
        for row in TABLE {
            let Some(s) = self.get(row.kind) else {
                continue;
            };
            if in_full(row) && row.kind != SectionKind::Meta {
                self.check_crc(row, s)?;
            }
        }
        for row in TABLE {
            let entries = self.declared_len(row)?;
            let Some(s) = self.get(row.kind) else {
                // Only an addition after version 1 may be left out, and only
                // where the rule asks for exactly the empty run.
                if row.since > 1 && entries == self.entries(row) {
                    continue;
                }
                return Err(malformed(format!("missing section {}", row.name)));
            };
            let byte_len = s.byte_len as u64;
            let fits = match row.elem {
                Elem::Ints(_, width) => entries.checked_mul(width as u64) == Some(byte_len),
                // At least the offsets; the text length is the span check's.
                Elem::StringTable => entries
                    .checked_add(1)
                    .and_then(|n| n.checked_mul(4))
                    .is_some_and(|head| head <= byte_len),
            };
            if !fits {
                return Err(malformed(format!(
                    "section {} holds {byte_len} bytes, `{}` implies {entries} entries",
                    row.name, row.len
                )));
            }
        }
        for row in TABLE {
            if let Some(target) = row.spans {
                let offsets = IntRun::<u32>::load(self, row)?;
                let targets = self.entries(target.row());
                check_offsets_span(&offsets, targets, row.name, in_full(row))?;
            }
            // A string table is an offsets run over its own text, and its
            // entries must be text.
            if let Elem::StringTable = row.elem {
                let dict = StrDict::load(self, row)?;
                check_offsets_span(
                    &dict.offsets,
                    dict.text.len() as u64,
                    row.name,
                    in_full(row),
                )?;
                if in_full(row) {
                    examined(dict.text.len());
                    if (0..dict.len() as u64).any(|id| dict.get(id).is_none()) {
                        return Err(malformed(format!("{} is not UTF-8", row.name)));
                    }
                }
            }
        }
        Ok(())
    }
}

/// How a row's section becomes the run its consumer gets; its length has
/// been checked against the table by [`Loader::verify`].
trait Load: Sized {
    fn load(l: &Loader, row: &Section) -> Result<Self, SnapshotError>;
}

impl<T: SectionElem> Load for IntRun<T> {
    /// Borrows the shared buffer (decoding into an owned run on hosts that
    /// cannot reinterpret, e.g. big-endian).  A section the file does not
    /// carry reads as its canonical empty run.
    fn load(l: &Loader, row: &Section) -> Result<Self, SnapshotError> {
        let Some(s) = l.get(row.kind) else {
            return Ok(vec![T::read_le(&[0; 8]); l.entries(row) as usize].into());
        };
        Ok(
            IntRun::from_bytes(&l.bytes, s.offset, s.byte_len / T::WIDTH)
                // Portable decode path (big-endian hosts, or misaligned legacy
                // files): never reinterprets, always copies.
                .unwrap_or_else(|| decode_elems::<T>(l.window(s)).into()),
        )
    }
}

impl Load for StrDict {
    /// Borrows the offsets and the text of a string table in place, like an
    /// [`IntRun`] pair; that the offsets cut the text is
    /// [`Loader::verify`]'s check.
    fn load(l: &Loader, row: &Section) -> Result<Self, SnapshotError> {
        let Some(s) = l.get(row.kind) else {
            return Ok(StrDict::from_strs([]));
        };
        // `verify` has held the offsets to fit in the section.
        let (entries, window) = (l.declared_len(row)? as usize + 1, l.window(s));
        let (head, text) = window.split_at(entries * 4);
        Ok(StrDict {
            offsets: IntRun::from_bytes(&l.bytes, s.offset, entries)
                .unwrap_or_else(|| decode_elems::<u32>(head).into()),
            text: IntRun::from_bytes(&l.bytes, s.offset + head.len(), text.len())
                .unwrap_or_else(|| text.to_vec().into()),
        })
    }
}

/// Validates an offsets run.  Its two ends — leading `0`, final value equal
/// to the target count — are checked at every open (O(1), one page each).
/// `scan` adds the linear monotonicity pass that, together with the ends,
/// bounds every `lo..hi` window inside the target run: it is on for the runs
/// the decoder slices at open and under the verifying load modes.  A mapped
/// run that plain [`LoadMode::Mmap`] leaves unscanned is read through
/// [`crate::run::window`] only, so a corrupt middle offset surfaces as an
/// empty run at query time, never as a panic.
fn check_offsets_span(
    offsets: &[u32],
    targets: u64,
    what: &'static str,
    scan: bool,
) -> Result<(), SnapshotError> {
    let first = offsets.first().copied().unwrap_or(u32::MAX);
    let last = offsets.last().copied().unwrap_or(u32::MAX);
    if first != 0 || last as u64 != targets {
        return Err(malformed(format!("{what} does not span its target run")));
    }
    if scan {
        examined(offsets.len());
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(malformed(format!("{what} is non-monotone")));
        }
    }
    Ok(())
}

#[cfg(test)]
thread_local! {
    /// Bytes checksummed plus offsets entries scanned by this thread's
    /// loads: the part of an open's work that can grow with the graph.
    static EXAMINED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts `n` more bytes or entries examined (tests only).
#[inline]
fn examined(_n: usize) {
    #[cfg(test)]
    EXAMINED.with(|total| total.set(total.get() + _n as u64));
}

/// [`crate::run::crc32`], counted.
fn crc32(data: &[u8]) -> u32 {
    examined(data.len());
    crate::run::crc32(data)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("in-bounds header read"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("in-bounds header read"))
}

fn load_snapshot(path: &Path, mode: LoadMode) -> Result<GraphSnapshot, SnapshotError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let bytes: Arc<SnapshotBytes> = match mode {
        LoadMode::Heap => Arc::new(read_to_heap(&mut file, file_len)?),
        LoadMode::Mmap => {
            #[cfg(all(unix, target_pointer_width = "64"))]
            {
                match crate::run::MmapFile::map(&file, file_len as usize) {
                    Some(m) => Arc::new(SnapshotBytes::Mmap(m)),
                    None => Arc::new(read_to_heap(&mut file, file_len)?),
                }
            }
            #[cfg(not(all(unix, target_pointer_width = "64")))]
            {
                Arc::new(read_to_heap(&mut file, file_len)?)
            }
        }
    };
    let verify_all = match mode {
        LoadMode::Mmap => !bytes.is_mmap(), // heap fallback is read fully anyway
        LoadMode::Heap => true,
    };
    load_from_bytes(bytes, verify_all)
}

fn read_to_heap(file: &mut File, file_len: u64) -> Result<SnapshotBytes, SnapshotError> {
    let mut data = Vec::with_capacity(usize::try_from(file_len).unwrap_or(0));
    file.read_to_end(&mut data)?;
    Ok(SnapshotBytes::Heap(AlignedBytes::copy_from(&data)))
}

fn load_from_bytes(
    bytes: Arc<SnapshotBytes>,
    verify_all: bool,
) -> Result<GraphSnapshot, SnapshotError> {
    let data = bytes.as_slice();
    let file_len = data.len() as u64;
    if file_len < HEADER_LEN {
        return Err(SnapshotError::Truncated { what: "header" });
    }
    if data[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = read_u32(data, 8);
    if !(1..=FORMAT_VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let header_crc = read_u32(data, 52);
    if crc32(&data[..52]) != header_crc {
        return Err(SnapshotError::ChecksumMismatch { section: "header" });
    }
    let section_count = read_u64(data, 16);
    let toc_offset = read_u64(data, 24);
    let declared_len = read_u64(data, 32);
    let epoch = read_u64(data, 40);
    let toc_crc = read_u32(data, 48);
    if declared_len != file_len {
        return Err(SnapshotError::Truncated { what: "file body" });
    }
    if section_count > MAX_SECTIONS {
        return Err(malformed(format!("absurd section count {section_count}")));
    }
    let toc_len = section_count * TOC_ENTRY_LEN;
    if toc_offset < HEADER_LEN
        || toc_offset
            .checked_add(toc_len)
            .is_none_or(|end| end > file_len)
    {
        return Err(SnapshotError::Truncated { what: "TOC" });
    }
    let toc_bytes = &data[toc_offset as usize..(toc_offset + toc_len) as usize];
    if crc32(toc_bytes) != toc_crc {
        return Err(SnapshotError::ChecksumMismatch { section: "TOC" });
    }

    let mut sections: HashMap<u32, RawSection> = HashMap::new();
    for entry in toc_bytes.chunks_exact(TOC_ENTRY_LEN as usize) {
        let kind = read_u32(entry, 0);
        let crc = read_u32(entry, 4);
        let offset = read_u64(entry, 8);
        let byte_len = read_u64(entry, 16);
        if !offset.is_multiple_of(SECTION_ALIGN)
            || offset < HEADER_LEN
            || offset
                .checked_add(byte_len)
                .is_none_or(|end| end > file_len)
        {
            return Err(SnapshotError::Truncated { what: "section" });
        }
        if !TABLE.iter().any(|row| row.kind as u32 == kind) {
            continue; // forward compatibility: skip unknown sections
        }
        let prev = sections.insert(
            kind,
            RawSection {
                offset: offset as usize,
                byte_len: byte_len as usize,
                crc,
            },
        );
        if prev.is_some() {
            return Err(malformed(format!("duplicate section kind {kind}")));
        }
    }

    let mut loader = Loader {
        bytes: Arc::clone(&bytes),
        sections,
        counts: [0; Count::WORDS],
    };
    loader.counts = loader.read_meta()?;
    loader.verify(verify_all)?;
    let graph = decode(Runs::load(&loader)?, verify_all)?;
    Ok(GraphSnapshot::new(epoch, Arc::new(graph)))
}

/// Assembles the graph, its stored condensation installed, from verified
/// runs.  What is decoded here is what the open owns (symbol table, key
/// dictionaries, per-table windows); every other run moves into its
/// structure as is.
fn decode(r: Runs, verify_all: bool) -> Result<DataGraph, SnapshotError> {
    let nodes = r.comp_of.len();

    // Symbol table: rebuilt owned (the lookup map cannot be mapped).  Every
    // entry is text: the section is in the every-open class.
    let mut symbols = SymbolTable::new();
    for id in 0..r.symbols.len() as u64 {
        symbols.intern(
            r.symbols
                .get(id)
                .ok_or_else(|| malformed("Symbols is not UTF-8"))?,
        );
    }
    let sym_count = symbols.len();
    if sym_count != r.symbols.len() {
        return Err(malformed("Symbols: duplicate interned name"));
    }
    let known = |sym: Symbol, what: &str| {
        if sym.index() < sym_count {
            Ok(sym)
        } else {
            Err(malformed(format!("{what} symbol out of range")))
        }
    };

    // Value postings: the slot keys, offsets and node lists all stay
    // mapped, and a probe binary-searches the keys in place.  Verifying
    // modes hold the keys to what the search needs — readable and strictly
    // ascending; under plain mmap a damaged key only makes its probe miss.
    let value_keys = SlotKeys {
        syms: r.val_syms,
        tags: r.val_tags,
        payloads: r.val_payloads,
        strings: r.strings.clone(),
    };
    if verify_all {
        let mut prev = None;
        for slot in 0..value_keys.len() {
            let sym = known(value_keys.syms[slot], "value-slot")?;
            let key = match value_keys.tags[slot] {
                TAG_INT | TAG_STR => value_keys
                    .key(slot)
                    .ok_or_else(|| malformed("value-slot string id out of dictionary range"))?,
                other => return Err(malformed(format!("unknown value-slot tag {other}"))),
            };
            if prev.is_some_and(|prev| prev >= (sym, key)) {
                return Err(malformed("value-slot keys are not strictly ascending"));
            }
            prev = Some((sym, key));
        }
    }
    // Name postings and integer runs: the symbol columns stay mapped too,
    // and a probe binary-searches them, so every open holds them to what
    // the search needs — in range and strictly ascending.
    for (syms, what) in [(&r.name_syms, "name-slot"), (&r.int_syms, "int-run")] {
        if let Some(&last) = syms.last() {
            known(last, what)?;
        }
        if syms.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(malformed(format!(
                "{what} symbols are not strictly ascending"
            )));
        }
    }

    // Similarity tables: each is re-validated through
    // `SimTable::from_parts`, so incoherent spans in a damaged file surface
    // as `Malformed`, never a panic.
    let mut tables: BTreeMap<Symbol, SimTable> = BTreeMap::new();
    for (i, &sym) in r.sim_syms.iter().enumerate() {
        let span = |offsets: &[u32]| offsets[i] as usize..offsets[i + 1] as usize;
        let table_nodes = r.sim_nodes.slice(span(&r.sim_node_offsets));
        if table_nodes.iter().any(|v| v.index() >= nodes) {
            return Err(malformed("sim-table node id out of range"));
        }
        let table = SimTable::from_parts(
            r.sim_dims[i],
            table_nodes,
            r.sim_vec_data.slice(span(&r.sim_vec_offsets)),
            r.sim_pivot_data.slice(span(&r.sim_pivot_offsets)),
            r.sim_dist_data.slice(span(&r.sim_dist_offsets)),
            r.sim_sorted_head.slice(span(&r.sim_node_offsets)),
            r.sim_norm_bounds[2 * i],
            r.sim_norm_bounds[2 * i + 1],
        )
        .ok_or_else(|| malformed(format!("sim table {i} has incoherent spans")))?;
        if tables.insert(known(sym, "sim-table")?, table).is_some() {
            return Err(malformed("duplicate sim-table symbol"));
        }
    }

    // Attribute tuples: the four columns stay mapped and decode into owned
    // `Attribute`s only on first per-node access (see `AttrTuples`), so a
    // plain-mmap open never pays the per-node allocations, string clones or
    // even the page faults of these sections.  Verifying modes validate
    // every entry field by field up front — allocation-free — so a file
    // that passes a verified load can never decode wrongly later; plain
    // mmap keeps only the span check and relies on the defensive
    // access-time decode.
    let vectors = VecDict {
        offsets: r.vec_offsets,
        data: r.vec_data,
    };
    if verify_all {
        if r.attr_names.iter().any(|name| name.index() >= sym_count) {
            return Err(malformed("attribute name symbol out of range"));
        }
        for (&tag, &payload) in r.attr_tags.iter().zip(r.attr_payloads.iter()) {
            let dict_len = match tag {
                TAG_INT => continue,
                TAG_STR => r.strings.len(),
                TAG_VEC => vectors.len(),
                other => return Err(malformed(format!("unknown attribute value tag {other}"))),
            };
            if !usize::try_from(payload).is_ok_and(|id| id < dict_len) {
                return Err(malformed("attribute payload out of dictionary range"));
            }
        }
    }

    let condensation = Condensation {
        comp_of: r.comp_of,
        cyclic: r.cyclic,
        comp_out: Csr::from_parts(r.comp_out_offsets, r.comp_out),
        comp_in: Csr::from_parts(r.comp_in_offsets, r.comp_in),
        topo: r.topo,
    };
    Ok(DataGraph {
        symbols,
        edge_count: r.fwd_targets.len(),
        fwd: Csr::from_parts(r.fwd_offsets, r.fwd_targets),
        rev: Csr::from_parts(r.rev_offsets, r.rev_targets),
        attrs: AttrTuples::from_columns(
            nodes,
            AttrColumns {
                offsets: r.attr_offsets,
                names: r.attr_names,
                tags: r.attr_tags,
                payloads: r.attr_payloads,
                strings: r.strings,
                vectors: Arc::new(vectors),
            },
        ),
        index: AttrIndex {
            value_keys,
            value_offsets: r.val_offsets,
            value_nodes: r.val_nodes,
            name_syms: r.name_syms,
            name_offsets: r.name_offsets,
            name_nodes: r.name_nodes,
            int_syms: r.int_syms,
            int_offsets: r.int_offsets,
            int_values: r.int_values,
            int_nodes: r.int_nodes,
        },
        sims: SimCatalog::from_tables(tables),
        condensation: Arc::new(condensation).into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::mutate::GraphHandle;
    use crate::LABEL_ATTR;

    fn sample_snapshot() -> GraphSnapshot {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("paper");
        let x = b.add_node_with_label("paper");
        let y = b.add_node_with_label("author");
        b.set_attr(a, "year", AttrValue::int(2001));
        b.set_attr(x, "year", AttrValue::int(2005));
        b.set_attr(y, "name", AttrValue::str("knuth"));
        b.add_edge(a, x);
        b.add_edge(x, y);
        b.add_edge(a, y);
        GraphSnapshot::freeze(Arc::new(b.build()))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gtpq-snap-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn the_section_table_is_coherent() {
        for (i, row) in TABLE.iter().enumerate() {
            assert!(
                TABLE[..i].iter().all(|r| r.kind as u32 != row.kind as u32),
                "{}: duplicate on-disk id",
                row.name
            );
            if row.spans.is_some() {
                assert!(
                    matches!(row.elem, Elem::Ints("u32", 4)),
                    "{}: offsets runs are u32",
                    row.name
                );
            }
        }
        // `SnapshotColumns::counts` can only fill a `Meta` word that some
        // column's rule names bare.
        for word in 0..Count::WORDS {
            let defined = TABLE
                .iter()
                .any(|row| matches!(row.len, Len(Base::Meta(c), 1, 0) if c as usize == word));
            assert!(defined, "no column defines Meta word {word}");
        }
    }

    #[test]
    fn round_trips_through_all_modes() {
        let snap = sample_snapshot();
        let path = tmp("roundtrip.gtpq");
        snap.save(&path).unwrap();
        for mode in [LoadMode::Mmap, LoadMode::Heap] {
            let loaded = GraphSnapshot::open(&path, mode).unwrap();
            assert_eq!(loaded.epoch(), snap.epoch());
            assert_eq!(loaded.graph(), snap.graph());
            assert_eq!(loaded.condensation(), snap.condensation());
            assert_eq!(
                loaded
                    .graph()
                    .nodes_with(LABEL_ATTR, &AttrValue::str("paper")),
                snap.graph()
                    .nodes_with(LABEL_ATTR, &AttrValue::str("paper")),
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn vector_attributes_and_sim_tables_round_trip() {
        let mut b = GraphBuilder::new();
        for i in 0..12u32 {
            let v = b.add_node_with_label("doc");
            let emb: Vec<f32> = (0..4).map(|j| (i * 4 + j) as f32 * 0.25 - 1.0).collect();
            b.set_attr(v, "emb", AttrValue::Vec(emb));
        }
        // A shared vector value exercises the dictionary dedup, and an
        // off-dimension one the modal-dim fallback.
        let dup = b.add_node_with_label("doc");
        b.set_attr(dup, "emb", AttrValue::Vec(vec![0.0, 0.25, 0.5, 0.75]));
        let odd = b.add_node_with_label("doc");
        b.set_attr(odd, "emb", AttrValue::Vec(vec![1.0, 2.0]));
        let snap = GraphSnapshot::freeze(Arc::new(b.build()));
        assert_eq!(snap.graph().sim_table("emb").map(|t| t.len()), Some(13));

        let path = tmp("vectors.gtpq");
        snap.save(&path).unwrap();
        for mode in [LoadMode::Mmap, LoadMode::Heap] {
            let loaded = GraphSnapshot::open(&path, mode).unwrap();
            assert_eq!(loaded.graph(), snap.graph(), "mode {mode:?}");
            let table = loaded.graph().sim_table("emb").unwrap();
            let q = [0.0f32, 0.25, 0.5, 0.75];
            assert_eq!(
                table.within_l2(&q, 0.3, true),
                snap.graph()
                    .sim_table("emb")
                    .unwrap()
                    .within_l2(&q, 0.3, true),
            );
            assert_eq!(
                loaded.graph().attribute_value(odd, "emb"),
                Some(&AttrValue::Vec(vec![1.0, 2.0]))
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Holds `nodes_eq` and `distinct_values` of `g` to a linear
    /// scan of its tuples, on every key present and on `absent` probes.
    fn probes_agree_with_a_scan(g: &DataGraph, absent: &[(&str, AttrValue)], case: &str) {
        let index = g.attr_index();
        let present = g.nodes().flat_map(|v| {
            g.attributes(v).iter().map(|a| {
                let name = g.symbols().iter().find(|&(sym, _)| sym == a.name);
                (name.expect("interned").1, a.value.clone())
            })
        });
        let present: Vec<(&str, AttrValue)> = present.collect();
        for (name, value) in present.iter().chain(absent) {
            let sym = g.symbols().get(name).unwrap();
            let indexed = !matches!(value, AttrValue::Vec(_));
            let scan: Vec<NodeId> = g
                .nodes()
                .filter(|&v| indexed && g.attribute_value(v, name) == Some(value))
                .collect();
            assert_eq!(index.nodes_eq(sym, value), scan, "{case}: {name} = {value}");
        }
        for (sym, name) in g.symbols().iter() {
            let values: std::collections::HashSet<&AttrValue> = present
                .iter()
                .filter(|(n, v)| *n == name && !matches!(v, AttrValue::Vec(_)))
                .map(|(_, v)| v)
                .collect();
            assert_eq!(index.distinct_values(sym), values.len(), "{case}: {name}");
        }
    }

    #[test]
    fn equality_probes_agree_with_a_scan_of_the_tuples() {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..12)
            .map(|i| b.add_node_with_label(["b", "d", "f"][i % 3]))
            .collect();
        for (i, &v) in nodes.iter().enumerate() {
            b.set_attr(v, "year", AttrValue::int(10 * (i % 4) as i64 - 10));
            // One attribute with ints and strings: ints come first in its
            // slots.
            let mixed = if i % 2 == 0 {
                AttrValue::int(i as i64)
            } else {
                AttrValue::str(&format!("m{}", i % 5))
            };
            b.set_attr(v, "mixed", mixed);
            b.set_attr(v, "emb", AttrValue::Vec(vec![i as f32, 1.0]));
        }
        let absent = [
            (LABEL_ATTR, AttrValue::str("a")),
            (LABEL_ATTR, AttrValue::str("c")),
            (LABEL_ATTR, AttrValue::str("z")),
            (LABEL_ATTR, AttrValue::str("")),
            (LABEL_ATTR, AttrValue::int(5)),
            ("year", AttrValue::int(-11)),
            ("year", AttrValue::int(15)),
            ("year", AttrValue::int(21)),
            ("year", AttrValue::str("10")),
            ("mixed", AttrValue::int(3)),
            ("mixed", AttrValue::int(-1)),
            ("mixed", AttrValue::int(100)),
            ("mixed", AttrValue::str("m")),
            ("mixed", AttrValue::str("m9")),
            ("emb", AttrValue::Vec(vec![0.0, 1.0])),
            ("emb", AttrValue::int(0)),
        ];
        let snap = GraphSnapshot::freeze(Arc::new(b.build()));
        probes_agree_with_a_scan(snap.graph(), &absent, "heap build");

        let path = tmp("probe-oracle.gtpq");
        snap.save(&path).unwrap();
        for mode in [LoadMode::Mmap, LoadMode::Heap] {
            let loaded = GraphSnapshot::open(&path, mode).unwrap();
            probes_agree_with_a_scan(loaded.graph(), &absent, &format!("{mode:?}"));
        }

        // A commit over a mapped base: keys change, leave and arrive.
        let handle = GraphHandle::from_snapshot(GraphSnapshot::open_mmap(&path).unwrap());
        handle.set_attr(nodes[0], LABEL_ATTR, AttrValue::str("c"));
        handle.set_attr(nodes[3], LABEL_ATTR, AttrValue::str("c"));
        handle.set_attr(nodes[1], "mixed", AttrValue::int(3));
        handle.set_attr(nodes[2], "year", AttrValue::str("ten"));
        let fresh = handle.insert_node_with_label("a");
        handle.set_attr(fresh, "mixed", AttrValue::str("m"));
        let committed = handle.commit();
        let absent = [
            (LABEL_ATTR, AttrValue::str("e")),
            (LABEL_ATTR, AttrValue::str("zz")),
            ("year", AttrValue::str("nine")),
            ("mixed", AttrValue::int(4)),
            ("emb", AttrValue::Vec(vec![0.0, 1.0])),
        ];
        probes_agree_with_a_scan(committed.graph(), &absent, "commit over a mapped base");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_runs_borrow_the_file() {
        let snap = sample_snapshot();
        let path = tmp("borrowed.gtpq");
        snap.save(&path).unwrap();
        let loaded = GraphSnapshot::open_mmap(&path).unwrap();
        // The CSR target run of a loaded graph is a mapped view, not a copy
        // (on any platform: the heap fallback also shares its buffer).
        assert!(loaded.graph().fwd.targets_raw().len() == 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_is_atomic_and_an_abandoned_writer_cleans_up() {
        let snap = sample_snapshot();
        // A private directory: the leftover scan below must not observe
        // other tests' in-flight temp files.
        let dir = std::env::temp_dir().join("gtpq-snap-unit-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.gtpq");
        snap.save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // A writer that dies mid-save must leave the good file untouched and
        // remove its temp sibling.
        {
            let mut w = SnapshotWriter::create(&path, 7).unwrap();
            w.section(SectionKind::FwdOffsets, &[0u8; 8]).unwrap();
            // dropped without finish()
        }
        assert_eq!(std::fs::read(&path).unwrap(), pristine);
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );

        // A completed save over an existing file replaces it wholesale.
        snap.save(&path).unwrap();
        GraphSnapshot::open_heap(&path).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refuses_to_save_onto_the_file_backing_its_own_mapping() {
        let snap = sample_snapshot();
        let path = tmp("self-save.gtpq");
        snap.save(&path).unwrap();
        let loaded = GraphSnapshot::open_mmap(&path).unwrap();
        if loaded.graph().backing_file_id().is_none() {
            // Mapping unavailable on this platform: nothing to protect.
            let _ = std::fs::remove_file(&path);
            return;
        }
        assert!(matches!(
            loaded.save(&path),
            Err(SnapshotError::OverwritesMapped { .. })
        ));
        // The refusal leaves the file and the live mapping fully intact.
        assert_eq!(loaded.graph(), snap.graph());
        GraphSnapshot::open_heap(&path).unwrap();
        // A different target is fine, even while the mapping is alive.
        let other = tmp("self-save-other.gtpq");
        loaded.save(&other).unwrap();
        GraphSnapshot::open_heap(&other).unwrap();
        // A heap load borrows nothing, so overwriting its source is allowed.
        let heap = GraphSnapshot::open_heap(&path).unwrap();
        heap.save(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&other);
    }

    /// The TOC as a reader sees it: `(entry position, kind id, section
    /// offset, section byte length)` per section, in file order.
    fn toc(bytes: &[u8]) -> Vec<(usize, u32, usize, usize)> {
        let section_count = read_u64(bytes, 16) as usize;
        let toc_offset = read_u64(bytes, 24) as usize;
        (0..section_count)
            .map(|i| toc_offset + i * TOC_ENTRY_LEN as usize)
            .map(|at| {
                let offset = read_u64(bytes, at + 8) as usize;
                let len = read_u64(bytes, at + 16) as usize;
                (at, read_u32(bytes, at), offset, len)
            })
            .collect()
    }

    /// The file offset of `kind`'s section data.
    fn section_offset(bytes: &[u8], kind: SectionKind) -> usize {
        let entry = toc(bytes).into_iter().find(|e| e.1 == kind as u32);
        entry
            .unwrap_or_else(|| panic!("section {kind:?} not found"))
            .2
    }

    /// Rewrites every section CRC, the TOC CRC and the header CRC to match
    /// the (patched) bytes, so the file is *hostile* — internally consistent,
    /// every checksum green — rather than merely damaged.
    fn restamp(bytes: &mut [u8]) {
        let entries = toc(bytes);
        for &(at, _, offset, len) in &entries {
            let crc = crc32(&bytes[offset..offset + len]);
            bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        }
        let toc_start = read_u64(bytes, 24) as usize;
        let toc_end = toc_start + entries.len() * TOC_ENTRY_LEN as usize;
        let toc_crc = crc32(&bytes[toc_start..toc_end]);
        bytes[48..52].copy_from_slice(&toc_crc.to_le_bytes());
        let header_crc = crc32(&bytes[..52]);
        bytes[52..56].copy_from_slice(&header_crc.to_le_bytes());
    }

    /// Ints of two attributes, strings, a shared and an off-dimension
    /// vector, and a back edge.
    fn hostile_base() -> GraphSnapshot {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..6).map(|_| b.add_node_with_label("doc")).collect();
        for (i, &v) in nodes.iter().enumerate() {
            b.set_attr(v, "year", AttrValue::int(1990 + i as i64));
            b.set_attr(v, "name", AttrValue::str(&format!("n{}", i % 3)));
            let emb = vec![i as f32 * 0.5, 1.0, -0.25 * (i / 2) as f32];
            b.set_attr(v, "emb", AttrValue::Vec(emb));
            if i % 2 == 0 {
                b.set_attr(v, "rank", AttrValue::int(i as i64));
            }
        }
        b.set_attr(nodes[5], "emb", AttrValue::Vec(vec![0.0, 1.0, 0.0]));
        b.set_attr(nodes[4], "emb", AttrValue::Vec(vec![2.0, 2.0]));
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.add_edge(nodes[3], nodes[1]);
        GraphSnapshot::freeze(Arc::new(b.build()))
    }

    /// [`touch`], then one epoch committed over the loaded graph, which
    /// merges into its CSR and index, and `touch` again on what that
    /// produced.  For files whose *offsets* are damaged: a commit copies the
    /// content of the big runs, so it is only as sound as they are.
    fn walk(snap: &GraphSnapshot) {
        touch(snap);
        let n = snap.graph().node_count() as u32;
        let handle = GraphHandle::from_snapshot(snap.clone());
        let fresh = handle.insert_node_with_label("doc");
        for v in 0..n {
            handle.set_attr(NodeId(v), "year", AttrValue::int(7));
            handle.insert_edge(NodeId(v), fresh);
        }
        if n > 1 {
            handle.insert_edge(NodeId(0), NodeId(n - 1));
        }
        touch(&handle.commit());
    }

    /// Touches every slice-served accessor of a loaded graph.
    fn touch(snap: &GraphSnapshot) {
        let g = snap.graph();
        for v in g.nodes() {
            assert_eq!(g.children(v).len(), g.out_degree(v));
            assert_eq!(g.parents(v).len(), g.in_degree(v));
            let _ = g.attributes(v);
        }
        let _ = g.nodes_with(LABEL_ATTR, &AttrValue::str("doc"));
        let _ = g.nodes_with("year", &AttrValue::int(1991));
        let index = g.attr_index();
        for (sym, value) in index.value_keys.values().flatten() {
            let _ = index.nodes_eq(sym, &value);
            let _ = index.distinct_values(sym);
            let _ = index.nodes_with_name(sym);
        }
        if let Some(table) = g.sim_table("emb") {
            let probe = vec![0.5f32; table.dim()];
            let _ = table.within_l2(&probe, 1.5, true);
        }
        let cond = snap.condensation();
        for c in (0..cond.component_count()).map(|c| CompId(c as u32)) {
            let _ = cond.successors(c);
            let _ = cond.predecessors(c);
        }
    }

    /// The mapped offsets runs a plain-`Mmap` open does not scan.
    fn unscanned_offsets_rows() -> Vec<&'static Section> {
        let rows: Vec<_> = TABLE
            .iter()
            .filter(|row| row.spans.is_some() && row.check == Check::Verifying)
            .collect();
        assert_eq!(rows.len(), 7);
        rows
    }

    /// The offsets run of `row` as `good` stores it.
    fn stored_offsets(good: &[u8], row: &Section) -> Vec<u32> {
        let (_, _, offset, len) = toc(good)
            .into_iter()
            .find(|e| e.1 == row.kind as u32)
            .unwrap_or_else(|| panic!("section {} not found", row.name));
        decode_elems(&good[offset..offset + len])
    }

    /// `good` with entry `index` of `row`'s offsets run set to `value`,
    /// every checksum re-stamped.
    fn stomp(good: &[u8], row: &Section, index: usize, value: u32) -> Vec<u8> {
        let at = section_offset(good, row.kind) + 4 * index;
        let mut bytes = good.to_vec();
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        restamp(&mut bytes);
        bytes
    }

    /// Every way to damage one *middle* entry of an unscanned offsets run
    /// that the two end checks cannot see: `(row, index, value)` with the
    /// value past every target (`0xFFFF_FFFF`) or in range but out of order.
    fn middle_stomps(good: &[u8]) -> Vec<(&'static Section, usize, u32)> {
        let mut stomps = Vec::new();
        for row in unscanned_offsets_rows() {
            let offsets = stored_offsets(good, row);
            let last = *offsets.last().unwrap();
            let mut in_range = 0;
            for i in 1..offsets.len() - 1 {
                stomps.push((row, i, u32::MAX));
                if offsets[i - 1] > 0 {
                    stomps.push((row, i, offsets[i - 1] - 1));
                    in_range += 1;
                }
                if offsets[i + 1] < last {
                    stomps.push((row, i, offsets[i + 1] + 1));
                    in_range += 1;
                }
            }
            assert!(in_range > 0, "{}: no in-range stomp", row.name);
        }
        stomps
    }

    /// How long each run behind `kind`'s offsets reads through the public
    /// accessors of a loaded graph.
    fn run_lens(snap: &GraphSnapshot, kind: SectionKind) -> Vec<usize> {
        let g = snap.graph();
        let cond = snap.condensation();
        let comps = || (0..cond.component_count()).map(|c| CompId(c as u32));
        match kind {
            SectionKind::FwdOffsets => g.nodes().map(|v| g.out_degree(v)).collect(),
            SectionKind::RevOffsets => g.nodes().map(|v| g.in_degree(v)).collect(),
            SectionKind::AttrOffsets => g.nodes().map(|v| g.attributes(v).len()).collect(),
            SectionKind::ValOffsets => {
                let index = g.attr_index();
                let keys = index
                    .value_keys
                    .values()
                    .map(|key| key.expect("an honest key"));
                keys.map(|(sym, value)| index.nodes_eq(sym, &value).len())
                    .collect()
            }
            SectionKind::NameOffsets => {
                let index = g.attr_index();
                let syms = index.name_syms.iter();
                syms.map(|&sym| index.nodes_with_name(sym).len()).collect()
            }
            SectionKind::CompOutOffsets => comps().map(|c| cond.successors(c).len()).collect(),
            SectionKind::CompInOffsets => comps().map(|c| cond.predecessors(c).len()).collect(),
            other => panic!("{other:?} is not an unscanned offsets run"),
        }
    }

    #[test]
    fn a_corrupt_middle_offset_opens_under_plain_mmap_and_reads_as_an_empty_run() {
        let path = tmp("bad-offsets.gtpq");
        hostile_base().save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let pristine = GraphSnapshot::open_heap(&path).unwrap();

        for (row, index, value) in middle_stomps(&good) {
            let case = format!("{}[{index}] = {value:#x}", row.name);
            std::fs::write(&path, stomp(&good, row, index, value)).unwrap();

            // Plain mmap opens it; the run on the wrong side of the damaged
            // entry (both sides, when it points past every target) reads
            // empty, every run away from it reads what the file holds, and
            // no accessor — nor a commit over the mapped graph — panics.
            let loaded = GraphSnapshot::open_mmap(&path)
                .unwrap_or_else(|e| panic!("{case} refused under plain mmap: {e}"));
            let offsets = stored_offsets(&good, row);
            let lens = run_lens(&loaded, row.kind);
            let want = run_lens(&pristine, row.kind);
            for (run, (&got, &want)) in lens.iter().zip(&want).enumerate() {
                if run + 1 == index {
                    let reads_empty = value < offsets[index - 1] || value == u32::MAX;
                    assert!(!reads_empty || got == 0, "{case}: run {run} reads {got}");
                } else if run == index {
                    let reads_empty = value > offsets[index + 1];
                    assert!(!reads_empty || got == 0, "{case}: run {run} reads {got}");
                } else {
                    assert_eq!(got, want, "{case}: run {run}");
                }
            }
            walk(&loaded);

            // A verifying open scans the run and names it.
            match GraphSnapshot::open_heap(&path) {
                Err(SnapshotError::Malformed { what }) => assert_eq!(
                    what,
                    format!("{} is non-monotone", row.name),
                    "{case} under Heap"
                ),
                other => panic!("{case} under Heap: {:?}", other.map(|_| ())),
            }
        }

        // A damaged *end* is a typed error in every mode.
        for row in unscanned_offsets_rows() {
            let offsets = stored_offsets(&good, row);
            let last = offsets.len() - 1;
            for (index, value) in [
                (0, 1),
                (0, u32::MAX),
                (last, offsets[last] + 1),
                (last, offsets[last].wrapping_sub(1)),
            ] {
                std::fs::write(&path, stomp(&good, row, index, value)).unwrap();
                for mode in [LoadMode::Mmap, LoadMode::Heap] {
                    match GraphSnapshot::open(&path, mode) {
                        Err(SnapshotError::Malformed { what }) => assert_eq!(
                            what,
                            format!("{} does not span its target run", row.name),
                            "{mode:?}"
                        ),
                        other => panic!(
                            "{}[{index}] = {value:#x} under {mode:?}: {:?}",
                            row.name,
                            other.map(|_| ())
                        ),
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A DAG of `n` nodes whose symbol, string and value-slot dictionaries
    /// do not depend on `n` (from 35 nodes up).
    fn dag_with_fixed_dictionaries(n: u32) -> GraphSnapshot {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| {
                let v = b.add_node_with_label(&format!("l{}", i % 5));
                b.set_attr(v, "year", AttrValue::int(1990 + (i % 7) as i64));
                v
            })
            .collect();
        for i in 0..nodes.len() {
            for step in [1, 7] {
                if let Some(&to) = nodes.get(i + step) {
                    b.add_edge(nodes[i], to);
                }
            }
        }
        GraphSnapshot::freeze(Arc::new(b.build()))
    }

    #[test]
    fn a_plain_mmap_open_examines_the_same_amount_whatever_the_graph_size() {
        let path = tmp("open-work.gtpq");
        let examined = |n: u32, mode: LoadMode| {
            dag_with_fixed_dictionaries(n).save(&path).unwrap();
            EXAMINED.with(|total| total.set(0));
            let loaded = GraphSnapshot::open(&path, mode).unwrap();
            assert_eq!(loaded.graph().node_count(), n as usize);
            let mapped = loaded.graph().backing_file_id().is_some();
            (EXAMINED.with(|total| total.get()), mapped)
        };
        let (small, mapped) = examined(1_000, LoadMode::Mmap);
        if !mapped {
            // Mapping unavailable: the heap fallback reads the file anyway.
            let _ = std::fs::remove_file(&path);
            return;
        }
        let (large, _) = examined(50_000, LoadMode::Mmap);
        assert!(small > 0);
        assert_eq!(
            small, large,
            "a plain-mmap open checksummed or scanned something node-sized"
        );
        let (small, _) = examined(1_000, LoadMode::Heap);
        let (large, _) = examined(50_000, LoadMode::Heap);
        assert!(
            large > 40 * small,
            "a verifying open reads the whole file: {small} vs {large}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_plain_mmap_open_examines_the_same_amount_whatever_the_dictionary_size() {
        let path = tmp("open-dictionary.gtpq");
        let examined = |labels: u32| {
            let mut b = GraphBuilder::new();
            let nodes: Vec<NodeId> = (0..5_000)
                .map(|i| b.add_node_with_label(&format!("l{}", i % labels)))
                .collect();
            for w in nodes.windows(2) {
                b.add_edge(w[0], w[1]);
            }
            GraphSnapshot::freeze(Arc::new(b.build()))
                .save(&path)
                .unwrap();
            EXAMINED.with(|total| total.set(0));
            let loaded = GraphSnapshot::open_mmap(&path).unwrap();
            let g = loaded.graph();
            let label = g.symbols().get(LABEL_ATTR).unwrap();
            assert_eq!(g.attr_index().distinct_values(label), labels as usize);
            (
                EXAMINED.with(|total| total.get()),
                g.backing_file_id().is_some(),
            )
        };
        let (few, mapped) = examined(5);
        if !mapped {
            // Mapping unavailable: the heap fallback reads the file anyway.
            let _ = std::fs::remove_file(&path);
            return;
        }
        let (many, _) = examined(5_000);
        assert!(few > 0);
        assert_eq!(
            few, many,
            "a plain-mmap open checksummed or scanned a dictionary-sized section"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hostile_but_checksum_consistent_files_never_panic() {
        let path = tmp("hostile.gtpq");
        hostile_base().save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let victim = tmp("hostile-victim.gtpq");
        let modes = [LoadMode::Mmap, LoadMode::Heap];

        // Every `Meta` word at the edges of the integer widths the loader
        // converts between: a load may succeed or fail, never unwind.
        let meta = section_offset(&good, SectionKind::Meta);
        let edges = [
            0,
            1,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut unwound = Vec::new();
        for word in 0..Count::WORDS {
            for value in edges {
                let mut bytes = good.clone();
                bytes[meta + 8 * word..meta + 8 * word + 8].copy_from_slice(&value.to_le_bytes());
                restamp(&mut bytes);
                std::fs::write(&victim, &bytes).unwrap();
                for mode in modes {
                    let opened =
                        std::panic::catch_unwind(|| GraphSnapshot::open(&victim, mode).map(|_| ()));
                    match opened {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => drop(e.to_string()),
                        Err(_) => unwound.push((word, value, mode)),
                    }
                }
            }
        }
        assert!(
            unwound.is_empty(),
            "hostile Meta words panicked: {unwound:?}"
        );

        // Every section filled with one byte value: with the checksums
        // re-stamped this reaches the field validation of the eagerly
        // CRC'd sections, which a plain byte flip only ever sees as
        // `ChecksumMismatch`.
        for (_, _, offset, len) in toc(&good) {
            for fill in [0x00u8, 0x01, 0x7F, 0x80, 0xFF] {
                let mut bytes = good.clone();
                bytes[offset..offset + len].fill(fill);
                restamp(&mut bytes);
                std::fs::write(&victim, &bytes).unwrap();
                for mode in [LoadMode::Mmap, LoadMode::Heap] {
                    let walked = std::panic::catch_unwind(|| {
                        if let Ok(snap) = GraphSnapshot::open(&victim, mode) {
                            touch(&snap);
                        }
                    });
                    assert!(
                        walked.is_ok(),
                        "section at {offset} filled with {fill:#04x} panicked under {mode:?}"
                    );
                }
            }
        }

        // One middle entry of an offsets run damaged in a way the end checks
        // cannot see: plain mmap serves it, a verifying open refuses it.
        for (row, index, value) in middle_stomps(&good) {
            std::fs::write(&victim, stomp(&good, row, index, value)).unwrap();
            for mode in modes {
                let walked = std::panic::catch_unwind(|| {
                    GraphSnapshot::open(&victim, mode).map(|snap| walk(&snap))
                });
                assert!(
                    matches!(
                        walked,
                        Ok(Ok(())) | Ok(Err(SnapshotError::Malformed { .. }))
                    ),
                    "{}[{index}] = {value:#x} under {mode:?}: {walked:?}",
                    row.name
                );
            }
        }

        // Damaged value-slot keys and string text: a verifying open names
        // the damage, plain mmap opens the file, the damaged key's probe
        // reads as an empty posting and nothing panics.
        let pristine = GraphSnapshot::open_heap(&path).unwrap();
        let g = pristine.graph();
        let sym = |name: &str| g.symbols().get(name).unwrap();
        let (label, year, name) = (sym(LABEL_ATTR), sym("year"), sym("name"));
        let keys: Vec<_> = g
            .attr_index()
            .value_keys
            .values()
            .map(Option::unwrap)
            .collect();
        assert_eq!(keys[0], (label, AttrValue::str("doc")));
        assert_eq!(
            keys[1..3],
            [(year, AttrValue::int(1990)), (year, AttrValue::int(1991))]
        );
        assert_eq!(keys[8], (name, AttrValue::str("n1")));
        let payload = |slot: usize| section_offset(&good, SectionKind::ValPayloads) + 8 * slot;
        let tag = |slot: usize| section_offset(&good, SectionKind::ValTags) + slot;
        let text = section_offset(&good, SectionKind::Strings)
            + 4 * (g.attr_index().value_keys.strings.len() + 1);
        let year_bytes = |y: i64| y.to_le_bytes().to_vec();
        let unordered = "value-slot keys are not strictly ascending";
        let cases = [
            (
                "keys out of order",
                vec![
                    (payload(1), year_bytes(1991)),
                    (payload(2), year_bytes(1990)),
                ],
                unordered,
                None,
            ),
            (
                "a duplicated key",
                vec![(payload(2), year_bytes(1990))],
                unordered,
                Some((year, AttrValue::int(1991))),
            ),
            (
                "an out-of-range string id",
                vec![(payload(8), 999u64.to_le_bytes().to_vec())],
                "value-slot string id out of dictionary range",
                Some((name, AttrValue::str("n1"))),
            ),
            (
                "an unknown tag",
                vec![(tag(8), vec![7])],
                "unknown value-slot tag 7",
                Some((name, AttrValue::str("n1"))),
            ),
            (
                "invalid UTF-8 in Strings",
                vec![(text, vec![0xFF])],
                "Strings is not UTF-8",
                Some((label, AttrValue::str("doc"))),
            ),
        ];
        for (case, patches, what, missed) in cases {
            let mut bytes = good.clone();
            for (at, patch) in patches {
                bytes[at..at + patch.len()].copy_from_slice(&patch);
            }
            restamp(&mut bytes);
            std::fs::write(&victim, &bytes).unwrap();
            match GraphSnapshot::open_heap(&victim) {
                Err(SnapshotError::Malformed { what: got }) => {
                    assert_eq!(got, what, "{case} under Heap")
                }
                other => panic!("{case} under Heap: {:?}", other.map(|_| ())),
            }
            let loaded = GraphSnapshot::open_mmap(&victim)
                .unwrap_or_else(|e| panic!("{case} refused under plain mmap: {e}"));
            if let Some((sym, value)) = missed {
                assert_eq!(
                    loaded.graph().attr_index().nodes_eq(sym, &value),
                    &[],
                    "{case}"
                );
            }
            walk(&loaded);
        }

        // Two name-posting or integer-run symbols swapped: every open
        // binary-searches those columns, so every mode refuses the file.
        for (kind, what) in [
            (
                SectionKind::NameSyms,
                "name-slot symbols are not strictly ascending",
            ),
            (
                SectionKind::IntSyms,
                "int-run symbols are not strictly ascending",
            ),
        ] {
            let at = section_offset(&good, kind);
            let mut bytes = good.clone();
            bytes[at..at + 8].rotate_left(4);
            restamp(&mut bytes);
            std::fs::write(&victim, &bytes).unwrap();
            for mode in modes {
                match GraphSnapshot::open(&victim, mode) {
                    Err(SnapshotError::Malformed { what: got }) => assert_eq!(got, what),
                    other => panic!("{kind:?} swapped, {mode:?}: {:?}", other.map(|_| ())),
                }
            }
        }

        // One section added after version 1 hidden behind an id no reader
        // knows, under either header version: what is left of its group
        // must not be indexed by lengths the hidden run no longer backs.
        for (at, kind, _, _) in toc(&good) {
            if TABLE.iter().any(|r| r.kind as u32 == kind && r.since == 1) {
                continue;
            }
            for version in 1..=FORMAT_VERSION {
                let mut bytes = good.clone();
                bytes[8..12].copy_from_slice(&version.to_le_bytes());
                bytes[at..at + 4].copy_from_slice(&33u32.to_le_bytes());
                restamp(&mut bytes);
                std::fs::write(&victim, &bytes).unwrap();
                for mode in modes {
                    let walked = std::panic::catch_unwind(|| {
                        GraphSnapshot::open(&victim, mode).map(|snap| touch(&snap))
                    });
                    assert!(
                        matches!(walked, Ok(Err(SnapshotError::Malformed { .. }))),
                        "kind {kind} hidden in a v{version} file under {mode:?}: {walked:?}"
                    );
                }
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&victim);
    }

    #[test]
    fn sections_added_after_v1_are_optional_as_a_group() {
        let path = tmp("optional.gtpq");
        hostile_base().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for (at, kind, _, _) in toc(&bytes) {
            if TABLE.iter().any(|r| r.kind as u32 == kind && r.since > 1) {
                bytes[at..at + 4].copy_from_slice(&33u32.to_le_bytes());
            }
        }
        restamp(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        // Plain mmap decodes attributes lazily, so the vector payloads that
        // now point past the empty dictionary degrade to skipped attributes;
        // a verifying open refuses them up front.
        let loaded = GraphSnapshot::open_mmap(&path).unwrap();
        touch(&loaded);
        assert!(loaded.graph().sim_table("emb").is_none());
        assert!(matches!(
            GraphSnapshot::open_heap(&path),
            Err(SnapshotError::Malformed { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_writer_refuses_columns_that_break_their_length_rules() {
        let snap = sample_snapshot();
        let (g, c) = (snap.graph(), snap.condensation());
        let columns = SnapshotColumns {
            fwd_offsets: g.fwd.offsets_raw(),
            fwd_targets: g.fwd.targets_raw(),
            ..SnapshotColumns::default()
        };
        let path = tmp("mis-sized.gtpq");
        // `rev_targets` (empty) disagrees with `fwd_targets` on `Edges`, and
        // without the condensation `Nodes` is 0 against four offsets.
        for broken in [columns, columns.with_condensation(c)] {
            assert!(matches!(
                broken.write(&path, 0),
                Err(SnapshotError::Malformed { .. })
            ));
            assert!(!path.exists());
        }
        // The canonical empty runs describe the empty graph.
        SnapshotColumns::default().write(&path, 0).unwrap();
        assert_eq!(
            GraphSnapshot::open_heap(&path)
                .unwrap()
                .graph()
                .node_count(),
            0
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_truncation_bad_magic_and_version() {
        let snap = sample_snapshot();
        let path = tmp("corrupt.gtpq");
        snap.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncated header.
        std::fs::write(&path, &good[..32]).unwrap();
        assert!(matches!(
            GraphSnapshot::open_heap(&path),
            Err(SnapshotError::Truncated { .. })
        ));
        // Truncated body.
        std::fs::write(&path, &good[..good.len() - 7]).unwrap();
        assert!(matches!(
            GraphSnapshot::open_heap(&path),
            Err(SnapshotError::Truncated { .. })
        ));
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            GraphSnapshot::open_heap(&path),
            Err(SnapshotError::BadMagic)
        ));
        // Unsupported version (header CRC patched so the version check is
        // what fires).
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32(&bad[..52]).to_le_bytes();
        bad[52..56].copy_from_slice(&crc);
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            GraphSnapshot::open_heap(&path),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));
        // Flipped data byte -> checksum mismatch under full verification.
        let mut bad = good.clone();
        bad[HEADER_LEN as usize + 1] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            GraphSnapshot::open_heap(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
