//! `.gtpq` binary snapshots: versioned, checksummed, mmap-loadable.
//!
//! The container lays every large array of a [`DataGraph`] and its
//! [`Condensation`] out as 64-byte-aligned little-endian *int runs* so a
//! loader can reinterpret the file bytes in place: [`GraphSnapshot::open`]
//! with [`LoadMode::Mmap`] maps the file read-only and rebuilds the graph as
//! borrowed [`IntRun`] views over the mapping — cold
//! start is O(page faults) plus one linear decode of the (comparatively
//! small) materialized sections, not O(parse).
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
//! The fixed header is written last (the writer seeks back), which lets
//! producers stream sections without knowing counts up front:
//!
//! | offset | field | type |
//! |--------|-------|------|
//! | 0  | magic `GTPQSNAP` | `[u8; 8]` |
//! | 8  | format version (= 2) | `u32` |
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
//! # Verification policy
//!
//! The header and TOC checksums, the section-table bounds, the count
//! cross-checks against the `Meta` section, and a linear
//! monotonicity-and-span scan over **every** offsets run are verified on
//! **every** load — the offsets scan is what lets the slice accessors
//! (`Csr::neighbors` and friends) index without bounds branches: no corrupt
//! offset can survive a successful open.  Sections that are decoded into
//! owned structures anyway (symbol table, string dictionary, index
//! dictionaries) are always CRC-checked and validated field by field.  The
//! big mapped runs (adjacency targets, posting nodes, condensation arrays,
//! and the attribute tuple columns — decoded lazily, see
//! [`crate::tuples::AttrTuples`]) are CRC-checked *and* field-validated by
//! [`LoadMode::Heap`] and [`LoadMode::MmapVerified`]; plain
//! [`LoadMode::Mmap`] skips those passes to keep the open truly lazy — use
//! a verifying mode for files you do not trust (under plain mmap, a
//! malformed attribute entry degrades to a skipped attribute at access
//! time, never a panic).  Loading never causes undefined behaviour in any
//! mode: every mapped window is bounds- and alignment-checked before it is
//! wrapped.
//!
//! # External modification hazard
//!
//! A mapped load ([`LoadMode::Mmap`] / [`LoadMode::MmapVerified`]) borrows
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
//! Backwards-compatible additions introduce new section kinds (readers skip
//! unknown kinds); anything else bumps the format version and old readers
//! reject the file with [`SnapshotError::UnsupportedVersion`].  Section kind
//! 33 is reserved for serialized reachability-index state.
//!
//! Version 2 added the embedding layer: a shared vector-value dictionary
//! (kinds 34–35) and the per-attribute similarity tables (kinds 36–47, see
//! [`crate::sim_index`]).  Version-1 files remain loadable — their graphs
//! simply carry no vector values and an empty sim catalog.

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
use crate::index::{AttrIndex, IntPairs};
use crate::mutate::GraphSnapshot;
use crate::run::{crc32, AlignedBytes, IntRun, RunElem, SnapshotBytes};
use crate::sim_index::{SimCatalog, SimTable};
use crate::symbol::{Symbol, SymbolTable};
use crate::tuples::{AttrColumns, AttrTuples, VecDict, TAG_INT, TAG_STR, TAG_VEC};

/// `GTPQSNAP`.
pub const MAGIC: [u8; 8] = *b"GTPQSNAP";
/// Current format version.  Version 2 added vector attribute values and the
/// similarity-table sections; readers accept versions `1..=FORMAT_VERSION`.
pub const FORMAT_VERSION: u32 = 2;
/// Section data alignment, in bytes.
pub const SECTION_ALIGN: u64 = 64;

const HEADER_LEN: u64 = 64;
const TOC_ENTRY_LEN: u64 = 32;
/// Hard cap on the section count — a corrupt header cannot make the loader
/// allocate an absurd TOC.
const MAX_SECTIONS: u64 = 4096;

/// How to load a snapshot file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Zero-copy `mmap`; the big runs borrow the mapping and their checksums
    /// are *not* verified (header, TOC, every offsets run and the
    /// materialized sections always are).  Falls back to [`LoadMode::Heap`]
    /// when mapping is unavailable.  The file must not be truncated or
    /// rewritten in place by another process while the graph is alive (see
    /// the [module docs](crate::snap#external-modification-hazard));
    /// replacing it via rename — as [`GraphSnapshot::save`] does — is safe.
    Mmap,
    /// Zero-copy `mmap` plus a full checksum pass over every section.
    MmapVerified,
    /// Portable fallback: read the whole file into an aligned heap buffer and
    /// verify every checksum.  The runs still borrow the shared buffer, so
    /// this path exercises the same code as the mapped one.
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

// The one list of section kinds: the enum, its on-disk discriminants, the
// file order of `ALL` and the variant names in error messages all expand
// from it.  Discriminants are the on-disk ids — never renumber one.
macro_rules! section_kinds {
    (
        written { $($(#[$doc:meta])* $name:ident = $id:literal,)* }
        reserved { $($(#[$rdoc:meta])* $rname:ident = $rid:literal,)* }
    ) => {
        /// Identifies one section of a `.gtpq` container.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u32)]
        pub enum SectionKind {
            $($(#[$doc])* $name = $id,)*
            $($(#[$rdoc])* $rname = $rid,)*
        }

        impl SectionKind {
            /// Every section kind the current writer emits, in file order.
            pub const ALL: &'static [SectionKind] = &[$(SectionKind::$name,)*];

            /// The kind with on-disk id `v` (reserved ones included: a
            /// reader recognises them, the writer never emits them).
            fn from_u32(v: u32) -> Option<Self> {
                match v {
                    $($id => Some(SectionKind::$name),)*
                    $($rid => Some(SectionKind::$rname),)*
                    _ => None,
                }
            }

            /// The variant name, for error messages.
            fn name(self) -> &'static str {
                match self {
                    $(SectionKind::$name => stringify!($name),)*
                    $(SectionKind::$rname => stringify!($rname),)*
                }
            }
        }
    };
}

section_kinds! {
    written {
        /// Forward CSR offsets (`u32`, `n + 1`).
        FwdOffsets = 2,
        /// Forward CSR targets (node ids, `e`).
        FwdTargets = 3,
        /// Reverse CSR offsets (`u32`, `n + 1`).
        RevOffsets = 4,
        /// Reverse CSR targets (node ids, `e`).
        RevTargets = 5,
        /// Attribute-name symbol table (string table blob).
        Symbols = 6,
        /// Attribute string-value dictionary (string table blob).
        Strings = 7,
        /// Per-node attribute tuple offsets (`u32`, `n + 1`).
        AttrOffsets = 8,
        /// Attribute name symbols, tuple-concatenated (`u32`).
        AttrNames = 9,
        /// Attribute value tags: 0 = int, 1 = string (`u8`).
        AttrTags = 10,
        /// Attribute payloads: `i64` bits or string-dictionary id (`u64`).
        AttrPayloads = 11,
        /// Value-posting slot keys: attribute symbol per slot (`u32`).
        ValSyms = 12,
        /// Value-posting slot keys: value tag per slot (`u8`).
        ValTags = 13,
        /// Value-posting slot keys: value payload per slot (`u64`).
        ValPayloads = 14,
        /// Value posting offsets (`u32`, slots + 1).
        ValOffsets = 15,
        /// Value posting node lists, concatenated (node ids).
        ValNodes = 16,
        /// Name-posting slot keys: attribute symbol per slot (`u32`).
        NameSyms = 17,
        /// Name posting offsets (`u32`, slots + 1).
        NameOffsets = 18,
        /// Name posting node lists, concatenated (node ids).
        NameNodes = 19,
        /// Integer-run attribute symbols (`u32`).
        IntSyms = 20,
        /// Integer-run offsets (`u32`, attrs + 1).
        IntOffsets = 21,
        /// Integer-run values, concatenated (`i64`).
        IntValues = 22,
        /// Integer-run node halves, concatenated (node ids).
        IntNodes = 23,
        /// Component of each node (`u32`, `n`).
        CompOf = 24,
        /// Per-component cyclicity bytes (`u8`, `c`).
        Cyclic = 25,
        /// Component member offsets (`u32`, `c + 1`).
        MembersOffsets = 26,
        /// Component members, concatenated (node ids, `n`).
        Members = 27,
        /// Condensation DAG out-edge offsets (`u32`, `c + 1`).
        CompOutOffsets = 28,
        /// Condensation DAG out-edges (component ids).
        CompOut = 29,
        /// Condensation DAG in-edge offsets (`u32`, `c + 1`).
        CompInOffsets = 30,
        /// Condensation DAG in-edges (component ids).
        CompIn = 31,
        /// Components in topological order (`u32`, `c`).
        Topo = 32,
        /// Vector-value dictionary offsets (`u32`, vectors + 1), in `f32`
        /// element units into [`SectionKind::VecData`].  Since version 2.
        VecOffsets = 34,
        /// Vector-value dictionary data, concatenated (`f32`).
        VecData = 35,
        /// Sim-table attribute symbols, one per table (`u32`).
        SimSyms = 36,
        /// Sim-table vector dimensionalities, one per table (`u32`).
        SimDims = 37,
        /// Sim-table indexed-node offsets (`u32`, tables + 1).
        SimNodeOffsets = 38,
        /// Sim-table indexed nodes, concatenated (node ids).
        SimNodes = 39,
        /// Sim-table stored-vector offsets (`u32`, tables + 1), in `f32` units.
        SimVecOffsets = 40,
        /// Sim-table stored vectors, row-major concatenated (`f32`).
        SimVecData = 41,
        /// Sim-table pivot offsets (`u32`, tables + 1), in `f32` units.
        SimPivotOffsets = 42,
        /// Sim-table pivot vectors, row-major concatenated (`f32`).
        SimPivotData = 43,
        /// Sim-table pivot-distance offsets (`u32`, tables + 1), in `f32` units.
        SimDistOffsets = 44,
        /// Sim-table pivot-distance rows, concatenated (`f32`).
        SimDistData = 45,
        /// Sim-table sorted first-pivot distances, concatenated (`f32`; spans
        /// follow [`SectionKind::SimNodeOffsets`], one value per indexed node).
        SimSortedHead = 46,
        /// Sim-table norm bounds: `[min, max]` per table (`f32`, 2 × tables).
        SimNormBounds = 47,
        /// Count cross-check block (`u64` array, see [`MetaCounts`]).
        Meta = 1,
    }
    reserved {
        /// Reserved for serialized reachability-index state (not written today).
        ReachState = 33,
    }
}

/// The element counts a `.gtpq` file declares in its `Meta` section; every
/// other section's byte length is cross-checked against them at load time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaCounts {
    /// Nodes in the graph.
    pub nodes: u64,
    /// Directed edges.
    pub edges: u64,
    /// Interned attribute-name symbols.
    pub symbols: u64,
    /// Distinct attribute string values.
    pub strings: u64,
    /// Total attribute entries across all nodes.
    pub attrs: u64,
    /// Value-posting slots.
    pub value_slots: u64,
    /// Total value-posting entries.
    pub value_nodes: u64,
    /// Name-posting slots.
    pub name_slots: u64,
    /// Total name-posting entries.
    pub name_nodes: u64,
    /// Attributes carrying an integer run.
    pub int_attrs: u64,
    /// Total integer-run pairs.
    pub int_pairs: u64,
    /// Strongly connected components.
    pub components: u64,
    /// Condensation DAG edges.
    pub comp_edges: u64,
}

impl MetaCounts {
    const FIELDS: usize = 13;

    fn to_words(self) -> [u64; Self::FIELDS] {
        [
            self.nodes,
            self.edges,
            self.symbols,
            self.strings,
            self.attrs,
            self.value_slots,
            self.value_nodes,
            self.name_slots,
            self.name_nodes,
            self.int_attrs,
            self.int_pairs,
            self.components,
            self.comp_edges,
        ]
    }

    fn from_words(w: &[u64]) -> Option<Self> {
        if w.len() != Self::FIELDS {
            return None;
        }
        Some(Self {
            nodes: w[0],
            edges: w[1],
            symbols: w[2],
            strings: w[3],
            attrs: w[4],
            value_slots: w[5],
            value_nodes: w[6],
            name_slots: w[7],
            name_nodes: w[8],
            int_attrs: w[9],
            int_pairs: w[10],
            components: w[11],
            comp_edges: w[12],
        })
    }
}

// ---------------------------------------------------------------------------
// Little-endian element encoding
// ---------------------------------------------------------------------------

/// Element types that can be written to / read from a snapshot section.
///
/// Implemented for the primitive run elements and the `repr(transparent)` id
/// wrappers; the methods are an implementation detail of the format.
pub trait SectionElem: RunElem {
    /// Serialized width in bytes.
    const WIDTH: usize;
    #[doc(hidden)]
    fn put_le(self, out: &mut Vec<u8>);
    #[doc(hidden)]
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

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct TocEntry {
    kind: u32,
    crc: u32,
    offset: u64,
    byte_len: u64,
}

/// Incremental `.gtpq` writer: create, append sections one at a time, then
/// [`finish`](Self::finish).  Sections may be written in any order and each
/// one can be dropped as soon as it is on disk, which is what lets the
/// large-tier datagen stream a snapshot without ever holding the whole graph
/// (see `gtpq-datagen`).
///
/// Saves are **atomic**: the data streams into a hidden temp file next to
/// the destination and [`finish`](Self::finish) renames it into place, so a
/// crash or error mid-save never leaves a truncated or half-written file at
/// the target path — a previously good snapshot there survives untouched.
/// Dropping an unfinished writer removes the temp file.
pub struct SnapshotWriter {
    w: BufWriter<File>,
    pos: u64,
    toc: Vec<TocEntry>,
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
    pub fn create<P: AsRef<Path>>(path: P, epoch: u64) -> Result<Self, SnapshotError> {
        let dest = path.as_ref().to_path_buf();
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

    /// Appends one section of raw bytes (used for the string-table blobs).
    pub fn section_bytes(&mut self, kind: SectionKind, data: &[u8]) -> Result<(), SnapshotError> {
        assert!(!self.finished, "snapshot writer already finished");
        self.pad_to_alignment()?;
        self.toc.push(TocEntry {
            kind: kind as u32,
            crc: crc32(data),
            offset: self.pos,
            byte_len: data.len() as u64,
        });
        self.w.write_all(data)?;
        self.pos += data.len() as u64;
        Ok(())
    }

    /// Appends one section of integer elements, little-endian.
    pub fn section<T: SectionElem>(
        &mut self,
        kind: SectionKind,
        data: &[T],
    ) -> Result<(), SnapshotError> {
        let image = le_image(data);
        self.section_bytes(kind, &image)
    }

    /// Appends one string-table section (the [`SectionKind::Symbols`] /
    /// [`SectionKind::Strings`] encoding: `count + 1` little-endian `u32`
    /// offsets followed by the concatenated UTF-8 text).
    pub fn string_section<'a, I>(
        &mut self,
        kind: SectionKind,
        items: I,
    ) -> Result<(), SnapshotError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.section_bytes(kind, &string_table_bytes(items))
    }

    /// Appends the full condensation block for `c`, filling the component
    /// counts of `counts` in — the hook external streamed writers (see
    /// `gtpq-datagen`) use together with [`Condensation::identity_dag`].
    pub fn condensation_sections(
        &mut self,
        c: &Condensation,
        counts: &mut MetaCounts,
    ) -> Result<(), SnapshotError> {
        write_condensation_sections(self, c, counts)
    }

    /// Appends the `Meta` count block.
    pub fn meta(&mut self, counts: &MetaCounts) -> Result<(), SnapshotError> {
        self.section(SectionKind::Meta, &counts.to_words())
    }

    /// Writes the TOC, seeks back to patch the header, flushes and syncs the
    /// temp file, then atomically renames it over the destination path.
    pub fn finish(mut self) -> Result<(), SnapshotError> {
        self.pad_to_alignment()?;
        let toc_offset = self.pos;
        let mut toc_bytes = Vec::with_capacity(self.toc.len() * TOC_ENTRY_LEN as usize);
        for e in &self.toc {
            toc_bytes.extend_from_slice(&e.kind.to_le_bytes());
            toc_bytes.extend_from_slice(&e.crc.to_le_bytes());
            toc_bytes.extend_from_slice(&e.offset.to_le_bytes());
            toc_bytes.extend_from_slice(&e.byte_len.to_le_bytes());
            toc_bytes.extend_from_slice(&0u64.to_le_bytes());
        }
        self.w.write_all(&toc_bytes)?;
        let file_len = toc_offset + toc_bytes.len() as u64;

        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes()); // flags
        header.extend_from_slice(&(self.toc.len() as u64).to_le_bytes());
        header.extend_from_slice(&toc_offset.to_le_bytes());
        header.extend_from_slice(&file_len.to_le_bytes());
        header.extend_from_slice(&self.epoch.to_le_bytes());
        header.extend_from_slice(&crc32(&toc_bytes).to_le_bytes());
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

/// Builds a string-table blob: `(count + 1)` little-endian `u32` offsets into
/// the UTF-8 byte region that follows.
fn string_table_bytes<'a, I: IntoIterator<Item = &'a str>>(items: I) -> Vec<u8> {
    let items: Vec<&str> = items.into_iter().collect();
    let mut offsets: Vec<u32> = Vec::with_capacity(items.len() + 1);
    let mut text = Vec::new();
    offsets.push(0);
    for s in &items {
        text.extend_from_slice(s.as_bytes());
        offsets.push(u32::try_from(text.len()).expect("string table under 4 GiB"));
    }
    let mut out = Vec::with_capacity(offsets.len() * 4 + text.len());
    for o in offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    out.extend_from_slice(&text);
    out
}

/// Parses a string-table blob with exactly `count` entries.
fn parse_string_table(
    bytes: &[u8],
    count: usize,
    what: &'static str,
) -> Result<Vec<String>, SnapshotError> {
    let head = (count + 1)
        .checked_mul(4)
        .ok_or_else(|| malformed(format!("{what}: count overflow")))?;
    if bytes.len() < head {
        return Err(malformed(format!("{what}: offset table cut off")));
    }
    let offsets: Vec<u32> = decode_elems(&bytes[..head]);
    let text = &bytes[head..];
    if offsets[0] != 0 || offsets[count] as usize != text.len() {
        return Err(malformed(format!("{what}: offsets do not span the text")));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let lo = offsets[i] as usize;
        let hi = offsets[i + 1] as usize;
        if lo > hi || hi > text.len() {
            return Err(malformed(format!("{what}: non-monotone offsets")));
        }
        let s = std::str::from_utf8(&text[lo..hi])
            .map_err(|_| malformed(format!("{what}: invalid UTF-8")))?;
        out.push(s.to_owned());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Saving a graph
// ---------------------------------------------------------------------------

/// Writes every graph-derived section of `g` (everything except the
/// condensation block and the trailing `Meta`), filling `counts` in.
fn write_graph_sections(
    w: &mut SnapshotWriter,
    g: &DataGraph,
    counts: &mut MetaCounts,
) -> Result<(), SnapshotError> {
    let n = g.node_count();
    counts.nodes = n as u64;
    counts.edges = g.edge_count() as u64;
    counts.symbols = g.symbols().len() as u64;

    w.section(SectionKind::FwdOffsets, g.fwd.offsets_raw())?;
    w.section(SectionKind::FwdTargets, g.fwd.targets_raw())?;
    w.section(SectionKind::RevOffsets, g.rev.offsets_raw())?;
    w.section(SectionKind::RevTargets, g.rev.targets_raw())?;
    w.section_bytes(
        SectionKind::Symbols,
        &string_table_bytes(g.symbols().iter().map(|(_, s)| s)),
    )?;

    // Attribute tuples: string values are interned into a first-use-order
    // dictionary and vector values into a parallel one (keyed by bit
    // pattern, so NaN payloads dedupe too); each attribute becomes
    // (name symbol, tag, payload).
    let mut dict: HashMap<&str, u64> = HashMap::new();
    let mut dict_order: Vec<&str> = Vec::new();
    let mut vec_dict: HashMap<Vec<u32>, u64> = HashMap::new();
    let mut vec_offsets: Vec<u32> = vec![0];
    let mut vec_data: Vec<f32> = Vec::new();
    let mut attr_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut attr_names: Vec<Symbol> = Vec::new();
    let mut attr_tags: Vec<u8> = Vec::new();
    let mut attr_payloads: Vec<u64> = Vec::new();
    attr_offsets.push(0);
    for tuple in g.attrs.tuples() {
        for a in tuple {
            attr_names.push(a.name);
            match &a.value {
                AttrValue::Int(i) => {
                    attr_tags.push(TAG_INT);
                    attr_payloads.push(*i as u64);
                }
                AttrValue::Str(s) => {
                    attr_tags.push(TAG_STR);
                    let id = *dict.entry(s.as_str()).or_insert_with(|| {
                        dict_order.push(s.as_str());
                        (dict_order.len() - 1) as u64
                    });
                    attr_payloads.push(id);
                }
                AttrValue::Vec(v) => {
                    attr_tags.push(TAG_VEC);
                    let bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
                    let id = *vec_dict.entry(bits).or_insert_with(|| {
                        vec_data.extend_from_slice(v);
                        vec_offsets.push(
                            u32::try_from(vec_data.len())
                                .expect("vector dictionary under 4 Gi elements"),
                        );
                        (vec_offsets.len() - 2) as u64
                    });
                    attr_payloads.push(id);
                }
            }
        }
        attr_offsets
            .push(u32::try_from(attr_names.len()).expect("attribute count overflows u32 offsets"));
    }
    counts.strings = dict_order.len() as u64;
    counts.attrs = attr_names.len() as u64;
    w.section_bytes(
        SectionKind::Strings,
        &string_table_bytes(dict_order.iter().copied()),
    )?;
    w.section(SectionKind::AttrOffsets, &attr_offsets)?;
    w.section(SectionKind::AttrNames, &attr_names)?;
    w.section(SectionKind::AttrTags, &attr_tags)?;
    w.section(SectionKind::AttrPayloads, &attr_payloads)?;
    w.section(SectionKind::VecOffsets, &vec_offsets)?;
    w.section(SectionKind::VecData, &vec_data)?;

    // Value postings: invert the two-level dictionary into per-slot key
    // arrays (slot order is the canonical build order, so round-tripping
    // reproduces the index bit-for-bit).
    let idx = &g.index;
    let slot_count = idx.value_offsets.len().saturating_sub(1);
    let mut val_syms = vec![Symbol(0); slot_count];
    let mut val_tags = vec![0u8; slot_count];
    let mut val_payloads = vec![0u64; slot_count];
    for (&sym, map) in &idx.value_slots {
        for (value, &slot) in map {
            val_syms[slot as usize] = sym;
            match value {
                AttrValue::Int(i) => {
                    val_tags[slot as usize] = TAG_INT;
                    val_payloads[slot as usize] = *i as u64;
                }
                AttrValue::Str(s) => {
                    val_tags[slot as usize] = TAG_STR;
                    val_payloads[slot as usize] = *dict
                        .get(s.as_str())
                        .expect("indexed string value appears on some node");
                }
                // Vector values never enter the equality postings (see
                // `AttrIndex`); a defensive tag keeps this arm panic-free.
                AttrValue::Vec(_) => {
                    val_tags[slot as usize] = TAG_VEC;
                    val_payloads[slot as usize] = 0;
                }
            }
        }
    }
    counts.value_slots = slot_count as u64;
    counts.value_nodes = idx.value_nodes.len() as u64;
    w.section(SectionKind::ValSyms, &val_syms)?;
    w.section(SectionKind::ValTags, &val_tags)?;
    w.section(SectionKind::ValPayloads, &val_payloads)?;
    w.section(SectionKind::ValOffsets, &idx.value_offsets)?;
    w.section(SectionKind::ValNodes, &idx.value_nodes)?;

    // Name postings.
    let name_count = idx.name_offsets.len().saturating_sub(1);
    let mut name_syms = vec![Symbol(0); name_count];
    for (&sym, &slot) in &idx.name_slots {
        name_syms[slot as usize] = sym;
    }
    counts.name_slots = name_count as u64;
    counts.name_nodes = idx.name_nodes.len() as u64;
    w.section(SectionKind::NameSyms, &name_syms)?;
    w.section(SectionKind::NameOffsets, &idx.name_offsets)?;
    w.section(SectionKind::NameNodes, &idx.name_nodes)?;

    // Integer runs, in symbol order for determinism.
    let mut int_syms: Vec<Symbol> = idx.int_runs.keys().copied().collect();
    int_syms.sort_unstable();
    let mut int_offsets: Vec<u32> = Vec::with_capacity(int_syms.len() + 1);
    let mut int_values: Vec<i64> = Vec::new();
    let mut int_nodes: Vec<NodeId> = Vec::new();
    int_offsets.push(0);
    for sym in &int_syms {
        let run = &idx.int_runs[sym];
        int_values.extend_from_slice(&run.values);
        int_nodes.extend_from_slice(&run.nodes);
        int_offsets
            .push(u32::try_from(int_values.len()).expect("int-run count overflows u32 offsets"));
    }
    counts.int_attrs = int_syms.len() as u64;
    counts.int_pairs = int_values.len() as u64;
    w.section(SectionKind::IntSyms, &int_syms)?;
    w.section(SectionKind::IntOffsets, &int_offsets)?;
    w.section(SectionKind::IntValues, &int_values)?;
    w.section(SectionKind::IntNodes, &int_nodes)?;

    // Similarity tables, flattened CSR-style in catalog (symbol) order.  All
    // offsets are in element units; table counts are derived from the TOC at
    // load time, so `MetaCounts` is unchanged.
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
        sim_norm_bounds.push(table.norm_min);
        sim_norm_bounds.push(table.norm_max);
        let grown = u32::try_from(sim_nodes.len()).expect("sim-table node count overflows u32");
        sim_node_offsets.push(grown);
        let grown = u32::try_from(sim_vec_data.len()).expect("sim-table vector data overflows u32");
        sim_vec_offsets.push(grown);
        let grown =
            u32::try_from(sim_pivot_data.len()).expect("sim-table pivot data overflows u32");
        sim_pivot_offsets.push(grown);
        let grown =
            u32::try_from(sim_dist_data.len()).expect("sim-table distance data overflows u32");
        sim_dist_offsets.push(grown);
    }
    w.section(SectionKind::SimSyms, &sim_syms)?;
    w.section(SectionKind::SimDims, &sim_dims)?;
    w.section(SectionKind::SimNodeOffsets, &sim_node_offsets)?;
    w.section(SectionKind::SimNodes, &sim_nodes)?;
    w.section(SectionKind::SimVecOffsets, &sim_vec_offsets)?;
    w.section(SectionKind::SimVecData, &sim_vec_data)?;
    w.section(SectionKind::SimPivotOffsets, &sim_pivot_offsets)?;
    w.section(SectionKind::SimPivotData, &sim_pivot_data)?;
    w.section(SectionKind::SimDistOffsets, &sim_dist_offsets)?;
    w.section(SectionKind::SimDistData, &sim_dist_data)?;
    w.section(SectionKind::SimSortedHead, &sim_sorted_head)?;
    w.section(SectionKind::SimNormBounds, &sim_norm_bounds)?;
    Ok(())
}

/// Writes the condensation block of `c`, filling `counts` in.
fn write_condensation_sections(
    w: &mut SnapshotWriter,
    c: &Condensation,
    counts: &mut MetaCounts,
) -> Result<(), SnapshotError> {
    let (comp_of, members, cyclic, comp_out, comp_in, topo) = c.raw_parts();
    counts.components = members.len() as u64;
    counts.comp_edges = comp_out.target_count() as u64;
    w.section(SectionKind::CompOf, comp_of)?;
    w.section(SectionKind::Cyclic, cyclic)?;
    w.section(SectionKind::MembersOffsets, members.offsets_raw())?;
    w.section(SectionKind::Members, members.targets_raw())?;
    w.section(SectionKind::CompOutOffsets, comp_out.offsets_raw())?;
    w.section(SectionKind::CompOut, comp_out.targets_raw())?;
    w.section(SectionKind::CompInOffsets, comp_in.offsets_raw())?;
    w.section(SectionKind::CompIn, comp_in.targets_raw())?;
    w.section(SectionKind::Topo, topo)?;
    Ok(())
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
        let mut w = SnapshotWriter::create(path, self.epoch())?;
        let mut counts = MetaCounts::default();
        write_graph_sections(&mut w, self.graph(), &mut counts)?;
        write_condensation_sections(&mut w, self.condensation(), &mut counts)?;
        w.meta(&counts)?;
        w.finish()
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

impl DataGraph {
    /// Zero-copy open of just the graph from a `.gtpq` snapshot (the stored
    /// condensation is dropped; prefer [`GraphSnapshot::open_mmap`] to keep
    /// it and skip the Tarjan recomputation).
    pub fn open_mmap<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let snap = GraphSnapshot::open_mmap(path)?;
        Ok(snap.graph().as_ref().clone())
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
    verify_all: bool,
}

impl Loader {
    fn section(&self, kind: SectionKind) -> Result<&RawSection, SnapshotError> {
        self.sections
            .get(&(kind as u32))
            .ok_or_else(|| malformed(format!("missing section {kind:?}")))
    }

    /// Whether the file carries this section at all (version-1 files lack
    /// the vector and sim-table sections).
    fn has(&self, kind: SectionKind) -> bool {
        self.sections.contains_key(&(kind as u32))
    }

    fn section_bytes(&self, kind: SectionKind) -> Result<&[u8], SnapshotError> {
        let s = self.section(kind)?;
        Ok(&self.bytes.as_slice()[s.offset..s.offset + s.byte_len])
    }

    /// CRC-checks one section now (used for every materialized section and,
    /// in verifying modes, for all of them).
    fn check_crc(&self, kind: SectionKind) -> Result<(), SnapshotError> {
        let s = self.section(kind)?;
        let data = &self.bytes.as_slice()[s.offset..s.offset + s.byte_len];
        if crc32(data) != s.crc {
            return Err(SnapshotError::ChecksumMismatch {
                section: kind.name(),
            });
        }
        Ok(())
    }

    /// Validates the section's length against `count` elements of `T` and
    /// wraps it as an [`IntRun`] borrowing the shared buffer (decoding into
    /// an owned run on hosts that cannot reinterpret, e.g. big-endian).
    fn run<T: SectionElem>(
        &self,
        kind: SectionKind,
        count: u64,
    ) -> Result<IntRun<T>, SnapshotError> {
        let s = self.section(kind)?;
        let count = usize::try_from(count).map_err(|_| malformed("count overflows usize"))?;
        let expect = count
            .checked_mul(T::WIDTH)
            .ok_or_else(|| malformed("section length overflow"))?;
        if s.byte_len != expect {
            return Err(malformed(format!(
                "section {kind:?} holds {} bytes, counts imply {expect}",
                s.byte_len
            )));
        }
        if let Some(run) = IntRun::from_bytes(&self.bytes, s.offset, count) {
            return Ok(run);
        }
        // Portable decode path (big-endian hosts, or misaligned legacy
        // files): never reinterprets, always copies.
        Ok(decode_elems::<T>(&self.bytes.as_slice()[s.offset..s.offset + s.byte_len]).into())
    }

    /// Like [`run`](Self::run) but with the element count derived from the
    /// section's own byte length — used by the sections whose counts are not
    /// part of [`MetaCounts`] (cross-checks happen against sibling offsets
    /// runs instead).
    fn run_sized<T: SectionElem>(&self, kind: SectionKind) -> Result<IntRun<T>, SnapshotError> {
        let s = self.section(kind)?;
        if !s.byte_len.is_multiple_of(T::WIDTH) {
            return Err(malformed(format!(
                "section {kind:?} holds {} bytes, not a multiple of {}",
                s.byte_len,
                T::WIDTH
            )));
        }
        self.run(kind, (s.byte_len / T::WIDTH) as u64)
    }

    /// Loads a CSR whose runs were written by the snapshot writer, checking
    /// the structural invariants the slice accessors rely on: `offsets[0] ==
    /// 0`, `offsets[n] == target count`, and monotonicity.  The linear scan
    /// runs in **every** load mode (it is O(n) over `u32`s, far cheaper than
    /// a parse) so a corrupt offset under plain [`LoadMode::Mmap`] surfaces
    /// as a typed error at load time, never as an out-of-bounds panic inside
    /// [`Csr::neighbors`] at query time.
    fn csr<T: SectionElem>(
        &self,
        offsets_kind: SectionKind,
        targets_kind: SectionKind,
        sources: u64,
        targets: u64,
    ) -> Result<Csr<T>, SnapshotError> {
        let offsets: IntRun<u32> = self.run(offsets_kind, sources + 1)?;
        let target_run: IntRun<T> = self.run(targets_kind, targets)?;
        check_offsets_span(&offsets, targets, offsets_kind.name())?;
        Ok(Csr::from_parts(offsets, target_run))
    }
}

/// Validates an offsets run: leading `0`, final value equal to the target
/// count, and monotone throughout — together these bound every `lo..hi`
/// window an accessor will ever slice out of the target run.
fn check_offsets_span(
    offsets: &[u32],
    targets: u64,
    what: &'static str,
) -> Result<(), SnapshotError> {
    let first = offsets.first().copied().unwrap_or(u32::MAX);
    let last = offsets.last().copied().unwrap_or(u32::MAX);
    if first != 0 || last as u64 != targets {
        return Err(malformed(format!("{what} does not span its target run")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed(format!("{what} is non-monotone")));
    }
    Ok(())
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
        LoadMode::Mmap | LoadMode::MmapVerified => {
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
        LoadMode::MmapVerified | LoadMode::Heap => true,
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
        if SectionKind::from_u32(kind).is_none() {
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

    // Meta is the root of the count cross-checks: always verified.
    let loader = Loader {
        bytes: Arc::clone(&bytes),
        sections,
        counts: MetaCounts::default(),
        verify_all,
    };
    loader.check_crc(SectionKind::Meta)?;
    let meta_words: Vec<u64> = {
        let raw = loader.section_bytes(SectionKind::Meta)?;
        if raw.len() != MetaCounts::FIELDS * 8 {
            return Err(malformed("Meta section has the wrong length"));
        }
        decode_elems(raw)
    };
    let counts = MetaCounts::from_words(&meta_words).expect("length checked above");
    let loader = Loader { counts, ..loader };

    if loader.verify_all {
        for &kind in SectionKind::ALL {
            if loader.sections.contains_key(&(kind as u32)) {
                loader.check_crc(kind)?;
            }
        }
    } else {
        // Sections that are decoded into owned structures right now are
        // validated field by field; checksum them up front so decode errors
        // on a bit-flipped file surface as ChecksumMismatch, not Malformed.
        // The attribute columns are *not* here: like the big adjacency and
        // posting runs they stay mapped (decoded lazily on first access),
        // so reading them eagerly would defeat the O(page-fault) open.
        for kind in [
            SectionKind::Symbols,
            SectionKind::Strings,
            SectionKind::ValSyms,
            SectionKind::ValTags,
            SectionKind::ValPayloads,
            SectionKind::NameSyms,
            SectionKind::IntSyms,
            SectionKind::IntOffsets,
        ] {
            loader.check_crc(kind)?;
        }
        // The vector/sim key and offsets sections are validated eagerly too;
        // guard on presence — version-1 files do not carry them.  The flat
        // data runs stay lazy like the posting arrays.
        for kind in [
            SectionKind::VecOffsets,
            SectionKind::SimSyms,
            SectionKind::SimDims,
            SectionKind::SimNodeOffsets,
            SectionKind::SimVecOffsets,
            SectionKind::SimPivotOffsets,
            SectionKind::SimDistOffsets,
            SectionKind::SimNormBounds,
        ] {
            if loader.has(kind) {
                loader.check_crc(kind)?;
            }
        }
    }

    let graph = decode_graph(&loader)?;
    let condensation = decode_condensation(&loader)?;
    Ok(GraphSnapshot::from_raw_parts(
        epoch,
        Arc::new(graph),
        Arc::new(condensation),
    ))
}

fn decode_graph(l: &Loader) -> Result<DataGraph, SnapshotError> {
    let c = &l.counts;
    let n = usize::try_from(c.nodes).map_err(|_| malformed("node count overflows usize"))?;
    if c.nodes > u32::MAX as u64 || c.edges > u32::MAX as u64 || c.attrs > u32::MAX as u64 {
        return Err(malformed("counts overflow u32 offsets"));
    }

    // Symbol table: rebuilt owned (the lookup map cannot be mapped).
    let sym_count =
        usize::try_from(c.symbols).map_err(|_| malformed("symbol count overflows usize"))?;
    let names = parse_string_table(l.section_bytes(SectionKind::Symbols)?, sym_count, "Symbols")?;
    let mut symbols = SymbolTable::new();
    for name in &names {
        symbols.intern(name);
    }
    if symbols.len() != sym_count {
        return Err(malformed("Symbols: duplicate interned name"));
    }

    // String dictionary for attribute values, shared between the lazy
    // attribute columns and the index slot keys.
    let str_count =
        usize::try_from(c.strings).map_err(|_| malformed("string count overflows usize"))?;
    let strings = Arc::new(parse_string_table(
        l.section_bytes(SectionKind::Strings)?,
        str_count,
        "Strings",
    )?);

    // Adjacency: zero-copy CSR views.
    let fwd: Csr<NodeId> = l.csr(
        SectionKind::FwdOffsets,
        SectionKind::FwdTargets,
        c.nodes,
        c.edges,
    )?;
    let rev: Csr<NodeId> = l.csr(
        SectionKind::RevOffsets,
        SectionKind::RevTargets,
        c.nodes,
        c.edges,
    )?;

    // Attribute tuples: the four columns stay mapped and decode into owned
    // `Attribute`s only on first per-node access (see `AttrTuples`), so a
    // plain-mmap open never pays the per-node allocations, string clones or
    // even the page faults of these sections.  Verifying modes validate
    // every entry field by field up front — allocation-free — so a file
    // that passes a verified load can never decode wrongly later; plain
    // mmap keeps only the O(1) span check and relies on the defensive
    // access-time decode.
    let attr_offsets: IntRun<u32> = l.run(SectionKind::AttrOffsets, c.nodes + 1)?;
    let attr_names: IntRun<Symbol> = l.run(SectionKind::AttrNames, c.attrs)?;
    let attr_tags: IntRun<u8> = l.run(SectionKind::AttrTags, c.attrs)?;
    let attr_payloads: IntRun<u64> = l.run(SectionKind::AttrPayloads, c.attrs)?;
    check_offsets_span(&attr_offsets, c.attrs, "AttrOffsets")?;

    // Vector-value dictionary (version 2; absent means empty).  The offsets
    // run spans the data run, so every `lo..hi` window `VecDict::get` slices
    // is in bounds after a successful open.
    let vectors = if l.has(SectionKind::VecOffsets) {
        let data: IntRun<f32> = l.run_sized(SectionKind::VecData)?;
        let offsets: IntRun<u32> = l.run_sized(SectionKind::VecOffsets)?;
        if offsets.is_empty() {
            return Err(malformed("VecOffsets must hold at least one entry"));
        }
        check_offsets_span(&offsets, data.len() as u64, "VecOffsets")?;
        Arc::new(VecDict { offsets, data })
    } else {
        Arc::new(VecDict::default())
    };

    if l.verify_all {
        if attr_names.iter().any(|name| name.index() >= sym_count) {
            return Err(malformed("attribute name symbol out of range"));
        }
        for i in 0..attr_tags.len() {
            match attr_tags[i] {
                TAG_INT => {}
                TAG_STR => {
                    let in_dict =
                        usize::try_from(attr_payloads[i]).is_ok_and(|id| id < strings.len());
                    if !in_dict {
                        return Err(malformed("string payload out of dictionary range"));
                    }
                }
                TAG_VEC => {
                    let in_dict =
                        usize::try_from(attr_payloads[i]).is_ok_and(|id| id < vectors.len());
                    if !in_dict {
                        return Err(malformed("vector payload out of dictionary range"));
                    }
                }
                other => return Err(malformed(format!("unknown attribute value tag {other}"))),
            }
        }
    }
    let attrs = AttrTuples::from_columns(
        n,
        AttrColumns {
            offsets: attr_offsets,
            names: attr_names,
            tags: attr_tags,
            payloads: attr_payloads,
            strings: Arc::clone(&strings),
            vectors,
        },
    );

    let index = decode_index(l, sym_count, &strings)?;
    let sims = decode_sims(l, sym_count, c.nodes)?;
    Ok(DataGraph {
        symbols,
        fwd,
        rev,
        attrs,
        index,
        sims,
        edge_count: c.edges as usize,
    })
}

/// Reconstructs the similarity catalog from the flattened sim-table sections
/// (version 2; a version-1 file yields an empty catalog).  Each table is
/// re-validated through [`SimTable::from_parts`], so incoherent spans in a
/// damaged file surface as [`SnapshotError::Malformed`], never a panic.
fn decode_sims(l: &Loader, sym_count: usize, nodes: u64) -> Result<SimCatalog, SnapshotError> {
    if !l.has(SectionKind::SimSyms) {
        return Ok(SimCatalog::default());
    }
    let syms: IntRun<Symbol> = l.run_sized(SectionKind::SimSyms)?;
    let t = syms.len();
    let dims: IntRun<u32> = l.run(SectionKind::SimDims, t as u64)?;
    let node_offsets: IntRun<u32> = l.run(SectionKind::SimNodeOffsets, t as u64 + 1)?;
    let sim_nodes: IntRun<NodeId> = l.run_sized(SectionKind::SimNodes)?;
    check_offsets_span(&node_offsets, sim_nodes.len() as u64, "SimNodeOffsets")?;
    let vec_offsets: IntRun<u32> = l.run(SectionKind::SimVecOffsets, t as u64 + 1)?;
    let vec_data: IntRun<f32> = l.run_sized(SectionKind::SimVecData)?;
    check_offsets_span(&vec_offsets, vec_data.len() as u64, "SimVecOffsets")?;
    let pivot_offsets: IntRun<u32> = l.run(SectionKind::SimPivotOffsets, t as u64 + 1)?;
    let pivot_data: IntRun<f32> = l.run_sized(SectionKind::SimPivotData)?;
    check_offsets_span(&pivot_offsets, pivot_data.len() as u64, "SimPivotOffsets")?;
    let dist_offsets: IntRun<u32> = l.run(SectionKind::SimDistOffsets, t as u64 + 1)?;
    let dist_data: IntRun<f32> = l.run_sized(SectionKind::SimDistData)?;
    check_offsets_span(&dist_offsets, dist_data.len() as u64, "SimDistOffsets")?;
    let sorted_head: IntRun<f32> = l.run(SectionKind::SimSortedHead, sim_nodes.len() as u64)?;
    let norm_bounds: IntRun<f32> = l.run(SectionKind::SimNormBounds, 2 * t as u64)?;

    let mut tables: BTreeMap<Symbol, SimTable> = BTreeMap::new();
    for i in 0..t {
        let sym = syms[i];
        if sym.index() >= sym_count {
            return Err(malformed("sim-table symbol out of range"));
        }
        let node_span = node_offsets[i] as usize..node_offsets[i + 1] as usize;
        let nodes_run = sim_nodes.slice(node_span.clone());
        if nodes_run.iter().any(|v| v.0 as u64 >= nodes) {
            return Err(malformed("sim-table node id out of range"));
        }
        let table = SimTable::from_parts(
            dims[i],
            nodes_run,
            vec_data.slice(vec_offsets[i] as usize..vec_offsets[i + 1] as usize),
            pivot_data.slice(pivot_offsets[i] as usize..pivot_offsets[i + 1] as usize),
            dist_data.slice(dist_offsets[i] as usize..dist_offsets[i + 1] as usize),
            sorted_head.slice(node_span),
            norm_bounds[2 * i],
            norm_bounds[2 * i + 1],
        )
        .ok_or_else(|| malformed(format!("sim table {i} has incoherent spans")))?;
        if tables.insert(sym, table).is_some() {
            return Err(malformed("duplicate sim-table symbol"));
        }
    }
    Ok(SimCatalog::from_tables(tables))
}

fn decode_value(tag: u8, payload: u64, strings: &[String]) -> Result<AttrValue, SnapshotError> {
    match tag {
        TAG_INT => Ok(AttrValue::Int(payload as i64)),
        TAG_STR => {
            let id = usize::try_from(payload)
                .ok()
                .filter(|&id| id < strings.len())
                .ok_or_else(|| malformed("string payload out of dictionary range"))?;
            Ok(AttrValue::Str(strings[id].clone()))
        }
        other => Err(malformed(format!("unknown attribute value tag {other}"))),
    }
}

fn decode_index(
    l: &Loader,
    sym_count: usize,
    strings: &[String],
) -> Result<AttrIndex, SnapshotError> {
    let c = &l.counts;

    // Value postings: per-slot keys are materialized into the two-level
    // dictionary; offsets and node lists stay mapped.
    let slot_count =
        usize::try_from(c.value_slots).map_err(|_| malformed("slot count overflows usize"))?;
    let val_syms: IntRun<Symbol> = l.run(SectionKind::ValSyms, c.value_slots)?;
    let val_tags: IntRun<u8> = l.run(SectionKind::ValTags, c.value_slots)?;
    let val_payloads: IntRun<u64> = l.run(SectionKind::ValPayloads, c.value_slots)?;
    let value_offsets: IntRun<u32> = l.run(SectionKind::ValOffsets, c.value_slots + 1)?;
    let value_nodes: IntRun<NodeId> = l.run(SectionKind::ValNodes, c.value_nodes)?;
    check_offsets_span(&value_offsets, c.value_nodes, "ValOffsets")?;
    let mut value_slots: HashMap<Symbol, HashMap<AttrValue, u32>> = HashMap::new();
    for slot in 0..slot_count {
        let sym = val_syms[slot];
        if sym.index() >= sym_count {
            return Err(malformed("value-slot symbol out of range"));
        }
        let value = decode_value(val_tags[slot], val_payloads[slot], strings)?;
        let prev = value_slots
            .entry(sym)
            .or_default()
            .insert(value, slot as u32);
        if prev.is_some() {
            return Err(malformed("duplicate value-slot key"));
        }
    }

    // Name postings.
    let name_count =
        usize::try_from(c.name_slots).map_err(|_| malformed("name count overflows usize"))?;
    let name_syms: IntRun<Symbol> = l.run(SectionKind::NameSyms, c.name_slots)?;
    let name_offsets: IntRun<u32> = l.run(SectionKind::NameOffsets, c.name_slots + 1)?;
    let name_nodes: IntRun<NodeId> = l.run(SectionKind::NameNodes, c.name_nodes)?;
    check_offsets_span(&name_offsets, c.name_nodes, "NameOffsets")?;
    let mut name_slots: HashMap<Symbol, u32> = HashMap::with_capacity(name_count);
    for slot in 0..name_count {
        let sym = name_syms[slot];
        if sym.index() >= sym_count {
            return Err(malformed("name-slot symbol out of range"));
        }
        if name_slots.insert(sym, slot as u32).is_some() {
            return Err(malformed("duplicate name-slot symbol"));
        }
    }

    // Integer runs: the two flat halves stay mapped; each per-attribute run
    // is a shared sub-window.
    let int_count =
        usize::try_from(c.int_attrs).map_err(|_| malformed("int-run count overflows usize"))?;
    let int_syms: IntRun<Symbol> = l.run(SectionKind::IntSyms, c.int_attrs)?;
    let int_offsets: IntRun<u32> = l.run(SectionKind::IntOffsets, c.int_attrs + 1)?;
    let int_values: IntRun<i64> = l.run(SectionKind::IntValues, c.int_pairs)?;
    let int_nodes: IntRun<NodeId> = l.run(SectionKind::IntNodes, c.int_pairs)?;
    check_offsets_span(&int_offsets, c.int_pairs, "IntOffsets")?;
    let mut int_runs: HashMap<Symbol, IntPairs> = HashMap::with_capacity(int_count);
    for i in 0..int_count {
        let sym = int_syms[i];
        if sym.index() >= sym_count {
            return Err(malformed("int-run symbol out of range"));
        }
        let lo = int_offsets[i] as usize;
        let hi = int_offsets[i + 1] as usize;
        let pairs = IntPairs {
            values: int_values.slice(lo..hi),
            nodes: int_nodes.slice(lo..hi),
        };
        if int_runs.insert(sym, pairs).is_some() {
            return Err(malformed("duplicate int-run symbol"));
        }
    }

    Ok(AttrIndex {
        value_slots,
        value_offsets,
        value_nodes,
        name_slots,
        name_offsets,
        name_nodes,
        int_runs,
    })
}

fn decode_condensation(l: &Loader) -> Result<Condensation, SnapshotError> {
    let c = &l.counts;
    if c.components > u32::MAX as u64 || c.comp_edges > u32::MAX as u64 {
        return Err(malformed("condensation counts overflow u32 offsets"));
    }
    let comp_of: IntRun<CompId> = l.run(SectionKind::CompOf, c.nodes)?;
    let cyclic: IntRun<u8> = l.run(SectionKind::Cyclic, c.components)?;
    let members: Csr<NodeId> = l.csr(
        SectionKind::MembersOffsets,
        SectionKind::Members,
        c.components,
        c.nodes,
    )?;
    let comp_out: Csr<CompId> = l.csr(
        SectionKind::CompOutOffsets,
        SectionKind::CompOut,
        c.components,
        c.comp_edges,
    )?;
    let comp_in: Csr<CompId> = l.csr(
        SectionKind::CompInOffsets,
        SectionKind::CompIn,
        c.components,
        c.comp_edges,
    )?;
    let topo: IntRun<CompId> = l.run(SectionKind::Topo, c.components)?;
    Ok(Condensation::from_parts(
        comp_of, members, cyclic, comp_out, comp_in, topo,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
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
    fn round_trips_through_all_modes() {
        let snap = sample_snapshot();
        let path = tmp("roundtrip.gtpq");
        snap.save(&path).unwrap();
        for mode in [LoadMode::Mmap, LoadMode::MmapVerified, LoadMode::Heap] {
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
        for mode in [LoadMode::Mmap, LoadMode::MmapVerified, LoadMode::Heap] {
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
            w.section(SectionKind::FwdOffsets, &[0u32, 1]).unwrap();
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

    /// Locates the file offset of `kind`'s section data by parsing the TOC
    /// the way a reader would.
    fn section_offset(bytes: &[u8], kind: SectionKind) -> usize {
        let section_count = read_u64(bytes, 16) as usize;
        let toc_offset = read_u64(bytes, 24) as usize;
        for i in 0..section_count {
            let at = toc_offset + i * TOC_ENTRY_LEN as usize;
            if read_u32(bytes, at) == kind as u32 {
                return read_u64(bytes, at + 8) as usize;
            }
        }
        panic!("section {kind:?} not found");
    }

    #[test]
    fn corrupt_middle_offset_fails_typed_under_plain_mmap() {
        let snap = sample_snapshot();
        let path = tmp("bad-offsets.gtpq");
        snap.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Stomp a middle FwdOffsets entry (plain Mmap never CRCs this run,
        // so only the load-time monotonicity scan can catch it).
        let at = section_offset(&good, SectionKind::FwdOffsets) + 4;
        let mut bad = good.clone();
        bad[at..at + 4].copy_from_slice(&0xFFFFu32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        for mode in [LoadMode::Mmap, LoadMode::MmapVerified, LoadMode::Heap] {
            assert!(
                GraphSnapshot::open(&path, mode).is_err(),
                "non-monotone FwdOffsets accepted under {mode:?}"
            );
        }

        // Same for a posting offsets run consumed by index probes.
        let at = section_offset(&good, SectionKind::ValOffsets) + 4;
        let mut bad = good.clone();
        bad[at..at + 4].copy_from_slice(&0xFFFFu32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(
            GraphSnapshot::open_mmap(&path).is_err(),
            "non-monotone ValOffsets accepted under plain mmap"
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
