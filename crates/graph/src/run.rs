//! Owned-or-mapped integer run storage.
//!
//! Every large flat array in the storage layer — CSR offsets and targets,
//! posting lists, condensation arrays — is an `IntRun`: either an owned
//! `Vec<T>` (graphs built in memory) or a borrowed window into a shared
//! snapshot buffer (graphs loaded from a `.gtpq` file, see [`crate::snap`]).
//! `IntRun` derefs to `&[T]`, so the bitset/galloping intersection paths and
//! the reachability backends' slice borrows consume both representations
//! unchanged; nothing outside this module and the snapshot loader knows which
//! one it is holding.
//!
//! The shared buffer (`SnapshotBytes`, crate-internal) is either an
//! `mmap`'d read-only file
//! (zero-copy, pages fault in on demand) or a 64-byte-aligned heap buffer (the
//! portable fallback, also used when full checksum verification is requested).
//! Mapped runs reinterpret the little-endian file bytes in place, so the
//! zero-copy path is only taken on little-endian targets; big-endian hosts
//! decode into owned vectors instead.

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::condensation::CompId;
use crate::graph::NodeId;
use crate::symbol::Symbol;

/// Marker for plain-old-data element types that may live inside a mapped
/// `IntRun`.
///
/// # Safety
///
/// Implementors must be primitive integers or `#[repr(transparent)]` wrappers
/// around one: no padding, no niches, every bit pattern a valid value, and an
/// alignment of at most 8 (snapshot sections are 64-byte aligned and the heap
/// fallback buffer guarantees 8-byte alignment).
pub unsafe trait RunElem: Copy + Send + Sync + 'static {}

// SAFETY: primitive integers satisfy every requirement above.
unsafe impl RunElem for u8 {}
// SAFETY: as above.
unsafe impl RunElem for u32 {}
// SAFETY: as above.
unsafe impl RunElem for u64 {}
// SAFETY: as above.
unsafe impl RunElem for i64 {}
// SAFETY: `f32` is 4 bytes with no padding or niches; every bit pattern is a
// valid (possibly NaN) float, and its alignment is 4.
unsafe impl RunElem for f32 {}
// SAFETY: `NodeId` is `#[repr(transparent)]` over `u32`.
unsafe impl RunElem for NodeId {}
// SAFETY: `Symbol` is `#[repr(transparent)]` over `u32`.
unsafe impl RunElem for Symbol {}
// SAFETY: `CompId` is `#[repr(transparent)]` over `u32`.
unsafe impl RunElem for CompId {}

/// A flat run of integers, either owned or borrowed from a snapshot buffer.
///
/// Cloning an owned run copies the data (exactly as the former `Vec` fields
/// did); cloning a mapped run bumps one refcount.  Equality, hashing and
/// `Debug` all go through the slice view, so an owned run and a mapped run
/// over the same values compare equal.
pub(crate) struct IntRun<T: RunElem> {
    repr: Repr<T>,
}

enum Repr<T: RunElem> {
    Owned(Vec<T>),
    Mapped {
        bytes: Arc<SnapshotBytes>,
        /// Byte offset into `bytes`; always a multiple of `align_of::<T>()`.
        offset: usize,
        /// Element count.
        len: usize,
        _marker: PhantomData<T>,
    },
}

impl<T: RunElem> IntRun<T> {
    /// An empty owned run.
    pub const fn new() -> Self {
        Self {
            repr: Repr::Owned(Vec::new()),
        }
    }

    /// Wraps an owned vector.
    pub(crate) fn from_vec(v: Vec<T>) -> Self {
        Self {
            repr: Repr::Owned(v),
        }
    }

    /// Borrows `len` elements starting at byte `offset` of `bytes`.
    ///
    /// Returns `None` when the window is out of bounds, misaligned for `T`,
    /// or the host is big-endian (snapshot bytes are little-endian and cannot
    /// be reinterpreted in place there).
    pub(crate) fn from_bytes(
        bytes: &Arc<SnapshotBytes>,
        offset: usize,
        len: usize,
    ) -> Option<Self> {
        if !cfg!(target_endian = "little") {
            return None;
        }
        let size = std::mem::size_of::<T>();
        let byte_len = len.checked_mul(size)?;
        let end = offset.checked_add(byte_len)?;
        if end > bytes.as_slice().len() {
            return None;
        }
        let base = bytes.as_slice().as_ptr() as usize;
        if !(base + offset).is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Self {
            repr: Repr::Mapped {
                bytes: Arc::clone(bytes),
                offset,
                len,
                _marker: PhantomData,
            },
        })
    }

    /// The run as a slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            Repr::Mapped {
                bytes, offset, len, ..
            } => {
                // SAFETY: the constructor checked bounds and alignment, `T`
                // is plain-old-data (`RunElem`), and the buffer lives for as
                // long as the `Arc` we hold.
                unsafe {
                    std::slice::from_raw_parts(
                        bytes.as_slice().as_ptr().add(*offset) as *const T,
                        *len,
                    )
                }
            }
        }
    }

    /// Whether the run borrows a snapshot buffer (as opposed to owning a
    /// heap vector).
    #[cfg(test)]
    fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }

    /// Copies the run into a fresh owned vector — the copy-on-write step
    /// every mutation path takes before building a successor epoch, so a
    /// commit on a mapped graph never writes through to the file.
    pub(crate) fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }

    /// The `(device, inode)` of the file a mapped run borrows, when known.
    /// `None` for owned runs and heap-fallback loads.
    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        match &self.repr {
            Repr::Owned(_) => None,
            Repr::Mapped { bytes, .. } => bytes.mmap_file_id(),
        }
    }

    /// A sub-run over `range` (element indices).  Mapped runs share the
    /// buffer; owned runs copy the window.
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    pub(crate) fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= self.len());
        match &self.repr {
            Repr::Owned(v) => Self::from_vec(v[range].to_vec()),
            Repr::Mapped { bytes, offset, .. } => Self {
                repr: Repr::Mapped {
                    bytes: Arc::clone(bytes),
                    offset: offset + range.start * std::mem::size_of::<T>(),
                    len: range.end - range.start,
                    _marker: PhantomData,
                },
            },
        }
    }
}

impl<T: RunElem> std::ops::Deref for IntRun<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: RunElem> Default for IntRun<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: RunElem> From<Vec<T>> for IntRun<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from_vec(v)
    }
}

impl<T: RunElem> Clone for IntRun<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => Self::from_vec(v.clone()),
            Repr::Mapped {
                bytes, offset, len, ..
            } => Self {
                repr: Repr::Mapped {
                    bytes: Arc::clone(bytes),
                    offset: *offset,
                    len: *len,
                    _marker: PhantomData,
                },
            },
        }
    }
}

impl<T: RunElem + fmt::Debug> fmt::Debug for IntRun<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: RunElem + PartialEq> PartialEq for IntRun<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: RunElem + Eq> Eq for IntRun<T> {}

/// The shared buffer a mapped [`IntRun`] borrows from: either an `mmap`'d
/// read-only file or an aligned heap copy of one.
pub(crate) enum SnapshotBytes {
    /// Zero-copy file mapping (unix, 64-bit).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mmap(MmapFile),
    /// Portable fallback: the whole file read into an aligned heap buffer.
    Heap(AlignedBytes),
}

impl SnapshotBytes {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            SnapshotBytes::Mmap(m) => m.as_slice(),
            SnapshotBytes::Heap(h) => h.as_slice(),
        }
    }

    /// Whether this buffer is a live file mapping.
    pub(crate) fn is_mmap(&self) -> bool {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            SnapshotBytes::Mmap(_) => true,
            SnapshotBytes::Heap(_) => false,
        }
    }

    /// The `(device, inode)` identity of the file backing a live mapping;
    /// `None` for heap buffers (nothing on disk is borrowed).  Used by the
    /// snapshot writer to refuse saving onto the very file it would be
    /// streaming the mapped runs out of.
    pub(crate) fn mmap_file_id(&self) -> Option<(u64, u64)> {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            SnapshotBytes::Mmap(m) => m.file_id,
            SnapshotBytes::Heap(_) => None,
        }
    }
}

/// A heap buffer whose base pointer is 8-byte aligned (backed by `u64`
/// storage), so snapshot sections keep the same alignment guarantees as the
/// page-aligned mmap path.
pub(crate) struct AlignedBytes {
    storage: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `data` into a fresh aligned buffer.
    pub(crate) fn copy_from(data: &[u8]) -> Self {
        let words = data.len().div_ceil(8);
        let mut storage = vec![0u64; words];
        // SAFETY: the destination is `words * 8 >= data.len()` bytes of
        // initialized `u64` storage; `u8` writes cannot violate alignment.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                storage.as_mut_ptr() as *mut u8,
                data.len(),
            );
        }
        Self {
            storage,
            len: data.len(),
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        // SAFETY: `storage` holds at least `len` initialized bytes and `u64`
        // storage is valid to view as bytes.
        unsafe { std::slice::from_raw_parts(self.storage.as_ptr() as *const u8, self.len) }
    }
}

/// A read-only private file mapping, unmapped on drop.
///
/// The wrapper declares the two libc entry points itself (the build
/// environment vendors no `libc` crate); it is only compiled on 64-bit unix
/// where `off_t` is `i64` and the process already links the C runtime.
#[cfg(all(unix, target_pointer_width = "64"))]
pub(crate) struct MmapFile {
    ptr: std::ptr::NonNull<std::ffi::c_void>,
    len: usize,
    /// `(device, inode)` of the mapped file, when the fstat at map time
    /// succeeded — identifies the on-disk object independently of its path.
    file_id: Option<(u64, u64)>,
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};

    pub(super) const PROT_READ: c_int = 1;
    pub(super) const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl MmapFile {
    /// Maps `len` bytes of `file` read-only.  Fails (returns `None`) when the
    /// kernel refuses the mapping; zero-length files are never mapped.
    pub(crate) fn map(file: &std::fs::File, len: usize) -> Option<Self> {
        use std::os::unix::fs::MetadataExt;
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        let file_id = file.metadata().ok().map(|m| (m.dev(), m.ino()));
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we hold
        // open; the kernel validates the fd and length and returns MAP_FAILED
        // on error, which we check for.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return None;
        }
        Some(Self {
            ptr: std::ptr::NonNull::new(ptr)?,
            len,
            file_id,
        })
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        // SAFETY: the mapping covers `len` readable bytes and stays valid
        // until `munmap` in `Drop`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr() as *const u8, self.len) }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for MmapFile {
    fn drop(&mut self) {
        // SAFETY: exactly the pointer/length pair returned by mmap.
        unsafe {
            sys::munmap(self.ptr.as_ptr(), self.len);
        }
    }
}

// SAFETY: the mapping is read-only (PROT_READ) and never remapped, so shared
// references across threads are sound.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for MmapFile {}
// SAFETY: as above.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for MmapFile {}

/// The window `targets[offsets[i] .. offsets[i + 1]]`, as every reader of an
/// offsets run takes it.
///
/// Total by construction: a pair that cannot be a window — decreasing,
/// running past the targets, or `i + 1` beyond the offsets — is the empty
/// window, never a panic and never an overflowing subtraction.  A plain
/// [`LoadMode::Mmap`](crate::snap::LoadMode::Mmap) open checks only the two
/// ends of a mapped offsets run, so a damaged middle entry reaches this
/// function; an honest run pays the two comparisons `&targets[lo..hi]` makes
/// anyway.
#[inline]
pub(crate) fn window<'a, T>(offsets: &[u32], i: usize, targets: &'a [T]) -> &'a [T] {
    let (Some(&lo), Some(&hi)) = (offsets.get(i), offsets.get(i.wrapping_add(1))) else {
        return &[];
    };
    targets.get(lo as usize..hi as usize).unwrap_or(&[])
}

/// Appends `base \ removed ∪ added` to `out` — the one sorted-run merge
/// every commit maintains its posting families and CSR adjacency with.
///
/// All three inputs ascend; an addition `base` already holds is written
/// once, and a removal `base` does not hold is skipped.  The stretches of
/// `base` between two changes are copied whole, so a run that changes in
/// a few places costs a few binary searches and one copy.  A `base` out of
/// order (a run mapped unverified from a damaged file) merges into some
/// order, never a panic.
pub(crate) fn merge_run<T: Copy + Ord>(
    mut base: &[T],
    mut removed: &[T],
    mut added: &[T],
    out: &mut Vec<T>,
) {
    out.reserve(base.len() + added.len());
    loop {
        let next = match (removed.first(), added.first()) {
            (Some(&r), Some(&a)) => r.min(a),
            (Some(&x), None) | (None, Some(&x)) => x,
            (None, None) => break,
        };
        let below = base.partition_point(|&x| x < next);
        out.extend_from_slice(&base[..below]);
        base = &base[below..];
        let take = |run: &mut &[T]| {
            let head = run.first() == Some(&next);
            if head {
                *run = &run[1..];
            }
            head
        };
        let (held, is_removed, is_added) = (take(&mut base), take(&mut removed), take(&mut added));
        if is_added || (held && !is_removed) {
            out.push(next);
        }
    }
    out.extend_from_slice(base);
}

/// IEEE CRC-32 (the zlib polynomial), slicing-by-8: eight table lookups per
/// eight input bytes instead of a serial lookup per byte.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    /// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
    /// the CRC of byte `b` followed by `k` zero bytes.
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut k = 1usize;
        while k < 8 {
            let mut i = 0usize;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                i += 1;
            }
            k += 1;
        }
        tables
    };
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_run_behaves_like_a_vec() {
        let run: IntRun<u32> = vec![3, 1, 4].into();
        assert_eq!(run.as_slice(), &[3, 1, 4]);
        assert_eq!(run.len(), 3);
        assert!(!run.is_mapped());
        assert_eq!(run.to_vec(), vec![3, 1, 4]);
        assert_eq!(run.slice(1..3).as_slice(), &[1, 4]);
        let clone = run.clone();
        assert_eq!(run, clone);
    }

    #[test]
    fn mapped_run_reads_little_endian_bytes_in_place() {
        let mut bytes = Vec::new();
        for v in [7u32, 11, u32::MAX] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let shared = Arc::new(SnapshotBytes::Heap(AlignedBytes::copy_from(&bytes)));
        let run = IntRun::<u32>::from_bytes(&shared, 0, 3).expect("aligned in-bounds window");
        assert!(run.is_mapped());
        assert_eq!(run.as_slice(), &[7, 11, u32::MAX]);
        let owned: IntRun<u32> = vec![7, 11, u32::MAX].into();
        assert_eq!(run, owned);
        // Sub-slicing a mapped run shares the buffer.
        let sub = run.slice(1..3);
        assert!(sub.is_mapped());
        assert_eq!(sub.as_slice(), &[11, u32::MAX]);
    }

    #[test]
    fn mapped_run_rejects_bad_windows() {
        let shared = Arc::new(SnapshotBytes::Heap(AlignedBytes::copy_from(&[0u8; 16])));
        assert!(IntRun::<u32>::from_bytes(&shared, 0, 5).is_none()); // out of bounds
        assert!(IntRun::<u32>::from_bytes(&shared, 2, 1).is_none()); // misaligned
        assert!(IntRun::<i64>::from_bytes(&shared, 12, 1).is_none()); // misaligned for i64
        assert!(IntRun::<u32>::from_bytes(&shared, usize::MAX, 2).is_none()); // overflow
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as its reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_agrees_with_the_bytewise_loop_at_every_length_and_alignment() {
        // A fixed xorshift stream: no two windows below share their bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let storage: Vec<u64> = (0..40)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let bytes = AlignedBytes::copy_from(
            &storage
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect::<Vec<u8>>(),
        );
        let bytes = bytes.as_slice();
        for start in 0..8 {
            for len in 0..=257 {
                let window = &bytes[start..start + len];
                assert_eq!(
                    crc32(window),
                    crc32_bytewise(window),
                    "start {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn window_is_total() {
        let offsets = [0u32, 2, 5, 3, 9, 7];
        let targets = [10u8, 11, 12, 13, 14, 15, 16];
        let empty: &[u8] = &[];
        // Honest pairs.
        assert_eq!(window(&offsets, 0, &targets), &[10, 11]);
        assert_eq!(window(&offsets, 1, &targets), &[12, 13, 14]);
        // Decreasing, past the end of the targets, and both at once.
        assert_eq!(window(&offsets, 2, &targets), empty);
        assert_eq!(window(&offsets, 3, &targets), empty);
        assert_eq!(window(&offsets, 4, &targets), empty);
        assert_eq!(window(&[0, u32::MAX], 0, &targets), empty);
        // An exact fit is a window, one past it is not.
        assert_eq!(window(&[0, 3, 7], 1, &targets), &[13, 14, 15, 16]);
        assert_eq!(window(&[0, 3, 8], 1, &targets), empty);
        // `i + 1`, `i`, and `i + 1` as an integer out of range.
        assert_eq!(window(&offsets, 5, &targets), empty);
        assert_eq!(window(&offsets, 6, &targets), empty);
        assert_eq!(window(&offsets, usize::MAX, &targets), empty);
        // Empty and one-entry offsets index nothing.
        assert_eq!(window(&[], 0, &targets), empty);
        assert_eq!(window(&[0], 0, &targets), empty);
    }

    #[test]
    fn merge_run_is_a_sorted_set_difference_and_union() {
        let merged = |base: &[u32], removed: &[u32], added: &[u32]| {
            let mut out = vec![99];
            merge_run(base, removed, added, &mut out);
            out
        };
        assert_eq!(merged(&[], &[], &[]), [99]);
        assert_eq!(merged(&[1, 3, 5], &[], &[]), [99, 1, 3, 5]);
        assert_eq!(merged(&[], &[2], &[4, 6]), [99, 4, 6]);
        // Interleaved additions, one of them already held, and removals
        // the base does and does not hold.
        assert_eq!(
            merged(&[1, 3, 5, 7, 9], &[0, 3, 8, 9], &[2, 5, 10]),
            [99, 1, 2, 5, 7, 10]
        );
        // Emptied, and a value removed and added in one merge stays.
        assert_eq!(merged(&[4, 6], &[4, 6], &[]), [99]);
        assert_eq!(merged(&[4, 6], &[4], &[4]), [99, 4, 6]);
        // A base out of order merges without a panic.
        assert!(merged(&[5, 1, 3], &[1], &[2]).contains(&2));
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mmap_maps_a_real_file() {
        let dir = std::env::temp_dir().join("gtpq-run-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.bin");
        std::fs::write(&path, [1u8, 2, 3, 4, 5]).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let map = MmapFile::map(&file, 5).expect("mmap");
        assert_eq!(map.as_slice(), &[1, 2, 3, 4, 5]);
        let _ = std::fs::remove_file(&path);
    }
}
