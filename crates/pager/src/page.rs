//! The page image: every byte offset of the on-disk format lives here.
//!
//! All integers are little-endian. Every page carries a CRC-32 at byte
//! offset 8, computed over the whole page with the checksum field zeroed, so
//! torn writes and bit rot surface as [`PageError::ChecksumMismatch`] instead
//! of silently wrong query answers.
//!
//! **Meta page** (page 0), format version 3, or 4 for a tree with
//! compressed internal pages (version 2, the retired array-of-structs
//! format, is a typed [`PageError::UnsupportedVersion`]):
//! ```text
//! offset  size  field
//! 0       4     magic "RTDB"
//! 4       4     format version (3, or 4 if compressed)
//! 8       4     crc32 (whole page, this field zeroed)
//! 12      4     min entries (condense-tree threshold)
//! 16      8     root page id
//! 24      4     height (number of levels)
//! 28      4     node capacity (max entries)
//! 32      8     item count
//! 40      8     node count
//! 48      8     free-list head page id (0 = empty list)
//! 56      4     level count L (0 = level table stale after updates)
//! 60      8*L   first page id of each level, root level first
//! 60+8L   4     internal node capacity (version 4 only)
//! ```
//!
//! **Node page**, 16-byte header, two body layouts:
//! ```text
//! 0       2     magic 0x5254 ("RT")
//! 2       2     node level (0 = leaf)
//! 4       2     entry count
//! 6       2     layout flag: 1 = SoA (v3), 2 = Packed (v4)
//! 8       4     crc32 (whole page, this field zeroed)
//! 12      4     reserved (0)
//! ```
//! Flag 0 was the array-of-structs body of format v2; it is rejected as
//! [`PageError::UnsupportedLayout`] like any other unknown flag.
//!
//! *SoA body* (layout 1, format v3): five fixed-stride arrays of
//! `102 × 8 = 816` bytes each — the first `k` slots of each are live —
//! filling the page exactly (`16 + 5·816 = 4096`):
//! ```text
//! 16      816   lo.x[0..102]
//! 832     816   lo.y[0..102]
//! 1648    816   hi.x[0..102]
//! 2464    816   hi.y[0..102]
//! 3280    816   ptr[0..102]
//! ```
//! The SoA body lets the [`rtree_geom`] intersection and distance kernels
//! run directly on the coordinate planes where they lie in the frame — see
//! [`PageView`]. At leaf level `ptr` is the item id; at internal levels it
//! is the child *page* id.
//!
//! *Packed body* (layout 2, format v4, internal pages of compressed trees):
//! one full-precision *frame* rectangle — the page's own bounding rect —
//! then each entry rectangle as four 16-bit codes relative to the frame.
//! `253 × 16 = 4048` bytes of entries fill the page exactly
//! (`16 + 32 + 4·506 + 2024 = 4096`), ~2.5× the 102-entry fan-out of the
//! f64 layout:
//! ```text
//! 16      32    frame: lo.x f64, lo.y f64, hi.x f64, hi.y f64
//! 48      506   lo.x codes u16[0..253]
//! 554     506   lo.y codes u16[0..253]
//! 1060    506   hi.x codes u16[0..253]
//! 1566    506   hi.y codes u16[0..253]
//! 2072    2024  ptr u64[0..253]
//! ```
//! The decode mapping from codes to coordinates lives in
//! [`rtree_geom::quant`]; the encoder here owns the **conservative-rounding
//! guarantee**: for every rectangle `r` inside the frame,
//! `decode(encode(r)) ⊇ r`, and each edge moves outward by at most one
//! quantum. Low edges round *down* (largest code decoding at-or-below the
//! true coordinate), high edges round *up* (smallest code decoding
//! at-or-above). Because the float estimate `(v − base) / quantum` can land
//! a step off the true grid cell, the encoder verifies candidate codes
//! against the actual decode mapping in a small window around the estimate
//! instead of trusting the division — soundness comes from the check, not
//! the arithmetic. Code 0 (= `base`) and code [`QMAX`] (= `top`) are always
//! sound fallbacks, so containment holds unconditionally.
//!
//! Only *internal* pages are quantized: a decoded routing rectangle that
//! contains the true child MBR can cause an extra descent (a false
//! positive) but never a missed one, and leaf pages keep exact `f64`
//! coordinates, so query result sets and kNN distances are exactly those
//! of the uncompressed tree.
//!
//! **Reading a page.** The tree walks never decode: a [`PageView`] borrows
//! the trusted frame, checks the header in O(1) (magic, count, layout flag,
//! Packed frame, and that the page's level is the one the walk descended
//! to), and answers the walk's three questions on the bytes in place. SoA
//! planes are compared as unaligned little-endian `f64` lanes. Packed planes
//! are compared in *code space*: the query is quantized into the page's
//! frame once per visit (`rtree_geom::quant::{code_at_most, code_at_least}`)
//! and tested against the stored codes, which — the decode mapping being
//! monotone — selects exactly the entries the dequantized comparison would;
//! kNN dequantizes in registers. The per-entry invariants
//! ([`PageError::CorruptRect`]: rectangles finite with `lo <= hi`; on Packed
//! pages `lo code <= hi code` per axis, checked on codes because the clamped
//! decode could mask an inversion) are validated inside those same loops, on
//! every visit of every page, writes' loads included. [`NodePage::decode`]
//! (entry at a time, behind `DiskRTree::query_scalar`) and [`NodeSoA`]
//! (plane at a time into owned arrays) enforce the same invariants and stay
//! as the differential references.
//!
//! **Free page** (a dissolved node on the free list headed in the meta
//! page; reused before the store grows):
//! ```text
//! 0       4     tag "FREE"
//! 8       4     crc32 (whole page, this field zeroed)
//! 16      8     next free page id (0 = end of list)
//! ```
//!
//! The level table in the meta page describes the contiguous level-order
//! layout produced by bulk materialization. Once the tree has been mutated
//! in place the layout is no longer contiguous, so updates store `L = 0`
//! ("stale") and layout-dependent operations (`pin_top_levels`,
//! `pages_per_level`) refuse to run.

use rtree_geom::quant::{dequant, dequantize_into, quantum, QMAX};
use rtree_geom::{active_kernel, CorruptEntry, EntryPlanes, Point, Rect, RectSoA};
use rtree_wal::crc32;
use std::fmt;
use std::io;

/// Page size in bytes (one R-tree node per page, as the paper assumes).
pub const PAGE_SIZE: usize = 4096;

const NODE_HEADER: usize = 16;
/// Bytes one SoA entry takes across the five planes (4 × f64 + pointer).
const ENTRY_SIZE: usize = 40;
const CRC_OFFSET: usize = 8;
const LAYOUT_OFFSET: usize = 6;

/// Maximum entries an SoA node page can hold: `(4096 − 16) / 40` (five
/// 816-byte arrays fill the page exactly).
pub const MAX_ENTRIES_PER_PAGE: usize = (PAGE_SIZE - NODE_HEADER) / ENTRY_SIZE;

/// Byte stride of one SoA coordinate array: `102 × 8`.
const SOA_STRIDE: usize = MAX_ENTRIES_PER_PAGE * 8;

/// Maximum entries of a Packed (compressed, format v4) node page:
/// `(4096 − 16 − 32) / (4·2 + 8) = 253`, ~2.5× the f64 layout.
pub const MAX_ENTRIES_PACKED: usize = (PAGE_SIZE - NODE_HEADER - PACKED_FRAME_SIZE) / 16;

/// Byte size of the Packed frame rectangle (4 × f64).
const PACKED_FRAME_SIZE: usize = 32;
/// Offset of the Packed frame rectangle.
const PACKED_FRAME_OFFSET: usize = NODE_HEADER;
/// Offset of the first quantized coordinate plane.
const PACKED_PLANES_OFFSET: usize = PACKED_FRAME_OFFSET + PACKED_FRAME_SIZE;
/// Byte stride of one quantized coordinate plane: `253 × 2`.
const PACKED_QSTRIDE: usize = MAX_ENTRIES_PACKED * 2;
/// Offset of the Packed pointer plane.
const PACKED_PTR_OFFSET: usize = PACKED_PLANES_OFFSET + 4 * PACKED_QSTRIDE;

const META_MAGIC: [u8; 4] = *b"RTDB";
const NODE_MAGIC: u16 = 0x5254;
/// Format version of uncompressed trees (SoA node bodies throughout).
const FORMAT_VERSION: u32 = 3;
/// Format version of trees whose internal pages use the Packed layout.
const FORMAT_VERSION_PACKED: u32 = 4;

/// Tag at offset 0 of a page on the free list.
const FREE_MAGIC: [u8; 4] = *b"FREE";
/// Offset of a free page's next-free-page pointer, past the page CRC.
const FREE_NEXT_OFFSET: usize = 16;

// The five SoA arrays must tile the page body exactly.
const _: () = assert!(NODE_HEADER + 5 * SOA_STRIDE == PAGE_SIZE);
// The Packed frame + four code planes + pointer plane must, too.
const _: () = assert!(PACKED_PTR_OFFSET + MAX_ENTRIES_PACKED * 8 == PAGE_SIZE);

/// Body layout of a node page (header byte 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageLayout {
    /// Struct-of-arrays coordinate planes — format v3, the layout the SIMD
    /// kernels consume without a gather step.
    Soa,
    /// Frame-relative 16-bit quantized planes — format v4, internal pages
    /// of compressed trees. Decoded rects conservatively contain the true
    /// ones (see the module docs).
    Packed,
}

impl PageLayout {
    fn flag(self) -> u16 {
        match self {
            PageLayout::Soa => 1,
            PageLayout::Packed => 2,
        }
    }

    fn from_flag(flag: u16) -> Result<Self, PageError> {
        match flag {
            1 => Ok(PageLayout::Soa),
            2 => Ok(PageLayout::Packed),
            other => Err(PageError::UnsupportedLayout(other)),
        }
    }

    /// Entry capacity of a page in this layout.
    pub fn capacity(self) -> usize {
        match self {
            PageLayout::Soa => MAX_ENTRIES_PER_PAGE,
            PageLayout::Packed => MAX_ENTRIES_PACKED,
        }
    }

    /// Reads the layout flag from an already-validated node-page image.
    pub fn of(buf: &[u8]) -> Result<Self, PageError> {
        check_len(buf)?;
        PageLayout::from_flag(u16::from_le_bytes(
            buf[LAYOUT_OFFSET..LAYOUT_OFFSET + 2]
                .try_into()
                .expect("2 bytes"),
        ))
    }
}

/// Typed page-corruption error: every way a page image can fail validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageError {
    /// The buffer is not exactly one page long.
    WrongLength {
        /// Bytes supplied.
        got: usize,
    },
    /// The magic bytes identify neither page kind.
    BadMagic,
    /// The format version is not one this build reads (3 or 4).
    UnsupportedVersion(u32),
    /// The stored CRC-32 does not match the page contents.
    ChecksumMismatch {
        /// Checksum stored in the page header.
        stored: u32,
        /// Checksum computed over the page contents.
        computed: u32,
    },
    /// The entry count exceeds what a page can physically hold.
    EntryOverflow(usize),
    /// The node-page layout flag identifies no known body layout.
    UnsupportedLayout(u16),
    /// An entry rectangle fails validation (inverted or non-finite).
    CorruptRect,
    /// The page's level field is not the level the walk descended to, so
    /// its pointers cannot be trusted to lead downward (a crafted image can
    /// close them into a cycle).
    LevelMismatch {
        /// Level the parent (or the meta page, for the root) implies.
        expected: u16,
        /// Level stored in the page header.
        found: u16,
    },
    /// Meta-page fields contradict each other.
    InconsistentMeta(&'static str),
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::WrongLength { got } => {
                write!(f, "page buffer is {got} bytes, expected {PAGE_SIZE}")
            }
            PageError::BadMagic => write!(f, "bad page magic"),
            PageError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            PageError::ChecksumMismatch { stored, computed } => write!(
                f,
                "page checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PageError::EntryOverflow(n) => {
                write!(f, "entry count {n} exceeds the layout's page capacity")
            }
            PageError::UnsupportedLayout(flag) => {
                write!(f, "unsupported node-page layout flag {flag}")
            }
            PageError::CorruptRect => write!(f, "corrupt entry rectangle"),
            PageError::LevelMismatch { expected, found } => {
                write!(f, "node page at level {found}, expected level {expected}")
            }
            PageError::InconsistentMeta(what) => write!(f, "inconsistent meta page: {what}"),
        }
    }
}

impl std::error::Error for PageError {}

impl From<PageError> for io::Error {
    fn from(e: PageError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

impl From<CorruptEntry> for PageError {
    fn from(_: CorruptEntry) -> PageError {
        PageError::CorruptRect
    }
}

/// CRC over a whole page with the 4-byte checksum field treated as zero.
fn page_checksum(buf: &[u8]) -> u32 {
    let mut h = crc32::Hasher::new();
    h.update(&buf[..CRC_OFFSET]);
    h.update(&[0u8; 4]);
    h.update(&buf[CRC_OFFSET + 4..]);
    h.finalize()
}

fn seal(buf: &mut [u8]) {
    let crc = page_checksum(buf);
    buf[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
}

pub(crate) fn verify_checksum(buf: &[u8]) -> Result<(), PageError> {
    let stored = u32::from_le_bytes(buf[CRC_OFFSET..CRC_OFFSET + 4].try_into().expect("4 bytes"));
    let computed = page_checksum(buf);
    if stored != computed {
        return Err(PageError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

fn check_len(buf: &[u8]) -> Result<(), PageError> {
    if buf.len() != PAGE_SIZE {
        return Err(PageError::WrongLength { got: buf.len() });
    }
    Ok(())
}

/// Encodes a free-list page chaining to `next` (0 ends the list), sealing
/// it like every other page: the buffer manager verifies free pages at
/// page-in too.
pub(crate) fn encode_free_page(next: u64, buf: &mut [u8]) {
    assert_eq!(buf.len(), PAGE_SIZE);
    buf.fill(0);
    buf[0..4].copy_from_slice(&FREE_MAGIC);
    buf[FREE_NEXT_OFFSET..FREE_NEXT_OFFSET + 8].copy_from_slice(&next.to_le_bytes());
    seal(buf);
}

/// Decodes a free-list page, validating tag and checksum; returns the next
/// free page id (0 = end of list).
pub(crate) fn decode_free_page(buf: &[u8]) -> Result<u64, PageError> {
    check_len(buf)?;
    if buf[0..4] != FREE_MAGIC {
        return Err(PageError::BadMagic);
    }
    verify_checksum(buf)?;
    Ok(u64::from_le_bytes(
        buf[FREE_NEXT_OFFSET..FREE_NEXT_OFFSET + 8]
            .try_into()
            .expect("8 bytes"),
    ))
}

/// Decoded meta page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageMeta {
    /// Page id of the root node.
    pub root: u64,
    /// Number of levels.
    pub height: u32,
    /// Node capacity the tree was built with.
    pub max_entries: u32,
    /// Minimum entries per node (condense-tree threshold).
    pub min_entries: u32,
    /// Number of items.
    pub items: u64,
    /// Number of node pages.
    pub nodes: u64,
    /// Head of the free-page list (0 = empty; page 0 is always the meta
    /// page, so 0 is never a valid free page).
    pub free_head: u64,
    /// First page id of each level, root level first. Empty once the
    /// level-order layout has been invalidated by in-place updates.
    pub level_starts: Vec<u64>,
    /// Entry capacity of *internal* nodes. Equal to `max_entries` on
    /// uncompressed trees; compressed (format v4) trees pack internal
    /// pages denser than leaves, up to [`MAX_ENTRIES_PACKED`].
    pub internal_max_entries: u32,
    /// Whether internal pages use the Packed (format v4) layout. Leaves
    /// stay exact-`f64` SoA either way — that is what keeps query results
    /// exact on compressed trees.
    pub compressed: bool,
}

impl PageMeta {
    /// Encodes into a page buffer, sealing it with a checksum.
    pub fn encode(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), PAGE_SIZE);
        buf.fill(0);
        buf[0..4].copy_from_slice(&META_MAGIC);
        let version = if self.compressed {
            FORMAT_VERSION_PACKED
        } else {
            FORMAT_VERSION
        };
        buf[4..8].copy_from_slice(&version.to_le_bytes());
        buf[12..16].copy_from_slice(&self.min_entries.to_le_bytes());
        buf[16..24].copy_from_slice(&self.root.to_le_bytes());
        buf[24..28].copy_from_slice(&self.height.to_le_bytes());
        buf[28..32].copy_from_slice(&self.max_entries.to_le_bytes());
        buf[32..40].copy_from_slice(&self.items.to_le_bytes());
        buf[40..48].copy_from_slice(&self.nodes.to_le_bytes());
        buf[48..56].copy_from_slice(&self.free_head.to_le_bytes());
        let l = self.level_starts.len() as u32;
        buf[56..60].copy_from_slice(&l.to_le_bytes());
        let mut off = 60;
        for s in &self.level_starts {
            buf[off..off + 8].copy_from_slice(&s.to_le_bytes());
            off += 8;
        }
        if self.compressed {
            // The internal capacity rides after the level table; v3 images
            // have no such field (their internal capacity is `max_entries`).
            buf[off..off + 4].copy_from_slice(&self.internal_max_entries.to_le_bytes());
        }
        seal(buf);
    }

    /// Decodes from a page buffer, validating magic, version and checksum.
    pub fn decode(buf: &[u8]) -> Result<Self, PageError> {
        check_len(buf)?;
        if buf[0..4] != META_MAGIC {
            return Err(PageError::BadMagic);
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if !(FORMAT_VERSION..=FORMAT_VERSION_PACKED).contains(&version) {
            return Err(PageError::UnsupportedVersion(version));
        }
        verify_checksum(buf)?;
        let min_entries = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
        let root = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        let height = u32::from_le_bytes(buf[24..28].try_into().expect("4 bytes"));
        let max_entries = u32::from_le_bytes(buf[28..32].try_into().expect("4 bytes"));
        let items = u64::from_le_bytes(buf[32..40].try_into().expect("8 bytes"));
        let nodes = u64::from_le_bytes(buf[40..48].try_into().expect("8 bytes"));
        let free_head = u64::from_le_bytes(buf[48..56].try_into().expect("8 bytes"));
        let l = u32::from_le_bytes(buf[56..60].try_into().expect("4 bytes")) as usize;
        if l != 0 && l != height as usize {
            return Err(PageError::InconsistentMeta("level table length != height"));
        }
        let compressed = version == FORMAT_VERSION_PACKED;
        let tail = if compressed { 4 } else { 0 };
        if 60 + 8 * l + tail > PAGE_SIZE {
            return Err(PageError::InconsistentMeta("level table overflows page"));
        }
        let mut level_starts = Vec::with_capacity(l);
        let mut off = 60;
        for _ in 0..l {
            level_starts.push(u64::from_le_bytes(
                buf[off..off + 8].try_into().expect("8 bytes"),
            ));
            off += 8;
        }
        let internal_max_entries = if compressed {
            let cap = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"));
            if !(2..=MAX_ENTRIES_PACKED as u32).contains(&cap) {
                return Err(PageError::InconsistentMeta(
                    "internal node capacity out of range",
                ));
            }
            cap
        } else {
            max_entries
        };
        Ok(PageMeta {
            root,
            height,
            max_entries,
            min_entries,
            items,
            nodes,
            free_head,
            level_starts,
            internal_max_entries,
            compressed,
        })
    }

    /// Entry capacity of a node at on-page `level` (0 = leaf): compressed
    /// trees pack internal pages denser than leaves.
    pub fn capacity_at(&self, level: u16) -> usize {
        if level == 0 {
            self.max_entries as usize
        } else {
            self.internal_max_entries as usize
        }
    }

    /// On-page level of the root node (leaves are 0).
    pub(crate) fn root_level(&self) -> u16 {
        (self.height - 1) as u16
    }

    /// Body layout this tree writes for a node at on-page `level`:
    /// compressed trees quantize internal pages, everything else is SoA.
    pub fn layout_at(&self, level: u16) -> PageLayout {
        if self.compressed && level > 0 {
            PageLayout::Packed
        } else {
            PageLayout::Soa
        }
    }

    /// The page ids of the top `p` levels under the bulk-load level-order
    /// layout (`1..end`, root first) — what "pin the top `p` levels" means
    /// for every tree flavor.
    ///
    /// # Errors
    /// `InvalidInput` if the level table is stale (the tree has been
    /// mutated since bulk load) or `p` exceeds the height.
    pub(crate) fn top_level_pages(&self, p: usize) -> io::Result<std::ops::Range<u64>> {
        let invalid = |why: String| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot pin {p} levels: {why}"),
            )
        };
        let levels = self.level_starts.len();
        if levels == 0 {
            return Err(invalid("the tree was mutated since bulk load".into()));
        }
        if p > levels {
            return Err(invalid(format!("the tree has {levels}")));
        }
        Ok(1..self.level_starts.get(p).copied().unwrap_or(self.nodes + 1))
    }

    /// On-page node level (leaves are 0, the root is `height - 1`) of a
    /// bulk-loaded node page, or -1 when it cannot be known: the meta page,
    /// an out-of-range id, or a mutated tree whose level table was cleared.
    pub fn onpage_level_of(&self, page: u64) -> i16 {
        if page == 0 || page > self.nodes || self.level_starts.is_empty() {
            return -1;
        }
        // `level_starts` is in paper order (root level first): the last
        // level whose start is <= page owns it.
        let paper = self
            .level_starts
            .iter()
            .rposition(|&start| start <= page)
            .expect("level 0 starts at page 1");
        self.height as i16 - 1 - paper as i16
    }
}

/// Decoded node page.
#[derive(Clone, Debug, PartialEq)]
pub struct NodePage {
    /// Node level (0 = leaf).
    pub level: u16,
    /// Entries: rectangle plus pointer (item id or child page id).
    pub entries: Vec<(Rect, u64)>,
}

/// Validates a node-page header shared by both decoders: magic, checksum
/// (unless the caller already verified the frame at page-in), count, layout
/// flag. Returns `(level, count, layout)`.
fn check_node_header(buf: &[u8], verify: bool) -> Result<(u16, usize, PageLayout), PageError> {
    check_len(buf)?;
    if u16::from_le_bytes(buf[0..2].try_into().expect("2 bytes")) != NODE_MAGIC {
        return Err(PageError::BadMagic);
    }
    if verify {
        verify_checksum(buf)?;
    }
    let level = u16::from_le_bytes(buf[2..4].try_into().expect("2 bytes"));
    let count = u16::from_le_bytes(buf[4..6].try_into().expect("2 bytes")) as usize;
    // The layout governs the capacity (Packed holds 253 entries, SoA 102),
    // so it must be parsed before the count is judged.
    let layout = PageLayout::from_flag(u16::from_le_bytes(
        buf[LAYOUT_OFFSET..LAYOUT_OFFSET + 2]
            .try_into()
            .expect("2 bytes"),
    ))?;
    if count > layout.capacity() {
        return Err(PageError::EntryOverflow(count));
    }
    Ok((level, count, layout))
}

/// Byte range of SoA array `k` (0 = lo.x … 4 = ptr), first `count` slots.
#[inline]
fn soa_plane(buf: &[u8], k: usize, count: usize) -> &[u8] {
    let start = NODE_HEADER + k * SOA_STRIDE;
    &buf[start..start + count * 8]
}

/// Reads and validates the Packed frame rectangle: finite and `lo <= hi`,
/// or the page is corrupt. A zero-extent axis is legal (quantum 0, every
/// code on it decodes to the base) — only inversion and non-finite values
/// are rejected.
fn packed_frame(buf: &[u8]) -> Result<Rect, PageError> {
    let f = |off: usize| f64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"));
    let frame = Rect {
        lo: Point::new(f(PACKED_FRAME_OFFSET), f(PACKED_FRAME_OFFSET + 8)),
        hi: Point::new(f(PACKED_FRAME_OFFSET + 16), f(PACKED_FRAME_OFFSET + 24)),
    };
    if !frame.is_valid() {
        return Err(PageError::CorruptRect);
    }
    Ok(frame)
}

/// Code `i` of Packed coordinate plane `k` (0 = lo.x, 1 = lo.y, 2 = hi.x,
/// 3 = hi.y).
#[inline]
fn packed_code(buf: &[u8], k: usize, i: usize) -> u16 {
    let off = PACKED_PLANES_OFFSET + k * PACKED_QSTRIDE + i * 2;
    u16::from_le_bytes(buf[off..off + 2].try_into().expect("2 bytes"))
}

/// Pointer `i` of a Packed page.
#[inline]
fn packed_ptr(buf: &[u8], i: usize) -> u64 {
    let off = PACKED_PTR_OFFSET + i * 8;
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

/// Iterator over the first `count` codes of Packed plane `k`.
fn packed_codes(buf: &[u8], k: usize, count: usize) -> impl Iterator<Item = u16> + '_ {
    let start = PACKED_PLANES_OFFSET + k * PACKED_QSTRIDE;
    buf[start..start + count * 2]
        .chunks_exact(2)
        .map(|b| u16::from_le_bytes(b.try_into().expect("2 bytes")))
}

/// The Packed inverted-rectangle check: per entry and axis the low-edge
/// code must not exceed the high-edge code. With the monotone decode
/// mapping this is exactly the `lo <= hi` invariant the f64 layouts assert
/// on coordinates, but checked on codes so an inversion the clamped decode
/// would mask (both edges clamping to the frame top) is still rejected.
fn check_packed_codes(buf: &[u8], count: usize) -> Result<(), PageError> {
    for i in 0..count {
        if packed_code(buf, 0, i) > packed_code(buf, 2, i)
            || packed_code(buf, 1, i) > packed_code(buf, 3, i)
        {
            return Err(PageError::CorruptRect);
        }
    }
    Ok(())
}

/// Largest code whose decoded value sits at or below `v` (a low edge).
/// Candidates within ±2 of the float estimate are checked against the real
/// decode mapping; code 0 decodes to exactly `base <= v` and is the
/// unconditional fallback.
fn code_lo(v: f64, base: f64, q: f64, top: f64) -> u16 {
    if q == 0.0 {
        return 0;
    }
    let est = ((v - base) / q).floor().clamp(0.0, QMAX as f64);
    let c0 = est as u16;
    let high = c0.saturating_add(2);
    let low = c0.saturating_sub(2);
    let mut c = high;
    loop {
        if dequant(c, base, q, top) <= v {
            return c;
        }
        if c == low {
            return 0;
        }
        c -= 1;
    }
}

/// Smallest code whose decoded value sits at or above `v` (a high edge).
/// Mirror image of [`code_lo`]; code [`QMAX`] decodes to exactly
/// `top >= v` and is the unconditional fallback.
fn code_hi(v: f64, base: f64, q: f64, top: f64) -> u16 {
    if q == 0.0 {
        return 0;
    }
    let est = ((v - base) / q).ceil().clamp(0.0, QMAX as f64);
    let c0 = est as u16;
    let high = c0.saturating_add(2);
    let low = c0.saturating_sub(2);
    let mut c = low;
    loop {
        if dequant(c, base, q, top) >= v {
            return c;
        }
        if c == high {
            return QMAX;
        }
        c += 1;
    }
}

impl NodePage {
    /// Encodes into a page buffer in the current (SoA, v3) layout, sealing
    /// it with a checksum.
    ///
    /// # Panics
    /// Panics if there are more than [`MAX_ENTRIES_PER_PAGE`] entries.
    pub fn encode(&self, buf: &mut [u8]) {
        self.encode_with(buf, PageLayout::Soa)
    }

    /// Encodes into a page buffer in the given layout, sealing it with a
    /// checksum. Packed encoding quantizes every rectangle against the
    /// page's own bounding rect; the stored rects conservatively contain
    /// the originals.
    ///
    /// # Panics
    /// Panics if the entry count exceeds the layout's capacity
    /// ([`MAX_ENTRIES_PER_PAGE`], or [`MAX_ENTRIES_PACKED`] for Packed).
    pub fn encode_with(&self, buf: &mut [u8], layout: PageLayout) {
        assert_eq!(buf.len(), PAGE_SIZE);
        assert!(
            self.entries.len() <= layout.capacity(),
            "{} entries exceed page capacity {}",
            self.entries.len(),
            layout.capacity()
        );
        buf.fill(0);
        buf[0..2].copy_from_slice(&NODE_MAGIC.to_le_bytes());
        buf[2..4].copy_from_slice(&self.level.to_le_bytes());
        buf[4..6].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        buf[LAYOUT_OFFSET..LAYOUT_OFFSET + 2].copy_from_slice(&layout.flag().to_le_bytes());
        match layout {
            PageLayout::Soa => {
                for (i, (r, p)) in self.entries.iter().enumerate() {
                    for (k, v) in [
                        r.lo.x.to_bits(),
                        r.lo.y.to_bits(),
                        r.hi.x.to_bits(),
                        r.hi.y.to_bits(),
                        *p,
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        let off = NODE_HEADER + k * SOA_STRIDE + i * 8;
                        buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
            PageLayout::Packed => {
                // The frame is the page's own bounding rect; an empty page
                // gets a degenerate placeholder that still decodes validly.
                let frame = self.entries.iter().skip(1).fold(
                    self.entries
                        .first()
                        .map(|(r, _)| *r)
                        .unwrap_or_else(|| Rect::point(Point::new(0.0, 0.0))),
                    |acc, (r, _)| acc.union(r),
                );
                for (k, v) in [frame.lo.x, frame.lo.y, frame.hi.x, frame.hi.y]
                    .into_iter()
                    .enumerate()
                {
                    let off = PACKED_FRAME_OFFSET + k * 8;
                    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
                }
                // A union of valid entry rectangles: an invalid frame is a
                // programming error, not a data error.
                assert!(frame.is_valid(), "packed frame must be a valid rect");
                let f = &frame;
                let (qx, qy) = (quantum(f.lo.x, f.hi.x), quantum(f.lo.y, f.hi.y));
                for (i, (r, p)) in self.entries.iter().enumerate() {
                    // Coordinates are clamped into the frame first, so even
                    // a rectangle poking outside it encodes to something
                    // sound for the clamped portion.
                    let codes = [
                        code_lo(r.lo.x.clamp(f.lo.x, f.hi.x), f.lo.x, qx, f.hi.x),
                        code_lo(r.lo.y.clamp(f.lo.y, f.hi.y), f.lo.y, qy, f.hi.y),
                        code_hi(r.hi.x.clamp(f.lo.x, f.hi.x), f.lo.x, qx, f.hi.x),
                        code_hi(r.hi.y.clamp(f.lo.y, f.hi.y), f.lo.y, qy, f.hi.y),
                    ];
                    for (k, code) in codes.into_iter().enumerate() {
                        let off = PACKED_PLANES_OFFSET + k * PACKED_QSTRIDE + i * 2;
                        buf[off..off + 2].copy_from_slice(&code.to_le_bytes());
                    }
                    let off = PACKED_PTR_OFFSET + i * 8;
                    buf[off..off + 8].copy_from_slice(&p.to_le_bytes());
                }
            }
        }
        seal(buf);
    }

    /// Decodes from a page buffer in either layout, validating magic,
    /// checksum, entry count, layout flag and rectangle sanity (finite,
    /// `lo <= hi` — inverted rectangles never get past decode).
    pub fn decode(buf: &[u8]) -> Result<Self, PageError> {
        let (level, count, layout) = check_node_header(buf, true)?;
        let mut entries = Vec::with_capacity(count);
        match layout {
            PageLayout::Packed => {
                // Frame validity and code ordering are the Packed
                // equivalents of the rect invariant; with both held, every
                // dequantized rectangle is valid by construction (monotone
                // decode).
                let f = packed_frame(buf)?;
                check_packed_codes(buf, count)?;
                let (qx, qy) = (quantum(f.lo.x, f.hi.x), quantum(f.lo.y, f.hi.y));
                let x = |k, i| dequant(packed_code(buf, k, i), f.lo.x, qx, f.hi.x);
                let y = |k, i| dequant(packed_code(buf, k, i), f.lo.y, qy, f.hi.y);
                for i in 0..count {
                    let rect = Rect {
                        lo: Point::new(x(0, i), y(1, i)),
                        hi: Point::new(x(2, i), y(3, i)),
                    };
                    entries.push((rect, packed_ptr(buf, i)));
                }
            }
            PageLayout::Soa => {
                let word = |k, i: usize| -> [u8; 8] {
                    soa_plane(buf, k, count)[i * 8..i * 8 + 8]
                        .try_into()
                        .expect("8 bytes")
                };
                let f = |k, i| f64::from_le_bytes(word(k, i));
                for i in 0..count {
                    let rect = Rect {
                        lo: Point::new(f(0, i), f(1, i)),
                        hi: Point::new(f(2, i), f(3, i)),
                    };
                    if !rect.is_valid() {
                        return Err(PageError::CorruptRect);
                    }
                    entries.push((rect, u64::from_le_bytes(word(4, i))));
                }
            }
        }
        Ok(NodePage { level, entries })
    }
}

/// A node page read where it lies: a borrowed view over a *trusted* frame
/// (its checksum was verified when it entered the buffer pool) with exactly
/// the operations the tree walks need. Nothing is decoded or copied; see
/// the module docs for what runs instead and where validation happens.
#[derive(Clone, Copy)]
pub struct PageView<'a> {
    planes: EntryPlanes<'a>,
    ptrs: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Checks the header of `buf` — everything
    /// [`NodeSoA::decode_into_trusted`] checks before touching an entry,
    /// plus that the page sits at `level`, the level the caller descended
    /// to — and borrows its planes. O(1); entries are validated by the
    /// scans below.
    pub fn new(buf: &'a [u8], level: u16) -> Result<Self, PageError> {
        let (found, count, layout) = check_node_header(buf, false)?;
        if found != level {
            return Err(PageError::LevelMismatch {
                expected: level,
                found,
            });
        }
        let planes = |at: usize, stride: usize, width: usize| -> [&'a [u8]; 4] {
            std::array::from_fn(|k| &buf[at + k * stride..][..count * width])
        };
        Ok(match layout {
            PageLayout::Soa => PageView {
                planes: EntryPlanes::F64(planes(NODE_HEADER, SOA_STRIDE, 8)),
                ptrs: soa_plane(buf, 4, count),
            },
            PageLayout::Packed => PageView {
                planes: EntryPlanes::Codes {
                    frame: packed_frame(buf)?,
                    planes: planes(PACKED_PLANES_OFFSET, PACKED_QSTRIDE, 2),
                },
                ptrs: &buf[PACKED_PTR_OFFSET..][..count * 8],
            },
        })
    }

    /// Appends the index of every entry intersecting `q` to `out`,
    /// ascending, through the dispatched kernel, validating every entry on
    /// the way ([`PageError::CorruptRect`]; `out` is unspecified then).
    #[inline]
    pub fn intersecting(&self, q: &Rect, out: &mut Vec<u32>) -> Result<(), PageError> {
        Ok(self.planes.intersecting(active_kernel(), q, out)?)
    }

    /// Appends `(index, min_dist²)` for every entry within `bound` of `p`
    /// to `out`, ascending; validates like [`PageView::intersecting`].
    #[inline]
    pub fn min_dist2_within(
        &self,
        p: &Point,
        bound: f64,
        out: &mut Vec<(u32, f64)>,
    ) -> Result<(), PageError> {
        Ok(self
            .planes
            .min_dist2_within(active_kernel(), p, bound, out)?)
    }

    /// The MBR of the entries (`None` for an empty page); validates like
    /// [`PageView::intersecting`].
    pub fn mbr(&self) -> Result<Option<Rect>, PageError> {
        Ok(self.planes.mbr()?)
    }

    /// Pointer of entry `i` (item id at a leaf, child page id above).
    ///
    /// # Panics
    /// Panics if the page has no entry `i`.
    #[inline]
    pub fn ptr(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.ptrs[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
    }

    /// Rectangle of entry `i` (dequantized on a Packed page).
    ///
    /// # Panics
    /// Panics if the page has no entry `i`.
    pub fn rect(&self, i: usize) -> Rect {
        self.planes.get(i)
    }

    /// Every entry as `(rect, pointer)`, rectangles as [`PageView::rect`]
    /// reads them; validates like [`PageView::intersecting`].
    pub(crate) fn entries(&self) -> Result<Vec<(Rect, u64)>, PageError> {
        self.mbr()?;
        let count = self.ptrs.len() / 8;
        Ok((0..count).map(|i| (self.rect(i), self.ptr(i))).collect())
    }
}

/// A node page decoded straight into SoA form — the shape the
/// [`rtree_geom::RectSoA`] SIMD kernels consume. The walks read pages in
/// place through [`PageView`]; this owned decode is the differential
/// reference the view is held against (and what the benchmark's decode
/// probes time).
///
/// From a v3 (SoA) image the coordinate planes are copied contiguously,
/// array by array, with **no per-entry gather**; a v4 (Packed) image is
/// dequantized plane by plane. Decode applies the same validation as
/// [`NodePage::decode`] — in particular the
/// inverted-rectangle invariant (`lo <= hi`, all coordinates finite) is
/// asserted here, so the kernels only ever see rectangles on which every
/// variant provably agrees.
#[derive(Clone, Debug, Default)]
pub struct NodeSoA {
    /// Node level (0 = leaf).
    pub level: u16,
    /// Entry rectangles, SoA.
    pub rects: RectSoA,
    /// Entry pointers (item ids at leaves, child page ids above).
    pub ptrs: Vec<u64>,
}

impl NodeSoA {
    /// Creates an empty node (reusable via [`NodeSoA::decode_into`]).
    pub fn new() -> Self {
        NodeSoA::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ptrs.len()
    }

    /// True if the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.ptrs.is_empty()
    }

    /// Decodes from a page buffer in either layout.
    pub fn decode(buf: &[u8]) -> Result<Self, PageError> {
        let mut node = NodeSoA::new();
        node.decode_into(buf)?;
        Ok(node)
    }

    /// Decodes from a page buffer in either layout, reusing this node's
    /// allocations.
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<(), PageError> {
        self.decode_into_impl(buf, true)
    }

    /// [`NodeSoA::decode_into`] minus the checksum pass, for frames whose
    /// checksum was already verified when they entered the buffer pool
    /// (see [`crate::BufferManager::set_verify_reads`]) — the trust level
    /// [`PageView`] reads at. Structural validation (magic, count, layout
    /// flag) and the rectangle invariant still run unconditionally.
    pub fn decode_into_trusted(&mut self, buf: &[u8]) -> Result<(), PageError> {
        self.decode_into_impl(buf, false)
    }

    fn decode_into_impl(&mut self, buf: &[u8], verify: bool) -> Result<(), PageError> {
        let (level, count, layout) = check_node_header(buf, verify)?;
        self.level = level;
        self.rects.clear();
        self.ptrs.clear();
        let (lo_x, lo_y, hi_x, hi_y) = self.rects.arrays_mut();
        let f = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
        match layout {
            PageLayout::Soa => {
                // Contiguous per-plane copies: this is the no-gather path.
                lo_x.extend(soa_plane(buf, 0, count).chunks_exact(8).map(f));
                lo_y.extend(soa_plane(buf, 1, count).chunks_exact(8).map(f));
                hi_x.extend(soa_plane(buf, 2, count).chunks_exact(8).map(f));
                hi_y.extend(soa_plane(buf, 3, count).chunks_exact(8).map(f));
                self.ptrs.extend(
                    soa_plane(buf, 4, count)
                        .chunks_exact(8)
                        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes"))),
                );
            }
            PageLayout::Packed => {
                // Validate before filling (the node was cleared above, so
                // the error path still leaves it empty), then dequantize
                // each code plane contiguously — Packed keeps the SoA
                // no-gather property.
                let frame = packed_frame(buf)?;
                check_packed_codes(buf, count)?;
                let x = (frame.lo.x, quantum(frame.lo.x, frame.hi.x), frame.hi.x);
                let y = (frame.lo.y, quantum(frame.lo.y, frame.hi.y), frame.hi.y);
                for (k, plane) in [lo_x, lo_y, hi_x, hi_y].into_iter().enumerate() {
                    let (base, q, top) = if k % 2 == 0 { x } else { y };
                    dequantize_into(packed_codes(buf, k, count), base, q, top, plane);
                }
                self.ptrs.extend((0..count).map(|i| packed_ptr(buf, i)));
            }
        }
        // Decode-time invariant: every rectangle finite and non-inverted,
        // exactly as NodePage::decode enforces. The error path clears the
        // node so a half-decoded page can never be traversed.
        for i in 0..count {
            if !self.rects.get(i).is_valid() {
                self.rects.clear();
                self.ptrs.clear();
                return Err(PageError::CorruptRect);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::Point;
    use std::sync::{Mutex, PoisonError};

    fn sample_meta() -> PageMeta {
        PageMeta {
            root: 1,
            height: 3,
            max_entries: 100,
            min_entries: 40,
            items: 53_145,
            nodes: 539,
            free_head: 0,
            level_starts: vec![1, 2, 8],
            internal_max_entries: 100,
            compressed: false,
        }
    }

    #[test]
    fn page_capacity_exceeds_papers_largest_node() {
        assert_eq!(MAX_ENTRIES_PER_PAGE, 102); // >= the paper's largest cap (100)
    }

    #[test]
    fn onpage_level_from_level_table() {
        let meta = sample_meta(); // height 3, level_starts [1, 2, 8]
        assert_eq!(meta.onpage_level_of(1), 2, "root page");
        assert_eq!(meta.onpage_level_of(2), 1);
        assert_eq!(meta.onpage_level_of(7), 1);
        assert_eq!(meta.onpage_level_of(8), 0, "first leaf");
        assert_eq!(meta.onpage_level_of(539), 0, "last leaf");
        assert_eq!(meta.onpage_level_of(0), -1, "meta page has no level");
        assert_eq!(meta.onpage_level_of(540), -1, "out of range");
        let mut mutated = meta;
        mutated.level_starts.clear();
        assert_eq!(mutated.onpage_level_of(1), -1, "stale level table");
    }

    #[test]
    fn meta_round_trip() {
        let meta = sample_meta();
        let mut buf = vec![0u8; PAGE_SIZE];
        meta.encode(&mut buf);
        assert_eq!(PageMeta::decode(&buf).unwrap(), meta);
    }

    #[test]
    fn meta_round_trip_with_free_list_and_stale_levels() {
        let meta = PageMeta {
            free_head: 77,
            level_starts: vec![],
            ..sample_meta()
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        meta.encode(&mut buf);
        let back = PageMeta::decode(&buf).unwrap();
        assert_eq!(back.free_head, 77);
        assert!(back.level_starts.is_empty());
        assert_eq!(back.height, 3, "height survives a stale level table");
    }

    #[test]
    fn node_round_trip() {
        let node = NodePage {
            level: 2,
            entries: (0..100)
                .map(|i| {
                    let v = i as f64 / 100.0;
                    (Rect::new(v * 0.5, v * 0.3, v * 0.5 + 0.1, v * 0.3 + 0.2), i)
                })
                .collect(),
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode(&mut buf);
        assert_eq!(NodePage::decode(&buf).unwrap(), node);
    }

    #[test]
    fn empty_node_round_trip() {
        let node = NodePage {
            level: 0,
            entries: vec![],
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode(&mut buf);
        assert_eq!(NodePage::decode(&buf).unwrap(), node);
    }

    #[test]
    fn decode_rejects_garbage() {
        let buf = vec![0xABu8; PAGE_SIZE];
        assert!(NodePage::decode(&buf).is_err());
        assert!(PageMeta::decode(&buf).is_err());
    }

    #[test]
    fn decode_rejects_flipped_bit_via_checksum() {
        let node = NodePage {
            level: 1,
            entries: vec![(Rect::new(0.1, 0.1, 0.9, 0.9), 5)],
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode(&mut buf);
        // Flip one bit in the middle of an entry's payload — still a valid
        // rectangle, so only the checksum can catch it.
        buf[NODE_HEADER + 35] ^= 0x01;
        match NodePage::decode(&buf) {
            Err(PageError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }

        // Every single-bit flip of every kind of sealed page is caught
        // (a CRC-32 detects all of them; whichever kernel computes it
        // must too), and a flip inside the checksum field reports the
        // tampered value as stored, the true one as computed.
        let mut leaf = vec![0u8; PAGE_SIZE];
        let mut leaf_node = packed_node(MAX_ENTRIES_PER_PAGE);
        leaf_node.level = 0;
        leaf_node.encode(&mut leaf);
        let mut packed = vec![0u8; PAGE_SIZE];
        packed_node(MAX_ENTRIES_PACKED).encode_with(&mut packed, PageLayout::Packed);
        let mut meta = vec![0u8; PAGE_SIZE];
        sample_meta().encode(&mut meta);
        let mut free = vec![0u8; PAGE_SIZE];
        encode_free_page(7, &mut free);
        // Miri has no folding kernel and no time for 131 072 checksums.
        let step = if cfg!(miri) { 4099 } else { 1 };
        for (kind, mut page) in [
            ("leaf", leaf),
            ("packed", packed),
            ("meta", meta),
            ("free", free),
        ] {
            assert_eq!(verify_checksum(&page), Ok(()), "{kind}");
            let crc = page_checksum(&page);
            for bit in (0..PAGE_SIZE * 8).step_by(step) {
                page[bit / 8] ^= 1 << (bit % 8);
                let (stored, computed) = match (bit / 8).checked_sub(CRC_OFFSET) {
                    Some(byte @ 0..=3) => (crc ^ (1 << (byte * 8 + bit % 8)), crc),
                    _ => (crc, page_checksum(&page)),
                };
                assert_ne!(stored, computed, "{kind}, bit {bit} went undetected");
                let expected = PageError::ChecksumMismatch { stored, computed };
                assert_eq!(verify_checksum(&page), Err(expected), "{kind}, bit {bit}");
                page[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn meta_checksum_catches_field_tampering() {
        let meta = sample_meta();
        let mut buf = vec![0u8; PAGE_SIZE];
        meta.encode(&mut buf);
        buf[16] ^= 0xFF; // root page id
        match PageMeta::decode(&buf) {
            Err(PageError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_corrupt_rect_soa() {
        let node = NodePage {
            level: 0,
            entries: vec![(Rect::new(0.0, 0.0, 1.0, 1.0), 9)],
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode(&mut buf); // SoA: lo.x[0] @16, hi.x[0] @16 + 2·816
        let lo: [u8; 8] = buf[NODE_HEADER..NODE_HEADER + 8].try_into().unwrap();
        let hix_off = NODE_HEADER + 2 * SOA_STRIDE;
        let hi: [u8; 8] = buf[hix_off..hix_off + 8].try_into().unwrap();
        buf[NODE_HEADER..NODE_HEADER + 8].copy_from_slice(&hi);
        buf[hix_off..hix_off + 8].copy_from_slice(&lo);
        seal(&mut buf);
        assert_eq!(NodePage::decode(&buf), Err(PageError::CorruptRect));
        // The SoA decoder asserts the same inverted-rect invariant and
        // leaves the scratch node empty on failure.
        let mut scratch = NodeSoA::new();
        assert_eq!(scratch.decode_into(&buf), Err(PageError::CorruptRect));
        assert!(scratch.is_empty() && scratch.rects.is_empty());
    }

    /// `set_kernel` is process-global: one kernel loop at a time.
    static KERNEL_PIN: Mutex<()> = Mutex::new(());

    /// Runs `body` under every kernel this CPU can run, scalar first, then
    /// restores the dispatched one. The view scans dispatch per call.
    fn for_each_kernel(mut body: impl FnMut(&'static str)) {
        let _pin = KERNEL_PIN.lock().unwrap_or_else(PoisonError::into_inner);
        let dispatched = rtree_geom::active_kernel();
        for kernel in rtree_geom::available_kernels() {
            rtree_geom::set_kernel(kernel).expect("an available kernel pins");
            body(kernel.name());
        }
        rtree_geom::set_kernel(dispatched).expect("restoring the dispatched kernel");
    }

    /// Encodes `node` into a page that starts at an odd address, so every
    /// plane the view borrows is misaligned for its lane type.
    fn misaligned(node: &NodePage, layout: PageLayout) -> Vec<u8> {
        let mut backing = vec![0u8; PAGE_SIZE + 1];
        node.encode_with(&mut backing[1..], layout);
        backing
    }

    #[test]
    fn view_reads_both_layouts_in_place_at_any_alignment() {
        // Full pages, so the scans cross every block and register boundary;
        // Every kernel reads them; Miri checks the scalar and portable loads.
        for_each_kernel(|kernel| {
            for (layout, n) in [
                (PageLayout::Soa, MAX_ENTRIES_PER_PAGE),
                (PageLayout::Packed, MAX_ENTRIES_PACKED),
            ] {
                let node = NodePage {
                    level: 1,
                    entries: (0..n as u64)
                        .map(|i| {
                            let v = i as f64 / 256.0;
                            (Rect::new(v, v * 0.5, v + 0.01, v * 0.5 + 0.01), i * 7)
                        })
                        .collect(),
                };
                let backing = misaligned(&node, layout);
                let page = &backing[1..];
                let soa = NodeSoA::decode(page).unwrap();
                let view = PageView::new(page, 1).unwrap();
                assert_eq!(view.mbr().unwrap(), soa.rects.mbr());
                for i in 0..n {
                    assert_eq!(
                        view.rect(i),
                        soa.rects.get(i),
                        "{kernel}, {layout:?} entry {i}"
                    );
                    assert_eq!(view.ptr(i), soa.ptrs[i]);
                }
                for q in [
                    Rect::new(0.0, 0.0, 1.0, 1.0),
                    Rect::new(0.3, 0.1, 0.5, 0.3),
                    Rect::new(0.25, 0.125, 0.25, 0.125),
                    Rect::new(2.0, 2.0, 3.0, 3.0),
                ] {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    view.intersecting(&q, &mut got).unwrap();
                    soa.rects.intersecting_scalar(&q, &mut want);
                    assert_eq!(got, want, "{kernel}, {layout:?} query {q}");
                }
                let p = Point::new(0.4, 0.6);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                view.min_dist2_within(&p, 0.2, &mut got).unwrap();
                soa.rects.min_dist2_within_scalar(&p, 0.2, &mut want);
                assert_eq!(got, want, "{kernel}, {layout:?} distances are bit-equal");
                assert!(!got.is_empty() && got.len() < n, "the bound prunes");
            }
        });
    }

    #[test]
    fn view_checks_the_header_then_every_entry_on_every_scan() {
        for_each_kernel(|kernel| {
            let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
            let scans_fail = |page: &[u8], level: u16| {
                let view = PageView::new(page, level).expect("the header is sound");
                let corrupt = Err(PageError::CorruptRect);
                let all = view.intersecting(&everything, &mut Vec::new());
                assert_eq!(all, corrupt, "{kernel}");
                // A query that can match nothing still validates the page.
                let nowhere = Rect::new(7.0, 7.0, 8.0, 8.0);
                assert_eq!(view.intersecting(&nowhere, &mut Vec::new()), corrupt);
                let p = Point::new(0.5, 0.5);
                assert_eq!(view.min_dist2_within(&p, 1.0, &mut Vec::new()), corrupt);
                assert_eq!(view.mbr(), Err(PageError::CorruptRect));
            };

            // SoA: entry 1's hi.x becomes NaN, infinite, or less than its lo.x.
            let leaf = NodePage {
                level: 0,
                entries: vec![(Rect::new(0.1, 0.1, 0.2, 0.2), 1); 9],
            };
            for bad in [f64::NAN, f64::NEG_INFINITY, 0.05] {
                let mut backing = misaligned(&leaf, PageLayout::Soa);
                let page = &mut backing[1..];
                let at = NODE_HEADER + 2 * SOA_STRIDE + 8;
                page[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    NodeSoA::new().decode_into_trusted(page),
                    Err(PageError::CorruptRect)
                );
                scans_fail(page, 0);
            }

            // Packed: entry 250 (past the last full register) gets lo.y > hi.y.
            let mut backing = misaligned(&packed_node(MAX_ENTRIES_PACKED), PageLayout::Packed);
            let page = &mut backing[1..];
            let (lo, hi) = (
                PACKED_PLANES_OFFSET + PACKED_QSTRIDE + 250 * 2,
                PACKED_PLANES_OFFSET + 3 * PACKED_QSTRIDE + 250 * 2,
            );
            page[lo..lo + 2].copy_from_slice(&40_000u16.to_le_bytes());
            page[hi..hi + 2].copy_from_slice(&39_999u16.to_le_bytes());
            scans_fail(page, 1);

            // Header defects are typed, in the trusted decode's order; a level
            // other than the one descended to is refused before any entry.
            let sound = misaligned(&packed_node(9), PageLayout::Packed);
            let expect = |patch: &dyn Fn(&mut [u8]), want: PageError| {
                let mut page = sound[1..].to_vec();
                patch(&mut page);
                assert_eq!(PageView::new(&page, 1).err(), Some(want));
            };
            expect(&|p| p[0] ^= 1, PageError::BadMagic);
            expect(&|p| p[LAYOUT_OFFSET] = 9, PageError::UnsupportedLayout(9));
            expect(
                &|p| p[4..6].copy_from_slice(&254u16.to_le_bytes()),
                PageError::EntryOverflow(254),
            );
            expect(
                &|p| p[PACKED_FRAME_OFFSET + 7] = 0x7F,
                PageError::CorruptRect,
            );
            let (expected, found) = (1, 2);
            expect(&|p| p[2] = 2, PageError::LevelMismatch { expected, found });
            assert_eq!(
                PageView::new(&sound[1..PAGE_SIZE], 1).err(),
                Some(PageError::WrongLength { got: PAGE_SIZE - 1 })
            );
        });
    }

    #[test]
    fn layouts_carry_identical_content() {
        // A full page in each layout: the flag names the layout, and the
        // two decoders read the same logical node out of either image.
        for (layout, n) in [
            (PageLayout::Soa, MAX_ENTRIES_PER_PAGE),
            (PageLayout::Packed, MAX_ENTRIES_PACKED),
        ] {
            let node = NodePage {
                level: 1,
                entries: (0..n as u64)
                    .map(|i| {
                        let v = i as f64 / 256.0;
                        (Rect::new(v, v * 0.5, v + 0.01, v * 0.5 + 0.01), i * 7)
                    })
                    .collect(),
            };
            let mut img = vec![0u8; PAGE_SIZE];
            node.encode_with(&mut img, layout);
            assert_eq!(PageLayout::of(&img).unwrap(), layout);
            let aos = NodePage::decode(&img).unwrap();
            if layout == PageLayout::Soa {
                assert_eq!(aos, node, "f64 planes are lossless");
            }
            let soa = NodeSoA::decode(&img).unwrap();
            assert_eq!(soa.level, aos.level);
            assert_eq!(soa.len(), aos.entries.len());
            for (i, (r, p)) in aos.entries.iter().enumerate() {
                assert_eq!(soa.rects.get(i), *r);
                assert_eq!(soa.ptrs[i], *p);
            }
        }
    }

    #[test]
    fn unknown_layout_flag_is_typed() {
        let node = NodePage {
            level: 0,
            entries: vec![(Rect::new(0.1, 0.1, 0.2, 0.2), 1)],
        };
        // Flag 0 is the retired v2 array-of-structs body: as unknown as 7.
        for flag in [0u16, 7] {
            let mut buf = vec![0u8; PAGE_SIZE];
            node.encode(&mut buf);
            buf[LAYOUT_OFFSET..LAYOUT_OFFSET + 2].copy_from_slice(&flag.to_le_bytes());
            seal(&mut buf);
            let want = PageError::UnsupportedLayout(flag);
            assert_eq!(NodePage::decode(&buf), Err(want.clone()));
            assert_eq!(NodeSoA::decode(&buf).unwrap_err(), want);
            assert_eq!(NodeSoA::new().decode_into_trusted(&buf), Err(want.clone()));
            assert_eq!(PageLayout::of(&buf), Err(want));
        }
    }

    #[test]
    fn wrong_length_is_typed() {
        assert_eq!(
            NodePage::decode(&[0u8; 100]),
            Err(PageError::WrongLength { got: 100 })
        );
        assert_eq!(
            PageMeta::decode(&[0u8; 5000]),
            Err(PageError::WrongLength { got: 5000 })
        );
    }

    #[test]
    fn version_mismatch_is_typed() {
        let meta = sample_meta();
        let mut buf = vec![0u8; PAGE_SIZE];
        meta.encode(&mut buf);
        assert_eq!(
            u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            3,
            "this build writes format v3"
        );
        // 2 is the retired v2 format: sealed or not, it is not opened.
        for version in [1u32, 2, 5, 9] {
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            let want = Err(PageError::UnsupportedVersion(version));
            assert_eq!(PageMeta::decode(&buf), want);
            seal(&mut buf);
            assert_eq!(PageMeta::decode(&buf), want);
        }
    }

    #[test]
    #[should_panic]
    fn encode_rejects_overflow() {
        let node = NodePage {
            level: 0,
            entries: vec![(Rect::point(Point::new(0.5, 0.5)), 0); MAX_ENTRIES_PER_PAGE + 1],
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode(&mut buf);
    }

    fn packed_node(n: usize) -> NodePage {
        NodePage {
            level: 1,
            entries: (0..n as u64)
                .map(|i| {
                    let v = i as f64 / 300.0;
                    (Rect::new(v, v * 0.4, v + 0.01, v * 0.4 + 0.02), i * 3 + 1)
                })
                .collect(),
        }
    }

    #[test]
    fn packed_page_capacity_is_about_2x5() {
        assert_eq!(MAX_ENTRIES_PACKED, 253);
        const _: () = assert!(MAX_ENTRIES_PACKED >= 2 * MAX_ENTRIES_PER_PAGE);
        assert_eq!(PageLayout::Packed.capacity(), MAX_ENTRIES_PACKED);
    }

    #[test]
    fn packed_round_trip_is_conservative() {
        // Packed decode returns *containing* rects with bounded expansion,
        // identical levels/pointers, and full capacity.
        let node = packed_node(MAX_ENTRIES_PACKED);
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, PageLayout::Packed);
        assert_eq!(PageLayout::of(&buf).unwrap(), PageLayout::Packed);
        let back = NodePage::decode(&buf).unwrap();
        assert_eq!(back.level, node.level);
        assert_eq!(back.entries.len(), node.entries.len());
        let frame = node
            .entries
            .iter()
            .skip(1)
            .fold(node.entries[0].0, |acc, (r, _)| acc.union(r));
        let (qx, qy) = (
            quantum(frame.lo.x, frame.hi.x),
            quantum(frame.lo.y, frame.hi.y),
        );
        for (i, ((got, gp), (want, wp))) in back.entries.iter().zip(&node.entries).enumerate() {
            assert_eq!(gp, wp, "pointer {i} survives exactly");
            assert!(got.is_valid(), "entry {i}");
            assert!(
                got.lo.x <= want.lo.x
                    && got.lo.y <= want.lo.y
                    && got.hi.x >= want.hi.x
                    && got.hi.y >= want.hi.y,
                "entry {i}: decoded must contain the original"
            );
            assert!(want.lo.x - got.lo.x <= qx * 1.001, "entry {i} lo.x slack");
            assert!(got.hi.y - want.hi.y <= qy * 1.001, "entry {i} hi.y slack");
        }
    }

    #[test]
    fn packed_soa_and_aos_decoders_agree() {
        let node = packed_node(120); // more than an f64 page can hold
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, PageLayout::Packed);
        let aos = NodePage::decode(&buf).unwrap();
        let soa = NodeSoA::decode(&buf).unwrap();
        assert_eq!(aos.level, soa.level);
        assert_eq!(aos.entries.len(), soa.len());
        for (i, (r, p)) in aos.entries.iter().enumerate() {
            assert_eq!(soa.rects.get(i), *r, "entry {i}: identical dequantization");
            assert_eq!(soa.ptrs[i], *p);
        }
    }

    #[test]
    fn packed_empty_page_round_trips() {
        let node = NodePage {
            level: 3,
            entries: vec![],
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, PageLayout::Packed);
        let back = NodePage::decode(&buf).unwrap();
        assert_eq!(back.level, 3);
        assert!(back.entries.is_empty());
    }

    #[test]
    fn packed_rejects_inverted_codes() {
        let node = packed_node(4);
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, PageLayout::Packed);
        // Invert entry 2 on the x axis by swapping its lo/hi codes (the
        // encoder never emits lo > hi, so force it), then re-seal.
        let lo_off = PACKED_PLANES_OFFSET + 2 * 2;
        let hi_off = PACKED_PLANES_OFFSET + 2 * PACKED_QSTRIDE + 2 * 2;
        buf[lo_off..lo_off + 2].copy_from_slice(&900u16.to_le_bytes());
        buf[hi_off..hi_off + 2].copy_from_slice(&100u16.to_le_bytes());
        seal(&mut buf);
        assert_eq!(NodePage::decode(&buf), Err(PageError::CorruptRect));
        let mut scratch = NodeSoA::new();
        assert_eq!(scratch.decode_into(&buf), Err(PageError::CorruptRect));
        assert!(scratch.is_empty() && scratch.rects.is_empty());
    }

    #[test]
    fn packed_rejects_corrupt_frame() {
        let node = packed_node(4);
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, PageLayout::Packed);
        // NaN frame edge: the frame check must fire before any dequant.
        buf[PACKED_FRAME_OFFSET..PACKED_FRAME_OFFSET + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        seal(&mut buf);
        assert_eq!(NodePage::decode(&buf), Err(PageError::CorruptRect));
        assert_eq!(NodeSoA::decode(&buf).unwrap_err(), PageError::CorruptRect);
    }

    #[test]
    fn packed_zero_extent_frame_decodes() {
        // All entries the same point: both axes degenerate, quantum 0 —
        // the divide-by-zero-quantum shape must decode losslessly.
        let node = NodePage {
            level: 1,
            entries: vec![(Rect::point(Point::new(0.25, 0.75)), 1); 5],
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, PageLayout::Packed);
        let back = NodePage::decode(&buf).unwrap();
        for (r, _) in &back.entries {
            assert_eq!(*r, Rect::point(Point::new(0.25, 0.75)));
        }
    }

    #[test]
    fn meta_v4_round_trips_with_internal_capacity() {
        let meta = PageMeta {
            internal_max_entries: MAX_ENTRIES_PACKED as u32,
            compressed: true,
            ..sample_meta()
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        meta.encode(&mut buf);
        assert_eq!(
            u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            4,
            "compressed trees are stamped format v4"
        );
        assert_eq!(PageMeta::decode(&buf).unwrap(), meta);
        // Out-of-range internal capacity is inconsistent, not garbage.
        let bad = PageMeta {
            internal_max_entries: MAX_ENTRIES_PACKED as u32 + 1,
            ..meta
        };
        bad.encode(&mut buf);
        assert!(matches!(
            PageMeta::decode(&buf),
            Err(PageError::InconsistentMeta(_))
        ));
    }

    #[test]
    fn capacity_and_layout_follow_level() {
        let plain = sample_meta();
        assert_eq!(plain.capacity_at(0), 100);
        assert_eq!(plain.capacity_at(2), 100);
        assert_eq!(plain.layout_at(0), PageLayout::Soa);
        assert_eq!(plain.layout_at(2), PageLayout::Soa);
        let packed = PageMeta {
            internal_max_entries: 253,
            compressed: true,
            ..sample_meta()
        };
        assert_eq!(packed.capacity_at(0), 100, "leaves stay exact f64");
        assert_eq!(packed.capacity_at(1), 253);
        assert_eq!(packed.layout_at(0), PageLayout::Soa);
        assert_eq!(packed.layout_at(1), PageLayout::Packed);
    }

    /// Quantizes `rects` against exactly `frame` by putting the frame
    /// itself in slot 0 of as many Packed pages as the rects need, and
    /// returns what the pages decode to.
    fn requantize(frame: Rect, rects: &[Rect]) -> Vec<Rect> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        for chunk in rects.chunks(MAX_ENTRIES_PACKED - 1) {
            let entries = std::iter::once(&frame).chain(chunk).map(|r| (*r, 0));
            let node = NodePage {
                level: 1,
                entries: entries.collect(),
            };
            node.encode_with(&mut buf, PageLayout::Packed);
            let back = NodePage::decode(&buf).unwrap();
            assert_eq!(back.entries[0].0, frame, "frame corners are exact");
            out.extend(back.entries[1..].iter().map(|(r, _)| *r));
        }
        out
    }

    #[test]
    fn round_trip_contains_original() {
        let rects: Vec<Rect> = (0..500u64)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.9;
                let y = (i as f64 * 0.414_213) % 0.9;
                Rect::new(x, y, x + 0.05, y + 0.07)
            })
            .collect();
        let back = requantize(Rect::new(0.0, 0.0, 1.0, 1.0), &rects);
        for (i, (back, r)) in back.iter().zip(&rects).enumerate() {
            assert!(back.contains_rect(r), "i={i}: {back:?} must contain {r:?}");
            assert!(back.is_valid());
        }
    }

    #[test]
    fn expansion_is_at_most_one_quantum_per_edge() {
        let frame = Rect::new(-2.0, 3.0, 5.0, 4.5);
        let slack_x = quantum(frame.lo.x, frame.hi.x) * (1.0 + 1e-9);
        let slack_y = quantum(frame.lo.y, frame.hi.y) * (1.0 + 1e-9);
        let rects: Vec<Rect> = (0..300u64)
            .map(|i| {
                let x = -2.0 + (i as f64 * 0.037) % 6.5;
                let y = 3.0 + (i as f64 * 0.0041) % 1.3;
                Rect::new(x, y, (x + 0.2).min(5.0), (y + 0.1).min(4.5))
            })
            .collect();
        for (i, (back, r)) in requantize(frame, &rects).iter().zip(&rects).enumerate() {
            assert!(r.lo.x - back.lo.x <= slack_x, "lo.x i={i}");
            assert!(r.lo.y - back.lo.y <= slack_y, "lo.y i={i}");
            assert!(back.hi.x - r.hi.x <= slack_x, "hi.x i={i}");
            assert!(back.hi.y - r.hi.y <= slack_y, "hi.y i={i}");
        }
    }

    #[test]
    fn frame_corners_encode_exactly() {
        // `requantize` asserts the frame in slot 0 round-trips bit-exactly.
        requantize(Rect::new(0.25, 0.5, 0.75, 0.875), &[]);
        requantize(
            Rect::new(-1e6, 1e-9, 3.3, 7e5),
            &[Rect::new(0.1, 0.2, 0.3, 0.4)],
        );
    }

    #[test]
    fn degenerate_frame_axis_is_lossless() {
        // Zero-extent y axis: quantum 0, every code decodes to the base.
        let frame = Rect::new(0.1, 0.4, 0.9, 0.4);
        assert_eq!(quantum(frame.lo.y, frame.hi.y), 0.0);
        let r = Rect::new(0.2, 0.4, 0.3, 0.4);
        let back = requantize(frame, &[r])[0];
        assert!(back.contains_rect(&r));
        assert_eq!(back.lo.y, 0.4);
        assert_eq!(back.hi.y, 0.4);
    }

    #[test]
    #[should_panic(expected = "valid rect")]
    fn invalid_frame_is_rejected() {
        let inverted = Rect {
            lo: Point::new(1.0, 0.0),
            hi: Point::new(0.0, 1.0),
        };
        let node = NodePage {
            level: 1,
            entries: vec![(inverted, 1)],
        };
        node.encode_with(&mut vec![0u8; PAGE_SIZE], PageLayout::Packed);
    }

    #[test]
    fn free_page_round_trips_and_rejects_corruption() {
        let mut buf = vec![0u8; PAGE_SIZE];
        for next in [0u64, 7, u64::MAX] {
            encode_free_page(next, &mut buf);
            assert_eq!(decode_free_page(&buf), Ok(next));
            // Sealed like every page, so page-in verification passes, and
            // no other decoder mistakes it for a node or the meta page.
            assert_eq!(verify_checksum(&buf), Ok(()));
            assert_eq!(NodePage::decode(&buf), Err(PageError::BadMagic));
            assert_eq!(PageMeta::decode(&buf), Err(PageError::BadMagic));
        }
        encode_free_page(7, &mut buf);
        assert_eq!(
            decode_free_page(&buf[..PAGE_SIZE - 1]),
            Err(PageError::WrongLength { got: PAGE_SIZE - 1 })
        );
        let mut torn = buf.clone();
        torn[FREE_NEXT_OFFSET] ^= 0x01;
        assert!(matches!(
            decode_free_page(&torn),
            Err(PageError::ChecksumMismatch { .. })
        ));
        // A live node where a free page should be: bad tag, however valid.
        NodePage {
            level: 0,
            entries: vec![],
        }
        .encode(&mut buf);
        assert_eq!(decode_free_page(&buf), Err(PageError::BadMagic));
    }
}
