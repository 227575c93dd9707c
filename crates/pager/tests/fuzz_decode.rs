//! Deterministic fuzz smoke for the page decoders, run by plain
//! `cargo test`.
//!
//! Two generators feed `PageMeta::decode` / `NodePage::decode` / the SoA
//! decoders (`NodeSoA::decode`, `NodeSoA::decode_into_trusted`) / the
//! in-place reader the walks use (`PageView`):
//! pure random bytes (cheap, shallow — mostly dies at the magic check) and
//! *mutated valid pages* (a real v3, v4, meta or free-list page with a few
//! seeded bytes flipped — reaches past the checksum only when the flips
//! land in it, past the structure checks when they don't). The
//! invariant: decode returns `Ok` or a typed `PageError`, and never
//! panics. Three cross-decoder properties ride along: when the AoS and
//! SoA decoders both accept a frame they carry identical content, the
//! trusted (checksum-skipping) decode accepts at least whatever the full
//! decode accepts, and the in-place view agrees with the trusted decode on
//! every frame — the same Ok/Err class, and when Ok the same MBR, matches
//! and distances for a sample of queries (see `view_agrees_with`).
//!
//! Hand-minimized regression inputs live at the bottom as separate tests.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rtree_buffer::LruPolicy;
use rtree_geom::{Point, Rect};
use rtree_pager::{
    DiskRTree, MemStore, NodePage, NodeSoA, PageError, PageLayout, PageMeta, PageView,
    MAX_ENTRIES_PACKED, MAX_ENTRIES_PER_PAGE, PAGE_SIZE,
};

/// What `ask_view` collects: the MBR, the matches of each sample query, and
/// the entries within the sample ball with their distances.
type ViewAnswers = (Option<Rect>, Vec<Vec<u32>>, Vec<(u32, f64)>);

/// Everything a walk can ask of a page, asked through the view. The level
/// handed to the view is the one the header claims, as if a walk had
/// descended to it (a page shorter than its header claims level 0).
fn ask_view(bytes: &[u8]) -> Result<ViewAnswers, PageError> {
    let claimed = bytes
        .get(2..4)
        .map_or(0, |b| u16::from_le_bytes([b[0], b[1]]));
    let view = PageView::new(bytes, claimed)?;
    let mbr = view.mbr()?;
    let mut matches = Vec::new();
    for q in sample_queries() {
        let mut out = Vec::new();
        view.intersecting(&q, &mut out)?;
        matches.push(out);
    }
    let mut within = Vec::new();
    view.min_dist2_within(&Point::new(0.3, 0.1), 0.05, &mut within)?;
    Ok((mbr, matches, within))
}

fn sample_queries() -> [Rect; 4] {
    [
        Rect::new(0.0, 0.0, 1.0, 1.0),
        Rect::new(0.25, 0.05, 0.5, 0.3),
        Rect::new(0.3, 0.3, 0.3, 0.3),
        Rect::new(5.0, 5.0, 6.0, 6.0),
    ]
}

/// The view against the trusted decode of the same bytes: one rejects iff
/// the other does, and an accepted page answers identically through both.
fn view_agrees_with(trusted: &Result<(), PageError>, node: &NodeSoA, bytes: &[u8]) {
    let view = ask_view(bytes);
    assert_eq!(
        view.is_ok(),
        trusted.is_ok(),
        "view {view:?} vs trusted decode {trusted:?}"
    );
    let Ok((mbr, matches, within)) = view else {
        return;
    };
    assert_eq!(mbr, node.rects.mbr());
    for (q, got) in sample_queries().iter().zip(&matches) {
        let mut want = Vec::new();
        node.rects.intersecting_scalar(q, &mut want);
        assert_eq!(got, &want, "query {q:?}");
    }
    let mut want = Vec::new();
    node.rects
        .min_dist2_within_scalar(&Point::new(0.3, 0.1), 0.05, &mut want);
    assert_eq!(within, want);
    let view = PageView::new(bytes, node.level).expect("accepted above");
    for i in 0..node.len() {
        assert_eq!(view.rect(i), node.rects.get(i));
        assert_eq!(view.ptr(i), node.ptrs[i]);
    }
}

fn decode_both(bytes: &[u8]) {
    let _ = PageMeta::decode(bytes);
    let aos = NodePage::decode(bytes);
    let soa = NodeSoA::decode(bytes);
    let mut scratch = NodeSoA::new();
    let trusted = scratch.decode_into_trusted(bytes);
    if let (Ok(a), Ok(s)) = (&aos, &soa) {
        assert_eq!(a.level, s.level);
        assert_eq!(a.entries.len(), s.len());
        for (i, (r, p)) in a.entries.iter().enumerate() {
            assert_eq!(*r, s.rects.get(i));
            assert_eq!(*p, s.ptrs[i]);
        }
    }
    if soa.is_ok() {
        assert!(trusted.is_ok(), "trusted decode is weaker than full decode");
    }
    view_agrees_with(&trusted, &scratch, bytes);
}

/// `decode_both` on `page` and on the same bytes re-sealed, so the mutant
/// also reaches what sits behind the checksum — the surface the trusted
/// decode and the view expose on every buffer hit.
fn decode_both_and_resealed(page: &mut [u8]) {
    decode_both(page);
    reseal(page);
    decode_both(page);
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF022_DECD);
    let mut page = vec![0u8; PAGE_SIZE];
    for _ in 0..10_000 {
        rng.fill_bytes(&mut page);
        decode_both(&page);
    }
    // Wrong lengths must be rejected, not sliced out of bounds.
    for len in [
        0usize,
        1,
        7,
        63,
        PAGE_SIZE - 1,
        PAGE_SIZE + 1,
        3 * PAGE_SIZE,
    ] {
        let mut buf = vec![0xA5u8; len];
        decode_both(&buf);
        // The same prefix zero-padded (or cut) to exactly one page gets
        // past the length check.
        buf.resize(PAGE_SIZE, 0);
        decode_both(&buf);
    }
}

fn sample_meta() -> PageMeta {
    PageMeta {
        root: 1,
        height: 3,
        max_entries: 50,
        min_entries: 20,
        items: 1234,
        nodes: 77,
        free_head: 0,
        level_starts: vec![1, 2, 10],
        internal_max_entries: 50,
        compressed: false,
    }
}

fn sample_node() -> NodePage {
    NodePage {
        level: 1,
        entries: (0..40)
            .map(|i| {
                let x = i as f64 / 64.0;
                (Rect::new(x, x, x + 0.01, x + 0.01), 1000 + i as u64)
            })
            .collect(),
    }
}

/// A Packed (v4) node with more entries than an f64 page could hold, so
/// mutations exercise the 253-capacity code paths.
fn sample_packed_node() -> NodePage {
    NodePage {
        level: 2,
        entries: (0..200)
            .map(|i| {
                let x = i as f64 / 256.0;
                (Rect::new(x, x * 0.3, x + 0.004, x * 0.3 + 0.006), 2_000 + i)
            })
            .collect(),
    }
}

fn packed_page() -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    sample_packed_node().encode_with(&mut page, PageLayout::Packed);
    page
}

/// A free-list page exactly as the sequential tree writes one: empty a
/// small tree again, flush, and lift the first `FREE`-tagged page out of
/// the image.
fn free_page() -> Vec<u8> {
    let mut tree = DiskRTree::create_empty(MemStore::new(), 4, 2, 8, LruPolicy::new()).unwrap();
    let rect = |i: u64| Rect::new(i as f64, 0.0, i as f64 + 0.5, 0.5);
    for i in 0..40 {
        tree.insert(rect(i), i).unwrap();
    }
    for i in 0..40 {
        assert!(tree.delete(&rect(i), i).unwrap());
    }
    tree.flush().unwrap();
    let image = tree.into_store().snapshot();
    let mut pages = image.chunks(PAGE_SIZE);
    let free = pages.find(|page| page.starts_with(b"FREE"));
    free.expect("dissolved nodes are on the free list").to_vec()
}

#[test]
fn mutated_valid_pages_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xBAD_F1B5);
    let mut meta_page = vec![0u8; PAGE_SIZE];
    sample_meta().encode(&mut meta_page);
    // Both node body layouts: v3/SoA (the default `encode`, an internal
    // page and a leaf) and v4/Packed — plus a v4 meta page, whose tail
    // field is versioned, and a free-list page.
    let mut node_page = vec![0u8; PAGE_SIZE];
    sample_node().encode(&mut node_page);
    let mut leaf_page = vec![0u8; PAGE_SIZE];
    let leaf = NodePage {
        level: 0,
        ..sample_node()
    };
    leaf.encode(&mut leaf_page);
    let node_page_v4 = packed_page();
    let mut meta_page_v4 = vec![0u8; PAGE_SIZE];
    PageMeta {
        internal_max_entries: MAX_ENTRIES_PACKED as u32,
        compressed: true,
        ..sample_meta()
    }
    .encode(&mut meta_page_v4);

    for template in [
        &meta_page,
        &node_page,
        &leaf_page,
        &node_page_v4,
        &meta_page_v4,
        &free_page(),
    ] {
        for _ in 0..10_000 {
            let mut page = template.clone();
            for _ in 0..rng.gen_range(1..=8usize) {
                let at = rng.gen_range(0..PAGE_SIZE);
                page[at] ^= 1 << rng.gen_range(0..8u32);
            }
            decode_both_and_resealed(&mut page);
        }
    }
}

#[test]
fn valid_pages_round_trip() {
    let mut page = vec![0u8; PAGE_SIZE];
    sample_meta().encode(&mut page);
    assert_eq!(PageMeta::decode(&page).unwrap(), sample_meta());
    sample_node().encode(&mut page);
    assert_eq!(NodePage::decode(&page).unwrap(), sample_node());
    // A free page is sealed like any other, and is neither a node nor meta.
    decode_both(&free_page());
    assert!(matches!(
        NodePage::decode(&free_page()),
        Err(PageError::BadMagic)
    ));
}

/// Both node decoders accept both body layouts and agree on the content:
/// the entry-at-a-time (AoS) decoder and the SoA decoder, each reading a
/// v3 page (losslessly) and a v4 page (the same dequantization).
#[test]
fn aos_and_soa_decoders_agree_on_both_layouts() {
    let mut v3 = vec![0u8; PAGE_SIZE];
    sample_node().encode(&mut v3);
    assert_eq!(NodePage::decode(&v3).unwrap(), sample_node());

    for page in [v3, packed_page()] {
        let aos = NodePage::decode(&page).unwrap();
        let soa = NodeSoA::decode(&page).unwrap();
        assert_eq!(soa.level, aos.level);
        assert_eq!(soa.len(), aos.entries.len());
        for (i, (r, p)) in aos.entries.iter().enumerate() {
            assert_eq!(soa.rects.get(i), *r);
            assert_eq!(soa.ptrs[i], *p);
        }
    }
}

// ---- Regression inputs (minimized from the generators above). ----------

/// A node page whose entry count claims more than the page can hold must be
/// a typed overflow error, not a huge `Vec::with_capacity` + out-of-bounds
/// read. Bytes 4..6 are the count; the checksum is re-sealed by re-encoding
/// via a raw patch of count *after* computing a valid CRC would be caught,
/// so this exercises the pre-checksum ordering too.
#[test]
fn regression_entry_count_overflow() {
    let mut page = vec![0u8; PAGE_SIZE];
    sample_node().encode(&mut page);
    let bogus = (MAX_ENTRIES_PER_PAGE as u16 + 1).to_le_bytes();
    page[4..6].copy_from_slice(&bogus);
    // The corrupted count invalidates the checksum first; both outcomes
    // are legal, a panic is not.
    match NodePage::decode(&page) {
        Err(PageError::ChecksumMismatch { .. }) | Err(PageError::EntryOverflow(_)) => {}
        other => panic!("expected checksum/overflow error, got {other:?}"),
    }
}

/// A meta page whose level-table length disagrees with its height must be
/// rejected as inconsistent (the table would otherwise be indexed by level).
#[test]
fn regression_level_table_length_mismatch() {
    let mut meta = sample_meta();
    meta.level_starts = vec![1, 2]; // height says 3
    let mut page = vec![0u8; PAGE_SIZE];
    // encode asserts nothing about this; decode must.
    meta.encode(&mut page);
    assert!(matches!(
        PageMeta::decode(&page),
        Err(PageError::InconsistentMeta(_))
    ));
}

/// All-zero page: fails at the magic check for both decoders.
#[test]
fn regression_zero_page() {
    let page = vec![0u8; PAGE_SIZE];
    assert!(matches!(PageMeta::decode(&page), Err(PageError::BadMagic)));
    assert!(matches!(NodePage::decode(&page), Err(PageError::BadMagic)));
    assert!(matches!(NodeSoA::decode(&page), Err(PageError::BadMagic)));
}

/// Re-seals the node-page checksum (bytes 8..12, computed with the field
/// zeroed) after a raw patch, so corruption tests can aim past the CRC at
/// the structural checks.
fn reseal(page: &mut [u8]) {
    page[8..12].fill(0);
    let crc = rtree_wal::crc32::checksum(page);
    page[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// A v3 page whose entry count claims more than the page can hold must be
/// a typed overflow error from the SoA decoder too — resealed so the count
/// check itself (not the checksum) does the rejecting.
#[test]
fn regression_v3_entry_count_overflow() {
    let mut page = vec![0u8; PAGE_SIZE];
    sample_node().encode(&mut page);
    page[4..6].copy_from_slice(&(MAX_ENTRIES_PER_PAGE as u16 + 1).to_le_bytes());
    reseal(&mut page);
    assert!(matches!(
        NodeSoA::decode(&page),
        Err(PageError::EntryOverflow(_))
    ));
    // The trusted decode skips the checksum, never the count check.
    let mut scratch = NodeSoA::new();
    assert!(matches!(
        scratch.decode_into_trusted(&page),
        Err(PageError::EntryOverflow(_))
    ));
}

/// A layout flag naming neither body layout — 0, the retired v2
/// array-of-structs body, included — is a typed error, not an
/// out-of-bounds plane read.
#[test]
fn regression_unknown_layout_flag() {
    for flag in [0u16, 7] {
        let mut page = vec![0u8; PAGE_SIZE];
        sample_node().encode(&mut page);
        page[6..8].copy_from_slice(&flag.to_le_bytes());
        reseal(&mut page);
        let want = PageError::UnsupportedLayout(flag);
        assert_eq!(NodeSoA::decode(&page).unwrap_err(), want);
        assert_eq!(NodePage::decode(&page).unwrap_err(), want);
    }
}

/// Truncated SoA frames: a v3 page cut anywhere — mid-header, mid-plane,
/// at a plane boundary, one byte short — must be rejected by length, never
/// sliced out of bounds. (The SoA body is five 816-byte planes after the
/// 16-byte header; the cuts below land at and around those seams.)
#[test]
fn regression_truncated_soa_planes() {
    let mut page = vec![0u8; PAGE_SIZE];
    sample_node().encode(&mut page);
    for len in [0usize, 3, 15, 16, 17, 815, 816, 832, 1648, 2464, 3280, 4095] {
        let cut = &page[..len];
        assert!(
            matches!(NodeSoA::decode(cut), Err(PageError::WrongLength { .. })),
            "len {len}"
        );
        assert!(
            matches!(NodePage::decode(cut), Err(PageError::WrongLength { .. })),
            "len {len}"
        );
    }
}

/// The trust boundary, exactly: a page whose *only* defect is a bad stored
/// checksum is rejected by the full decode and accepted by the trusted
/// decode (page-in verification already vouched for the bytes), while a
/// page whose rectangles are inverted is rejected by both — the geometric
/// invariant is validated on every decode, trusted or not.
#[test]
fn trusted_decode_skips_checksum_but_not_invariants() {
    let node = sample_node();
    let mut page = vec![0u8; PAGE_SIZE];
    node.encode(&mut page);

    page[8..12].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    assert!(matches!(
        NodeSoA::decode(&page),
        Err(PageError::ChecksumMismatch { .. })
    ));
    let mut scratch = NodeSoA::new();
    scratch
        .decode_into_trusted(&page)
        .expect("bad CRC alone must not stop a trusted decode");
    assert_eq!(scratch.len(), node.entries.len());
    assert_eq!(scratch.rects.get(0), node.entries[0].0);
    // The view reads at the same trust level: it never looks at the CRC.
    let view = PageView::new(&page, node.level).expect("bad CRC alone must not stop the view");
    assert_eq!(view.rect(0), node.entries[0].0);
    view_agrees_with(&Ok(()), &scratch, &page);

    // Swap entry 0's lo_x/hi_x planes so the rect inverts, reseal the CRC:
    // now the checksum is fine and the geometry is not.
    let mut inverted = vec![0u8; PAGE_SIZE];
    node.encode(&mut inverted);
    let (lo, hi) = (16usize, 16 + 2 * 816);
    for i in 0..8 {
        inverted.swap(lo + i, hi + i);
    }
    reseal(&mut inverted);
    assert!(matches!(
        NodeSoA::decode(&inverted),
        Err(PageError::CorruptRect)
    ));
    let mut scratch = NodeSoA::new();
    assert!(matches!(
        scratch.decode_into_trusted(&inverted),
        Err(PageError::CorruptRect)
    ));
    // The view's header check passes (the header is fine); every scan of
    // the entries fails, whichever the walk asks for.
    let view = PageView::new(&inverted, node.level).expect("header is sound");
    let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
    assert_eq!(
        view.intersecting(&everything, &mut Vec::new()),
        Err(PageError::CorruptRect)
    );
    assert_eq!(
        view.min_dist2_within(&Point::new(0.5, 0.5), f64::INFINITY, &mut Vec::new()),
        Err(PageError::CorruptRect)
    );
    assert_eq!(view.mbr(), Err(PageError::CorruptRect));
    // And it believes the caller's level, not the page's.
    assert_eq!(
        PageView::new(&page, node.level + 1).err(),
        Some(PageError::LevelMismatch {
            expected: node.level + 1,
            found: node.level
        })
    );
}

/// Packed (v4) pages run the same decoder-agreement invariant as the f64
/// layouts: AoS and SoA decoders yield identical content, and the trusted
/// decode accepts whatever the full decode accepts.
#[test]
fn packed_pages_satisfy_decoder_agreement() {
    decode_both(&packed_page());
}

/// Truncated Packed pages: cuts mid-frame, at and around the four
/// quantized-plane seams (48 + k*506) and the pointer plane (2072), and
/// one byte short of a full page must all be length errors, never
/// out-of-bounds plane reads.
#[test]
fn regression_truncated_packed_planes() {
    let page = packed_page();
    for len in [
        0usize, 15, 16, 47, 48, 49, 553, 554, 1059, 1060, 1565, 1566, 2071, 2072, 2073, 4095,
    ] {
        let cut = &page[..len];
        assert!(
            matches!(NodeSoA::decode(cut), Err(PageError::WrongLength { .. })),
            "len {len}"
        );
        assert!(
            matches!(NodePage::decode(cut), Err(PageError::WrongLength { .. })),
            "len {len}"
        );
    }
}

/// A Packed page claiming more entries than even the 253-slot layout holds
/// is a typed overflow from both decoders — resealed so the count check,
/// not the checksum, does the rejecting.
#[test]
fn regression_packed_entry_count_overflow() {
    let mut page = packed_page();
    page[4..6].copy_from_slice(&(MAX_ENTRIES_PACKED as u16 + 1).to_le_bytes());
    reseal(&mut page);
    assert!(matches!(
        NodeSoA::decode(&page),
        Err(PageError::EntryOverflow(_))
    ));
    let mut scratch = NodeSoA::new();
    assert!(matches!(
        scratch.decode_into_trusted(&page),
        Err(PageError::EntryOverflow(_))
    ));
}

/// Inverted quantized codes (an entry whose lo code exceeds its hi code)
/// must be caught on the raw codes: clamping during dequantization could
/// otherwise collapse both edges onto the frame edge and slip past a
/// decoded-coordinate check.
#[test]
fn regression_packed_inverted_codes() {
    let mut page = packed_page();
    // Swap entry 3's lo_x and hi_x codes (planes 0 and 2).
    let (lo, hi) = (48 + 3 * 2, 48 + 2 * 506 + 3 * 2);
    for i in 0..2 {
        page.swap(lo + i, hi + i);
    }
    reseal(&mut page);
    assert!(matches!(
        NodeSoA::decode(&page),
        Err(PageError::CorruptRect)
    ));
    assert!(matches!(
        NodePage::decode(&page),
        Err(PageError::CorruptRect)
    ));
    let mut scratch = NodeSoA::new();
    assert!(matches!(
        scratch.decode_into_trusted(&page),
        Err(PageError::CorruptRect)
    ));
}

/// A non-finite page frame is a typed geometry error — every quantized
/// coordinate depends on it, so it is validated before any plane is read.
#[test]
fn regression_packed_corrupt_frame() {
    let mut page = packed_page();
    page[16..24].copy_from_slice(&f64::NAN.to_le_bytes());
    reseal(&mut page);
    assert!(matches!(
        NodeSoA::decode(&page),
        Err(PageError::CorruptRect)
    ));
    assert!(matches!(
        NodePage::decode(&page),
        Err(PageError::CorruptRect)
    ));
}

/// A zero-extent frame axis (all entries share one x) is legal: the
/// quantum is zero and every code decodes to the frame edge exactly.
#[test]
fn regression_packed_zero_extent_frame_decodes() {
    let node = NodePage {
        level: 1,
        entries: (0..50)
            .map(|i| (Rect::new(2.5, i as f64, 2.5, i as f64 + 0.5), i))
            .collect(),
    };
    let mut page = vec![0u8; PAGE_SIZE];
    node.encode_with(&mut page, PageLayout::Packed);
    let back = NodePage::decode(&page).expect("zero-extent frame must decode");
    assert_eq!(back.entries.len(), node.entries.len());
    for ((r, p), (orig, op)) in back.entries.iter().zip(&node.entries) {
        assert_eq!(p, op);
        assert!(r.contains_rect(orig), "decoded rect must contain original");
        assert_eq!(r.lo.x, 2.5);
        assert_eq!(r.hi.x, 2.5);
    }
}

/// The trust boundary holds for v4 exactly as for v3: a bad stored CRC
/// alone stops the full decode but not the trusted one, while inverted
/// codes stop both.
#[test]
fn packed_trusted_decode_skips_checksum_but_not_invariants() {
    let node = sample_packed_node();
    let mut page = vec![0u8; PAGE_SIZE];
    node.encode_with(&mut page, PageLayout::Packed);

    page[8..12].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    assert!(matches!(
        NodeSoA::decode(&page),
        Err(PageError::ChecksumMismatch { .. })
    ));
    let mut scratch = NodeSoA::new();
    scratch
        .decode_into_trusted(&page)
        .expect("bad CRC alone must not stop a trusted decode");
    assert_eq!(scratch.len(), node.entries.len());
    assert!(scratch.rects.get(0).contains_rect(&node.entries[0].0));
}
