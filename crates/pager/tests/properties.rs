//! Property tests for the pager: codec round-trips for arbitrary content,
//! and buffer-manager read counting consistent with a bare pool replaying
//! the same reference string.

use proptest::prelude::*;
use rtree_buffer::{BufferPool, LruPolicy, PageId};
use rtree_geom::quant::quantum;
use rtree_geom::{Point, Rect};
use rtree_pager::{
    BufferManager, MemStore, NodePage, PageError, PageLayout, PageMeta, PageStore,
    MAX_ENTRIES_PACKED, MAX_ENTRIES_PER_PAGE, PAGE_SIZE,
};

fn arb_rect() -> impl Strategy<Value = Rect> {
    ((-1e6f64..1e6, -1e6f64..1e6), (0.0f64..1e3, 0.0f64..1e3)).prop_map(|((x, y), (w, h))| Rect {
        lo: Point::new(x, y),
        hi: Point::new(x + w, y + h),
    })
}

/// A frame plus rects expressed as fractions of it, so every rect is
/// guaranteed to lie inside the frame they are quantized against.
fn arb_frame_and_rects() -> impl Strategy<Value = (Rect, Vec<Rect>)> {
    (
        arb_rect(),
        prop::collection::vec(
            (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
            1..MAX_ENTRIES_PACKED,
        ),
    )
        .prop_map(|(frame, fracs)| {
            let (wx, wy) = (frame.x_extent(), frame.y_extent());
            let rects = fracs
                .into_iter()
                .map(|(fx, fy, fw, fh)| {
                    let lo_x = frame.lo.x + fx * wx;
                    let lo_y = frame.lo.y + fy * wy;
                    Rect {
                        lo: Point::new(lo_x, lo_y),
                        hi: Point::new(
                            (lo_x + fw * (frame.hi.x - lo_x)).min(frame.hi.x),
                            (lo_y + fh * (frame.hi.y - lo_y)).min(frame.hi.y),
                        ),
                    }
                })
                .collect();
            (frame, rects)
        })
}

proptest! {
    #[test]
    fn node_page_round_trips(
        level in 0u16..32,
        entries in prop::collection::vec((arb_rect(), any::<u64>()), 0..=MAX_ENTRIES_PER_PAGE),
    ) {
        let node = NodePage { level, entries };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode(&mut buf);
        let back = NodePage::decode(&buf).expect("decode own encoding");
        prop_assert_eq!(back, node);
    }

    #[test]
    fn meta_page_round_trips(
        root in 0u64..1_000_000,
        nodes in 1u64..1_000_000,
        items in 0u64..1_000_000_000,
        max_entries in 2u32..=102,
        min_entries in 1u32..=51,
        free_head in 0u64..1_000_000,
        starts in prop::collection::vec(1u64..1_000_000, 1..32),
        compressed in any::<bool>(),
        internal_extra in 0u32..=151,
    ) {
        // Uncompressed metas carry no internal-capacity field on disk, so
        // it must equal max_entries to round-trip; compressed (v4) metas
        // persist any in-range capacity.
        let meta = PageMeta {
            root,
            height: starts.len() as u32,
            max_entries,
            min_entries,
            items,
            nodes,
            free_head,
            level_starts: starts,
            internal_max_entries: if compressed {
                (max_entries + internal_extra).min(253)
            } else {
                max_entries
            },
            compressed,
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        meta.encode(&mut buf);
        prop_assert_eq!(PageMeta::decode(&buf).expect("decode"), meta);
    }

    #[test]
    fn quantizer_is_conservative_for_any_frame(
        frame_and_rects in arb_frame_and_rects(),
    ) {
        let (frame, rects) = frame_and_rects;
        // Conservative rounding, for arbitrary frames, through the page
        // codec: with the frame itself in slot 0 the page's bounding rect
        // is exactly `frame`, and every other slot decodes to a rect that
        // contains the original (no false negatives downstream) with each
        // edge moved outward by at most one quantum — the error bound the
        // buffer-model analysis in DESIGN.md relies on.
        let node = NodePage {
            level: 1,
            entries: std::iter::once(&frame).chain(&rects).map(|r| (*r, 0)).collect(),
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, PageLayout::Packed);
        let back = NodePage::decode(&buf).expect("decode own encoding");
        prop_assert_eq!(back.entries[0].0, frame, "frame corners are exact");
        let slack_x = quantum(frame.lo.x, frame.hi.x) * (1.0 + 1e-9);
        let slack_y = quantum(frame.lo.y, frame.hi.y) * (1.0 + 1e-9);
        for ((back, _), r) in back.entries[1..].iter().zip(&rects) {
            prop_assert!(back.is_valid());
            prop_assert!(back.contains_rect(r), "decoded {back:?} must contain {r:?}");
            prop_assert!(r.lo.x - back.lo.x <= slack_x);
            prop_assert!(back.hi.x - r.hi.x <= slack_x);
            prop_assert!(r.lo.y - back.lo.y <= slack_y);
            prop_assert!(back.hi.y - r.hi.y <= slack_y);
        }
    }

    #[test]
    fn packed_page_round_trip_is_conservative(
        level in 1u16..32,
        entries in prop::collection::vec((arb_rect(), any::<u64>()), 0..=MAX_ENTRIES_PACKED),
    ) {
        // A Packed page holds up to 253 entries, preserves child pointers
        // exactly, and every decoded rect contains the rect that was
        // encoded — for arbitrary entry sets, whose union becomes the
        // page frame.
        let node = NodePage { level, entries };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, PageLayout::Packed);
        let back = NodePage::decode(&buf).expect("decode own encoding");
        prop_assert_eq!(back.level, node.level);
        prop_assert_eq!(back.entries.len(), node.entries.len());
        for ((r, p), (orig, op)) in back.entries.iter().zip(&node.entries) {
            prop_assert_eq!(p, op);
            prop_assert!(r.contains_rect(orig), "decoded {:?} must contain {:?}", r, orig);
        }
    }

    #[test]
    fn packed_inverted_codes_are_always_rejected(
        entries in prop::collection::vec((arb_rect(), any::<u64>()), 1..=MAX_ENTRIES_PACKED),
        pick in 0usize..MAX_ENTRIES_PACKED,
        axis in 0usize..2,
    ) {
        // Whatever the content, swapping an entry's lo/hi codes on one
        // axis (when they differ) must surface as CorruptRect — clamping
        // during dequantization is not allowed to mask the inversion.
        let node = NodePage { level: 1, entries };
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, PageLayout::Packed);
        let i = pick % node.entries.len();
        let plane = |k: usize| 48 + k * 506 + i * 2;
        let (lo_off, hi_off) = (plane(axis), plane(axis + 2));
        let lo = u16::from_le_bytes([buf[lo_off], buf[lo_off + 1]]);
        let hi = u16::from_le_bytes([buf[hi_off], buf[hi_off + 1]]);
        // Equal codes cannot invert; only act when the swap changes order.
        if lo != hi {
            buf.swap(lo_off, hi_off);
            buf.swap(lo_off + 1, hi_off + 1);
            buf[8..12].fill(0);
            let crc = rtree_wal::crc32::checksum(&buf);
            buf[8..12].copy_from_slice(&crc.to_le_bytes());
            prop_assert!(matches!(NodePage::decode(&buf), Err(PageError::CorruptRect)));
        }
    }

    #[test]
    fn decode_never_panics_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), PAGE_SIZE)) {
        // Corrupt pages must come back as errors, not panics or bogus data
        // passing validation silently (validation = magic + bounds + rect
        // ordering checks).
        let _ = NodePage::decode(&bytes);
        let _ = PageMeta::decode(&bytes);
    }

    #[test]
    fn manager_reads_match_pool_misses(
        capacity in 1usize..16,
        refs in prop::collection::vec(0u64..32, 1..300),
    ) {
        // The buffer manager must read from the store exactly when a bare
        // pool with the same policy would miss.
        let mut store = MemStore::new();
        let mut page = vec![0u8; PAGE_SIZE];
        for i in 0..32u64 {
            let id = store.allocate().expect("alloc");
            page[0] = i as u8;
            store.write_page(id, &page).expect("write");
        }
        let mut mgr = BufferManager::new(store, capacity, LruPolicy::new());
        let mut pool = BufferPool::new(capacity, LruPolicy::new());
        let mut expected_reads = 0u64;
        for &p in &refs {
            if pool.access(PageId(p)).is_miss() {
                expected_reads += 1;
            }
            let frame = mgr.fetch(PageId(p)).expect("fetch");
            prop_assert_eq!(frame[0], p as u8, "frame content mismatch");
        }
        prop_assert_eq!(mgr.physical_reads(), expected_reads);
    }
}
