//! Fuzz target: arbitrary bytes through every page decoder.
//!
//! Invariant: `PageMeta::decode`, `NodePage::decode` and the SoA decoders
//! (`NodeSoA::decode`, `NodeSoA::decode_into_trusted`) must return
//! `Err(PageError)` or a valid value on *any* input — never panic, never
//! overflow an index, never allocate absurdly (entry counts are validated
//! before `Vec::with_capacity`). The two node decoders must also *agree*:
//! whenever both accept a frame they carry identical content, and the
//! trusted (checksum-skipping) decode accepts at least whatever the full
//! decode accepts.

#![no_main]

use std::sync::OnceLock;

use libfuzzer_sys::fuzz_target;
use rtree_buffer::LruPolicy;
use rtree_geom::Rect;
use rtree_pager::{DiskRTree, MemStore, NodePage, NodeSoA, PageLayout, PageMeta, PAGE_SIZE};

fn probe(bytes: &[u8]) {
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
}

/// The seed corpus: one valid page of each kind a current image holds
/// besides the meta page — a v3 (SoA) leaf, a Packed (v4) internal page of
/// 200 entries quantized against their union frame, and a free-list page
/// lifted out of a tree that dissolved nodes. Mutations of these reach the
/// deep parse paths (plane reads, frame validation, code-ordering checks)
/// that random bytes almost never find past the magic and checksum.
fn templates() -> &'static [[u8; PAGE_SIZE]; 3] {
    static PAGES: OnceLock<[[u8; PAGE_SIZE]; 3]> = OnceLock::new();
    PAGES.get_or_init(|| {
        let node = |level, n: u64| NodePage {
            level,
            entries: (0..n)
                .map(|i| {
                    let x = i as f64 / 256.0;
                    (Rect::new(x, x * 0.5, x + 0.003, x * 0.5 + 0.002), i)
                })
                .collect(),
        };
        let mut pages = [[0u8; PAGE_SIZE]; 3];
        node(0, 90).encode(&mut pages[0]);
        node(1, 200).encode_with(&mut pages[1], PageLayout::Packed);

        let mut tree = DiskRTree::create_empty(MemStore::new(), 4, 2, 8, LruPolicy::new())
            .expect("in-memory tree");
        let rect = |i: u64| Rect::new(i as f64, 0.0, i as f64 + 0.5, 0.5);
        for i in 0..40 {
            tree.insert(rect(i), i).expect("insert");
        }
        for i in 0..40 {
            tree.delete(&rect(i), i).expect("delete");
        }
        tree.flush().expect("flush");
        let image = tree.into_store().snapshot();
        let free = image.chunks(PAGE_SIZE).find(|page| page.starts_with(b"FREE"));
        pages[2].copy_from_slice(free.expect("dissolved nodes are on the free list"));
        pages
    })
}

fuzz_target!(|data: &[u8]| {
    // As-is: decoders must reject wrong lengths gracefully.
    probe(data);

    // Padded / truncated to exactly one page: exercises the full parse
    // path past the length check.
    let mut page = vec![0u8; PAGE_SIZE];
    let n = data.len().min(PAGE_SIZE);
    page[..n].copy_from_slice(&data[..n]);
    probe(&page);

    // Patched templates: fuzz bytes become (offset, value) patches on each
    // valid page, probed both as-is (checksum path) and resealed
    // (structural checks: layout flag, count vs capacity, frame, code
    // ordering, rectangle invariant).
    for template in templates() {
        let mut page = *template;
        for patch in data.chunks_exact(3) {
            let off = u16::from_le_bytes([patch[0], patch[1]]) as usize % PAGE_SIZE;
            page[off] = patch[2];
        }
        probe(&page);
        page[8..12].fill(0);
        let crc = rtree_wal::crc32::checksum(&page);
        page[8..12].copy_from_slice(&crc.to_le_bytes());
        probe(&page);
    }
});
