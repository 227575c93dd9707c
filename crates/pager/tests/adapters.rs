//! The names the stand-alone `rtree-perf` benchmark calls, held to the code
//! they stand for: `NodeSoA` to the page checksum plus `PageView`,
//! `BufferManager::write_buffered` to a write through to the store, and
//! `BufferManager::set_verify_reads` to nothing. This
//! is the one test in the workspace that calls them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_buffer::{LruPolicy, PageId};
use rtree_geom::Rect;
use rtree_pager::{
    BufferManager, MemStore, NodePage, NodeSoA, PageError, PageLayout, PageStore, PageView,
    PAGE_SIZE,
};
use rtree_wal::crc32;

/// `node` encoded in `layout`.
fn encoded(node: &NodePage, layout: PageLayout) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    node.encode_with(&mut page, layout);
    page
}

/// Full pages of every body layout: an SoA leaf, a point-body leaf (ids
/// far from 0, so its base and deltas both matter) and a Packed internal
/// page.
fn templates() -> [Vec<u8>; 3] {
    let node = |level, n: u64, side: f64, first: u64| NodePage {
        level,
        entries: (0..n)
            .map(|i| {
                let (x, y) = ((i % 13) as f64 / 13.0, (i / 13) as f64 / 20.0);
                (Rect::new(x, y, x + side, y + side), first + i * 7_919)
            })
            .collect(),
    };
    [
        encoded(&node(0, 102, 0.03, 100), PageLayout::Soa),
        encoded(&node(0, 203, 0.0, 1 << 40), PageLayout::Points),
        encoded(&node(1, 253, 0.05, 100), PageLayout::Packed),
    ]
}

/// The stored checksum (bytes 8..12) against the page's, computed with
/// the field zeroed.
fn crc_holds(page: &[u8]) -> bool {
    if page.len() != PAGE_SIZE {
        return false;
    }
    let mut zeroed = page.to_vec();
    zeroed[8..12].fill(0);
    page[8..12] == crc32::checksum(&zeroed).to_le_bytes()
}

fn reseal(page: &mut [u8]) {
    page[8..12].fill(0);
    let crc = crc32::checksum(page);
    page[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// The adapter on `page` against the view at the level the header claims.
fn agrees(page: &[u8]) {
    let level = page
        .get(2..4)
        .map_or(0, |b| u16::from_le_bytes([b[0], b[1]]));
    let view = PageView::new(page, level).and_then(|v| Ok((v, v.mbr()?)));
    let mut node = NodeSoA::new();
    let whole = crc_holds(page) && view.is_ok();
    assert_eq!(NodeSoA::decode(page).is_ok(), whole);
    assert_eq!(node.decode_into(page).is_ok(), whole);
    assert_eq!(node.decode_into_trusted(page).is_ok(), view.is_ok());
    let queries = [
        Rect::new(0.0, 0.0, 1.0, 1.0),
        Rect::new(0.2, 0.1, 0.45, 0.3),
        Rect::new(0.5, 0.25, 0.5, 0.25),
        Rect::new(3.0, 3.0, 4.0, 4.0),
    ];
    for q in &queries {
        let (mut active, mut scalar, mut want) = (Vec::new(), Vec::new(), Vec::new());
        node.rects.intersecting(q, &mut active);
        node.rects.intersecting_scalar(q, &mut scalar);
        if let Ok((view, _)) = &view {
            view.intersecting(q, &mut want).unwrap();
        }
        assert_eq!(active, want, "query {q}");
        assert_eq!(scalar, want, "query {q}");
    }
    // The view's MBR; none once the node has refused a page.
    assert_eq!(node.rects.mbr(), view.ok().and_then(|(_, mbr)| mbr));
}

#[test]
fn adapters_answer_like_the_production_code() {
    let mut rng = StdRng::seed_from_u64(0xADA_F7E5);
    for template in templates() {
        agrees(&template);
        agrees(&template[..PAGE_SIZE - 1]);
        agrees(&[&template[..], &[0]].concat());
        for _ in 0..1_500 {
            let mut page = template.clone();
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..PAGE_SIZE);
                page[at] ^= 1 << rng.gen_range(0..8u32);
            }
            agrees(&page);
            reseal(&mut page);
            agrees(&page);
        }
    }

    // Flag 3, the retired point body, is an unknown layout to the adapter.
    let mut retired = templates()[1].clone();
    retired[6..8].copy_from_slice(&3u16.to_le_bytes());
    reseal(&mut retired);
    let unsupported = Some(PageError::UnsupportedLayout(3));
    assert_eq!(NodeSoA::decode(&retired).err(), unsupported);
    agrees(&retired);

    // `write_buffered` writes through: the store and the resident frame
    // hold the new bytes at once, for one physical write and no read.
    // `set_verify_reads(true)` changes nothing: every page-in verifies.
    let (old, image) = (templates()[1].clone(), templates()[0].clone());
    let mut store = MemStore::new();
    for _ in 0..4 {
        let id = store.allocate().unwrap();
        store.write_page(id, &old).unwrap();
    }
    let mut m = BufferManager::new(store, 2, LruPolicy::new());
    m.set_verify_reads(true);
    m.fetch(PageId(1)).unwrap();
    m.write_buffered(PageId(1), &image).unwrap();
    m.write_buffered(PageId(3), &image).unwrap();
    assert_eq!((m.io_stats().reads, m.io_stats().writes), (1, 2));
    assert_eq!(m.fetch(PageId(1)).unwrap(), &image[..]);
    assert_eq!(m.io_stats().reads, 1, "page 1 stayed resident");
    // Read back from the store: page 3, then page 1 once page 2 evicts it.
    for id in [3, 2, 1] {
        let want = if id == 2 { &old } else { &image };
        assert_eq!(m.fetch(PageId(id)).unwrap(), &want[..], "page {id}");
    }
    assert_eq!(m.io_stats().reads, 4);
}
