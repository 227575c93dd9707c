//! Names the stand-alone `rtree-perf` benchmark calls, kept as thin
//! adapters over the one implementation of each. Only `tests/adapters.rs`
//! calls them, to hold them to it.

use crate::page::{verify_checksum, PageError};
use crate::{BufferManager, PageStore, PageView, PAGE_SIZE};
use rtree_buffer::PageId;
use rtree_geom::{KernelKind, Rect};
use std::io;
use std::sync::Arc;

/// The level a node page's header claims (0 if it is too short to say).
fn claimed_level(buf: &[u8]) -> u16 {
    buf.get(2..4)
        .map_or(0, |b| u16::from_le_bytes([b[0], b[1]]))
}

/// A copy of a node page's bytes, checked the way a walk checks a page it
/// visits and read through [`PageView`].
#[derive(Clone, Debug, Default)]
pub struct NodeSoA {
    /// The page's entry rectangles.
    pub rects: PageRects,
}

/// The copied page.
#[derive(Clone, Debug, Default)]
pub struct PageRects(Vec<u8>);

impl NodeSoA {
    /// A node holding no page.
    pub fn new() -> Self {
        NodeSoA::default()
    }

    /// [`NodeSoA::decode_into`] into a new node.
    pub fn decode(buf: &[u8]) -> Result<Self, PageError> {
        let mut node = NodeSoA::new();
        node.decode_into(buf).map(|()| node)
    }

    /// The page checksum, then [`NodeSoA::decode_into_trusted`].
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<(), PageError> {
        self.rects.0.clear();
        // A page of the wrong length is refused by the header check.
        if buf.len() == PAGE_SIZE {
            verify_checksum(buf)?;
        }
        self.decode_into_trusted(buf)
    }

    /// [`PageView::new`]'s header check at the level the header claims,
    /// every entry validated, then the bytes copied in. Holds no page on
    /// error.
    pub fn decode_into_trusted(&mut self, buf: &[u8]) -> Result<(), PageError> {
        self.rects.0.clear();
        PageView::new(buf, claimed_level(buf))?.mbr()?;
        self.rects.0.extend_from_slice(buf);
        Ok(())
    }
}

impl PageRects {
    fn view(&self) -> Result<PageView<'_>, PageError> {
        PageView::new(&self.0, claimed_level(&self.0))
    }

    /// [`PageView::mbr`]; `None` for an empty page or no page.
    pub fn mbr(&self) -> Option<Rect> {
        self.view().and_then(|view| view.mbr()).ok().flatten()
    }

    /// [`PageView::intersecting`] under the dispatched kernel.
    pub fn intersecting(&self, q: &Rect, out: &mut Vec<u32>) {
        let _ = self.view().and_then(|view| view.intersecting(q, out));
    }

    /// The same scan under [`KernelKind::Scalar`].
    pub fn intersecting_scalar(&self, q: &Rect, out: &mut Vec<u32>) {
        let _ = (self.view()).map(|view| view.planes.intersecting(KernelKind::Scalar, q, out));
    }
}

impl<S: PageStore> BufferManager<S> {
    /// The checkpoint's write-through page write, of a copy of `data`.
    #[doc(hidden)]
    pub fn write_buffered(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        self.write_through(id, &Arc::from(data))
    }

    /// Does nothing: every page read in is checksum-verified.
    #[doc(hidden)]
    pub fn set_verify_reads(&mut self, on: bool) {
        debug_assert!(on, "page-in always verifies checksums");
    }
}
