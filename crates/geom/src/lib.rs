//! 2-D geometry primitives and space-filling curves.
//!
//! This crate is the foundation of the buffered R-tree study: axis-parallel
//! rectangles over the unit square `[0,1]²` (the paper normalizes every data
//! set to the unit square), the rectangle algebra used by the analytic model
//! of Leutenegger & López (extension by a query size, clamping to the query
//! domain `U'`), and the Hilbert / Morton space-filling curves used by the
//! packing loaders.
//!
//! All geometry is `f64` and the primitive types are `Copy`; only the
//! batched [`RectSoA`] kernel owns buffers ([`EntryPlanes`] runs the same
//! kernels on borrowed page bytes).

mod batch;
mod hilbert;
mod morton;
mod planes;
mod point;
pub mod quant;
mod rect;
pub mod simd;

pub use batch::RectSoA;
pub use hilbert::{hilbert_index, hilbert_point, HilbertCurve};
pub use morton::{morton_index, MortonCurve};
pub use planes::{CorruptEntry, EntryPlanes};
pub use point::Point;
pub use rect::Rect;
pub use simd::{active_kernel, available_kernels, set_kernel, KernelKind};

/// The unit square `U = [0,1] × [0,1]` all data sets are normalized to.
pub const UNIT: Rect = Rect {
    lo: Point { x: 0.0, y: 0.0 },
    hi: Point { x: 1.0, y: 1.0 },
};
