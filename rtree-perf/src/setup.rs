//! Common set-up: data, the in-memory oracle, the on-disk image and the
//! operation streams. Everything is derived from `--seed`; the library
//! sees only the generated inputs.

use crate::span::Recorder;
use crate::timed::TimedStore;
use rtree_buffer::LruPolicy;
use rtree_datagen::trace::{generate, MixWeights, Skew, TraceOp, TraceSpec};
use rtree_datagen::ClusteredPoints;
use rtree_geom::Rect;
use rtree_index::{BulkLoader, RTree};
use rtree_pager::{DiskRTree, FileStore, PageMeta};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The store every workload runs on: the real file store behind the span
/// wrapper (a plain call while the recorder is disabled).
pub type Store = TimedStore<FileStore>;

/// Query extent: about 33 results per region query on the clustered data.
pub const QX: f64 = 0.003;
pub const ZIPF: Skew = Skew::Zipf { theta: 0.99 };
const NODE_CAP: usize = 100;

/// Data and buffer sizes. `--quick` shrinks both by ten so the buffer to
/// tree ratios (and so the workloads' regimes) stay the same.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub items: usize,
    /// At least the image's page count: the resident regime.
    pub resident_frames: usize,
    /// 2 % of the image's pages: the paper's B ≪ N regime.
    pub starved_frames: usize,
    /// `served_mixed`'s buffer (10 % of the pages).
    pub mixed_frames: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        items: 1_000_000,
        resident_frames: 12_000,
        starved_frames: 200,
        mixed_frames: 1_000,
    };
    pub const QUICK: Scale = Scale {
        items: 100_000,
        resident_frames: 1_200,
        starved_frames: 20,
        mixed_frames: 100,
    };
}

/// SplitMix64: independent sub-seeds from the one `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one set-up built. Dropping it removes its directory.
pub struct Env {
    pub dir: PathBuf,
    pub rects: Vec<Rect>,
    /// The in-memory tree the image was written from; also the oracle the
    /// read-only workloads' results are checked against.
    pub oracle: RTree,
    pub image: PathBuf,
    pub meta: PageMeta,
    pub bulk_load_s: f64,
    pub image_write_s: f64,
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Env {
    /// Generates the data, bulk-loads it and writes the compressed
    /// (format v4) image to a real file under `dir`.
    pub fn build(seed: u64, scale: Scale, dir: PathBuf) -> io::Result<Env> {
        std::fs::create_dir_all(&dir)?;
        let rects = ClusteredPoints::new(scale.items, 64, 0.02).generate(sub_seed(seed, 0));
        let t = Instant::now();
        let oracle = BulkLoader::hilbert(NODE_CAP).load(&rects);
        let bulk_load_s = t.elapsed().as_secs_f64();
        let image = dir.join("tree.pages");
        let t = Instant::now();
        let mut disk =
            DiskRTree::create_compressed(FileStore::create(&image)?, &oracle, 1, LruPolicy::new())?;
        disk.flush()?;
        let image_write_s = t.elapsed().as_secs_f64();
        let meta = disk.meta().clone();
        Ok(Env {
            dir,
            rects,
            oracle,
            image,
            meta,
            bulk_load_s,
            image_write_s,
        })
    }

    pub fn pages(&self) -> u64 {
        self.meta.nodes + 1
    }

    pub fn image_bytes(&self) -> io::Result<u64> {
        Ok(std::fs::metadata(&self.image)?.len())
    }

    /// Opens `path` (the image or a copy of it) behind the span wrapper.
    pub fn open_store(path: &Path, rec: &Arc<Recorder>) -> io::Result<Store> {
        Ok(TimedStore::new(FileStore::open(path)?, Arc::clone(rec)))
    }

    pub fn open_tree(&self, frames: usize, rec: &Arc<Recorder>) -> io::Result<DiskRTree<Store>> {
        DiskRTree::open(
            Self::open_store(&self.image, rec)?,
            frames,
            LruPolicy::new(),
        )
    }

    /// A Zipf(0.99) operation stream over `rects` with the given mix.
    pub fn stream(rects: &[Rect], ops: usize, mix: MixWeights, seed: u64) -> Vec<TraceOp> {
        generate(
            rects,
            &TraceSpec {
                ops,
                qx: QX,
                qy: QX,
                skew: ZIPF,
                mix,
                seed,
            },
        )
        .ops
    }
}

/// Region/point-only mix of the served read workload (kNN has no wire
/// request).
pub fn served_read_mix() -> MixWeights {
    MixWeights {
        region: 95,
        point: 5,
        knn: 0,
        insert: 0,
        delete: 0,
    }
}

/// 85/5/9/1 region/point/insert/delete.
pub fn served_mixed_mix() -> MixWeights {
    MixWeights {
        region: 85,
        point: 5,
        knn: 0,
        insert: 9,
        delete: 1,
    }
}
