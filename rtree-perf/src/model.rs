//! The paper's analytic `ED(B)` beside the measured page reads: the image
//! is walked into a `TreeDescription` (so the model sees the compressed
//! internal levels' conservative MBRs, the rectangles traversal tests
//! against) and the workload is the stream's own Zipf centre pool.

use crate::harness::ModelStream;
use crate::setup::{Env, QX, ZIPF};
use rtree_buffer::PageId;
use rtree_core::{BufferModel, MixedWorkload, TreeDescription, Workload};
use rtree_datagen::center_pool;
use rtree_geom::Rect;
use rtree_pager::{FileStore, NodePage, PageStore, PAGE_SIZE};
use std::io;

fn describe(env: &Env) -> io::Result<TreeDescription> {
    let meta = &env.meta;
    let mut store = FileStore::open(&env.image)?;
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut levels = Vec::with_capacity(meta.level_starts.len());
    for (k, &start) in meta.level_starts.iter().enumerate() {
        let end = meta
            .level_starts
            .get(k + 1)
            .copied()
            .unwrap_or(meta.nodes + 1);
        let mut mbrs = Vec::with_capacity((end - start) as usize);
        for id in start..end {
            store.read_page(PageId(id), &mut buf)?;
            let node = NodePage::decode(&buf).map_err(io::Error::other)?;
            let rects: Vec<Rect> = node.entries.iter().map(|(r, _)| *r).collect();
            mbrs.push(Rect::mbr_of(&rects));
        }
        levels.push(mbrs);
    }
    Ok(TreeDescription::from_levels(levels))
}

/// Expected page reads per region or point operation of `stream` at
/// `frames` buffer frames (the model has no kNN and no writes).
pub fn reads_per_op(env: &Env, stream: &ModelStream, frames: usize) -> io::Result<f64> {
    let desc = describe(env)?;
    let pool = center_pool(&stream.rects, ZIPF, stream.pool_seed);
    let mix = MixedWorkload::new(vec![
        (
            f64::from(stream.mix.region),
            Workload::data_driven(QX, QX, pool.clone()),
        ),
        (
            f64::from(stream.mix.point),
            Workload::data_driven_point(pool),
        ),
    ]);
    Ok(BufferModel::new_mixed(&desc, &mix).expected_disk_accesses(frames))
}
