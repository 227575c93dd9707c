//! Deterministic operation streams.
//!
//! A trace is a flat list of tree operations — region / point / kNN
//! queries, inserts, deletes — generated from a [`TraceSpec`]: the same
//! spec over the same data always yields the same operations, so two
//! configurations (page formats, replacement policies) can be driven by
//! the identical stream and any difference in reads or time belongs to the
//! configuration, not the workload.
//!
//! The generator draws query centers *from the data* (the paper's §3.2
//! query-follows-data discipline) under one of three skews, and keeps a
//! live-item ledger so every delete names an object that actually exists
//! at that point in the trace — replays never see a spurious miss.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtree_geom::{Point, Rect};

use crate::centers;
use crate::zipf::ZipfPool;

/// One tree operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceOp {
    /// Region (window) query.
    Region(Rect),
    /// Point containment query.
    Point(Point),
    /// k-nearest-neighbor query.
    Knn(Point, u32),
    /// Insert an item with the given rect and id.
    Insert(Rect, u64),
    /// Delete the item with the given rect and id.
    Delete(Rect, u64),
}

/// A generated operation stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The operations, in replay order.
    pub ops: Vec<TraceOp>,
}

/// How query centers are drawn from the data centers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Skew {
    /// Uniform over the data centers (the paper's §3.2 baseline).
    Uniform,
    /// Zipf-ranked: center of rank k drawn with probability ∝ 1/(k+1)^θ.
    Zipf {
        /// Skew exponent; 0 is uniform, ~1 is classic web-log skew.
        theta: f64,
    },
    /// A 10%-of-data hot window that slides across the (sorted) centers
    /// over the trace — the working set moves, stressing replacement.
    Shifting,
}

/// Relative operation-mix weights; only ratios matter. A 90/9/1
/// read/insert/delete mix is `region: 80, point: 5, knn: 5, insert: 9,
/// delete: 1`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixWeights {
    /// Region-query weight.
    pub region: u32,
    /// Point-query weight.
    pub point: u32,
    /// kNN-query weight.
    pub knn: u32,
    /// Insert weight.
    pub insert: u32,
    /// Delete weight.
    pub delete: u32,
}

impl MixWeights {
    /// Pure read workload: region-heavy with some point and kNN traffic.
    pub fn read_only() -> Self {
        MixWeights {
            region: 80,
            point: 15,
            knn: 5,
            insert: 0,
            delete: 0,
        }
    }

    fn total(&self) -> u32 {
        self.region + self.point + self.knn + self.insert + self.delete
    }
}

/// Everything that determines a generated trace. Same spec + same data →
/// the same operations, always.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceSpec {
    /// Number of operations to generate.
    pub ops: usize,
    /// Region-query extent along x (also scales insert rects).
    pub qx: f64,
    /// Region-query extent along y.
    pub qy: f64,
    /// Center-selection skew.
    pub skew: Skew,
    /// Operation mix.
    pub mix: MixWeights,
    /// Master seed: drives center permutation, op choice, and jitter.
    pub seed: u64,
}

/// The center multiset a skew draws from — shared between the trace
/// generator and the analytic model, so a [`rtree_core::Workload`] built
/// over this pool describes exactly the centers the trace queries hit.
/// (For [`Skew::Shifting`] the pool is the sorted data centers; a uniform
/// draw over it is the trace's *steady-state average* as the 10% window
/// slides end to end.)
///
/// # Panics
/// Panics if `rects` is empty or a Zipf θ is invalid.
pub fn center_pool(rects: &[Rect], skew: Skew, seed: u64) -> Vec<Point> {
    let data_centers = centers(rects);
    assert!(!data_centers.is_empty(), "need at least one data rect");
    match skew {
        Skew::Uniform => data_centers,
        Skew::Zipf { theta } => zipf_pool(rects, theta, seed).expand(&data_centers),
        Skew::Shifting => {
            // Sorted so the sliding window is spatially coherent.
            let mut sorted = data_centers;
            sorted.sort_by(|a, b| {
                (a.x, a.y)
                    .partial_cmp(&(b.x, b.y))
                    .expect("finite data centers")
            });
            sorted
        }
    }
}

/// The Zipf pool over `rects`' centers: four slots each, at least 1 024.
fn zipf_pool(rects: &[Rect], theta: f64, seed: u64) -> ZipfPool {
    ZipfPool::new(rects.len(), theta, rects.len().max(256) * 4, seed)
}

/// Generates a trace over a data set. Query centers follow the data under
/// `spec.skew`; inserts place new small rects near drawn centers with
/// fresh ids starting at `rects.len()`; deletes target a uniformly drawn
/// *live* item (original or previously inserted, not yet deleted), so a
/// replay applies cleanly. If the ledger ever empties, the delete becomes
/// a region query instead — the trace stays the declared length.
///
/// # Panics
/// Panics if `rects` is empty, `spec.ops` is 0, the mix has zero total
/// weight, or a query extent is negative or non-finite.
pub fn generate(rects: &[Rect], spec: &TraceSpec) -> Trace {
    assert!(!rects.is_empty(), "need at least one data rect");
    assert!(spec.ops >= 1, "need at least one op");
    assert!(spec.mix.total() > 0, "mix weights sum to zero");
    assert!(
        spec.qx >= 0.0 && spec.qx.is_finite() && spec.qy >= 0.0 && spec.qy.is_finite(),
        "query extents must be finite and non-negative"
    );

    let mut rng = StdRng::seed_from_u64(spec.seed);
    // A Zipf stream draws slot `j` of the multiset without expanding it.
    let (zipf, listed) = match spec.skew {
        Skew::Zipf { theta } => (Some(zipf_pool(rects, theta, spec.seed)), vec![]),
        skew => (None, center_pool(rects, skew, spec.seed)),
    };
    let pool_len = zipf.as_ref().map_or(listed.len(), ZipfPool::len);
    let pool = |j: usize| {
        zipf.as_ref()
            .map_or_else(|| listed[j], |z| rects[z.get(j)].center())
    };
    let window = (pool_len / 10).max(1);

    let draw_center = |rng: &mut StdRng, i: usize| -> Point {
        match spec.skew {
            Skew::Uniform | Skew::Zipf { .. } => pool(rng.gen_range(0..pool_len)),
            Skew::Shifting => {
                // Window start slides linearly over the trace.
                let span = pool_len - window;
                let start = if spec.ops <= 1 {
                    0
                } else {
                    i * span / (spec.ops - 1)
                };
                pool(start + rng.gen_range(0..window))
            }
        }
    };

    // Live-item ledger of ids (`k` is `rects[k]`, then `inserted`): every
    // delete targets something that exists. Only a mix that deletes fills it.
    let seeded = if spec.mix.delete > 0 { rects.len() } else { 0 };
    let mut live: Vec<u64> = (0..seeded as u64).collect();
    let mut inserted: Vec<Rect> = Vec::new();
    let mut next_id = rects.len() as u64;

    let total = spec.mix.total();
    let mut ops = Vec::with_capacity(spec.ops);
    for i in 0..spec.ops {
        let pick = rng.gen_range(0..total);
        let m = spec.mix;
        // Cumulative thresholds over the mix weights, in declaration order.
        let after_region = m.region;
        let after_point = after_region + m.point;
        let after_knn = after_point + m.knn;
        let after_insert = after_knn + m.insert;
        let op = if pick < after_region {
            TraceOp::Region(Rect::centered(draw_center(&mut rng, i), spec.qx, spec.qy))
        } else if pick < after_point {
            TraceOp::Point(draw_center(&mut rng, i))
        } else if pick < after_knn {
            TraceOp::Knn(draw_center(&mut rng, i), rng.gen_range(1..=8))
        } else if pick < after_insert {
            let c = draw_center(&mut rng, i);
            let jx: f64 = rng.gen_range(-0.5..0.5) * spec.qx;
            let jy: f64 = rng.gen_range(-0.5..0.5) * spec.qy;
            let rect = Rect::centered(Point::new(c.x + jx, c.y + jy), spec.qx * 0.2, spec.qy * 0.2);
            let id = next_id;
            next_id += 1;
            live.push(id);
            inserted.push(rect);
            TraceOp::Insert(rect, id)
        } else if live.is_empty() {
            // Ledger drained: degrade to a query, never an invalid delete.
            TraceOp::Region(Rect::centered(draw_center(&mut rng, i), spec.qx, spec.qy))
        } else {
            let victim = rng.gen_range(0..live.len());
            let (id, n) = (live.swap_remove(victim), rects.len());
            let k = id as usize;
            TraceOp::Delete(if k < n { rects[k] } else { inserted[k - n] }, id)
        };
        ops.push(op);
    }
    Trace { ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf_center_multiset;

    fn data(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i % 37) as f64 / 37.0;
                let y = (i / 37) as f64 / 16.0;
                Rect::new(x, y, x + 0.01, y + 0.01)
            })
            .collect()
    }

    fn spec(skew: Skew, seed: u64) -> TraceSpec {
        TraceSpec {
            ops: 600,
            qx: 0.05,
            qy: 0.05,
            skew,
            // 90/9/1 read/insert/delete.
            mix: MixWeights {
                region: 80,
                point: 5,
                knn: 5,
                insert: 9,
                delete: 1,
            },
            seed,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let d = data(300);
        let a = generate(&d, &spec(Skew::Zipf { theta: 1.0 }, 5));
        let b = generate(&d, &spec(Skew::Zipf { theta: 1.0 }, 5));
        assert_eq!(a, b);
        let c = generate(&d, &spec(Skew::Zipf { theta: 1.0 }, 6));
        assert_ne!(a, c);
    }

    #[test]
    fn deletes_always_target_live_items() {
        // Replay the ledger: every delete must name an id that is live at
        // that point (original or inserted, not yet deleted), with the
        // exact rect it was created with.
        let d = data(200);
        let mut aggressive = spec(Skew::Uniform, 3);
        aggressive.mix = MixWeights {
            region: 10,
            point: 0,
            knn: 0,
            insert: 20,
            delete: 70,
        };
        aggressive.ops = 2_000;
        let t = generate(&d, &aggressive);
        let mut live: std::collections::HashMap<u64, Rect> =
            d.iter().enumerate().map(|(i, r)| (i as u64, *r)).collect();
        let mut deletes = 0;
        for op in &t.ops {
            match op {
                TraceOp::Insert(r, id) => {
                    assert!(live.insert(*id, *r).is_none(), "id {id} reused");
                }
                TraceOp::Delete(r, id) => {
                    deletes += 1;
                    let had = live.remove(id);
                    assert_eq!(had, Some(*r), "delete of dead or mismatched item {id}");
                }
                _ => {}
            }
        }
        assert!(deletes > 100, "mix produced only {deletes} deletes");
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    fn point_words(p: Point) -> [u64; 2] {
        [p.x.to_bits(), p.y.to_bits()]
    }

    fn op_words(op: &TraceOp) -> Vec<u64> {
        let rect = |r: &Rect| [point_words(r.lo), point_words(r.hi)].concat();
        match op {
            TraceOp::Region(r) => [vec![0], rect(r)].concat(),
            TraceOp::Point(p) => [vec![1], point_words(*p).to_vec()].concat(),
            TraceOp::Knn(p, k) => [vec![2, *k as u64], point_words(*p).to_vec()].concat(),
            TraceOp::Insert(r, id) => [vec![3, *id], rect(r)].concat(),
            TraceOp::Delete(r, id) => [vec![4, *id], rect(r)].concat(),
        }
    }

    /// The Zipf(0.99) pool and the streams the benchmark draws from it are
    /// pinned bit for bit: digests recorded before the pool's apportionment
    /// selected its extra copies instead of sorting every rank.
    #[test]
    fn pool_and_streams_reproduce_the_recorded_digests() {
        let d = crate::ClusteredPoints::new(20_000, 64, 0.02).generate(11);
        let zipf = Skew::Zipf { theta: 0.99 };
        let pool = zipf_center_multiset(&centers(&d), 0.99, 80_000, 5);
        assert_eq!(
            fnv1a(pool.into_iter().flat_map(point_words)),
            3_809_548_008_814_872_049,
            "pool"
        );
        let stream = |mix| {
            let spec = TraceSpec {
                ops: 20_000,
                qx: 0.003,
                qy: 0.003,
                skew: zipf,
                mix,
                seed: 5,
            };
            fnv1a(generate(&d, &spec).ops.iter().flat_map(op_words))
        };
        assert_eq!(
            stream(MixWeights::read_only()),
            5_688_584_861_515_280_563,
            "read-only"
        );
        let mixed = MixWeights {
            region: 85,
            point: 5,
            knn: 0,
            insert: 9,
            delete: 1,
        };
        assert_eq!(stream(mixed), 10_251_403_770_735_159_939, "85/5/9/1");
    }

    #[test]
    fn shifting_skew_moves_the_working_set() {
        let d = data(500);
        let mut s = spec(Skew::Shifting, 9);
        s.mix = MixWeights::read_only();
        let t = generate(&d, &s);
        let center_x = |op: &TraceOp| match op {
            TraceOp::Region(r) => r.center().x,
            TraceOp::Point(p) => p.x,
            TraceOp::Knn(p, _) => p.x,
            _ => unreachable!("read-only mix"),
        };
        let n = t.ops.len();
        let early: f64 = t.ops[..n / 4].iter().map(center_x).sum::<f64>() / (n / 4) as f64;
        let late: f64 =
            t.ops[3 * n / 4..].iter().map(center_x).sum::<f64>() / (n - 3 * n / 4) as f64;
        assert!(
            late - early > 0.2,
            "window did not slide: early mean x {early:.3}, late {late:.3}"
        );
    }
}
