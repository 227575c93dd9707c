//! Node-page entry planes as the pager lays them out, for the kernel suites:
//! the three body layouts, behind a one-byte pad so every lane sits at an
//! odd address (the loads must not assume alignment), and the
//! entry-at-a-time [`Rect`] oracle every kernel variant is held to.
#![allow(dead_code)] // each suite uses its own part of it

use rtree_geom::quant::{dequant, quantum};
use rtree_geom::{available_kernels, CorruptEntry, EntryPlanes, Point, Rect};

/// A page body's entry planes.
pub struct Page {
    buf: Vec<u8>,
    plane_len: usize,
    /// `None` for `f64` planes, the frame for code planes.
    frame: Option<Rect>,
    /// Two planes `x`, `y` read as `[x, y, x, y]`: the point body.
    points: bool,
    /// The entries one [`Rect`] at a time (dequantized on a Packed page).
    pub rects: Vec<Rect>,
    /// Whether a decode rejects the page: an entry that is not a valid
    /// rectangle, or on a Packed page a low code above its high code.
    pub corrupt: bool,
}

fn lanes<T, const W: usize>(items: &[T], word: impl Fn(&T) -> [u8; W]) -> Vec<u8> {
    items.iter().flat_map(word).collect()
}

impl Page {
    fn padded(planes: Vec<Vec<u8>>) -> (Vec<u8>, usize) {
        let plane_len = planes[0].len();
        let mut buf = vec![0xA5u8];
        buf.extend(planes.into_iter().flatten());
        (buf, plane_len)
    }

    /// An SoA body: four `f64` planes.
    pub fn soa(rects: &[Rect]) -> Page {
        let coord = |f: fn(&Rect) -> f64| lanes(rects, move |r| f(r).to_le_bytes());
        let planes = vec![
            coord(|r| r.lo.x),
            coord(|r| r.lo.y),
            coord(|r| r.hi.x),
            coord(|r| r.hi.y),
        ];
        let (buf, plane_len) = Page::padded(planes);
        let corrupt = rects.iter().any(|r| !r.is_valid());
        let (frame, points, rects) = (None, false, rects.to_vec());
        Page {
            buf,
            plane_len,
            frame,
            points,
            rects,
            corrupt,
        }
    }

    /// A point body: the `x` and `y` planes.
    pub fn points(points: &[Point]) -> Page {
        let planes = vec![
            lanes(points, |p| p.x.to_le_bytes()),
            lanes(points, |p| p.y.to_le_bytes()),
        ];
        let (buf, plane_len) = Page::padded(planes);
        let rects: Vec<Rect> = points.iter().map(|&p| Rect { lo: p, hi: p }).collect();
        let corrupt = rects.iter().any(|r| !r.is_valid());
        Page {
            buf,
            plane_len,
            frame: None,
            points: true,
            rects,
            corrupt,
        }
    }

    /// A Packed body: four `u16` code planes `[lo_x, lo_y, hi_x, hi_y]`
    /// relative to a valid `frame`.
    pub fn packed(frame: Rect, codes: &[[u16; 4]]) -> Page {
        let planes = (0..4)
            .map(|k| lanes(codes, |c| c[k].to_le_bytes()))
            .collect();
        let (buf, plane_len) = Page::padded(planes);
        let (qx, qy) = (
            quantum(frame.lo.x, frame.hi.x),
            quantum(frame.lo.y, frame.hi.y),
        );
        let x = |c| dequant(c, frame.lo.x, qx, frame.hi.x);
        let y = |c| dequant(c, frame.lo.y, qy, frame.hi.y);
        let rects = codes
            .iter()
            .map(|c| Rect {
                lo: Point::new(x(c[0]), y(c[1])),
                hi: Point::new(x(c[2]), y(c[3])),
            })
            .collect();
        let corrupt = codes.iter().any(|c| c[0] > c[2] || c[1] > c[3]);
        let (frame, points) = (Some(frame), false);
        Page {
            buf,
            plane_len,
            frame,
            points,
            rects,
            corrupt,
        }
    }

    /// The planes where they lie, as the pager's view borrows them.
    pub fn view(&self) -> EntryPlanes<'_> {
        let plane = |k: usize| &self.buf[1 + k * self.plane_len..][..self.plane_len];
        match self.frame {
            Some(frame) => EntryPlanes::Codes {
                frame,
                planes: std::array::from_fn(plane),
            },
            None if self.points => EntryPlanes::F64([plane(0), plane(1), plane(0), plane(1)]),
            None => EntryPlanes::F64(std::array::from_fn(plane)),
        }
    }

    /// Holds the view to the oracle under every kernel: each entry reads
    /// back as its rectangle, and the MBR, the hits of each query and the
    /// entries within each `(p, bound)` are the oracle's — or, on a corrupt
    /// page, every one of them is [`CorruptEntry`].
    pub fn check(&self, queries: &[Rect], near: &[(Point, f64)]) {
        let (view, corrupt, what) = (self.view(), self.corrupt, self.name());
        for (i, r) in self.rects.iter().enumerate().filter(|(_, r)| r.is_valid()) {
            assert_eq!(view.get(i), *r, "{what} entry {i}");
        }
        let want_mbr = (!self.rects.is_empty()).then(|| Rect::mbr_of(&self.rects));
        let mbr = view.mbr();
        assert_eq!(
            mbr,
            if corrupt {
                Err(CorruptEntry)
            } else {
                Ok(want_mbr)
            },
            "{what}"
        );
        for kind in available_kernels() {
            for q in queries {
                let mut got = Vec::new();
                let res = view.intersecting(kind, q, &mut got);
                assert_eq!(res.is_err(), corrupt, "{what}, {kind:?}");
                if !corrupt {
                    assert_eq!(got, hits(&self.rects, q), "{what}, {kind:?}, query {q:?}");
                }
            }
            for &(p, bound) in near {
                let mut got = Vec::new();
                let res = view.min_dist2_within(kind, &p, bound, &mut got);
                assert_eq!(res.is_err(), corrupt, "{what}, {kind:?}");
                if !corrupt {
                    let want = within(&self.rects, &p, bound);
                    assert_dist_eq(&format!("{what}, {kind:?}, {p:?}"), &got, &want);
                }
            }
        }
    }

    fn name(&self) -> String {
        let layout = match (self.frame, self.points) {
            (Some(frame), _) => format!("Packed in {frame:?}"),
            (None, true) => "point body".into(),
            (None, false) => "SoA".into(),
        };
        format!("{layout} of {}", self.rects.len())
    }
}

/// The oracle's intersection: every entry [`Rect::intersects`] keeps.
pub fn hits(rects: &[Rect], q: &Rect) -> Vec<u32> {
    (0..rects.len() as u32)
        .filter(|&i| rects[i as usize].intersects(q))
        .collect()
}

/// `if a > b { a } else { b }`, the select-max of the NaN policy.
fn smax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Textbook `MINDIST²` in select-max semantics: 0 inside, the squared axis
/// gaps outside, and a NaN gap collapses to 0.
pub fn min_dist2(p: &Point, r: &Rect) -> f64 {
    let dx = smax(smax(r.lo.x - p.x, p.x - r.hi.x), 0.0);
    let dy = smax(smax(r.lo.y - p.y, p.y - r.hi.y), 0.0);
    dx * dx + dy * dy
}

/// The oracle's distance pruning: `(index, d²)` of every entry with
/// `d² <= bound`, ascending.
pub fn within(rects: &[Rect], p: &Point, bound: f64) -> Vec<(u32, f64)> {
    let d2 = rects.iter().map(|r| min_dist2(p, r));
    (0u32..).zip(d2).filter(|&(_, d2)| d2 <= bound).collect()
}

/// Compares `(index, distance)` lists with NaN equal to itself: the
/// variants must agree on *which* entries yield NaN, not on NaN's
/// (non-)equality.
pub fn assert_dist_eq(name: &str, fast: &[(u32, f64)], slow: &[(u32, f64)]) {
    assert_eq!(fast.len(), slow.len(), "{name}: lengths differ");
    for (f, s) in fast.iter().zip(slow) {
        assert_eq!(f.0, s.0, "{name}: index mismatch");
        assert!(
            f.1 == s.1 || (f.1.is_nan() && s.1.is_nan()),
            "{name}: distance mismatch at {}: {} vs {}",
            f.0,
            f.1,
            s.1
        );
    }
}
