//! The rectangle kernels on page bytes where they lie.
//!
//! A node page already stores its entry rectangles as coordinate planes —
//! little-endian `f64` (four, or a point page's `x` and `y` read as `hi`
//! too), or 16-bit codes relative to a frame (see [`crate::quant`]).
//! [`EntryPlanes`] borrows those bytes and runs the kernels on them in
//! place — unaligned loads, nothing copied or dequantized to memory — under
//! the same dispatch ([`crate::simd`]) and with the answers the entries give
//! one [`Rect`] at a time. Page bytes come from disk, so every operation
//! also validates the entries it scans and reports [`CorruptEntry`] instead
//! of an answer computed from a bad one.
//!
//! **Exactness on quantized planes.** [`dequant`] is monotone in the code,
//! so for a query edge `v` the codes decoding at or below `v` are exactly
//! `0..=code_at_most(v)` (and at or above: `code_at_least(v)..`). Comparing
//! stored codes against those two thresholds per axis is therefore an
//! *equivalence* with comparing dequantized coordinates against `v` — same
//! matches in the same order, not a conservative superset — and it runs on
//! 16 `u16` lanes per AVX2 register instead of 4 `f64`.

use crate::batch::{for_each_bit, rect_at, scan, Intersects, Plane, Planes, Within};
use crate::quant::{code_at_least, code_at_most, dequant, quantum, QMAX};
use crate::simd::KernelKind;
use crate::{Point, Rect};

/// An entry failed validation: a rectangle that is inverted or not finite,
/// or a quantized one whose low code exceeds its high code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptEntry;

fn checked(ok: bool) -> Result<(), CorruptEntry> {
    ok.then_some(()).ok_or(CorruptEntry)
}

/// One plane of little-endian `f64` lanes, 8 bytes each, at any alignment.
#[derive(Clone, Copy)]
struct LeF64<'a>(&'a [u8]);

impl Plane for LeF64<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.0.len() / 8
    }

    #[inline(always)]
    fn get(self, i: usize) -> f64 {
        f64::from_le_bytes(self.0[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load4(self, i: usize) -> std::arch::x86_64::__m256d {
        // SAFETY (caller): bytes 8i..8i + 32 are in bounds; loadu needs no
        // alignment, and x86-64 is little-endian.
        std::arch::x86_64::_mm256_loadu_pd(self.0.as_ptr().add(i * 8).cast())
    }

    fn same(self, other: Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

/// One plane of little-endian `u16` codes read as the `f64` lanes they
/// decode to: [`dequant`] in registers, bit for bit.
#[derive(Clone, Copy)]
struct Dequant<'a> {
    codes: &'a [u8],
    base: f64,
    quantum: f64,
    top: f64,
}

#[inline(always)]
fn code_at(codes: &[u8], i: usize) -> u16 {
    u16::from_le_bytes([codes[2 * i], codes[2 * i + 1]])
}

impl Plane for Dequant<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.codes.len() / 2
    }

    #[inline(always)]
    fn get(self, i: usize) -> f64 {
        dequant(code_at(self.codes, i), self.base, self.quantum, self.top)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load4(self, i: usize) -> std::arch::x86_64::__m256d {
        use std::arch::x86_64::*;
        // SAFETY (caller): bytes 2i..2i + 8 are in bounds; the 64-bit load
        // needs no alignment.
        let codes = _mm_loadl_epi64(self.codes.as_ptr().add(i * 2).cast());
        let c = _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(codes));
        // Multiply and add separately (no FMA) and clamp, then blend the end
        // codes to `base` / `top`: the three arms of `dequant`.
        let (base, top) = (_mm256_set1_pd(self.base), _mm256_set1_pd(self.top));
        let scaled = _mm256_mul_pd(c, _mm256_set1_pd(self.quantum));
        let v = _mm256_min_pd(_mm256_add_pd(base, scaled), top);
        let is_base = _mm256_cmp_pd::<_CMP_EQ_OQ>(c, _mm256_setzero_pd());
        let is_top = _mm256_cmp_pd::<_CMP_EQ_OQ>(c, _mm256_set1_pd(QMAX as f64));
        _mm256_blendv_pd(_mm256_blendv_pd(v, base, is_base), top, is_top)
    }
}

/// The planes of codes against `frame` as the `f64` lanes they decode to.
fn dequantized<'a>(frame: &Rect, planes: [&'a [u8]; 4]) -> Planes<Dequant<'a>> {
    let axis = |base: f64, top: f64| (base, quantum(base, top), top);
    let axes = [axis(frame.lo.x, frame.hi.x), axis(frame.lo.y, frame.hi.y)];
    std::array::from_fn(|k| {
        let (base, quantum, top) = axes[k % 2];
        let codes = planes[k];
        Dequant {
            codes,
            base,
            quantum,
            top,
        }
    })
}

/// The entry rectangles of a node page, borrowed as the page stores them:
/// four planes `[lo_x, lo_y, hi_x, hi_y]` of one length.
#[derive(Clone, Copy)]
pub enum EntryPlanes<'a> {
    /// Little-endian `f64` coordinates, 8 bytes per entry and plane. A
    /// page of points passes its `x` and `y` planes as `hi` too.
    F64([&'a [u8]; 4]),
    /// Little-endian `u16` codes, 2 bytes per entry and plane, relative to
    /// `frame` — which the caller has validated (finite, `lo <= hi`).
    Codes {
        /// The rectangle codes `0` and [`QMAX`] decode to.
        frame: Rect,
        /// The four code planes.
        planes: [&'a [u8]; 4],
    },
}

impl EntryPlanes<'_> {
    /// Entry `i`, reassembled or dequantized (not validated).
    ///
    /// # Panics
    /// Panics if there is no entry `i`.
    pub fn get(&self, i: usize) -> Rect {
        match *self {
            EntryPlanes::F64(planes) => rect_at(planes.map(LeF64), i),
            EntryPlanes::Codes { frame, planes } => rect_at(dequantized(&frame, planes), i),
        }
    }

    /// The MBR of the entries (`None` if there are none), validating each.
    /// On codes it is the decode of the plane-wise extreme codes, which by
    /// monotonicity is the union of the decoded entries.
    pub fn mbr(&self) -> Result<Option<Rect>, CorruptEntry> {
        match *self {
            EntryPlanes::F64(planes) => {
                let planes = planes.map(LeF64);
                let mut acc: Option<Rect> = None;
                for i in 0..planes[0].len() {
                    let r = rect_at(planes, i);
                    checked(r.is_valid())?;
                    acc = Some(acc.map_or(r, |a| a.union(&r)));
                }
                Ok(acc)
            }
            EntryPlanes::Codes { frame, planes } => {
                let b = code_bounds(planes)?;
                let [lo_x, lo_y, hi_x, hi_y] = dequantized(&frame, planes);
                let at = |p: Dequant<'_>, code| dequant(code, p.base, p.quantum, p.top);
                Ok((!planes[0].is_empty()).then(|| Rect {
                    lo: Point::new(at(lo_x, b[0]), at(lo_y, b[1])),
                    hi: Point::new(at(hi_x, b[2]), at(hi_y, b[3])),
                }))
            }
        }
    }

    /// Appends the index of every entry intersecting `q` to `out`,
    /// ascending, through variant `kind`, validating every entry; `out` is
    /// unspecified on error. On codes, `Scalar` dequantizes one entry at a
    /// time and calls [`Rect::intersects`] — the oracle — and every other
    /// variant compares in code space (see the module docs).
    pub fn intersecting(
        &self,
        kind: KernelKind,
        q: &Rect,
        out: &mut Vec<u32>,
    ) -> Result<(), CorruptEntry> {
        let (frame, planes) = match *self {
            EntryPlanes::F64(planes) => {
                return checked(scan::<_, _, true>(
                    kind,
                    planes.map(LeF64),
                    Intersects(*q),
                    out,
                ))
            }
            EntryPlanes::Codes { frame, planes } => (frame, planes),
        };
        assert!(kind.is_available(), "{kind:?} kernel is not available");
        assert!(
            planes.iter().all(|p| p.len() == planes[0].len()),
            "code planes differ in length"
        );
        let decoded = dequantized(&frame, planes);
        if kind == KernelKind::Scalar {
            code_bounds(planes)?;
            scan::<_, _, false>(kind, decoded, Intersects(*q), out);
            return Ok(());
        }
        let [x, y, ..] = decoded;
        let thresholds = || {
            Some([
                code_at_most(q.hi.x, x.base, x.quantum, x.top)?,
                code_at_most(q.hi.y, y.base, y.quantum, y.top)?,
                code_at_least(q.lo.x, x.base, x.quantum, x.top)?,
                code_at_least(q.lo.y, y.base, y.quantum, y.top)?,
            ])
        };
        match (kind, thresholds()) {
            // A query that misses the frame (or is NaN) matches nothing;
            // the entries are validated all the same.
            (_, None) => code_bounds(planes).map(|_| ()),
            // SAFETY: AVX2 support and planes of one length were verified
            // above; the loop stops a register short of that length.
            #[cfg(target_arch = "x86_64")]
            (KernelKind::Avx2, Some(t)) => {
                checked(unsafe { intersecting_codes_avx2(planes, t, out) })
            }
            (_, Some(t)) => checked(intersecting_codes(planes, 0, t, out)),
        }
    }

    /// Appends `(index, min_dist²)` for every entry within `bound` of `p`
    /// to `out`, ascending, through variant `kind` — codes are dequantized
    /// in registers, never to memory — validating every entry; `out` is
    /// unspecified on error.
    pub fn min_dist2_within(
        &self,
        kind: KernelKind,
        p: &Point,
        bound: f64,
        out: &mut Vec<(u32, f64)>,
    ) -> Result<(), CorruptEntry> {
        let test = Within { p: *p, bound };
        match *self {
            EntryPlanes::F64(planes) => {
                checked(scan::<_, _, true>(kind, planes.map(LeF64), test, out))
            }
            EntryPlanes::Codes { frame, planes } => {
                code_bounds(planes)?;
                scan::<_, _, false>(kind, dequantized(&frame, planes), test, out);
                Ok(())
            }
        }
    }
}

/// The first `n` codes of plane `k`.
fn codes<'a>(planes: [&'a [u8]; 4], k: usize, n: usize) -> impl Iterator<Item = u16> + 'a {
    let pairs = planes[k][..n * 2].chunks_exact(2);
    pairs.map(|b| u16::from_le_bytes([b[0], b[1]]))
}

/// Plane-wise `[min lo_x, min lo_y, max hi_x, max hi_y]` over the codes,
/// validating `lo <= hi` per entry and axis — on codes, because the clamped
/// decode can mask an inversion. (One fold per plane: each vectorizes.)
fn code_bounds(planes: [&[u8]; 4]) -> Result<[u16; 4], CorruptEntry> {
    let n = planes[0].len() / 2;
    let inverted = |lo, hi| {
        let pairs = codes(planes, lo, n).zip(codes(planes, hi, n));
        pairs.fold(false, |bad, (l, h)| bad | (l > h))
    };
    checked(!(inverted(0, 2) | inverted(1, 3))).map(|()| {
        [
            codes(planes, 0, n).fold(QMAX, u16::min),
            codes(planes, 1, n).fold(QMAX, u16::min),
            codes(planes, 2, n).fold(0, u16::max),
            codes(planes, 3, n).fold(0, u16::max),
        ]
    })
}

/// The code-space intersection test from entry `from` on, thresholds
/// `t = [max lo_x, max lo_y, min hi_x, min hi_y]`: the portable variant
/// (branch-free over `u16` lanes, a block at a time) and the tail of the
/// AVX2 one. Returns whether every scanned entry has `lo <= hi` on both
/// axes.
fn intersecting_codes(planes: [&[u8]; 4], from: usize, t: [u16; 4], out: &mut Vec<u32>) -> bool {
    let n = planes[0].len() / 2;
    let mut bad = false;
    for base in (from..n).step_by(64) {
        let block = planes.map(|p| &p[base * 2..]);
        let len = (n - base).min(64);
        let (lo, hi) = (
            codes(block, 0, len).zip(codes(block, 1, len)),
            codes(block, 2, len).zip(codes(block, 3, len)),
        );
        let mut hits = [false; 64];
        for (hit, ((lx, ly), (hx, hy))) in hits.iter_mut().zip(lo.zip(hi)) {
            *hit = (lx <= t[0]) & (ly <= t[1]) & (hx >= t[2]) & (hy >= t[3]);
            bad |= (lx > hx) | (ly > hy);
        }
        let kept = hits.iter().enumerate().filter(|(_, hit)| **hit);
        out.extend(kept.map(|(j, _)| (base + j) as u32));
    }
    !bad
}

/// Explicit AVX2 variant of [`intersecting_codes`]: 16 `u16` lanes per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn intersecting_codes_avx2(planes: [&[u8]; 4], t: [u16; 4], out: &mut Vec<u32>) -> bool {
    use std::arch::x86_64::*;
    /// Unsigned `a <= b` per 16-bit lane (AVX2 only compares signed).
    #[inline(always)]
    unsafe fn le(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpeq_epi16(_mm256_min_epu16(a, b), a)
    }
    /// Codes `i..i + 16` of a plane.
    #[inline(always)]
    unsafe fn load16(plane: &[u8], i: usize) -> __m256i {
        _mm256_loadu_si256(plane.as_ptr().add(i * 2).cast())
    }
    let n = planes[0].len() / 2;
    let [lo_x_max, lo_y_max, hi_x_min, hi_y_min] = t.map(|c| _mm256_set1_epi16(c as i16));
    let mut ok = _mm256_set1_epi16(-1);
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY (caller + loop bound): i + 16 <= n, so each load reads 32
        // in-bounds bytes; loadu needs no alignment.
        let (lx, ly) = (load16(planes[0], i), load16(planes[1], i));
        let (hx, hy) = (load16(planes[2], i), load16(planes[3], i));
        let hit = _mm256_and_si256(
            _mm256_and_si256(le(lx, lo_x_max), le(hi_x_min, hx)),
            _mm256_and_si256(le(ly, lo_y_max), le(hi_y_min, hy)),
        );
        ok = _mm256_and_si256(ok, _mm256_and_si256(le(lx, hx), le(ly, hy)));
        // One byte-mask bit pair per lane: keep the even bit of each.
        let bits = _mm256_movemask_epi8(hit) as u32 & 0x5555_5555;
        for_each_bit(bits as u64, |b| out.push((i + b / 2) as u32));
        i += 16;
    }
    (_mm256_movemask_epi8(ok) == -1) & intersecting_codes(planes, i, t, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::available_kernels;
    use crate::batch::Test;

    /// Planes of `width`-byte lanes behind a one-byte pad: every lane sits
    /// at an odd address. (Miri runs these on the scalar and portable
    /// variants and checks each load; the differential suite in
    /// `tests/simd_vs_scalar.rs` covers the adversarial inputs.)
    fn odd_planes(lanes: [Vec<Vec<u8>>; 4]) -> (Vec<u8>, usize) {
        let plane_len = lanes[0].iter().map(Vec::len).sum();
        let mut buf = vec![0u8];
        for plane in lanes {
            buf.extend(plane.into_iter().flatten());
        }
        (buf, plane_len)
    }

    fn planes_of(buf: &[u8], plane_len: usize) -> [&[u8]; 4] {
        std::array::from_fn(|k| &buf[1 + k * plane_len..][..plane_len])
    }

    /// The entry-at-a-time oracle: the hits of `q` and the `(index, d²)`
    /// of every entry within `bound` of `p`, one [`Rect`] at a time.
    fn oracle(rects: &[Rect], q: &Rect, p: &Point, bound: f64) -> (Vec<u32>, Vec<(u32, f64)>) {
        let ids = 0..rects.len() as u32;
        let hits = ids.clone().filter(|&i| rects[i as usize].intersects(q));
        let near = ids.filter_map(
            |i| match (Within { p: *p, bound }).one(&rects[i as usize]) {
                (true, d2) => Some((i, d2)),
                _ => None,
            },
        );
        (hits.collect(), near.collect())
    }

    #[test]
    fn f64_planes_answer_like_the_decoded_set_at_odd_addresses() {
        let rects: Vec<Rect> = (0..70)
            .map(|i| {
                let v = i as f64 / 80.0;
                Rect::new(v, v * 0.5, v + 0.02, v * 0.5 + 0.03)
            })
            .collect();
        let lane = |f: fn(&Rect) -> f64| -> Vec<Vec<u8>> {
            rects.iter().map(|r| f(r).to_le_bytes().to_vec()).collect()
        };
        let (buf, len) = odd_planes([
            lane(|r| r.lo.x),
            lane(|r| r.lo.y),
            lane(|r| r.hi.x),
            lane(|r| r.hi.y),
        ]);
        let view = EntryPlanes::F64(planes_of(&buf, len));
        assert_eq!(view.get(69), rects[69]);
        assert_eq!(view.mbr(), Ok(Some(Rect::mbr_of(&rects))));
        let (q, p) = (Rect::new(0.3, 0.1, 0.5, 0.3), Point::new(0.9, 0.1));
        let want = oracle(&rects, &q, &p, 0.1);
        assert!(!want.0.is_empty() && !want.1.is_empty());
        // The same entries as a point page: `x` and `y` read as `hi` too.
        let points: Vec<Rect> = rects.iter().map(|r| Rect { lo: r.lo, hi: r.lo }).collect();
        let [x, y, ..] = planes_of(&buf, len);
        let point_view = EntryPlanes::F64([x, y, x, y]);
        let want_points = oracle(&points, &q, &p, 0.1);
        assert_eq!(point_view.get(7), points[7]);
        for kind in available_kernels() {
            for (view, want) in [(view, &want), (point_view, &want_points)] {
                let (mut got, mut got_d) = (Vec::new(), Vec::new());
                view.intersecting(kind, &q, &mut got).unwrap();
                view.min_dist2_within(kind, &p, 0.1, &mut got_d).unwrap();
                assert_eq!(&(got, got_d), want, "{kind:?}");
            }
        }
        // One inverted entry fails every scan in every variant; one NaN
        // coordinate fails every scan of the point page.
        let (mut bad, mut nan) = (buf.clone(), buf.clone());
        bad[1 + 5 * 8..][..8].copy_from_slice(&9.0f64.to_le_bytes());
        nan[1 + len + 66 * 8..][..8].copy_from_slice(&f64::NAN.to_le_bytes());
        let [x, y, ..] = planes_of(&nan, len);
        for view in [
            EntryPlanes::F64(planes_of(&bad, len)),
            EntryPlanes::F64([x, y, x, y]),
        ] {
            assert_eq!(view.mbr(), Err(CorruptEntry));
            for kind in available_kernels() {
                let got = view.intersecting(kind, &q, &mut Vec::new());
                assert_eq!(got, Err(CorruptEntry), "{kind:?}");
                let got = view.min_dist2_within(kind, &p, 0.1, &mut Vec::new());
                assert_eq!(got, Err(CorruptEntry), "{kind:?}");
            }
        }
    }

    #[test]
    fn code_planes_answer_like_the_dequantized_set_at_odd_addresses() {
        let frame = Rect::new(-1.0, 2.0, 3.0, 2.5);
        let codes: Vec<[u16; 4]> = (0..70u16)
            .map(|i| [i * 900, i * 700, i * 900 + 1_500, i * 700 + 2_000])
            .chain([[0, 0, QMAX, QMAX], [QMAX, QMAX, QMAX, QMAX]])
            .collect();
        let lane = |k: usize| -> Vec<Vec<u8>> {
            codes.iter().map(|c| c[k].to_le_bytes().to_vec()).collect()
        };
        let (buf, len) = odd_planes([lane(0), lane(1), lane(2), lane(3)]);
        let planes = planes_of(&buf, len);
        let view = EntryPlanes::Codes { frame, planes };
        let (qx, qy) = (quantum(-1.0, 3.0), quantum(2.0, 2.5));
        let decoded: Vec<Rect> = codes
            .iter()
            .map(|c| Rect {
                lo: Point::new(dequant(c[0], -1.0, qx, 3.0), dequant(c[1], 2.0, qy, 2.5)),
                hi: Point::new(dequant(c[2], -1.0, qx, 3.0), dequant(c[3], 2.0, qy, 2.5)),
            })
            .collect();
        assert_eq!(view.get(71), Rect::new(3.0, 2.5, 3.0, 2.5));
        assert_eq!(view.mbr(), Ok(Some(frame)));
        // Query edges on decoded grid values: touching counts, exactly.
        let q = Rect {
            lo: Point::new(decoded[20].hi.x, 2.0),
            hi: Point::new(decoded[40].lo.x, 2.5),
        };
        let p = Point::new(3.5, 2.2);
        let want = oracle(&decoded, &q, &p, 1.0);
        assert!(want.0.contains(&20) && want.0.contains(&40) && !want.1.is_empty());
        for kind in available_kernels() {
            let (mut got, mut got_d) = (Vec::new(), Vec::new());
            view.intersecting(kind, &q, &mut got).unwrap();
            view.min_dist2_within(kind, &p, 1.0, &mut got_d).unwrap();
            assert_eq!((got, got_d), want, "{kind:?}");
        }
        // lo.x code above hi.x code on entry 3: every scan fails.
        let mut bad = buf.clone();
        bad[1 + 3 * 2..][..2].copy_from_slice(&QMAX.to_le_bytes());
        let planes = planes_of(&bad, len);
        let view = EntryPlanes::Codes { frame, planes };
        assert_eq!(view.mbr(), Err(CorruptEntry));
        for kind in available_kernels() {
            let got = view.intersecting(kind, &q, &mut Vec::new());
            assert_eq!(got, Err(CorruptEntry), "{kind:?}");
            let got = view.min_dist2_within(kind, &p, 1.0, &mut Vec::new());
            assert_eq!(got, Err(CorruptEntry), "{kind:?}");
        }
    }
}
