//! Conservative 16-bit coordinate dequantization for compressed node pages.
//!
//! Format-v4 ("Packed") pages store entry rectangles as 16-bit codes
//! relative to the page's own bounding rectangle (the *frame*). This module
//! is the single decode mapping from codes back to `f64` coordinates; the
//! pager's encoder is defined in terms of it, so encode and decode can never
//! drift apart.
//!
//! The mapping is deliberately simple so its three load-bearing properties
//! are easy to verify:
//!
//! * **Monotone**: `code a <= code b` implies `dequant(a) <= dequant(b)`
//!   (`code as f64` is exact, and f64 multiply/add round monotonically).
//! * **Endpoint-exact**: code `0` decodes to exactly `base` and code
//!   [`QMAX`] to exactly `top`, so a frame corner is always representable
//!   with zero error.
//! * **Clamped**: interior codes decode to `min(base + code·quantum, top)`,
//!   so accumulated rounding in `code·quantum` can never push a decoded
//!   coordinate outside the frame.
//!
//! Together these let the encoder guarantee *containment* (a decoded
//! rectangle always contains the rectangle it was encoded from) by choosing
//! the largest code decoding at-or-below a low edge and the smallest code
//! decoding at-or-above a high edge — see `rtree_pager`'s quantizer.
//! Monotonicity also lets a reader skip the decode: [`code_at_most`] /
//! [`code_at_least`] quantize a query edge such that comparing stored codes
//! with it *is* comparing their decoded coordinates with the edge.

/// Largest quantized coordinate code (codes span `0..=QMAX`).
pub const QMAX: u16 = u16::MAX;

/// Step size of the quantized grid over an axis spanning `base..=top`:
/// `(top − base) / 65535`. Zero for a degenerate (single-point) axis.
#[inline]
pub fn quantum(base: f64, top: f64) -> f64 {
    (top - base) / QMAX as f64
}

/// Decodes one 16-bit code against an axis `base..=top` with the given
/// [`quantum`]. Monotone in `code`, endpoint-exact, clamped to `top`.
#[inline]
pub fn dequant(code: u16, base: f64, quantum: f64, top: f64) -> f64 {
    if code == 0 {
        base
    } else if code == QMAX {
        top
    } else {
        (base + code as f64 * quantum).min(top)
    }
}

/// Bulk [`dequant`]: decodes a plane of codes, appending to `out`. The
/// pager's SoA decode uses this to fill each coordinate plane contiguously,
/// keeping the no-gather property the SIMD kernels rely on.
#[inline]
pub fn dequantize_into(
    codes: impl Iterator<Item = u16>,
    base: f64,
    quantum: f64,
    top: f64,
    out: &mut Vec<f64>,
) {
    out.extend(codes.map(|c| dequant(c, base, quantum, top)));
}

/// Last code at which `holds` is true, for a predicate monotone in the code
/// (true … true, false … false), true at 0 and false at [`QMAX`]. The float
/// estimate is only a hint, verified against `holds`; when it is off, a
/// binary search over the whole code range finds the boundary. Exactness
/// comes from the predicate (i.e. from [`dequant`]), never from the division.
fn last_code_where(estimate: f64, holds: impl Fn(u16) -> bool) -> u16 {
    let est = (estimate as u16).min(QMAX - 1); // `as` saturates; NaN is 0
    if holds(est) && !holds(est + 1) {
        return est;
    }
    let (mut lo, mut hi) = (0, QMAX);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The largest code decoding at or below `v` — `max{c : dequant(c) <= v}` —
/// or `None` when even code 0 decodes above `v`, or `v` is NaN; the axis must
/// be valid (`base <= top`, finite). Because [`dequant`] is monotone,
/// `code <= code_at_most(v)` is *exactly* `dequant(code) <= v`: a query edge
/// quantized this way compares against stored codes with the same outcome as
/// the dequantized comparison.
pub fn code_at_most(v: f64, base: f64, quantum: f64, top: f64) -> Option<u16> {
    if v >= top {
        return Some(QMAX);
    }
    let at_or_below = |c| dequant(c, base, quantum, top) <= v;
    (base <= v).then(|| last_code_where((v - base) / quantum, at_or_below))
}

/// The smallest code decoding at or above `v` — `min{c : dequant(c) >= v}` —
/// the mirror image of [`code_at_most`].
pub fn code_at_least(v: f64, base: f64, quantum: f64, top: f64) -> Option<u16> {
    if v <= base {
        return Some(0);
    }
    let below = |c| dequant(c, base, quantum, top) < v;
    (v <= top).then(|| last_code_where((v - base) / quantum, below) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_exact() {
        let (base, top) = (0.137, 0.862);
        let q = quantum(base, top);
        assert_eq!(dequant(0, base, q, top), base);
        assert_eq!(dequant(QMAX, base, q, top), top);
    }

    #[test]
    fn monotone_and_clamped() {
        let (base, top) = (-3.5, 11.25);
        let q = quantum(base, top);
        let mut prev = f64::NEG_INFINITY;
        for code in (0..=QMAX).step_by(97).chain([QMAX - 1, QMAX]) {
            let v = dequant(code, base, q, top);
            assert!(v >= prev, "monotone at code {code}");
            assert!((base..=top).contains(&v), "clamped at code {code}");
            prev = v;
        }
    }

    #[test]
    fn degenerate_axis_decodes_to_base() {
        let q = quantum(0.5, 0.5);
        assert_eq!(q, 0.0);
        for code in [0, 1, 1000, QMAX] {
            assert_eq!(dequant(code, 0.5, q, 0.5), 0.5);
        }
    }

    #[test]
    fn bulk_matches_scalar() {
        let (base, top) = (2.0, 9.0);
        let q = quantum(base, top);
        let codes = [0u16, 3, 77, 40_000, QMAX];
        let mut out = Vec::new();
        dequantize_into(codes.iter().copied(), base, q, top, &mut out);
        let want: Vec<f64> = codes.iter().map(|&c| dequant(c, base, q, top)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn thresholds_are_exact_inverses_of_dequant() {
        // On each axis — ordinary, one float wide, zero extent — and for
        // query values on, beside and between grid points: comparing a code
        // with the threshold is comparing its decoded value with `v`.
        let next = |v: f64| f64::from_bits(v.to_bits() + 1);
        for (base, top) in [(0.137, 0.862), (1.0, next(1.0)), (0.5, 0.5)] {
            let q = quantum(base, top);
            let grid = [0u16, 1, 2, 777, 32_767, 32_768, QMAX - 1, QMAX];
            let values = grid
                .iter()
                .map(|&c| dequant(c, base, q, top))
                .flat_map(|v| [v, next(v), -next(-v), v + q / 3.0])
                .chain([base - 1.0, top + 1.0, f64::INFINITY, f64::NEG_INFINITY]);
            for v in values {
                let (at_most, at_least) = (
                    code_at_most(v, base, q, top),
                    code_at_least(v, base, q, top),
                );
                for c in (0..=QMAX).step_by(257).chain(grid) {
                    let d = dequant(c, base, q, top);
                    assert_eq!(at_most.is_some_and(|t| c <= t), d <= v, "{c} <= {v}");
                    assert_eq!(at_least.is_some_and(|t| c >= t), d >= v, "{c} >= {v}");
                }
            }
            assert_eq!(code_at_most(f64::NAN, base, q, top), None);
            assert_eq!(code_at_least(f64::NAN, base, q, top), None);
        }
    }
}
