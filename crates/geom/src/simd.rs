//! Kernel dispatch: which vectorized implementation the rectangle kernels
//! run — on a decoded [`crate::RectSoA`] and, in the tree walks, on page
//! bytes where they lie ([`crate::EntryPlanes`]).
//!
//! Three implementations of each kernel exist side by side:
//!
//! - **Scalar** — one [`crate::Rect`]-at-a-time reference, the
//!   obviously-correct baseline every other variant is property-tested
//!   against. Never deleted: it is the differential oracle and the seed
//!   path's behavior. On quantized planes it dequantizes one entry at a
//!   time; every other variant compares in code space.
//! - **Portable** — branch-free lane-chunked loops over the planes that
//!   LLVM autovectorizes on any target (aarch64 included).
//! - **Avx2** — explicit AVX2 intrinsics (x86-64 only): 4 `f64` lanes, or
//!   16 `u16` lanes in code space.
//!
//! Selection happens **once**, on first use: the best variant the CPU
//! supports, unless `RTREE_KERNEL=scalar|portable|avx2` in the
//! environment picks a specific variant (`scalar` is the reference).
//! Benchmarks and differential tests can re-pin the dispatch at runtime
//! with [`set_kernel`].
//!
//! # NaN and infinity policy
//!
//! The kernels are totally defined over *all* `f64` inputs, including
//! non-finite ones, and every variant is bit-for-bit equivalent (the
//! property suite in `tests/simd_vs_scalar.rs` pins this):
//!
//! - **Intersection**: the four closed-interval comparisons use IEEE
//!   semantics, where any comparison against NaN is false. A rectangle
//!   with a NaN coordinate therefore intersects nothing, and a NaN query
//!   matches nothing. The AVX2 path uses ordered non-signaling compares
//!   (`_CMP_LE_OQ`), which are exactly scalar `<=`.
//! - **Distance**: the max chains use *select semantics*
//!   (`if a > b { a } else { b }`, i.e. "return `b` unless `a` compares
//!   greater"), matching `_mm256_max_pd` exactly — **not**
//!   `f64::max`, whose NaN-suppressing maxNum semantics differ from the
//!   hardware instructions. Under select semantics a NaN term drops out of
//!   the chain, and because the final link clamps against `0.0` (returning
//!   `0.0` whenever the accumulated term does not compare greater), a
//!   per-axis gap — and hence a distance — is never NaN: it is always `0`,
//!   a positive real, or `+∞`, even for NaN/`∞ − ∞` inputs. A NaN *bound*
//!   prunes everything (`d2 <= NaN` is false).
//!
//! A page entry can be neither: the in-place kernels validate every entry
//! inside the scan itself ([`crate::CorruptEntry`] fails the visit — there
//! is no decode step in front of them), so in production the policy only
//! matters for the *query* operand and for agreement between variants; the
//! suite keeps it pinned so a future kernel cannot silently diverge.

use std::sync::atomic::{AtomicU8, Ordering};

/// One of the kernel implementations (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Rect-at-a-time reference implementation.
    Scalar,
    /// Lane-chunked autovectorizable implementation (any target).
    Portable,
    /// Explicit AVX2 intrinsics (x86-64 with AVX2).
    Avx2,
}

impl KernelKind {
    /// Short lowercase name (matches the `RTREE_KERNEL` spelling).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Portable => "portable",
            KernelKind::Avx2 => "avx2",
        }
    }

    /// True if this build, on this CPU, can run the variant.
    pub fn is_available(self) -> bool {
        match self {
            KernelKind::Scalar | KernelKind::Portable => true,
            KernelKind::Avx2 => avx2_available(),
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

// Miri interprets a subset of the x86 intrinsics; keep it on the portable
// path so the unsafe shims it *can* check (pointer arithmetic in the
// chunked loops) are still exercised without relying on AVX2 coverage.
#[cfg(any(not(target_arch = "x86_64"), miri))]
fn avx2_available() -> bool {
    false
}

/// Every variant, scalar first.
const ALL: [KernelKind; 3] = [KernelKind::Scalar, KernelKind::Portable, KernelKind::Avx2];

/// Every variant this build + CPU can run, scalar first.
pub fn available_kernels() -> Vec<KernelKind> {
    ALL.into_iter().filter(|k| k.is_available()).collect()
}

/// Dispatch state: 0 = unselected, otherwise `KernelKind as u8 + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn decode_kind(v: u8) -> KernelKind {
    match v {
        1 => KernelKind::Scalar,
        2 => KernelKind::Portable,
        3 => KernelKind::Avx2,
        _ => unreachable!("dispatch state {v} out of range"),
    }
}

fn encode_kind(k: KernelKind) -> u8 {
    match k {
        KernelKind::Scalar => 1,
        KernelKind::Portable => 2,
        KernelKind::Avx2 => 3,
    }
}

/// The variant the environment and the CPU pick at startup.
fn select_default() -> KernelKind {
    if let Ok(name) = std::env::var("RTREE_KERNEL") {
        for k in ALL {
            if k.name() == name {
                if k.is_available() {
                    return k;
                }
                eprintln!(
                    "RTREE_KERNEL={name} is not available on this CPU; using the portable kernel"
                );
                return KernelKind::Portable;
            }
        }
        eprintln!("unknown RTREE_KERNEL={name}; using the portable kernel");
        return KernelKind::Portable;
    }
    if KernelKind::Avx2.is_available() {
        KernelKind::Avx2
    } else {
        KernelKind::Portable
    }
}

/// The kernel the dispatching entry points ([`crate::RectSoA::intersecting`]
/// and friends) currently run. Selected once on first call; see the module
/// docs for the environment knobs.
#[inline]
pub fn active_kernel() -> KernelKind {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != 0 {
        return decode_kind(v);
    }
    let picked = select_default();
    // Racing first calls may both select; the result is identical.
    ACTIVE.store(encode_kind(picked), Ordering::Relaxed);
    picked
}

/// Re-pins the dispatch to `kind` (benchmark / differential-test hook; the
/// production path selects once from the environment and CPU).
///
/// # Errors
/// Returns `Err` with the rejected kind if this build or CPU cannot run it;
/// the dispatch is left unchanged.
pub fn set_kernel(kind: KernelKind) -> Result<(), KernelKind> {
    if !kind.is_available() {
        return Err(kind);
    }
    ACTIVE.store(encode_kind(kind), Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_portable_always_available() {
        let avail = available_kernels();
        assert!(avail.contains(&KernelKind::Scalar));
        assert!(avail.contains(&KernelKind::Portable));
    }

    #[test]
    fn set_kernel_rejects_unavailable_and_pins_available() {
        for k in available_kernels() {
            set_kernel(k).unwrap();
            assert_eq!(active_kernel(), k);
        }
        // Restore the default for other tests in this process.
        set_kernel(select_default()).unwrap();
    }

    #[test]
    fn names_round_trip() {
        for k in ALL {
            assert!(!k.name().is_empty());
        }
    }
}
