//! CRC-32 (IEEE 802.3 polynomial, reflected): `checksum` and `Hasher` over
//! two kernels that compute the same function.
//!
//! Vendored rather than pulled from a crate because the build environment is
//! offline. The parameters match the ubiquitous `crc32fast`/zlib checksum, so
//! log files remain checkable by standard tooling.
//!
//! * **Folded** (`update_folded`): carry-less multiplication (PCLMULQDQ),
//!   after Intel's "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ". Four 128-bit lanes are folded across 64-byte blocks, then
//!   one lane across 16-byte blocks, then Barrett-reduced 128 -> 64 -> 32
//!   bits; what is left of the input goes through the table.
//! * **Sliced** (`update_sliced`): eight bytes per step through eight
//!   precomputed tables (Kounavis & Berry's slicing-by-8); its first table
//!   is the classic byte-at-a-time Sarwate loop, the tail handler of both.
//!
//! `update_state` picks per call, from what it can observe: the folded
//! kernel on an x86-64 CPU that reports `pclmulqdq`, for inputs of at least
//! [`FOLD_MIN`] bytes; the sliced kernel on every other architecture, older
//! CPUs, short inputs and under Miri (which does not model the intrinsic).
//! Both reduce the same message polynomial modulo the same generator, and
//! a CRC state depends on nothing but the bytes consumed so far, so every
//! value — one-shot, or a `Hasher` split anywhere, across kernels — is
//! bit-identical: no page image, WAL record or wire frame can tell which
//! kernel sealed it. The test suite holds the two and the Sarwate loop equal
//! at every length 0..=4200 from every start offset 0..16, and pins the
//! standard vectors.
//!
//! Page checksums sit on the buffer-miss path, every write-back and every
//! WAL append. One 4 KiB page on the development sandbox (`rtree-perf`'s
//! `page.crc_ns`): sliced 2 522 ns (1.6 GB/s), folded 183 ns (22 GB/s).

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][b] = CRC of byte b followed by k zero bytes: each extra
    // table shifts a lane eight more bits down the register.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Inputs shorter than this take the table kernel: the folding kernel
/// starts from four 16-byte lanes.
#[cfg(all(target_arch = "x86_64", not(miri)))]
const FOLD_MIN: usize = 64;

/// Advances the raw (uninverted) CRC state `crc` over `data`.
#[inline]
fn update_state(crc: u32, data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if data.len() >= FOLD_MIN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU reports PCLMULQDQ (SSE2 is part of x86-64).
        return unsafe { update_folded(crc, data) };
    }
    update_sliced(crc, data)
}

/// The slice-by-8 table kernel: every target's fallback, the tail handler of
/// the folded kernel, and the oracle the tests compare it against.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// The PCLMULQDQ folding kernel. A 128-bit lane of CRC state that lies a
/// fixed distance ahead of another can be moved there without touching the
/// bytes in between: modulo the generator it is congruent to
/// `lo * k_a ^ hi * k_b`, the two constants being the powers of `x` for that
/// distance, reduced ahead of time. That is two carry-less multiplies and
/// two XORs per 16 bytes, with no table and four independent lanes in flight.
///
/// # Safety
/// The CPU must support `pclmulqdq`. (Every load is bounds-checked.)
///
/// # Panics
/// Panics if `data` is shorter than [`FOLD_MIN`].
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "pclmulqdq")]
unsafe fn update_folded(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    // Bit-reflected `x^n mod P` for the fold distances (Intel's table for
    // this polynomial): K1/K2 fold across 64 bytes, K3/K4 across 16, K5
    // takes 96 bits to 64; P is the generator and MU its Barrett quotient
    // `floor(x^64 / P)`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The 16 bytes of `data` at `at` as one lane (unaligned load).
    #[inline(always)]
    unsafe fn lane(data: &[u8], at: usize) -> __m128i {
        let bytes = &data[at..at + 16];
        _mm_loadu_si128(bytes.as_ptr().cast())
    }

    /// `acc` moved forward by the distance `keys` encodes, plus `next`.
    #[inline(always)]
    unsafe fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    // Four lanes in flight; the incoming state is XORed into the first four
    // message bytes, exactly as the table kernel's `^ crc` does.
    let mut x = [
        lane(data, 0),
        lane(data, 16),
        lane(data, 32),
        lane(data, 48),
    ];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
    let mut at = 64;
    let k1k2 = _mm_set_epi64x(K2, K1);
    while at + 64 <= data.len() {
        for (i, lane_i) in x.iter_mut().enumerate() {
            *lane_i = fold(*lane_i, lane(data, at + 16 * i), k1k2);
        }
        at += 64;
    }
    // Four lanes into one, then one lane across the 16-byte blocks left.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold(x[0], x[1], k3k4);
    acc = fold(acc, x[2], k3k4);
    acc = fold(acc, x[3], k3k4);
    while at + 16 <= data.len() {
        acc = fold(acc, lane(data, at), k3k4);
        at += 16;
    }
    // 128 -> 64 bits: fold the low half over the high half, then the low
    // 32 bits of that over the rest.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        _mm_srli_si128::<8>(acc),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(acc),
    );
    // 64 -> 32 bits, Barrett: T1 = (R mod x^32) * MU, T2 = (T1 mod x^32) * P,
    // CRC = (R ^ T2) div x^32.
    let p_mu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), p_mu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
    let folded = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(acc, t2))) as u32;
    update_sliced(folded, &data[at..])
}

/// Checksum of `data` in one call.
pub fn checksum(data: &[u8]) -> u32 {
    !update_state(0xFFFF_FFFF, data)
}

/// Incremental CRC-32 over multiple slices.
#[derive(Clone, Copy)]
pub struct Hasher {
    state: u32,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_state(self.state, data);
    }

    /// Final checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// `len` bytes with no period a 16- or 64-byte block could hide behind.
    fn noise(len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        StdRng::seed_from_u64(32).fill_bytes(&mut bytes);
        bytes
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(checksum(b""), 0x0000_0000);
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"incremental hashing must match the one-shot checksum";
        let mut h = Hasher::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), checksum(data));

        // A 4 KiB page split in two at every position — each part lands on
        // whichever kernel its length selects — and the pager's
        // `page_checksum` split (header before the CRC field, the four
        // bytes after it, the body).
        let page = noise(4096);
        let whole = checksum(&page);
        let step = if cfg!(miri) { 509 } else { 1 };
        for at in (0..=page.len()).step_by(step) {
            let mut h = Hasher::new();
            h.update(&page[..at]);
            h.update(&page[at..]);
            assert_eq!(h.finalize(), whole, "split at {at}");
        }
        let mut h = Hasher::new();
        h.update(&page[..8]);
        h.update(&page[8..12]);
        h.update(&page[12..]);
        assert_eq!(h.finalize(), whole);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = checksum(&[0u8; 64]);
        let mut flipped = [0u8; 64];
        flipped[40] = 1;
        assert_ne!(a, checksum(&flipped));
    }

    #[test]
    fn sliced_kernel_matches_sarwate_at_every_length() {
        // Byte-at-a-time reference (the classic Sarwate loop) against both
        // kernels and the dispatcher: every length across a page and the
        // 8-, 16- and 64-byte chunkings, from every start offset within a
        // 16-byte lane (unaligned loads), from three incoming states (a
        // fresh hasher, zero, mid-stream).
        let (max_len, offsets) = if cfg!(miri) { (150, 3) } else { (4200, 16) };
        let data = noise(max_len + offsets);
        for init in [0xFFFF_FFFFu32, 0, 0x1234_5678] {
            for offset in 0..offsets {
                let mut reference = init;
                for len in 0..=max_len {
                    let input = &data[offset..offset + len];
                    assert_eq!(
                        (update_sliced(init, input), update_state(init, input)),
                        (reference, reference),
                        "(sliced, dispatched) from {init:#x}, offset {offset}, len {len}"
                    );
                    #[cfg(all(target_arch = "x86_64", not(miri)))]
                    if len >= FOLD_MIN && std::arch::is_x86_feature_detected!("pclmulqdq") {
                        // SAFETY: the feature was just detected.
                        let folded = unsafe { update_folded(init, input) };
                        assert_eq!(
                            folded, reference,
                            "folded from {init:#x}, offset {offset}, len {len}"
                        );
                    }
                    let byte = data[offset + len];
                    reference =
                        (reference >> 8) ^ TABLES[0][((reference ^ byte as u32) & 0xFF) as usize];
                }
            }
        }
    }
}
