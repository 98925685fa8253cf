//! CRC-64/XZ (aka CRC-64/GO-ECMA): the checksum guarding the on-disk
//! artifact format.
//!
//! Fingerprints ([`crate::city`], [`crate::rabin`]) optimize for speed
//! and distribution; a *storage* checksum instead wants guaranteed
//! detection of small corruptions. CRC-64/XZ detects **every** single-bit
//! flip and every burst error up to 64 bits in a protected region —
//! exactly the failure shape of torn writes and media corruption — which
//! is why the artifact store (see `sfa_core::artifact`) checksums every
//! section with it.
//!
//! Parameters (reflected, as used by xz/liblzma): polynomial
//! `0x42F0E1EBA9EA3693` (bit-reversed `0xC96C5795D7870F42`), initial
//! value `!0`, final XOR `!0`. Check value: `crc64(b"123456789") ==
//! 0x995DC9BBDF1939FA`.
//!
//! Two paths compute the same value:
//!
//! * **Carry-less folding** (x86-64 with `PCLMULQDQ`, detected at run
//!   time, for inputs of at least 256 bytes). Eight 16-byte lanes are
//!   each multiplied forward by `x¹⁰²⁴ mod P` per 128-byte block, so
//!   eight independent multiplies are in flight instead of one table
//!   lookup per byte. The lanes then fold into one 16-byte remainder,
//!   and that remainder and the last few bytes finish through the byte
//!   table. Unlike the Rabin kernel ([`crate::rabin`]), whose two
//!   multiplies per word depend on each other, no multiply here waits
//!   on another.
//! * **The byte table** ([`crc64_portable`]): one lookup per byte. It is
//!   the only path off x86-64, and the reference the tests check the
//!   fold against.
//!
//! [`combine`] gives the CRC of a concatenation from the CRCs of its
//! parts, so a container can checksum each byte once and still check a
//! CRC over the whole body.

/// Bit-reversed ECMA-182 polynomial.
const POLY: u64 = 0xC96C5795D7870F42;

/// The polynomial `x` in bit-reflected form: bit 63 holds `x⁰`.
const X: u64 = 1 << 62;

/// Inputs at least this long take the carry-less fold when the CPU has
/// it: two 128-byte blocks, so the lanes fold at least once.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_BYTES: usize = 256;

const fn build_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u64; 256] = build_table();

/// Advance the CRC register `crc` over `bytes`, one table lookup per
/// byte.
fn update_table(mut crc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        let idx = ((crc ^ b as u64) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    crc
}

/// `a·b mod P` for bit-reflected `a` and `b`: a portable GF(2) multiply.
const fn mul_mod_p(mut a: u64, b: u64) -> u64 {
    let mut product = 0;
    let mut i = 0;
    while i < 64 {
        // Bit 63 - i of `b` is the coefficient of xⁱ; `a` holds a·xⁱ.
        if b & (1 << (63 - i)) != 0 {
            product ^= a;
        }
        a = if a & 1 != 0 { (a >> 1) ^ POLY } else { a >> 1 };
        i += 1;
    }
    product
}

/// `base^n mod P` by square and multiply, bit-reflected.
const fn pow_mod_p(mut base: u64, mut n: u64) -> u64 {
    let mut power = 1 << 63; // x⁰
    while n != 0 {
        if n & 1 != 0 {
            power = mul_mod_p(power, base);
        }
        base = mul_mod_p(base, base);
        n >>= 1;
    }
    power
}

/// CRC-64/XZ of `bytes` in one shot.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(bytes);
    c.finish()
}

/// CRC-64/XZ of `bytes` through the byte table alone, whatever the CPU:
/// the portable path and the reference for the fold.
pub fn crc64_portable(bytes: &[u8]) -> u64 {
    !update_table(!0, bytes)
}

/// CRC-64/XZ of `A‖B` from `crc_a = crc64(A)`, `crc_b = crc64(B)` and
/// `len_b = |B|`: `crc_a·x^(8·len_b) mod P ⊕ crc_b`. The initial value
/// and the final XOR cancel out of the sum, so the parts' finished CRCs
/// combine as they are. It costs at most two portable GF(2) multiplies
/// per bit of `len_b`: a few microseconds.
pub fn combine(crc_a: u64, crc_b: u64, len_b: u64) -> u64 {
    const X8: u64 = pow_mod_p(X, 8);
    mul_mod_p(crc_a, pow_mod_p(X8, len_b)) ^ crc_b
}

/// Streaming CRC-64/XZ state, for checksumming data as it is serialized.
#[derive(Debug, Clone, Copy)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Crc64::new()
    }
}

impl Crc64 {
    /// Fresh state (initial value `!0`).
    pub fn new() -> Crc64 {
        Crc64 { state: !0u64 }
    }

    /// Feed more bytes. An input of at least 256 bytes is folded with
    /// carry-less multiplies when the CPU has `PCLMULQDQ`.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= FOLD_MIN_BYTES && std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: the CPU supports `pclmulqdq`, checked just above.
            self.state = unsafe { clmul::update(self.state, bytes) };
            return;
        }
        self.state = update_table(self.state, bytes);
    }

    /// Final checksum (applies the final XOR; the state is not consumed,
    /// so `update` may continue for a running checksum).
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

/// The carry-less fold (x86-64 with `PCLMULQDQ`).
///
/// A 16-byte lane loaded little-endian holds, in reflected order, the
/// message's higher-degree 64 coefficients in its low half. Moving the
/// lane `d` bytes toward the end multiplies it by `x^(8d)`: the low half
/// by `x^(8d+64) mod P` and the high half by `x^(8d) mod P`. A reflected
/// carry-less product carries one extra factor of `x`, so the constants
/// are `x^(8d+63)` and `x^(8d-1)`: 1087 and 1023 for a 128-byte stride,
/// 191 and 127 for a 16-byte one.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{pow_mod_p, update_table, X};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_set_epi64x,
        _mm_unpackhi_epi64, _mm_xor_si128,
    };

    const K_127: u64 = pow_mod_p(X, 127);
    const K_191: u64 = pow_mod_p(X, 191);
    const K_1023: u64 = pow_mod_p(X, 1023);
    const K_1087: u64 = pow_mod_p(X, 1087);

    fn load(piece: &[u8; 16]) -> __m128i {
        // SAFETY: `piece` is 16 readable bytes, and an unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(piece.as_ptr().cast()) }
    }

    /// Multiply `lane` forward by the stride whose constants `k` holds:
    /// its low half by `k`'s low half, its high half by `k`'s high half.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(lane, k),
            _mm_clmulepi64_si128::<0x11>(lane, k),
        )
    }

    /// Advance the CRC register `state` over `bytes`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u64, bytes: &[u8]) -> u64 {
        let (pieces, tail) = bytes.as_chunks::<16>();
        let (blocks, pieces) = pieces.as_chunks::<8>();
        let Some((first, blocks)) = blocks.split_first() else {
            return update_table(state, bytes);
        };
        // The register counts as XORed into the first 8 bytes, so the
        // fold itself starts from zero.
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_set_epi64x(0, state as i64));
        let stride_128 = _mm_set_epi64x(K_1023 as i64, K_1087 as i64);
        for block in blocks {
            for (lane, piece) in lanes.iter_mut().zip(block) {
                *lane = _mm_xor_si128(fold(*lane, stride_128), load(piece));
            }
        }
        let stride_16 = _mm_set_epi64x(K_127 as i64, K_191 as i64);
        let mut folded = lanes[0];
        for lane in &lanes[1..] {
            folded = _mm_xor_si128(fold(folded, stride_16), *lane);
        }
        for piece in pieces {
            folded = _mm_xor_si128(fold(folded, stride_16), load(piece));
        }
        // `folded` is congruent to every byte so far: its 16 bytes, run
        // through the table from zero, leave the same register.
        let low = _mm_cvtsi128_si64(folded) as u64;
        let high = _mm_cvtsi128_si64(_mm_unpackhi_epi64(folded, folded)) as u64;
        let register = update_table(update_table(0, &low.to_le_bytes()), &high.to_le_bytes());
        update_table(register, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pseudo-random bytes: enough for the longest property case at the
    /// largest start offset.
    fn noise(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    /// The dispatched one-shot CRC, the streaming CRC split at `split`
    /// and the byte table agree on `data`.
    fn assert_paths_agree(data: &[u8], split: usize) {
        let want = crc64_portable(data);
        assert_eq!(crc64(data), want, "one shot, {} bytes", data.len());
        let mut c = Crc64::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        assert_eq!(c.finish(), want, "{} bytes split at {split}", data.len());
    }

    #[test]
    fn known_check_value() {
        // The canonical CRC-64/XZ check vector, on both paths.
        assert_eq!(crc64(b"123456789"), 0x995DC9BBDF1939FA);
        assert_eq!(crc64_portable(b"123456789"), 0x995DC9BBDF1939FA);
    }

    #[test]
    fn fold_constants() {
        // x^n mod P, bit-reflected, as other CRC-64/XZ folding kernels use them.
        assert_eq!(pow_mod_p(X, 127), 0xdabe95afc7875f40);
        assert_eq!(pow_mod_p(X, 191), 0xe05dd497ca393ae4);
        assert_eq!(pow_mod_p(X, 1023), 0xd7d86b2af73de740);
        assert_eq!(pow_mod_p(X, 1087), 0x8757d71d4fcc1000);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = crc64(&data);
        for split in [0, 1, 13, 500, 999, 1000] {
            let mut c = Crc64::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn fold_boundaries_agree_with_the_table() {
        let data = noise((1 << 20) + 16);
        let lengths = [255, 256, 257].into_iter().chain((0..=4096).step_by(128));
        for len in lengths {
            for offset in 0..16 {
                let piece = &data[offset..offset + len];
                assert_paths_agree(piece, len / 3);
            }
        }
        for offset in [0, 7] {
            let piece = &data[offset..offset + (1 << 20)];
            assert_paths_agree(piece, 300_001);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_fold_agrees_with_the_table(
            len in 0usize..4097,
            offset in 0usize..16,
            split_seed in any::<u64>(),
        ) {
            let data = noise(4096 + 16);
            let piece = &data[offset..offset + len];
            assert_paths_agree(piece, (split_seed % (len as u64 + 1)) as usize);
        }

        #[test]
        fn prop_combine_gives_the_crc_of_the_concatenation(
            len in 0usize..4097,
            split_seed in any::<u64>(),
        ) {
            let data = noise(len);
            let split = (split_seed % (len as u64 + 1)) as usize;
            let (a, b) = data.split_at(split);
            prop_assert_eq!(combine(crc64(a), crc64(b), b.len() as u64), crc64(&data));
        }
    }

    #[test]
    fn combine_with_an_empty_part() {
        let data = noise(1000);
        assert_eq!(combine(crc64(&data), crc64(b""), 0), crc64(&data));
        assert_eq!(combine(crc64(b""), crc64(&data), 1000), crc64(&data));
        assert_eq!(combine(0, 0, 0), 0);
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let data = b"simultaneous finite automata".to_vec();
        let clean = crc64(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc64(&corrupt), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
