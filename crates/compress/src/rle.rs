//! Period-aware run-length coding.
//!
//! The paper notes that for sink-dominated SFAs (the r500 family) "run-
//! length encoding will be able to produce similar results" to deflate
//! (§III-C). SFA state vectors are arrays of u16/u32 ids, so a run of the
//! sink id is a repeating 2- or 4-byte *pattern*, not a single repeated
//! byte — this codec therefore detects runs with period 1, 2 or 4.
//!
//! Format: token byte `T`, then payload —
//!
//! * `T & 0xC0 == 0x00`: literal run; copy the next `(T & 0x3F) + 1`
//!   bytes verbatim (1..=64 literals per token),
//! * `T & 0xC0 == 0x40/0x80/0xC0`: pattern run with period 1/2/4; a
//!   varint repetition count `r` (`r ≥ MIN_REPS`) follows, then the
//!   pattern bytes; expands to `r` copies of the pattern.

const MIN_REPS: usize = 3;
const MAX_LIT: usize = 64;

use crate::codec::CodecError;
use crate::varint;

#[inline]
fn repetitions(input: &[u8], i: usize, period: usize) -> usize {
    if i + period > input.len() {
        return 0;
    }
    let pattern = &input[i..i + period];
    let mut r = 1usize;
    let mut j = i + period;
    while j + period <= input.len() && &input[j..j + period] == pattern {
        r += 1;
        j += period;
    }
    r
}

/// Compress `input` into `out`.
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    let mut i = 0usize;
    let mut lit_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut s = from;
        while s < to {
            let n = (to - s).min(MAX_LIT);
            out.push((n - 1) as u8);
            out.extend_from_slice(&input[s..s + n]);
            s += n;
        }
    };

    while i < input.len() {
        // Pick the period with the best payoff at this position.
        let mut best: Option<(usize, usize, usize)> = None; // (saved, period, reps)
        for (tag_period, period) in [(1usize, 1usize), (2, 2), (3, 4)] {
            let _ = tag_period;
            let r = repetitions(input, i, period);
            if r >= MIN_REPS {
                let covered = r * period;
                // cost ≈ 1 token + ≤3 varint bytes + period pattern bytes
                let cost = 1 + 3 + period;
                if covered > cost {
                    let saved = covered - cost;
                    if best.is_none_or(|(s, _, _)| saved > s) {
                        best = Some((saved, period, r));
                    }
                }
            }
        }
        if let Some((_, period, reps)) = best {
            flush_literals(out, lit_start, i, input);
            let tag = match period {
                1 => 0x40,
                2 => 0x80,
                _ => 0xC0,
            };
            out.push(tag);
            varint::write_u64(out, reps as u64);
            out.extend_from_slice(&input[i..i + period]);
            i += reps * period;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(out, lit_start, input.len(), input);
}

/// Decompress `input` into `out`.
pub fn decompress(input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let mut pos = 0usize;
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        let kind = token & 0xC0;
        if kind == 0 {
            let n = (token & 0x3F) as usize + 1;
            let chunk = input.get(pos..pos + n).ok_or(CodecError::Truncated)?;
            out.extend_from_slice(chunk);
            pos += n;
        } else {
            let period = match kind {
                0x40 => 1usize,
                0x80 => 2,
                _ => 4,
            };
            if token & 0x3F != 0 {
                return Err(CodecError::Corrupt("reserved token bits set"));
            }
            let reps = varint::read_u64(input, &mut pos)? as usize;
            if reps < MIN_REPS {
                return Err(CodecError::Corrupt("run shorter than minimum"));
            }
            let pattern = input.get(pos..pos + period).ok_or(CodecError::Truncated)?;
            // Guard absurd expansion requests from corrupt counts (no
            // declared-total header in this format, so use a hard cap).
            if reps.saturating_mul(period) > (1usize << 28) {
                return Err(CodecError::Corrupt("run too long"));
            }
            pos += period;
            // Double the expanded prefix: O(log reps) copies per run.
            let (start, total) = (out.len(), reps * period);
            out.extend_from_slice(pattern);
            while out.len() - start < total {
                let have = out.len() - start;
                out.extend_from_within(start..start + have.min(total - have));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let mut c = Vec::new();
        compress(input, &mut c);
        let mut d = Vec::new();
        decompress(&c, &mut d).unwrap();
        d
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(round_trip(b""), b"");
        assert_eq!(round_trip(b"a"), b"a");
        assert_eq!(round_trip(b"ab"), b"ab");
        assert_eq!(round_trip(b"aaa"), b"aaa");
    }

    #[test]
    fn long_byte_runs_compress_well() {
        let input = vec![7u8; 100_000];
        let mut c = Vec::new();
        compress(&input, &mut c);
        assert!(c.len() < 16, "rle got {} bytes", c.len());
        assert_eq!(round_trip(&input), input);
    }

    #[test]
    fn u16_id_runs_compress_well() {
        // Sink-dominated SFA state vector: alternating LE bytes of id 501.
        let mut input = Vec::new();
        for _ in 0..50_000 {
            input.extend_from_slice(&501u16.to_le_bytes());
        }
        let mut c = Vec::new();
        compress(&input, &mut c);
        assert!(c.len() < 16, "period-2 run got {} bytes", c.len());
        assert_eq!(round_trip(&input), input);
    }

    #[test]
    fn u32_id_runs_compress_well() {
        let mut input = Vec::new();
        for _ in 0..25_000 {
            input.extend_from_slice(&70_001u32.to_le_bytes());
        }
        let mut c = Vec::new();
        compress(&input, &mut c);
        assert!(c.len() < 16, "period-4 run got {} bytes", c.len());
        assert_eq!(round_trip(&input), input);
    }

    #[test]
    fn mixed_sfa_like_vector() {
        let mut input = Vec::new();
        for i in 0..30_000u32 {
            let id: u16 = if i % 251 == 0 { (i % 499) as u16 } else { 501 };
            input.extend_from_slice(&id.to_le_bytes());
        }
        let mut c = Vec::new();
        compress(&input, &mut c);
        let ratio = input.len() as f64 / c.len() as f64;
        assert!(ratio > 20.0, "rle ratio only {ratio:.1}");
        assert_eq!(round_trip(&input), input);
    }

    #[test]
    fn incompressible_data_grows_bounded() {
        let input: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let mut c = Vec::new();
        compress(&input, &mut c);
        // Worst case: one token byte per 64 literals.
        assert!(c.len() <= input.len() + input.len() / 64 + 2);
        assert_eq!(round_trip(&input), input);
    }

    #[test]
    fn mixed_content() {
        let mut input = Vec::new();
        input.extend_from_slice(b"header");
        input.extend(std::iter::repeat_n(0u8, 500));
        input.extend_from_slice(b"trailer");
        assert_eq!(round_trip(&input), input);
    }

    #[test]
    fn truncated_inputs_error() {
        let mut c = Vec::new();
        compress(&[5u8; 50], &mut c);
        for cut in 1..c.len() {
            let mut d = Vec::new();
            let _ = decompress(&c[..cut], &mut d); // must not panic
        }
        let mut d = Vec::new();
        assert_eq!(
            decompress(&[0x40, 0x03], &mut d),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            decompress(&[0x02, 1, 2], &mut d),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn corrupt_run_counts_rejected() {
        let mut d = Vec::new();
        // Run with count below minimum.
        assert!(matches!(
            decompress(&[0x40, 0x01, 9], &mut d),
            Err(CodecError::Corrupt(_))
        ));
        // Reserved bits set.
        assert!(matches!(
            decompress(&[0x41, 0x03, 9], &mut d),
            Err(CodecError::Corrupt(_))
        ));
    }

    proptest! {
        #[test]
        fn prop_round_trip(input in proptest::collection::vec(any::<u8>(), 0..2000)) {
            prop_assert_eq!(round_trip(&input), input);
        }

        #[test]
        fn prop_round_trip_u16_ids(
            seed in any::<u64>(),
            n in 0usize..2000,
            sink_bias in 2u64..40,
        ) {
            let mut input = Vec::with_capacity(n * 2);
            let mut s = seed;
            for _ in 0..n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let id: u16 = if (s >> 33).is_multiple_of(sink_bias) {
                    ((s >> 17) % 500) as u16
                } else {
                    501
                };
                input.extend_from_slice(&id.to_le_bytes());
            }
            prop_assert_eq!(round_trip(&input), input);
        }
    }
}
