//! Fingerprinting substrate for SFA construction.
//!
//! The paper (§III-A) speeds up SFA state comparison by attaching a 64-bit
//! *fingerprint* to every state: unequal fingerprints prove states unequal
//! in `O(1)`; only equal fingerprints fall back to the exhaustive
//! byte-by-byte comparison. Two fingerprint functions were evaluated:
//!
//! * **Rabin fingerprints** ([`rabin`]) — the bit string is interpreted as
//!   a polynomial over GF(2) and reduced modulo an irreducible degree-64
//!   polynomial. Our implementation has a `PCLMULQDQ` (carry-less multiply)
//!   fast path exactly like the paper's SSE kernel, plus a portable
//!   table-driven path. Rabin's method gives provable collision bounds and
//!   a tunable collision rate (choose a different/random polynomial).
//! * **CityHash64** ([`city`]) — the paper's final choice: ~5× faster than
//!   the `PCLMULQDQ` Rabin kernel at equal (empirically indistinguishable)
//!   collision behaviour.
//!
//! [`fx`] provides the small multiplicative hash used for hash-*table*
//! bucket mixing, and [`stats`] measures collision behaviour. [`crc64`]
//! is not a fingerprint at all but the storage checksum (CRC-64/XZ,
//! guaranteed single-bit/burst detection) for the on-disk artifact
//! format. It uses the same carry-less multiply as the Rabin kernel, but
//! folds eight independent 16-byte lanes instead of chaining dependent
//! multiplies, so it runs an order of magnitude faster than that kernel.
//! Its byte table is the portable path and the reference.
//! [`crc64::combine`] joins the CRCs of two parts into the CRC of their
//! concatenation.

pub mod city;
pub mod crc64;
pub mod fx;
pub mod rabin;
pub mod stats;

/// A 64-bit fingerprint function over byte strings.
///
/// Implementations must be deterministic and stateless; equality of
/// fingerprints is *necessary* for equality of inputs, never sufficient.
pub trait Fingerprinter: Send + Sync {
    /// Fingerprint `bytes`.
    fn fingerprint(&self, bytes: &[u8]) -> u64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's production configuration: CityHash64.
#[derive(Debug, Clone, Copy, Default)]
pub struct CityFingerprinter;

impl Fingerprinter for CityFingerprinter {
    #[inline]
    fn fingerprint(&self, bytes: &[u8]) -> u64 {
        city::city_hash64(bytes)
    }

    fn name(&self) -> &'static str {
        "cityhash64"
    }
}

/// Rabin fingerprints with the default irreducible polynomial.
#[derive(Debug, Clone)]
pub struct RabinFingerprinter {
    table: rabin::RabinTable,
}

impl Default for RabinFingerprinter {
    fn default() -> Self {
        RabinFingerprinter {
            table: rabin::RabinTable::new(rabin::DEFAULT_POLY),
        }
    }
}

impl RabinFingerprinter {
    /// Use a specific irreducible polynomial (low 64 bits; the implicit
    /// `t^64` term is always present).
    pub fn with_poly(poly: u64) -> Self {
        RabinFingerprinter {
            table: rabin::RabinTable::new(poly),
        }
    }

    /// Rabin's scheme proper: draw a fresh random dense irreducible
    /// polynomial (seeded) — re-rolling on observed collisions is the
    /// classical collision-rate control.
    pub fn random(seed: u64) -> Self {
        Self::with_poly(rabin::random_irreducible(seed))
    }
}

impl Fingerprinter for RabinFingerprinter {
    #[inline]
    fn fingerprint(&self, bytes: &[u8]) -> u64 {
        self.table.fingerprint(bytes)
    }

    fn name(&self) -> &'static str {
        "rabin64"
    }
}

/// FxHash-based fingerprinter (fast, weakest mixing; table bucketing only).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxFingerprinter;

impl Fingerprinter for FxFingerprinter {
    #[inline]
    fn fingerprint(&self, bytes: &[u8]) -> u64 {
        fx::fx_hash64(bytes)
    }

    fn name(&self) -> &'static str {
        "fxhash64"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fingerprinters_are_deterministic() {
        let fps: Vec<Box<dyn Fingerprinter>> = vec![
            Box::new(CityFingerprinter),
            Box::new(RabinFingerprinter::default()),
            Box::new(FxFingerprinter),
        ];
        let data = b"the quick brown fox jumps over the lazy dog";
        for fp in &fps {
            assert_eq!(fp.fingerprint(data), fp.fingerprint(data), "{}", fp.name());
        }
    }

    #[test]
    fn fingerprinters_distinguish_simple_inputs() {
        let fps: Vec<Box<dyn Fingerprinter>> = vec![
            Box::new(CityFingerprinter),
            Box::new(RabinFingerprinter::default()),
            Box::new(FxFingerprinter),
        ];
        for fp in &fps {
            assert_ne!(
                fp.fingerprint(b"abc"),
                fp.fingerprint(b"abd"),
                "{}",
                fp.name()
            );
            assert_ne!(fp.fingerprint(b""), fp.fingerprint(b"\0"), "{}", fp.name());
        }
    }
}
