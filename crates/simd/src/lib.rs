//! x86 SIMD kernels for SFA construction.
//!
//! Two data-parallel primitives dominate the optimized construction
//! algorithm of the paper:
//!
//! * **Parameterized transposition** (§III-A, Fig. 3): deriving all `|Σ|`
//!   successor SFA states of a source state at once. The source state
//!   `s₀ = ⟨q_a, q_b, …⟩` *parameterizes* which transition-table rows are
//!   gathered; transposing the gathered rows turns each *column* (symbol)
//!   into one new SFA state row. [`transpose`] provides the paper's kernel
//!   set — an 8×8 kernel for 32-bit data (AVX2), 8×8 and 8×4 kernels for
//!   16-bit data (SSE), and a 16×16 kernel for 16-bit data (AVX2) that the
//!   paper measured to be slightly slower than four 8×8 kernels — plus
//!   portable scalar fallbacks and runtime dispatch.
//! * **Exhaustive state comparison** ([`memeq`]): the byte-by-byte
//!   fallback on fingerprint equality, vectorized with AVX2/SSE2 compares.
//!
//! All `unsafe` is confined to `#[target_feature]` kernels guarded by
//! runtime feature detection; every kernel is property-tested against the
//! scalar reference.

pub mod memeq;
pub mod transpose;

pub use memeq::bytes_equal;
pub use transpose::{transpose_gather_u16, transpose_gather_u32, Kernel};

/// Which SIMD instruction sets the current CPU offers (runtime-detected,
/// cached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// SSE2 (baseline on x86_64).
    pub sse2: bool,
    /// SSE4.1 (needed for some extracts).
    pub sse41: bool,
    /// AVX2 (256-bit integer ops).
    pub avx2: bool,
}

impl CpuFeatures {
    /// Detect the current CPU (cached after the first call).
    pub fn get() -> CpuFeatures {
        use std::sync::OnceLock;
        static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
        *FEATURES.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                CpuFeatures {
                    sse2: is_x86_feature_detected!("sse2"),
                    sse41: is_x86_feature_detected!("sse4.1"),
                    avx2: is_x86_feature_detected!("avx2"),
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                CpuFeatures {
                    sse2: false,
                    sse41: false,
                    avx2: false,
                }
            }
        })
    }

    /// A feature set with everything disabled (forces scalar paths).
    pub const SCALAR: CpuFeatures = CpuFeatures {
        sse2: false,
        sse41: false,
        avx2: false,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_detection_is_stable() {
        assert_eq!(CpuFeatures::get(), CpuFeatures::get());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_64_always_has_sse2() {
        assert!(CpuFeatures::get().sse2);
    }
}
