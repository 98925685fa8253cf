//! Shared infrastructure for the paper-reproduction benchmark harness.
//!
//! The `reproduce` binary (this crate's `src/bin/reproduce.rs`) is the one
//! harness: each table and figure of the paper's evaluation section, and
//! each micro-level claim (transposition kernels, fingerprint rates,
//! per-operation queue costs, budget overhead), is a row of one of its
//! experiments. This library holds what it needs: platform introspection
//! (Table I), workload selection, timing helpers and JSON experiment
//! records.

pub mod platform;
pub mod records;
pub mod timing;
pub mod workloads;

pub use platform::PlatformInfo;
pub use timing::{median, time_once, time_secs};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_info_is_populated() {
        let p = PlatformInfo::detect();
        assert!(p.logical_cpus >= 1);
        assert!(!p.cpu_model.is_empty());
        assert!(p.total_memory_bytes > 0);
    }

    #[test]
    fn median_works() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }
}
