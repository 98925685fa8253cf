//! Machine-readable experiment records.
//!
//! Every `reproduce` subcommand prints a human table **and** writes a
//! JSON record to `results/<experiment>.json`, so EXPERIMENTS.md numbers
//! are regenerable and diffable.

use sfa_json::ToJson;
use std::path::Path;

/// Serialize `record` as pretty JSON into `<dir>/<name>.json`, creating
/// `dir` if needed (best-effort; printing is the primary output channel).
pub fn write_record<T: ToJson + ?Sized>(
    dir: impl AsRef<Path>,
    name: &str,
    record: &T,
) -> std::io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = sfa_json::to_string_pretty(record);
    std::fs::write(&path, json)?;
    Ok(())
}

/// One row of a sequential-variant comparison (Fig. 4 / r500 table).
#[derive(Debug, Clone)]
pub struct SeqRow {
    /// Workload name.
    pub name: String,
    /// DFA states.
    pub dfa_states: u32,
    /// SFA states.
    pub sfa_states: u32,
    /// Baseline (tree map) seconds.
    pub baseline_secs: f64,
    /// Hashing seconds.
    pub hashing_secs: f64,
    /// Hashing + transposition seconds.
    pub transposed_secs: f64,
}

sfa_json::impl_to_json!(SeqRow {
    name,
    dfa_states,
    sfa_states,
    baseline_secs,
    hashing_secs,
    transposed_secs,
});

impl SeqRow {
    /// Speedup of hashing over baseline.
    pub fn hashing_speedup(&self) -> f64 {
        self.baseline_secs / self.hashing_secs
    }

    /// Speedup of hashing+transposition over baseline.
    pub fn transposed_speedup(&self) -> f64 {
        self.baseline_secs / self.transposed_secs
    }
}

/// One row of the parallel-scaling experiment (Fig. 5).
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Workload name.
    pub name: String,
    /// SFA states.
    pub sfa_states: u32,
    /// Thread count.
    pub threads: usize,
    /// Best sequential seconds (transposed variant).
    pub sequential_secs: f64,
    /// Parallel seconds.
    pub parallel_secs: f64,
}

sfa_json::impl_to_json!(ScaleRow {
    name,
    sfa_states,
    threads,
    sequential_secs,
    parallel_secs,
});

impl ScaleRow {
    /// Parallel speedup over the best sequential variant.
    pub fn speedup(&self) -> f64 {
        self.sequential_secs / self.parallel_secs
    }
}

/// One row of the Table II compression experiment.
#[derive(Debug, Clone)]
pub struct CompressionRow {
    /// Workload name.
    pub name: String,
    /// DFA states.
    pub dfa_states: u32,
    /// SFA states.
    pub sfa_states: u64,
    /// Size without compression (bytes; theoretical when intractable).
    pub uncompressed_bytes: u64,
    /// Wall time without compression (None = "n/a": intractable).
    pub time_without_secs: Option<f64>,
    /// Size with compression (bytes).
    pub compressed_bytes: u64,
    /// Wall time with compression.
    pub time_with_secs: f64,
    /// Compression ratio.
    pub ratio: f64,
}

sfa_json::impl_to_json!(CompressionRow {
    name,
    dfa_states,
    sfa_states,
    uncompressed_bytes,
    time_without_secs,
    compressed_bytes,
    time_with_secs,
    ratio,
});

/// One row of the queue comparison (E4 / §IV-B).
#[derive(Debug, Clone)]
pub struct QueueRow {
    /// Scheduler name.
    pub scheduler: String,
    /// Thread count.
    pub threads: usize,
    /// Construction seconds.
    pub secs: f64,
    /// CAS failures (HITM proxy).
    pub cas_failures: u64,
    /// Total conflict events.
    pub conflict_events: u64,
}

sfa_json::impl_to_json!(QueueRow {
    scheduler,
    threads,
    secs,
    cas_failures,
    conflict_events,
});

/// One per-operation row of the queue comparison: a raw structure on
/// one thread, filled and drained.
#[derive(Debug, Clone)]
pub struct QueueOpRow {
    /// Structure and the operation pair timed.
    pub structure: String,
    /// Operations per timed pass (every item is pushed once and taken
    /// once).
    pub ops_per_pass: u64,
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
}

sfa_json::impl_to_json!(QueueOpRow {
    structure,
    ops_per_pass,
    ns_per_op,
});

/// One row of the matching break-even experiment (E7 / §IV-D).
#[derive(Debug, Clone)]
pub struct MatchRow {
    /// Input length in residues.
    pub input_len: usize,
    /// Sequential matcher seconds.
    pub sequential_secs: f64,
    /// SFA construction seconds (one-time cost).
    pub construction_secs: f64,
    /// Parallel SFA matching seconds.
    pub sfa_match_secs: f64,
    /// Threads used.
    pub threads: usize,
}

sfa_json::impl_to_json!(MatchRow {
    input_len,
    sequential_secs,
    construction_secs,
    sfa_match_secs,
    threads,
});

impl MatchRow {
    /// Total SFA-path cost including construction.
    pub fn sfa_total_secs(&self) -> f64 {
        self.construction_secs + self.sfa_match_secs
    }
}

/// One row of the matching-throughput experiment: one input size,
/// compared across match paths (sequential, per-call thread spawn,
/// pooled, streaming).
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Input length in bytes/residues.
    pub input_len: usize,
    /// Worker threads for the parallel paths.
    pub threads: usize,
    /// Sequential DFA matcher seconds.
    pub sequential_secs: f64,
    /// Parallel matching with threads spawned per call (the pre-pool
    /// behavior, kept as the dispatch-overhead baseline).
    pub spawn_per_call_secs: f64,
    /// Parallel matching on the persistent pool.
    pub pooled_secs: f64,
    /// Streaming (blocked, fused classification) on the pool.
    pub streaming_secs: f64,
}

sfa_json::impl_to_json!(ThroughputRow {
    input_len,
    threads,
    sequential_secs,
    spawn_per_call_secs,
    pooled_secs,
    streaming_secs,
});

impl ThroughputRow {
    /// Pool dispatch win over per-call spawning.
    pub fn pool_speedup(&self) -> f64 {
        self.spawn_per_call_secs / self.pooled_secs
    }
}

/// One row of the scan-throughput experiment: one input size compared
/// across scan strategies (sequential, pooled chunk scan, K-way
/// interleaved chains, interleaved chains on the compact pre-scaled
/// table).
#[derive(Debug, Clone)]
pub struct ScanThroughputRow {
    /// Input length in symbols.
    pub input_len: usize,
    /// Worker threads for the parallel paths.
    pub threads: usize,
    /// Interleave width K of the pipelined paths.
    pub interleave: usize,
    /// Sequential DFA matcher seconds.
    pub sequential_secs: f64,
    /// One-chunk-per-thread pooled SFA scan (the pre-scan-engine
    /// behavior, replicated as the baseline the issue measures against).
    pub pooled_secs: f64,
    /// K-way interleaved chains on the raw `u32` transition table.
    pub interleaved_secs: f64,
    /// K-way interleaved chains on the compact pre-scaled table (the
    /// full scan-engine path).
    pub compact_secs: f64,
}

sfa_json::impl_to_json!(ScanThroughputRow {
    input_len,
    threads,
    interleave,
    sequential_secs,
    pooled_secs,
    interleaved_secs,
    compact_secs,
});

impl ScanThroughputRow {
    /// Throughput of one variant in MB/s (1 symbol = 1 byte).
    pub fn mb_per_sec(&self, secs: f64) -> f64 {
        self.input_len as f64 / secs / 1e6
    }

    /// Interleaving win over the pooled scan (same table format).
    pub fn interleaved_speedup(&self) -> f64 {
        self.pooled_secs / self.interleaved_secs
    }

    /// Full scan-engine win (interleaving + compact table) over the
    /// pooled scan — the issue's ≥1.5× acceptance criterion.
    pub fn compact_speedup(&self) -> f64 {
        self.pooled_secs / self.compact_secs
    }
}

/// One row of the observability-overhead A/B experiment: the compact
/// scan workload timed with metrics recording off vs on.
#[derive(Debug, Clone)]
pub struct ObsOverheadRow {
    /// Input length in symbols.
    pub input_len: usize,
    /// Worker threads.
    pub threads: usize,
    /// Rounds; each times both arms back to back.
    pub runs: usize,
    /// Median pass seconds with recording off (`set_recording(false)`).
    pub disabled_secs: f64,
    /// Median pass seconds with recording on.
    pub enabled_secs: f64,
    /// Median over rounds of the round's relative overhead, in percent,
    /// clamped at 0 (noise can make the enabled arm *faster*; a negative
    /// overhead is not a finding).
    pub overhead_pct: f64,
}

sfa_json::impl_to_json!(ObsOverheadRow {
    input_len,
    threads,
    runs,
    disabled_secs,
    enabled_secs,
    overhead_pct,
});

impl ObsOverheadRow {
    /// Median over `(disabled_secs, enabled_secs)` rounds of
    /// `enabled / disabled − 1`, in percent, clamped at 0. A round whose
    /// disabled arm took no measurable time has no ratio and is skipped.
    pub fn overhead_pct(rounds: &[(f64, f64)]) -> f64 {
        let mut ratios: Vec<f64> = rounds
            .iter()
            .filter(|&&(disabled, _)| disabled > 0.0)
            .map(|&(disabled, enabled)| enabled / disabled - 1.0)
            .collect();
        if ratios.is_empty() {
            return 0.0;
        }
        (crate::median(&mut ratios) * 100.0).max(0.0)
    }
}

/// One row of the serve-load experiment: one tenant's closed-loop view
/// of the `sfa serve` daemon (a `(all)` row aggregates every tenant).
/// Latency quantiles come from obs histograms (log₂ buckets, linearly
/// interpolated), in microseconds; only served requests are timed.
#[derive(Debug, Clone)]
pub struct ServeLoadRow {
    /// Tenant name, or `(all)` for the aggregate.
    pub tenant: String,
    /// Concurrent connections that carried this tenant's traffic.
    pub connections: usize,
    /// Requests sent.
    pub requests: u64,
    /// Requests answered with a match outcome.
    pub served: u64,
    /// Requests rejected over quota (typed `TENANT_OVER_QUOTA`).
    pub rejected: u64,
    /// Served requests per second of load-loop wall time.
    pub qps: f64,
    /// Median service latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile service latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile service latency, microseconds.
    pub p999_us: f64,
}

sfa_json::impl_to_json!(ServeLoadRow {
    tenant,
    connections,
    requests,
    served,
    rejected,
    qps,
    p50_us,
    p99_us,
    p999_us,
});

/// One row of the hash-throughput experiment (E8 / §III-A).
#[derive(Debug, Clone)]
pub struct HashRow {
    /// Hash function name.
    pub name: String,
    /// Bytes per call: the whole input at once, or state-sized pieces.
    pub buffer_bytes: usize,
    /// Throughput in bytes per second.
    pub bytes_per_sec: f64,
    /// Approximate bytes per cycle (using the nominal frequency; 0 when
    /// the frequency is unknown).
    pub bytes_per_cycle: f64,
}

sfa_json::impl_to_json!(HashRow {
    name,
    buffer_bytes,
    bytes_per_sec,
    bytes_per_cycle,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r = SeqRow {
            name: "x".into(),
            dfa_states: 3,
            sfa_states: 6,
            baseline_secs: 10.0,
            hashing_secs: 5.0,
            transposed_secs: 2.0,
        };
        assert_eq!(r.hashing_speedup(), 2.0);
        assert_eq!(r.transposed_speedup(), 5.0);

        let s = ScaleRow {
            name: "x".into(),
            sfa_states: 6,
            threads: 4,
            sequential_secs: 8.0,
            parallel_secs: 2.0,
        };
        assert_eq!(s.speedup(), 4.0);

        let m = MatchRow {
            input_len: 100,
            sequential_secs: 1.0,
            construction_secs: 0.5,
            sfa_match_secs: 0.25,
            threads: 4,
        };
        assert_eq!(m.sfa_total_secs(), 0.75);

        assert!((ObsOverheadRow::overhead_pct(&[(1.0, 1.015)]) - 1.5).abs() < 1e-9);
        assert_eq!(ObsOverheadRow::overhead_pct(&[(1.0, 0.9)]), 0.0);
        assert_eq!(ObsOverheadRow::overhead_pct(&[(0.0, 1.0)]), 0.0);
        // One slow round does not move the median of three.
        let rounds = [(1.0, 1.5), (2.0, 2.02), (1.0, 0.99)];
        assert!((ObsOverheadRow::overhead_pct(&rounds) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn record_write_round_trip() {
        let rows = vec![QueueRow {
            scheduler: "ws".into(),
            threads: 2,
            secs: 0.1,
            cas_failures: 3,
            conflict_events: 5,
        }];
        let scratch = sfa_workloads::ScratchDir::new("records_test");
        let dir = scratch.join("results");
        write_record(&dir, "test-record", &rows).unwrap();
        let text = std::fs::read_to_string(dir.join("test-record.json")).unwrap();
        assert!(text.contains("\"scheduler\": \"ws\""));
    }
}
