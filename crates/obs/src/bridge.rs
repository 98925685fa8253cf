//! Bridges from `sfa_sync`'s pre-existing telemetry into a
//! [`MetricsRegistry`] — the paper's E4 HITM-proxy counters and the
//! match pool's load figures, under the standard
//! `sfa_<subsystem>_<name>_<unit>` names.

use crate::MetricsRegistry;
use sfa_sync::counters::ContentionSnapshot;
use sfa_sync::pool::TaskPool;

/// Record a [`ContentionSnapshot`] under `sfa_<prefix>_*_total`
/// counters. Snapshots are cumulative per run, so call this once per
/// scrape window (e.g. at the end of a construction or bench run).
pub fn record_contention(reg: &MetricsRegistry, prefix: &str, snap: &ContentionSnapshot) {
    let emit = |field: &str, v: u64| {
        reg.counter(&format!("sfa_{prefix}_{field}_total")).add(v);
    };
    emit("cas_failures", snap.cas_failures);
    emit("cas_successes", snap.cas_successes);
    emit("steal_attempts", snap.steal_attempts);
    emit("steal_successes", snap.steal_successes);
    emit("enqueues", snap.enqueues);
    emit("dequeues", snap.dequeues);
    emit("conflict_events", snap.conflict_events());
}

/// Record a pool's current load and the process-wide spawn total:
/// `sfa_pool_queue_depth`, `sfa_pool_threads` and
/// `sfa_pool_threads_spawned` gauges.
pub fn record_pool(reg: &MetricsRegistry, pool: &TaskPool) {
    reg.gauge("sfa_pool_queue_depth")
        .set(pool.queue_depth() as i64);
    reg.gauge("sfa_pool_threads").set(pool.threads() as i64);
    reg.gauge("sfa_pool_threads_spawned")
        .set(TaskPool::threads_spawned_total() as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::recording_on;

    #[test]
    fn contention_bridge_names_and_values() {
        let _on = recording_on();
        let reg = MetricsRegistry::new();
        let snap = ContentionSnapshot {
            cas_failures: 5,
            cas_successes: 10,
            steal_attempts: 7,
            steal_successes: 4,
            enqueues: 20,
            dequeues: 18,
        };
        record_contention(&reg, "construct", &snap);
        let out = reg.snapshot();
        assert_eq!(out.counter("sfa_construct_cas_failures_total"), Some(5));
        assert_eq!(out.counter("sfa_construct_enqueues_total"), Some(20));
        assert_eq!(out.counter("sfa_construct_conflict_events_total"), Some(8));
        assert_eq!(out.counters.len(), 7);
    }

    #[test]
    fn pool_bridge_reports_gauges() {
        let _on = recording_on();
        let reg = MetricsRegistry::new();
        record_pool(&reg, TaskPool::shared());
        let out = reg.snapshot();
        assert!(out.gauge("sfa_pool_threads").unwrap() >= 1);
        assert!(out.gauge("sfa_pool_queue_depth").is_some());
        assert!(out.gauge("sfa_pool_threads_spawned").is_some());
    }
}
