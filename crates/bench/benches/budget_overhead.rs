//! Budget-governance overhead — the cost of the per-work-item
//! [`Governor`](sfa_core::budget) checkpoint in every construction path.
//!
//! Three configurations per engine:
//! * `ungoverned` — the pre-budget fast path (`Governor::is_unlimited()`
//!   hoists the whole check out of the hot loop),
//! * `governed_space` — a payload-byte limit (no clock reads),
//! * `governed_deadline` — a generous wall-clock deadline, the only axis
//!   that calls `Instant::now()` per checkpoint.
//!
//! The claim under test: an unlimited budget is free, and space-only
//! governance costs a compare per work item — the deadline axis is the
//! only checkpoint with measurable cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfa_core::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_budget_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("budget_overhead");
    group.sample_size(10);
    let dfa = sfa_workloads::rn(120);
    let configs: [(&str, Budget); 3] = [
        ("ungoverned", Budget::unlimited()),
        (
            "governed_space",
            Budget::unlimited().with_max_payload_bytes(1 << 40),
        ),
        (
            "governed_deadline",
            Budget::unlimited().with_deadline(Duration::from_secs(3600)),
        ),
    ];
    for (name, budget) in &configs {
        group.bench_with_input(
            BenchmarkId::new("sequential", *name),
            budget,
            |b, budget| {
                b.iter(|| {
                    black_box(
                        Sfa::builder(black_box(&dfa))
                            .sequential(SequentialVariant::Transposed)
                            .budget(budget.clone())
                            .build()
                            .unwrap(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("parallel_4thr", *name),
            budget,
            |b, budget| {
                b.iter(|| {
                    black_box(
                        Sfa::builder(black_box(&dfa))
                            .threads(4)
                            .budget(budget.clone())
                            .build()
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_budget_overhead);
criterion_main!(benches);
