//! B3 — §3.3.1 consolidation: cascading topological elimination cost as
//! relation size and redundancy grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrdm_bench::fixtures::{clear_shared_caches, export_obs_json, print_engine_stats};
use hrdm_bench::workloads::consolidation_workload;
use hrdm_core::consolidate::{consolidate, consolidate_reverse_order, immediately_redundant};

fn bench_consolidate(c: &mut Criterion) {
    let mut group = c.benchmark_group("b3_consolidate");
    for (classes, redundant) in [(4usize, 2usize), (8, 4), (16, 8)] {
        let r = consolidation_workload(3, 4, classes, redundant);
        let label = format!("{}t", r.len());
        group.bench_with_input(BenchmarkId::new("cascading", &label), &r, |b, r| {
            b.iter(|| std::hint::black_box(consolidate(r).removed.len()));
        });
        // Ablation: the single-pass variant misses cascaded redundancy.
        group.bench_with_input(BenchmarkId::new("single_pass", &label), &r, |b, r| {
            b.iter(|| std::hint::black_box(immediately_redundant(r).len()));
        });
        // Ablation: reverse order can miss the unique minimum.
        group.bench_with_input(BenchmarkId::new("reverse_order", &label), &r, |b, r| {
            b.iter(|| std::hint::black_box(consolidate_reverse_order(r).removed.len()));
        });
        // Ablation: the cascading run above reuses the shared
        // subsumption-core cache between iterations; this one pays the
        // full subsumption-graph construction every time. The gap is
        // the win of that cache on repeated-operator workloads. The
        // workload's closures stay warm in both rows: its schema
        // resolved them when it was built and consolidate requests none.
        group.bench_with_input(BenchmarkId::new("cascading_cold", &label), &r, |b, r| {
            b.iter(|| {
                clear_shared_caches();
                std::hint::black_box(consolidate(r).removed.len())
            });
        });
    }
    group.finish();
}

fn report_stats(_c: &mut Criterion) {
    print_engine_stats("b3");
    export_obs_json("b3", "BENCH_obs.json").expect("write BENCH_obs.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_consolidate, report_stats
}
criterion_main!(benches);
