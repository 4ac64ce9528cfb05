//! B2 — footnote 1: point and listing queries, hierarchical binding vs
//! the membership-join plan vs the fully explicated indexed table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrdm_bench::fixtures::{class_probe, export_obs_json, print_engine_stats};
use hrdm_bench::workloads::{class_workload, explicated_table, footnote1_baseline, B2_EXCEPTIONS};

fn bench_point_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("b2_point_query");
    for members in [100usize, 1_000, 10_000] {
        let w = class_workload(members, B2_EXCEPTIONS);
        let baseline = footnote1_baseline(&w);
        let flat = explicated_table(&w);
        let (probe_item, probe_id) = class_probe(&w);

        group.bench_with_input(
            BenchmarkId::new("hierarchical_binding", members),
            &(),
            |b, ()| b.iter(|| std::hint::black_box(w.relation.holds(&probe_item))),
        );
        group.bench_with_input(BenchmarkId::new("footnote1_join", members), &(), |b, ()| {
            b.iter(|| std::hint::black_box(baseline.holds(probe_id)))
        });
        group.bench_with_input(BenchmarkId::new("flat_indexed", members), &(), |b, ()| {
            b.iter(|| std::hint::black_box(!flat.lookup(0, probe_id).is_empty()))
        });
    }
    group.finish();
}

fn bench_listing_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("b2_listing");
    group.sample_size(10);
    for members in [100usize, 1_000, 10_000] {
        let w = class_workload(members, B2_EXCEPTIONS);
        let baseline = footnote1_baseline(&w);
        group.bench_with_input(
            BenchmarkId::new("hierarchical_flatten", members),
            &(),
            |b, ()| b.iter(|| std::hint::black_box(hrdm_core::flat::flatten(&w.relation).len())),
        );
        group.bench_with_input(
            BenchmarkId::new("footnote1_expand_join", members),
            &(),
            |b, ()| b.iter(|| std::hint::black_box(baseline.list().len())),
        );
    }
    group.finish();
}

fn report_stats(_c: &mut Criterion) {
    print_engine_stats("b2");
    export_obs_json("b2", "BENCH_obs.json").expect("write BENCH_obs.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_point_queries, bench_listing_queries, report_stats
}
criterion_main!(benches);
