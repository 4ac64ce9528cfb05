//! B4 — §3.3.2 explication: output-linear flattening cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hrdm_bench::fixtures::{clear_shared_caches, export_obs_json, print_engine_stats};
use hrdm_bench::workloads::{consolidation_workload, explication_workload};
use hrdm_core::explicate::explicate_all;

fn bench_explicate(c: &mut Criterion) {
    let mut group = c.benchmark_group("b4_explicate");
    for depth in [3usize, 4, 5, 6] {
        let r = explication_workload(4, depth);
        let extension = explicate_all(&r).len();
        group.throughput(Throughput::Elements(extension as u64));
        group.bench_with_input(BenchmarkId::new("explicate_all", extension), &r, |b, r| {
            b.iter(|| std::hint::black_box(explicate_all(r).len()));
        });
        // Cache ablation: pay the subsumption-graph build on every
        // iteration instead of reusing the shared core cache (closures
        // stay warm in both rows; explicate requests none).
        group.bench_with_input(
            BenchmarkId::new("explicate_all_cold", extension),
            &r,
            |b, r| {
                b.iter(|| {
                    clear_shared_caches();
                    std::hint::black_box(explicate_all(r).len())
                });
            },
        );
    }
    group.finish();
}

/// Tuple-rich explication: many stored tuples, modest fan-out, so the
/// O(t²) subsumption-graph construction — not the cartesian expansion —
/// is the dominant cost. Warm runs reuse the shared cached core; cold
/// runs rebuild it, making the cache win directly visible.
fn bench_explicate_tuple_rich(c: &mut Criterion) {
    let mut group = c.benchmark_group("b4_explicate_tuple_rich");
    for (depth, classes, redundant) in [(4usize, 8usize, 4usize), (4, 16, 8), (5, 32, 16)] {
        let r = consolidation_workload(3, depth, classes, redundant);
        let label = format!("{}t", r.len());
        group.bench_with_input(BenchmarkId::new("warm", &label), &r, |b, r| {
            b.iter(|| std::hint::black_box(explicate_all(r).len()));
        });
        group.bench_with_input(BenchmarkId::new("cold", &label), &r, |b, r| {
            b.iter(|| {
                clear_shared_caches();
                std::hint::black_box(explicate_all(r).len())
            });
        });
    }
    group.finish();
}

fn report_stats(_c: &mut Criterion) {
    print_engine_stats("b4");
    export_obs_json("b4", "BENCH_obs.json").expect("write BENCH_obs.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_explicate, bench_explicate_tuple_rich, report_stats
}
criterion_main!(benches);
