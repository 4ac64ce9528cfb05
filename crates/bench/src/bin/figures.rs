//! Print every worked-figure reproduction (EX1–EX12 in DESIGN.md), the
//! EXPLAIN renderings of the worked queries, and the per-node TRACE
//! report on both engines, followed by the engine counters the run
//! accumulated.
//!
//! Run with `cargo run -p hrdm-bench --bin figures`. The reports come
//! from [`hrdm_bench::figures`] so the golden tests in
//! `tests/paper_scenarios.rs` snapshot exactly what this binary prints.
//! The stats trailer goes through the stable-field renderer (counters,
//! no wall times) so two runs diff cleanly; its row/node counters are
//! where the explicate/select fusion's row reduction shows up
//! engine-wide.
//!
//! Export flags:
//!
//! * `--chrome-trace PATH` — write the whole run's span tree as a
//!   Chrome `chrome://tracing` / Perfetto JSON file;
//! * `--obs-json PATH` — write the metrics registry (counters, gauges,
//!   latency quantiles) as `BENCH_obs.json`-style JSON.

fn main() {
    let mut obs_json: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--obs-json" => obs_json = Some(args.next().expect("--obs-json needs a path")),
            "--chrome-trace" => {
                chrome = Some(args.next().expect("--chrome-trace needs a path"));
            }
            other => {
                eprintln!("unknown flag {other} (known: --obs-json PATH, --chrome-trace PATH)");
                std::process::exit(2);
            }
        }
    }

    hrdm_obs::metrics::reset_all();
    let ((), trace) = hrdm_obs::trace::capture("figures", || {
        print!("{}", hrdm_bench::figures::report());
        print!("{}", hrdm_bench::figures::explain_report());
        print!("{}", hrdm_bench::figures::trace_report());
    });
    println!(
        "\nengine stats for this run:\n{}",
        hrdm_core::stats::snapshot().render_stable()
    );

    if let Some(path) = chrome {
        std::fs::write(&path, hrdm_obs::chrome::render(&trace)).expect("write chrome trace");
        eprintln!("chrome trace written to {path}");
    }
    if let Some(path) = obs_json {
        hrdm_bench::fixtures::export_obs_json("figures", &path).expect("write obs json");
        eprintln!("metrics registry written to {path}");
    }
}
