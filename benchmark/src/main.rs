//! `hrdm-benchmark`: one seeded, layer-attributed benchmark for hrdm.
//!
//! ```text
//! hrdm-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! hrdm-benchmark --list
//! ```
//!
//! One invocation runs one workload in this (fresh) process — its own
//! interner, caches and metrics registry — checks its outputs, prints
//! every metric as `workload metric value unit`, and ends with one JSON
//! line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `run.sh` builds and loops over workloads.

mod gen;
mod harness;
mod metrics;
mod openloop;
mod span;
mod stats;
mod sys;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use harness::Outcome;
use metrics::{END_TO_END, PER_LAYER};
use workloads::derive::EmbeddedDerive;
use workloads::durable::{DurableRestart, DurableWrite, ReplicaCatchup};
use workloads::sharded::ShardedMixed;
use workloads::wire::{MixedOpen, PointRead, Wire};

/// The workloads, in the order `run.sh` runs them.
const WORKLOADS: [&str; 7] = [
    "wire_point_read",
    "wire_mixed_open",
    "embedded_derive",
    "durable_write",
    "durable_restart",
    "replica_catchup",
    "sharded_mixed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: hrdm-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] | --list";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1989,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--list" => return Ok(None),
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(args))
}

/// The run record: everything needed to tell two runs apart.
fn run_record(args: &Args, outcome: &Outcome) -> String {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"profile\": \"{}\", \"obs\": true, \
         \"output_hash\": \"{:016x}\", \"attempted\": {}, \"failed\": {},\n \"rounds\": [\n  {}\n ],\n \"metrics\": {{",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        sys::nproc(),
        env("HRDM_BENCH_RUSTC"),
        env("HRDM_BENCH_COMMIT"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        outcome.output_hash,
        outcome.attempted,
        outcome.failed,
        outcome.rounds.join(",\n  "),
    );
    for (k, (name, value)) in outcome.metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n  \"{name}\": {value}");
    }
    out.push_str("\n }}\n");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", WORKLOADS.join("\n"));
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "wire_point_read" => harness::run::<Wire<PointRead>>,
        "wire_mixed_open" => harness::run::<Wire<MixedOpen>>,
        "embedded_derive" => harness::run::<EmbeddedDerive>,
        "durable_write" => harness::run::<DurableWrite>,
        "durable_restart" => harness::run::<DurableRestart>,
        "replica_catchup" => harness::run::<ReplicaCatchup>,
        "sharded_mixed" => harness::run::<ShardedMixed>,
        other => unreachable!("{other} passed the argument check"),
    };
    let outcome = run(args.seed, args.seconds, args.trace);

    let record = sys::out_dir().join(format!(
        "result-{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    std::fs::write(&record, run_record(&args, &outcome)).expect("write the run record");

    // Every metric, by name, for people; then the one line the driver
    // reads, holding exactly the metrics this kind of run is for.
    let known = |name: &str| END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name);
    if let Some(stray) = outcome.metrics.keys().find(|name| !known(name)) {
        panic!("{stray} is measured but missing from the metric tables");
    }
    let reported: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for (k, (name, unit)) in reported.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or_else(|| {
            assert!(
                args.trace,
                "{name}: every workload measures every end-to-end metric"
            );
            0.0
        });
        println!("{} {name} {value} {unit}", args.workload);
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{} output_hash {:016x} hash",
        args.workload, outcome.output_hash
    );
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} operations or checks failed the oracle",
            args.workload, outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
