#!/usr/bin/env bash
# Check that the benchmark agrees with itself and with BENCHMARK.json.
#
#   benchmark/check.sh                 # A/A: the full benchmark twice, same build
#   benchmark/check.sh --seeds 10      # spread: N untraced runs per workload, one seed each
#   benchmark/check.sh --workload NAME # either mode, on one workload
#
# A/A runs every workload untraced and traced, twice, and fails if any
# end-to-end metric of the second set is worse than the first by more
# than its bound in BENCHMARK.json; it prints the per-metric A/B table
# and the spread between rounds of each run. The spread mode does what
# the driver does before it accepts the benchmark: the distance between
# the first and third quartile of each end-to-end metric over N seeds,
# as a share of the median, must stay within the metric's bound
# (setup_s is reported but exempt). Both modes also check that the
# workloads, metrics and units printed are exactly those BENCHMARK.json
# names. A workload the binary lists but BENCHMARK.json does not is run
# and shown the same way, marked "ungated", and cannot fail the check on
# its timings. Timings are reported as measured; each run also times a
# fixed kernel of the benchmark's own (bench.calibration_ms), and the
# tables show it so that a machine that drifted between two sets can be
# told from a program that changed. Exit code 0 only if everything holds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml"

exec python3 - "$here" "$@" <<'PY'
import argparse, json, os, statistics, subprocess, sys

here = sys.argv[1]
ap = argparse.ArgumentParser(prog="check.sh")
ap.add_argument("--seeds", type=int, default=0, help="spread mode: runs (seeds) per workload")
ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
ap.add_argument("--seconds", type=int, default=None, help="override run_seconds")
args = ap.parse_args(sys.argv[2:])

spec = json.load(open(os.path.join(here, "..", "BENCHMARK.json")))
seconds = args.seconds or spec["run_seconds"]
gated = [w["name"] for w in spec["workloads"]]
end_to_end = {m["name"]: m for m in spec["end_to_end"]}
per_layer = {m["name"]: m for m in spec["per_layer"]}
problems = []


def run(workload, seed, trace):
    """One run through run.sh; returns the parsed result line."""
    cmd = ["bash", os.path.join(here, "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        problems.append(f"{workload} seed {seed} trace {trace}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload} seed {seed} trace {trace}: {result['failed']} failed of {result['attempted']}")
    # Names and units, both ways, against BENCHMARK.json.
    want = per_layer if trace else end_to_end
    got = result["metrics"]
    for name in want.keys() - got.keys():
        problems.append(f"{workload} trace {trace}: {name} is in BENCHMARK.json but was not printed")
    for name in got.keys() - want.keys():
        problems.append(f"{workload} trace {trace}: {name} was printed but is not in BENCHMARK.json")
    for name in got.keys() & want.keys():
        if got[name]["unit"] != want[name]["unit"]:
            problems.append(f"{workload}: {name} printed in {got[name]['unit']}, declared in {want[name]['unit']}")
    # The human-readable lines carry the same names.
    printed = {l.split()[1]: l.split()[2] for l in lines[:-1] if l.startswith(workload + " ")}
    for name in want.keys() - printed.keys():
        problems.append(f"{workload} trace {trace}: no `workload metric value unit` line for {name}")
    result["output_hash"] = printed.get("output_hash")
    result["calibration_ms"] = record(workload, trace)["metrics"]["bench.calibration_ms"]
    return result


def record(workload, trace):
    """The run record the latest run of `workload` left behind."""
    out = os.environ.get("HRDM_BENCH_OUT", os.path.join(here, "target"))
    return json.load(open(os.path.join(out, f"result-{workload}-trace{trace}.json")))


def round_spread(workload, trace):
    """Per-round (max - min) / median of ops_per_s from the run record."""
    rates = [r["ops_per_s"] for r in record(workload, trace)["rounds"] if not r["traced"]]
    return (max(rates) - min(rates)) / statistics.median(rates), len(rates)


def worse_by(metric, a, b):
    """How much worse b is than a, as a share of a (negative = better)."""
    change = (b - a) / a
    return change if end_to_end[metric]["better"] == "lower" else -change


listed = subprocess.run([os.path.join(os.environ["CARGO_TARGET_DIR"], "release", "hrdm-benchmark"), "--list"],
                        capture_output=True, text=True).stdout.split()
for w in gated:
    if w not in listed:
        problems.append(f"BENCHMARK.json names workload {w}, which the binary does not list")
selected = args.workload or listed


def timing_problem(workload, message):
    """A timing out of bounds fails the check only on a gated workload."""
    if workload in gated:
        problems.append(message)
        return ""
    return "ungated: "


if args.seeds:
    print(f"spread over {args.seeds} seeds, {seconds} s runs: (Q3 - Q1) / median per end-to-end metric")
    print(f"{'workload':<17}{'metric':<22}{'median':>14}{'spread':>9}{'bound':>7}  verdict")
    for w in selected:
        results = [run(w, 1989 + k, 0) for k in range(args.seeds)]
        results = [r for r in results if r]
        for name, m in end_to_end.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            if name == "setup_s":
                verdict = "exempt"
            elif spread <= m["bound"] / 3:
                verdict = "ok"
            elif spread <= m["bound"]:
                verdict = "ok (over a third of the bound)"
            else:
                verdict = timing_problem(w, f"{w} {name}: spread {spread:.3f} exceeds bound {m['bound']}") + "TOO WIDE"
            print(f"{w:<17}{name:<22}{med:>14.4f}{spread:>9.4f}{m['bound']:>7}  {verdict}")
        kernel = [r["calibration_ms"] for r in results]
        print(f"{w:<17}{'(calibration kernel)':<22}{statistics.median(kernel):>14.4f}  from {min(kernel):.1f} to {max(kernel):.1f} ms over the runs")
else:
    sets = []
    for label in "AB":
        runs = {}
        for w in selected:
            runs[w] = (run(w, 1989, 0), run(w, 1989, 1))
            if runs[w][0]:
                spread, n = round_spread(w, 0)
                print(f"set {label} {w}: {n} untraced rounds, ops_per_s (max - min) / median between rounds = {spread:.3f}")
        sets.append(runs)
    print()
    print(f"{'workload':<17}{'metric':<22}{'A':>14}{'B':>14}{'B worse by':>12}{'bound':>7}  verdict")
    for w in selected:
        a, b = sets[0][w][0], sets[1][w][0]
        if not (a and b):
            continue
        for name, m in end_to_end.items():
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            worse = worse_by(name, va, vb)
            verdict = "ok"
            if worse > m["bound"]:
                verdict = timing_problem(w, f"{w} {name}: B is worse than A by {worse:.3f}, bound {m['bound']}") + "REGRESSED"
            print(f"{w:<17}{name:<22}{va:>14.4f}{vb:>14.4f}{worse:>12.4f}{m['bound']:>7}  {verdict}")
        ka, kb = a["calibration_ms"], b["calibration_ms"]
        print(f"{w:<17}{'(calibration kernel)':<22}{ka:>14.4f}{kb:>14.4f}{(kb - ka) / ka:>12.4f}         the machine, not the program")
        # Same seed, same operations: traced or not, first set or
        # second, every run must have produced the same outputs.
        hashes = {r["output_hash"] for s in sets for r in s[w] if r}
        if len(hashes) != 1:
            problems.append(f"{w}: runs of one seed disagree on output_hash: {sorted(hashes)}")

print()
if problems:
    print("FAILED:")
    for p in problems:
        print("  " + p)
    sys.exit(1)
print("check passed")
PY
