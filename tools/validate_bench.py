#!/usr/bin/env python3
"""Validate and gate benchmark artifacts in CI.

Usage:
    validate_bench.py BENCH_ivm.json [--schema path/to.schema.json]
    validate_bench.py BENCH_server.json

Two layers of checking, dispatched on the artifact's "label" field:

1. Schema: the artifact conforms to the checked-in JSON schema for its
   label (tests/golden/bench_<label>.schema.json by default — the same
   no-dependency JSON-Schema subset as validate_obs.py: type, required,
   properties, additionalProperties, enum, const, minimum, oneOf).
2. Gates, per label:

   * ivm — a maintained view's one-row update must beat re-deriving the
     view from scratch on the large-catalog fixture, and growing the
     catalog must inflate the incremental cost strictly less than it
     inflates full recomputation (per-update cost tracks the delta, not
     the catalog). The published delta must stay small (row-level, not
     a wholesale reset).
   * server — the serving-tier load harness completed every request in
     every phase with zero errors, percentiles are ordered and nonzero
     (p50 <= p95 <= p99), throughput is positive, the server-side
     counters moved (queries served, bytes in both directions, epochs
     published by the write phase), and request pipelining pays (the
     deepest sweep point at depth >= 8 must beat the depth-1 point on
     throughput).

A regression in either layer fails CI here rather than silently
shipping a slower engine.
"""

import argparse
import json
import sys

from validate_obs import check

# The incremental figure is a committed engine write: one asserted row
# plus the view's maintained row. Anything larger means maintenance
# stopped being row-level.
IVM_MAX_DELTA_ROWS = 8


def gate_ivm(path, doc):
    ok = True
    large = doc["figures"]["large"]
    if large["incremental_ns"] >= large["full_ns"]:
        print(
            f"{path}: large: incremental maintenance does not beat full "
            f"recomputation ({large['incremental_ns']} ns >= "
            f"{large['full_ns']} ns)",
            file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"{path}: large: ok (incremental {large['incremental_ns']} ns, "
            f"{large['full_ns'] / large['incremental_ns']:.2f}x faster than full)"
        )
    scaling = doc["scaling"]
    if scaling["incremental_ratio"] >= scaling["full_ratio"]:
        print(
            f"{path}: catalog growth inflates incremental cost as much as "
            f"full recomputation ({scaling['incremental_ratio']:.2f}x >= "
            f"{scaling['full_ratio']:.2f}x) — update cost is tracking the "
            f"catalog, not the delta",
            file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"{path}: scaling: ok (catalog {scaling['catalog_ratio']:.1f}x -> "
            f"incremental {scaling['incremental_ratio']:.2f}x, "
            f"full {scaling['full_ratio']:.2f}x)"
        )
    for name in ("small", "large"):
        delta_rows = doc["figures"][name]["delta_rows"]
        if delta_rows > IVM_MAX_DELTA_ROWS:
            print(
                f"{path}: {name}: published delta has {delta_rows} rows "
                f"(> {IVM_MAX_DELTA_ROWS}) — the one-row write is not being "
                f"maintained row-level",
                file=sys.stderr,
            )
            ok = False
    return ok


SERVER_PHASES = ("writes", "closed", "rate")


def gate_server(path, doc):
    ok = True
    for name in SERVER_PHASES:
        phase = doc["phases"][name]
        if phase["requests"] < 1:
            print(f"{path}: {name}: zero completed requests", file=sys.stderr)
            ok = False
            continue
        if phase["errors"]:
            print(f"{path}: {name}: {phase['errors']} request errors", file=sys.stderr)
            ok = False
        p50, p95, p99 = phase["p50_ns"], phase["p95_ns"], phase["p99_ns"]
        if not (0 < p50 <= p95 <= p99):
            print(
                f"{path}: {name}: percentiles are missing or unordered "
                f"(p50={p50} p95={p95} p99={p99})",
                file=sys.stderr,
            )
            ok = False
        if phase["throughput_rps"] <= 0:
            print(f"{path}: {name}: nonpositive throughput", file=sys.stderr)
            ok = False
        if ok:
            print(
                f"{path}: {name}: ok ({phase['requests']} requests, "
                f"{phase['throughput_rps']:.0f} rps, p50 {p50} ns, p99 {p99} ns)"
            )
    pipeline = doc["pipeline"]
    for point in pipeline:
        name = f"pipeline@{point['depth']}"
        if point["errors"]:
            print(f"{path}: {name}: {point['errors']} request errors", file=sys.stderr)
            ok = False
        p50, p95, p99 = point["p50_ns"], point["p95_ns"], point["p99_ns"]
        if not (0 < p50 <= p95 <= p99):
            print(
                f"{path}: {name}: percentiles are missing or unordered "
                f"(p50={p50} p95={p95} p99={p99})",
                file=sys.stderr,
            )
            ok = False
        else:
            print(
                f"{path}: {name}: ok ({point['requests']} requests, "
                f"{point['throughput_rps']:.0f} rps, burst p50 {p50} ns)"
            )
    shallow = next((p for p in pipeline if p["depth"] == 1), None)
    # The sweep's best deep point must beat depth 1: pipelining has to
    # pay somewhere at depth >= 8 (the deepest point may legitimately
    # oversaturate per-connection serial execution).
    deep = max(
        (p for p in pipeline if p["depth"] >= 8),
        key=lambda p: p["throughput_rps"],
        default=None,
    )
    if shallow is None or deep is None:
        print(
            f"{path}: pipeline sweep must include depth 1 and a depth >= 8 "
            f"(got {[p['depth'] for p in pipeline]})",
            file=sys.stderr,
        )
        ok = False
    elif deep["throughput_rps"] <= shallow["throughput_rps"]:
        print(
            f"{path}: pipelining does not pay: depth {deep['depth']} reached "
            f"{deep['throughput_rps']:.0f} rps <= depth 1 at "
            f"{shallow['throughput_rps']:.0f} rps",
            file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"{path}: pipeline: ok (depth {deep['depth']} at "
            f"{deep['throughput_rps']:.0f} rps, "
            f"{deep['throughput_rps'] / shallow['throughput_rps']:.2f}x depth 1)"
        )
    server = doc["server"]
    total = sum(doc["phases"][n]["requests"] for n in SERVER_PHASES) + sum(
        p["requests"] for p in pipeline
    )
    if server["queries"] < total:
        print(
            f"{path}: server counted {server['queries']} queries but the "
            f"harness completed {total}",
            file=sys.stderr,
        )
        ok = False
    if server["bytes_in"] < 1 or server["bytes_out"] < 1:
        print(f"{path}: no bytes accounted on the wire", file=sys.stderr)
        ok = False
    if server["epoch"] < 1:
        print(f"{path}: the write phase published no epochs", file=sys.stderr)
        ok = False
    return ok


GATES = {"ivm": gate_ivm, "server": gate_server}


def validate(path, schema_path):
    with open(path) as f:
        doc = json.load(f)
    label = doc.get("label")
    if label not in GATES:
        print(f"{path}: unknown artifact label {label!r}", file=sys.stderr)
        return False
    if schema_path is None:
        schema_path = f"tests/golden/bench_{label}.schema.json"
    with open(schema_path) as f:
        schema = json.load(f)
    errors = check(doc, schema, "$")
    if errors:
        for e in errors:
            print(f"{path}: {e}", file=sys.stderr)
        return False
    return GATES[label](path, doc)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("artifact", help="benchmark artifact to validate")
    ap.add_argument(
        "--schema",
        default=None,
        help="schema for the artifact (default: tests/golden/bench_<label>.schema.json)",
    )
    args = ap.parse_args()
    sys.exit(0 if validate(args.artifact, args.schema) else 1)


if __name__ == "__main__":
    main()
