#!/usr/bin/env python3
"""Compare a bench run's BENCH_*.json against a committed baseline.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [--threshold 0.25]
                  [--metrics wall_ms,...]

Both files use the BenchJsonWriter shape (bench/bench_util.h):

    {"bench": "...", "results": [
        {"name": ..., "wall_ms": ..., "counters": {...}, "config": {...}}]}

Results are matched by name. For every time-like metric — `wall_ms` plus
any counter ending in `_ms` — the run regresses when

    current > baseline * (1 + threshold)

(lower is better; the default threshold is 25%). Counters that are not
time-like (pair counts, speedup ratios) are reported but do not gate
unless named in --gate, so a machine-speed difference between the
baseline host and CI cannot fail the diff through a derived ratio twice;
deterministic work counters (e.g. pairs checked) are good --gate
candidates precisely because they are machine-independent. A baseline
result missing from the current run fails, as does a baseline counter
missing from the current run (reported as "counter missing from current
run", never a traceback); a new result in the current run is reported
and passes (refresh the baseline to start gating it).

Zero baselines are legitimate (e.g. detect_ops=0 on a warm-recovery
leg): base == 0 and cur == 0 passes with ratio 1.0 and never prints an
infinite ratio. base == 0 with cur > 0 fails when the counter is named
in --gate (a deterministic work count that was zero and is not any more
is a behaviour change, whatever the threshold); for any other metric,
time-like ones included, it is a "new metric" informational line.

Exit status: 0 = no regression, 1 = regression or shape error.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list):
        sys.exit(f"bench_diff: {path} is not a BenchJsonWriter file")
    by_name = {}
    for result in doc["results"]:
        if not isinstance(result, dict) or "name" not in result:
            sys.exit(f"bench_diff: {path} has a result without a name")
        by_name[result["name"]] = result
    return doc.get("bench", "?"), by_name


def metrics_of(result, selected, gated):
    """Yield (metric, value, gates) for one result."""
    out = [("wall_ms", float(result.get("wall_ms", 0.0)), True)]
    for key, value in sorted(result.get("counters", {}).items()):
        out.append((key, float(value), key.endswith("_ms") or key in gated))
    if selected is not None:
        out = [(k, v, g) for k, v, g in out if k in selected]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed slowdown fraction (default 0.25)")
    parser.add_argument("--metrics", default=None,
                        help="comma-separated metric allowlist "
                             "(default: every time-like metric)")
    parser.add_argument("--gate", default=None,
                        help="comma-separated extra counters to gate "
                             "(lower is better), e.g. deterministic "
                             "work counts")
    args = parser.parse_args()

    selected = None
    if args.metrics is not None:
        selected = {m.strip() for m in args.metrics.split(",") if m.strip()}
    gated = set()
    if args.gate is not None:
        gated = {m.strip() for m in args.gate.split(",") if m.strip()}

    base_bench, base = load(args.baseline)
    cur_bench, cur = load(args.current)
    if base_bench != cur_bench:
        print(f"bench_diff: note: comparing bench '{base_bench}' "
              f"against '{cur_bench}'")

    regressions = []
    print(f"{'result':<24} {'metric':<20} {'baseline':>12} {'current':>12} "
          f"{'ratio':>8}  gate")
    for name, base_result in sorted(base.items()):
        cur_result = cur.get(name)
        if cur_result is None:
            regressions.append(f"{name}: missing from current run")
            continue
        for metric, base_value, gates in metrics_of(base_result, selected,
                                                    gated):
            cur_counters = cur_result.get("counters")
            if not isinstance(cur_counters, dict):
                cur_counters = {}
            cur_value = None
            if metric == "wall_ms":
                cur_value = float(cur_result.get("wall_ms", 0.0))
            elif metric in cur_counters:
                try:
                    cur_value = float(cur_counters[metric])
                except (TypeError, ValueError):
                    cur_value = None
            if cur_value is None:
                regressions.append(
                    f"{name}/{metric}: counter missing from current run")
                print(f"{name:<24} {metric:<20} {base_value:>12.3f} "
                      f"{'-':>12} {'-':>8}  MISSING")
                continue
            if base_value == 0.0:
                # A zero baseline is legitimate (e.g. detect_ops=0 on a
                # warm-recovery leg). 0 -> 0 is a clean pass; 0 -> nonzero
                # fails a --gate counter and is informational otherwise.
                if cur_value == 0.0:
                    print(f"{name:<24} {metric:<20} {base_value:>12.3f} "
                          f"{cur_value:>12.3f} {1.0:>7.2f}x  "
                          f"{'time' if gates else 'info'}")
                elif metric in gated:
                    print(f"{name:<24} {metric:<20} {base_value:>12.3f} "
                          f"{cur_value:>12.3f} {'new':>8}  FAIL")
                    regressions.append(
                        f"{name}/{metric}: 0 -> {cur_value:.3f} "
                        f"(gated counter with a zero baseline)")
                else:
                    print(f"{name:<24} {metric:<20} {base_value:>12.3f} "
                          f"{cur_value:>12.3f} {'new':>8}  info "
                          f"(new metric, not gated)")
                continue
            ratio = cur_value / base_value
            bad = gates and cur_value > base_value * (1.0 + args.threshold)
            print(f"{name:<24} {metric:<20} {base_value:>12.3f} "
                  f"{cur_value:>12.3f} {ratio:>7.2f}x  "
                  f"{'FAIL' if bad else ('time' if gates else 'info')}")
            if bad:
                regressions.append(
                    f"{name}/{metric}: {base_value:.3f} -> {cur_value:.3f} "
                    f"({(ratio - 1.0) * 100:.0f}% slower, "
                    f"threshold {args.threshold * 100:.0f}%)")
    for name in sorted(set(cur) - set(base)):
        print(f"{name:<24} (new result, not gated)")

    if regressions:
        print("\nbench_diff: REGRESSIONS:")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print("\nbench_diff: OK (no time-like metric regressed "
          f">{args.threshold * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
