#!/usr/bin/env python3
"""Compare BENCH_*.json captures (tools/run_benches.sh) layer by layer.

Usage:
  tools/bench_diff.py --before A.json [A2.json ...] --after B.json [B2.json ...]

Every "BENCH_RESULT <name> <ms>" line a capture harvested is one sample of
<name>, and every bench's wall clock is one sample of "<bench>.wall_ms".
A name's samples on one side are all its occurrences across that side's
files: repeated runs (several captures, or a bench that emits a name more
than once) give each side a spread. The noise band of a name is the
larger relative half-range, (max - min) / 2 / median, of the two sides.
A change beyond the band is "faster" or "slower"; within it, "noise".
With a single sample on both sides there is no band, and the verdict is
"unknown" -- capture more runs.

Prints one row per name: before median, after median, change, band,
verdict. Exit status is 0, or 2 on a usage or input error. Needs only the
Python standard library.
"""

import argparse
import json
import statistics
import sys


def samples(paths):
    """name -> list of ms samples over the captures in `paths`."""
    out = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                capture = json.load(f)
        except (OSError, ValueError) as e:
            sys.stderr.write("bench_diff: cannot read %s: %s\n" % (path, e))
            sys.exit(2)
        for bench in capture.get("benches", []):
            if bench.get("skipped"):
                continue
            name = bench.get("bench", "?")
            if isinstance(bench.get("wall_clock_s"), (int, float)):
                out.setdefault(name + ".wall_ms", []).append(
                    1000.0 * bench["wall_clock_s"])
            for result in bench.get("results") or []:
                if isinstance(result.get("ms"), (int, float)):
                    out.setdefault(result["name"], []).append(result["ms"])
    return out


def half_range(values):
    """Relative half-range of repeated samples; None for a single one."""
    if len(values) < 2:
        return None
    mid = statistics.median(values)
    if mid == 0:
        return 0.0
    return (max(values) - min(values)) / 2.0 / abs(mid)


def compare(before, after):
    """One row per name: medians, change, noise band and verdict."""
    rows = []
    for name in sorted(set(before) | set(after)):
        row = {"name": name, "before_ms": None, "after_ms": None,
               "change": None, "band": None, "verdict": "missing"}
        if name in before:
            row["before_ms"] = statistics.median(before[name])
        if name in after:
            row["after_ms"] = statistics.median(after[name])
        if name in before and name in after:
            bands = [b for b in (half_range(before[name]),
                                 half_range(after[name])) if b is not None]
            row["band"] = max(bands) if bands else None
            if row["before_ms"]:
                row["change"] = row["after_ms"] / row["before_ms"] - 1.0
            if row["band"] is None or row["change"] is None:
                row["verdict"] = "unknown"
            elif row["change"] < -row["band"]:
                row["verdict"] = "faster"
            elif row["change"] > row["band"]:
                row["verdict"] = "slower"
            else:
                row["verdict"] = "noise"
        rows.append(row)
    return rows


def fmt(value, pct=False):
    if value is None:
        return "-"
    return "%+.1f%%" % (100.0 * value) if pct else "%.3f" % value


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json captures layer by layer.")
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)

    rows = compare(samples(args.before), samples(args.after))
    width = max([len("name")] + [len(r["name"]) for r in rows])
    print("%-*s %12s %12s %9s %8s  %s" % (
        width, "name", "before_ms", "after_ms", "change", "band", "verdict"))
    for r in rows:
        band = "-" if r["band"] is None else "%.1f%%" % (100 * r["band"])
        print("%-*s %12s %12s %9s %8s  %s" % (
            width, r["name"], fmt(r["before_ms"]), fmt(r["after_ms"]),
            fmt(r["change"], pct=True), band, r["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
