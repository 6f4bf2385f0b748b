#!/usr/bin/env python3
"""ctest for tools/bench_diff.py against two fixture captures.

Usage: bench_diff_test.py TOOL BEFORE.json AFTER.json

The fixtures repeat each layer three times per capture, so every layer
has a noise band: registry_build moves well beyond its band (faster),
ca stays inside it (noise), mask moves beyond it (slower), a layer only
the before capture has is missing, and the bench wall clock, one sample
a side, has no band (unknown). The verdicts are checked on the tool's
compare() rows; the command line is checked for its table and its exit
status on an unreadable capture.
"""

import importlib.util
import subprocess
import sys

tool, before, after = sys.argv[1:4]

spec = importlib.util.spec_from_file_location("bench_diff", tool)
bench_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_diff)

failures = []
rows = {r["name"]: r for r in bench_diff.compare(
    bench_diff.samples([before]), bench_diff.samples([after]))}
want = {
    "layers.registry_build": "faster",
    "layers.ca": "noise",
    "layers.mask": "slower",
    "layers.retired": "missing",
    "bench_layers.wall_ms": "unknown",
}
for name, verdict in want.items():
    got = rows.get(name, {}).get("verdict")
    if got != verdict:
        failures.append("%s: verdict %r, want %r" % (name, got, verdict))
if set(rows) != set(want):
    failures.append("names %s, want %s" % (sorted(rows), sorted(want)))
if abs(rows["layers.registry_build"]["change"] + 0.20) > 1e-9:
    failures.append("registry_build change %r" %
                    rows["layers.registry_build"]["change"])
if abs(rows["layers.ca"]["band"] - 0.04) > 1e-9:
    failures.append("ca band %r" % rows["layers.ca"]["band"])


def run(*args):
    return subprocess.run([sys.executable, tool] + list(args),
                          capture_output=True, text=True)


result = run("--before", before, "--after", after)
if result.returncode != 0:
    failures.append("exit %d: %s" % (result.returncode, result.stderr))
mask_rows = [line for line in result.stdout.splitlines()
             if line.startswith("layers.mask ")]
if len(mask_rows) != 1 or not mask_rows[0].endswith("slower"):
    failures.append("table output lacks the slower mask row:\n" +
                    result.stdout)
if run("--before", "/nonexistent.json", "--after", after).returncode != 2:
    failures.append("unreadable capture did not exit 2")

for f in failures:
    print("FAIL:", f, file=sys.stderr)
sys.exit(1 if failures else 0)
