#!/usr/bin/env bash
# Wire-shape golden test for tsexplain_serve (registered as
# `protocol_golden`).
#
# Replays a fixed NDJSON transcript through one serial server in pipe
# mode and compares every response line against the committed golden
# file tests/golden/protocol_transcript.ndjson. The transcript covers
# register, list_datasets, cold / hot / traced explains, recommend, the
# streaming-session lifecycle (open, append, explain, close), stats,
# state, and the error paths (parse_error, unknown_op, not_found,
# bad_request, invalid_query).
#
# Values that depend on time, host or process are masked before the
# comparison, so the golden pins field names, field order, types and
# every deterministic value:
#   - keys ending in "_ms" or "_seconds" (latencies, timings, spans);
#   - git_sha, simd, threads, pointer_bits, max_concurrent (build and
#     host identity, pool size);
#   - keys containing "bytes" (cache costs follow allocator capacity);
#   - trace spans named "other": QueryTrace::Finalize appends one only
#     when a parent's children leave a gap above its epsilon, which is a
#     timing outcome. They are always appended after every real span, so
#     dropping them leaves the other spans' parent indices intact.
#
# Usage: protocol_golden_test.sh /path/to/tsexplain_serve [--update]
#   --update rewrites the golden file from this binary instead of
#   comparing against it.
set -u

SERVE=${1:?usage: protocol_golden_test.sh /path/to/tsexplain_serve [--update]}
MODE=${2:-compare}
GOLDEN="$(cd "$(dirname "$0")" && pwd)/golden/protocol_transcript.ndjson"
TMPDIR_GOLDEN=$(mktemp -d)
trap 'rm -rf "$TMPDIR_GOLDEN"' EXIT

# Three regions over ten buckets, with a regime change at t=5, so the
# explanations and the segmentation are non-trivial.
CSV='date,region,channel,sales\n'
for t in 0 1 2 3 4 5 6 7 8 9; do
  if [ "$t" -lt 5 ]; then east=$((10 + 3 * t)); else east=$((25 - t)); fi
  CSV+="$t,east,web,$east\\n$t,west,store,$((20 - t))\\n$t,north,web,$((5 + (t % 3)))\\n"
done

EXPLAIN='"dataset":"sales","measure":"sales","explain_by":["region","channel"],"k":2'
REQ="$TMPDIR_GOLDEN/requests.ndjson"
{
  echo "{\"op\":\"register\",\"id\":1,\"name\":\"sales\",\"csv\":\"$CSV\",\"time_column\":\"date\",\"measures\":[\"sales\"]}"
  echo "{\"op\":\"register\",\"id\":2,\"name\":\"sales\",\"csv\":\"$CSV\",\"time_column\":\"date\"}"
  echo '{"op":"list_datasets","id":3}'
  # Cold, hot, traced hot, traced cold (m is part of the engine key).
  echo "{\"op\":\"explain\",\"id\":4,$EXPLAIN}"
  echo "{\"op\":\"explain\",\"id\":5,$EXPLAIN}"
  echo "{\"op\":\"explain\",\"id\":6,$EXPLAIN,\"trace\":true}"
  echo "{\"op\":\"explain\",\"id\":7,$EXPLAIN,\"m\":2,\"trace\":true}"
  # A tenant-namespaced explain and its hot repeat.
  echo "{\"op\":\"explain\",\"id\":8,$EXPLAIN,\"tenant\":\"acme\"}"
  echo "{\"op\":\"explain\",\"id\":9,$EXPLAIN,\"tenant\":\"acme\"}"
  echo '{"op":"recommend","id":10,"dataset":"sales","measure":"sales"}'
  echo '{"op":"open_session","id":11,"dataset":"sales","measure":"sales","explain_by":["region"],"k":2}'
  echo '{"op":"explain_session","id":12,"session":1}'
  echo '{"op":"append","id":13,"session":1,"label":"10","rows":[{"dims":["east","web"],"measures":[40]},{"dims":["west","store"],"measures":[9]},{"dims":["north","web"],"measures":[6]}]}'
  echo '{"op":"explain_session","id":14,"session":1}'
  echo '{"op":"explain_session","id":15,"session":1,"trace":true}'
  echo '{"op":"close_session","id":16,"session":1}'
  echo '{"op":"stats","id":17}'
  echo '{"op":"state","id":18}'
  # Error paths.
  echo 'this is not json'
  echo '{"op":"bogus","id":19}'
  echo '{"op":"explain","id":20,"dataset":"ghost"}'
  echo "{\"op\":\"explain\",\"id\":21,$EXPLAIN,\"m\":99}"
  echo "{\"op\":\"explain\",\"id\":22,$EXPLAIN,\"tenant\":\"bad tenant!\"}"
  echo '{"op":"explain_session","id":23,"session":1}'
  echo '{"op":"append","id":24,"session":1,"label":"11","rows":[]}'
  echo '{"op":"register","id":25,"name":"nocsv"}'
  echo '{"op":"stats","id":26}'
  echo '{"op":"shutdown","id":27}'
} >"$REQ"

OUT="$TMPDIR_GOLDEN/responses.ndjson"
if ! "$SERVE" --serial --metrics-history-interval-ms 0 <"$REQ" >"$OUT" \
    2>"$TMPDIR_GOLDEN/serve.err"; then
  echo "FAIL: server exited non-zero" >&2
  cat "$TMPDIR_GOLDEN/serve.err" >&2
  exit 1
fi

MASKED="$TMPDIR_GOLDEN/masked.ndjson"
python3 - "$OUT" >"$MASKED" <<'PYEOF' || { echo "FAIL: masking" >&2; exit 1; }
import json, sys

MASKED_KEYS = {"git_sha", "simd", "threads", "pointer_bits", "max_concurrent"}

def masked(key):
    return (key.endswith("_ms") or key.endswith("_seconds") or
            "bytes" in key or key in MASKED_KEYS)

def mask(value):
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if masked(key):
                out[key] = "<masked>"
            elif key == "trace" and isinstance(item, list):
                out[key] = [mask(s) for s in item if s.get("name") != "other"]
            else:
                out[key] = mask(item)
        return out
    if isinstance(value, list):
        return [mask(item) for item in value]
    return value

for line in open(sys.argv[1]):
    print(json.dumps(mask(json.loads(line)), separators=(",", ":")))
PYEOF

if [ "$MODE" = "--update" ]; then
  mkdir -p "$(dirname "$GOLDEN")"
  cp "$MASKED" "$GOLDEN"
  echo "wrote $GOLDEN ($(wc -l <"$GOLDEN") lines)"
  exit 0
fi

if ! diff -u "$GOLDEN" "$MASKED"; then
  echo "FAIL: wire shape differs from $GOLDEN (diff above: - golden, + now)" >&2
  exit 1
fi
echo "protocol_golden: $(wc -l <"$MASKED") responses match the golden"
