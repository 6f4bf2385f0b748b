#!/usr/bin/env bash
# Self-test for tools/lint_invariants.py: runs the linter against fixture
# trees assembled from tests/lint_fixtures/ and asserts that every rule
# fires (non-zero exit + the right message) and that a clean tree passes.
#
# Usage: tests/lint_selftest.sh  (PYTHON3 env var overrides the
# interpreter; defaults to python3 on PATH)
set -u

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(cd "${SCRIPT_DIR}/.." && pwd)"
LINTER="${REPO_ROOT}/tools/lint_invariants.py"
FIXTURES="${SCRIPT_DIR}/lint_fixtures"
PYTHON3="${PYTHON3:-python3}"

TMPDIR_ROOT="$(mktemp -d)"
trap 'rm -rf "${TMPDIR_ROOT}"' EXIT

failures=0

fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

# run_linter <root>; captures stdout+stderr in ${OUT}, exit in ${CODE}
run_linter() {
  OUT="$("${PYTHON3}" "${LINTER}" --root "$1" 2>&1)"
  CODE=$?
}

# expect_violation <name> <fixture-file> <dest-rel-path> <expected-substr>
# Assembles a one-violation tree, runs the linter, and asserts it exits
# non-zero mentioning the expected rule.
expect_violation() {
  local name="$1" fixture="$2" dest="$3" expected="$4"
  local root="${TMPDIR_ROOT}/${name}"
  mkdir -p "${root}/src" "${root}/tools" "${root}/bench" \
           "$(dirname "${root}/${dest}")"
  cp "${FIXTURES}/${fixture}" "${root}/${dest}"
  run_linter "${root}"
  if [ "${CODE}" -eq 0 ]; then
    fail "${name}: linter exited 0 on a seeded ${expected} violation"
    return
  fi
  if ! printf '%s' "${OUT}" | grep -q "${expected}"; then
    fail "${name}: output did not mention '${expected}': ${OUT}"
    return
  fi
  echo "ok: ${name}"
}

# R1a: raw std::mutex member outside src/common/mutex.h.
expect_violation raw_primitive raw_primitive.h \
  "src/service/raw_primitive.h" "raw-sync-primitive"

# R1b: Mutex member with no annotation user and no allow comment.
expect_violation unguarded_mutex unguarded_mutex.h \
  "src/service/unguarded_mutex.h" "unguarded-mutex"

# R2: TSE_CHECK token in a storage decode file (comments/strings exempt).
expect_violation storage_abort storage_abort.cc \
  "src/storage/storage_abort.cc" "storage-abort"

# R2 must point at the real call, not the comment or string mention.
if printf '%s' "${OUT}" | grep -q "storage-abort.*:8:\|storage-abort.*:9:"; then
  fail "storage_abort: rule fired on a comment/string mention"
else
  echo "ok: storage_abort ignores comments and strings"
fi

# R3: duplicate EmitResult slug across two bench files.
dup_root="${TMPDIR_ROOT}/dup_slug"
mkdir -p "${dup_root}/src" "${dup_root}/tools" "${dup_root}/bench"
cp "${FIXTURES}/dup_slug_a.cc" "${dup_root}/bench/dup_slug_a.cc"
cp "${FIXTURES}/dup_slug_b.cc" "${dup_root}/bench/dup_slug_b.cc"
run_linter "${dup_root}"
if [ "${CODE}" -eq 0 ]; then
  fail "dup_slug: linter exited 0 on a duplicated bench slug"
elif ! printf '%s' "${OUT}" | grep -q "duplicate-bench-slug"; then
  fail "dup_slug: output did not mention 'duplicate-bench-slug': ${OUT}"
elif printf '%s' "${OUT}" | grep -q "fixture.len\|fixture.prefix"; then
  fail "dup_slug: dynamic slugs must be skipped: ${OUT}"
else
  echo "ok: dup_slug"
fi

# R4: duplicate metric registration literal across two source files.
dup_metric_root="${TMPDIR_ROOT}/dup_metric"
mkdir -p "${dup_metric_root}/src" "${dup_metric_root}/tools" \
         "${dup_metric_root}/bench"
cp "${FIXTURES}/dup_metric_a.cc" "${dup_metric_root}/src/dup_metric_a.cc"
cp "${FIXTURES}/dup_metric_b.cc" "${dup_metric_root}/src/dup_metric_b.cc"
run_linter "${dup_metric_root}"
if [ "${CODE}" -eq 0 ]; then
  fail "dup_metric: linter exited 0 on a duplicated metric name"
elif ! printf '%s' "${OUT}" | grep -q "duplicate-metric-name"; then
  fail "dup_metric: output did not mention 'duplicate-metric-name': ${OUT}"
elif printf '%s' "${OUT}" | grep -q "fixture.shard"; then
  fail "dup_metric: dynamic metric names must be skipped: ${OUT}"
elif printf '%s' "${OUT}" | grep -q "fixture.unique"; then
  fail "dup_metric: single-site names must not fire: ${OUT}"
else
  echo "ok: dup_metric"
fi

# R5: decoded count sizing a resize with no preceding bound check.
expect_violation unbounded_alloc unbounded_alloc.cc \
  "src/storage/unbounded_alloc.cc" "unbounded-decode-alloc"

# R5 must fire on exactly one site: the bounded/constant/input-derived
# allocations in the same fixture must stay quiet.
if [ "$(printf '%s\n' "${OUT}" | grep -c "unbounded-decode-alloc")" -ne 1 ]; then
  fail "unbounded_alloc: expected exactly one R5 violation: ${OUT}"
else
  echo "ok: unbounded_alloc flags only the unchecked site"
fi

# R6: discarded ByteReader status in a storage decode.
expect_violation unchecked_reader unchecked_reader.cc \
  "src/storage/unchecked_reader.cc" "unchecked-bytereader"

# R6 must not flag assigned or tested reader calls.
if [ "$(printf '%s\n' "${OUT}" | grep -c "unchecked-bytereader")" -ne 1 ]; then
  fail "unchecked_reader: expected exactly one R6 violation: ${OUT}"
else
  echo "ok: unchecked_reader flags only the discarded call"
fi

# R7: a TrackHistogramPercentiles name with no GetHistogram site.
expect_violation untracked_history untracked_history.cc \
  "src/untracked_history.cc" "unregistered-history-metric"

# R7 must fire on exactly the never-registered name: the registered and
# dynamically built trackings in the same fixture must stay quiet.
if [ "$(printf '%s\n' "${OUT}" | grep -c "unregistered-history-metric")" -ne 1 ]; then
  fail "untracked_history: expected exactly one R7 violation: ${OUT}"
elif ! printf '%s' "${OUT}" | grep -q "fixture.never.registered"; then
  fail "untracked_history: wrong name flagged: ${OUT}"
elif printf '%s' "${OUT}" | grep -q "fixture.tracked.ms\|fixture.shard"; then
  fail "untracked_history: registered/dynamic names must not fire: ${OUT}"
else
  echo "ok: untracked_history flags only the unregistered name"
fi

# R8: a pipeline file outside tsexplain.cc building its own DP.
expect_violation forked_engine forked_engine.cc \
  "src/pipeline/forked_engine.cc" "forked-engine"

# R8 must fire on exactly the DP construction: members, references,
# Options and comment/string mentions in the same fixture stay quiet.
if [ "$(printf '%s\n' "${OUT}" | grep -c "forked-engine")" -ne 1 ]; then
  fail "forked_engine: expected exactly one R8 violation: ${OUT}"
elif ! printf '%s' "${OUT}" | grep -q "forked_engine.cc:21:"; then
  fail "forked_engine: wrong line flagged: ${OUT}"
else
  echo "ok: forked_engine flags only the DP construction"
fi

# R9: the op table and docs/SERVICE.md's Ops section disagree both ways.
drift_root="${TMPDIR_ROOT}/op_doc_drift"
mkdir -p "${drift_root}/src/service" "${drift_root}/tools" \
         "${drift_root}/bench" "${drift_root}/docs"
cp "${FIXTURES}/op_table_drift.cc" "${drift_root}/src/service/protocol.cc"
cp "${FIXTURES}/op_doc_drift.md" "${drift_root}/docs/SERVICE.md"
run_linter "${drift_root}"
if [ "${CODE}" -eq 0 ]; then
  fail "op_doc_drift: linter exited 0 on a drifted op table"
elif [ "$(printf '%s\n' "${OUT}" | grep -c "op-doc-drift")" -ne 2 ]; then
  fail "op_doc_drift: expected exactly two R9 violations: ${OUT}"
elif ! printf '%s' "${OUT}" | grep -q "protocol.cc:.*'beta'"; then
  fail "op_doc_drift: undocumented table op not flagged: ${OUT}"
elif ! printf '%s' "${OUT}" | grep -q "SERVICE.md:.*\*\*delta\*\*"; then
  fail "op_doc_drift: documented non-op not flagged: ${OUT}"
else
  echo "ok: op_doc_drift flags both directions"
fi

# R10: a pipeline file including a service header.
expect_violation service_include service_include.cc \
  "src/pipeline/service_include.cc" "service-include"

# R10 must fire on exactly the include line: the other layer's header,
# the commented-out include and the string stay quiet.
if [ "$(printf '%s\n' "${OUT}" | grep -c "service-include")" -ne 1 ]; then
  fail "service_include: expected exactly one R10 violation: ${OUT}"
elif ! printf '%s' "${OUT}" | grep -q "service_include.cc:9:"; then
  fail "service_include: wrong line flagged: ${OUT}"
else
  echo "ok: service_include flags only the service include"
fi

# Clean tree: annotated + allow-listed mutexes, unique slugs — exit 0.
clean_root="${TMPDIR_ROOT}/clean"
mkdir -p "${clean_root}/src/service" "${clean_root}/tools" \
         "${clean_root}/bench" "${clean_root}/src/storage"
cp "${FIXTURES}/clean_guarded.h" "${clean_root}/src/service/clean_guarded.h"
cp "${FIXTURES}/dup_slug_a.cc" "${clean_root}/bench/dup_slug_a.cc"
cp "${FIXTURES}/dup_metric_a.cc" "${clean_root}/src/dup_metric_a.cc"
cp "${FIXTURES}/clean_decode.cc" "${clean_root}/src/storage/clean_decode.cc"
cp "${FIXTURES}/service_include.cc" \
   "${clean_root}/src/service/service_include.cc"
run_linter "${clean_root}"
if [ "${CODE}" -ne 0 ]; then
  fail "clean: linter flagged a clean tree: ${OUT}"
else
  echo "ok: clean tree passes"
fi

# The real repository must be clean too (this is what the lint_invariants
# ctest entry checks; asserting it here keeps the selftest self-contained).
run_linter "${REPO_ROOT}"
if [ "${CODE}" -ne 0 ]; then
  fail "repo: lint_invariants flags the committed tree: ${OUT}"
else
  echo "ok: committed tree passes"
fi

if [ "${failures}" -ne 0 ]; then
  echo "lint_selftest: ${failures} failure(s)" >&2
  exit 1
fi
echo "lint_selftest: all checks passed"
