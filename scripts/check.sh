#!/usr/bin/env bash
# Local gate mirroring CI: warnings-as-errors build, full test suite, and
# (when the tool is installed) clang-tidy over src/, tests/ and bench/.
# Exits non-zero on the first failure.
#
#   scripts/check.sh          full gate (build + ctest + clang-tidy)
#   scripts/check.sh --lint   build pietql_lint and run it over the
#                             seeded-defect corpus in tests/lint_corpus/
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-check}"
JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

echo "== grep gates =="
# Moft::AllSamples was demoted to a test helper in the block-store
# refactor: whole-table row copies defeat zonemap skipping and force cold
# blocks to decode, so no query path under src/ may regain a call site.
if grep -rn "AllSamples(" src/; then
  echo "error: AllSamples is test-only (tests/moving_test_util.h);" \
       "query paths must iterate Moft::Blocks()" >&2
  exit 1
fi
# Time-series rings belong to the telemetry sampler: every consumer reads
# windows through TelemetrySampler (Series/WindowDelta), so ring capacity
# and eviction stay one implementation. No code outside src/obs/ may
# construct a MetricRing directly.
if grep -rn "MetricRing(" --include='*.cc' --include='*.h' --include='*.cpp' \
     src/ bench/ examples/ | grep -v '^src/obs/'; then
  echo "error: MetricRing is constructed only by src/obs/ (the telemetry" \
       "sampler); consume series through obs::TelemetrySampler" >&2
  exit 1
fi
# The estimator's soundness contract (DESIGN.md §16) holds because every
# ResourceEstimate is derived by the abstract interpretation in
# src/analysis/estimate/ — a hand-built estimate would dodge the
# calibration gate. Consumers go through Evaluator::EstimateQuery or the
# corpus harness; passing estimates around (Result<ResourceEstimate>,
# const refs) stays legal, constructing one does not.
if grep -rEn "ResourceEstimate[[:space:]]*[{(]" \
     --include='*.cc' --include='*.h' --include='*.cpp' \
     src/ tests/ bench/ examples/ | grep -v '^src/analysis/estimate/'; then
  echo "error: ResourceEstimate is constructed only inside" \
       "src/analysis/estimate/; obtain estimates via" \
       "Evaluator::EstimateQuery or lint::EstimateForCase" >&2
  exit 1
fi

# Both executors (QueryEngine and the Piet-QL evaluator) build region C
# through the shared scan operators in src/core/scan.{h,cc}: the ordered-
# chunk collector and the per-object trajectory visitor. Neither may fan
# out or build trajectories on its own again. (The aggregate cache's build
# fan-out in src/core/aggcache/ is not a region-C scan.)
if grep -n -E "TrajectorySample::FromSpan\(|parallel::OrderedReduce" \
     src/core/engine.cc src/core/pietql/*; then
  echo "error: QueryEngine and the Piet-QL evaluator reach FromSpan and" \
       "OrderedReduce only through src/core/scan.{h,cc}" >&2
  exit 1
fi

# Kernel choice lives in the region-C operators of src/core/scan.{h,cc}:
# the front-ends pass row sources and emit callbacks, and never pick the
# batch point-in-polygon tiles, the leg prefilter or the window ranges
# themselves.
if grep -n -E "TileGatherer|\.Batchers\(|AnyLegIntersects|SamplesBetween\(" \
     src/core/engine.cc src/core/pietql/*; then
  echo "error: QueryEngine and the Piet-QL evaluator choose no kernel;" \
       "use the region-C operators of src/core/scan.h" >&2
  exit 1
fi

# Lint, rewrite and estimate share one static plan analysis
# (src/analysis/plan_facts.{h,cc}, DESIGN.md §11): the value comparison,
# number rendering, layer resolution and the geo satisfying-set flow (its
# R-tree CandidatesInBox loop) are defined there and nowhere else. The
# estimator bounds the plan it is handed and never rewrites on its own.
if grep -rnE "^[A-Za-z].*[ *&](CompareValues|FormatNumber|ResolveLayer)\(" \
     --include='*.cc' --include='*.h' src/ |
     grep -v '^src/analysis/plan_facts\.'; then
  echo "error: CompareValues, FormatNumber and ResolveLayer are defined" \
       "only in src/analysis/plan_facts.{h,cc}" >&2
  exit 1
fi
if grep -rn "CandidatesInBox" src/analysis/ |
     grep -v '^src/analysis/plan_facts\.cc:'; then
  echo "error: the geo satisfying-set flow lives in" \
       "src/analysis/plan_facts.cc; read it through AnalyzePlan" >&2
  exit 1
fi
if grep -rn "RewriteQuery(" src/analysis/estimate/; then
  echo "error: the estimator takes the executed RewritePlan; the caller" \
       "rewrites (Evaluator, lint::EstimateForCase)" >&2
  exit 1
fi

echo "== configure (${BUILD_DIR}, -Werror) =="
cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DPIET_WERROR=ON >/dev/null

if [[ "${MODE}" == "--lint" ]]; then
  echo "== build pietql_lint =="
  cmake --build "${BUILD_DIR}" --target pietql_lint -j "${JOBS}"
  echo "== lint corpus (tests/lint_corpus/) =="
  "${BUILD_DIR}/examples/pietql_lint" tests/lint_corpus/*.lint
  echo "== lint figure-1 scenario (must be clean) =="
  "${BUILD_DIR}/examples/pietql_lint" --figure1
  echo "== rewrite corpus: --fix round-trips + expect-rewrite =="
  "${BUILD_DIR}/examples/pietql_lint" --fix tests/lint_corpus/*.lint
  echo "== estimate corpus: expect-estimate directives =="
  "${BUILD_DIR}/examples/pietql_lint" --estimate tests/lint_corpus/*.lint
  echo "== lint checks passed =="
  exit 0
fi

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== test =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# clang-tidy is optional: the config in .clang-tidy is authoritative, but the
# toolchain image may only ship GCC. CI runs it in a dedicated job.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  mapfile -t sources < <(find src tests bench -name '*.cc' -o -name '*.cpp' | sort)
  clang-tidy -p "${BUILD_DIR}" --quiet "${sources[@]}"
else
  echo "== clang-tidy: not installed, skipping (CI covers it) =="
fi

echo "== all checks passed =="
