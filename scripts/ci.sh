#!/usr/bin/env bash
# Tier-1 verify (configure, build, ctest — which includes the service
# load gate in service_test), with
# sanitizer modes that run the executor tests under TSan/ASan/UBSan —
# races in the worker pool and the concurrent drains (and UB the optimizer could
# weaponize) must fail the build, not corrupt results silently — and
# static-analysis modes: `--lint` runs the repo's own contract lint
# (scripts/lint.py) plus the clang-format drift check on src/exec/,
# `--tidy` runs clang-tidy (.clang-tidy) over src/ against the build's
# compile_commands.json.
# `--thread-safety` arms clang's Thread Safety Analysis
# (-Werror=thread-safety over the GUARDED_BY contracts; see
# docs/ARCHITECTURE.md §"Static analysis & concurrency contracts").
#
# `--mvcc` runs the epoch-snapshot stress gate: the differential MVCC
# harness (tests/mvcc_stress_test.cc) and the operator-tree
# differential (tests/exec_diff_test.cc — operator tree vs row-mode
# oracle, on its own and under concurrent writers) under
# ThreadSanitizer with three fixed seeds plus one time-derived seed
# (echoed into the log so any failure replays with --seed=N).
#
# `--storage` runs the paged-storage gate: the pager/zone-map unit
# suite plus the segment differential harness (tests/segment_diff_test.cc
# — segment-backed scans vs the in-memory extent vs the row-mode
# oracle, across lone reads, Submit batches and under concurrent
# writers) under ThreadSanitizer with seeds 1/2/3 plus a time-derived
# seed.
#
# `--perfbench` runs the benchmark of record's own test
# (perfbench/test_perfbench.py): perfbench/ compiles src/ as its own
# CMake package into the gitignored .bench_build/, so this leg catches
# engine API changes that break the benchmark, which tier-1 never
# builds, and checks that its traced runs repeat exactly.
#
# No mode writes a committed file. The counter conditions the old
# bench records were gated on are ctest cases now (docs/BENCHMARKS.md
# maps each one to its test).
#
# Usage: scripts/ci.sh [--tsan|--asan|--ubsan]
#                      [--lint] [--tidy] [--thread-safety]
#                      [--mvcc] [--storage] [--perfbench]
#                      [--build-type=TYPE] [--build-dir=DIR]
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=""
BUILD_TYPE=""
BUILD_DIR=""
LINT=0
TIDY=0
THREAD_SAFETY=0
MVCC=0
STORAGE=0
PERFBENCH=0
for arg in "$@"; do
  case "$arg" in
    --tsan) SANITIZE=thread ;;
    --asan) SANITIZE=address ;;
    --ubsan) SANITIZE=undefined ;;
    --lint) LINT=1 ;;
    --tidy) TIDY=1 ;;
    --thread-safety) THREAD_SAFETY=1 ;;
    --mvcc) MVCC=1 ;;
    --storage) STORAGE=1 ;;
    --perfbench) PERFBENCH=1 ;;
    --build-type=*) BUILD_TYPE="${arg#*=}" ;;
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    *) echo "usage: scripts/ci.sh [--tsan|--asan|--ubsan]" \
            "[--lint] [--tidy] [--thread-safety] [--mvcc]" \
            "[--storage] [--perfbench] [--build-type=TYPE]" \
            "[--build-dir=DIR]" >&2
       exit 2 ;;
  esac
done

THREAD_SAFETY_FLAG=""
if [[ "$THREAD_SAFETY" == "1" ]]; then
  THREAD_SAFETY_FLAG="-DVODAK_THREAD_SAFETY=ON"
fi

# ---------------------------------------------------------------- --lint
# The vodak contract lint plus the format drift check; a pure
# static pass, so it neither needs nor builds a tree.
if [[ "$LINT" == "1" ]]; then
  echo "== lint: scripts/lint.py =="
  python3 scripts/lint.py
  echo "== lint: clang-format drift check (src/exec/) =="
  CLANG_FORMAT="${CLANG_FORMAT:-}"
  if [[ -z "$CLANG_FORMAT" ]]; then
    for candidate in clang-format clang-format-2{0,1} clang-format-1{9,8,7,6,5,4}; do
      if command -v "$candidate" >/dev/null 2>&1; then
        CLANG_FORMAT="$candidate"
        break
      fi
    done
  fi
  if [[ -n "$CLANG_FORMAT" ]]; then
    "$CLANG_FORMAT" --dry-run -Werror src/exec/*.h src/exec/*.cc
    echo "lint: src/exec/ is clang-format clean"
  else
    # Tolerated locally (the image may lack LLVM tools); the CI lint
    # job always has clang-format, so drift still cannot land.
    echo "lint: clang-format not found; skipping the drift check" >&2
  fi
fi

# ---------------------------------------------------------------- --tidy
if [[ "$TIDY" == "1" ]]; then
  echo "== tidy: clang-tidy over src/ =="
  CLANG_TIDY="${CLANG_TIDY:-}"
  if [[ -z "$CLANG_TIDY" ]]; then
    for candidate in clang-tidy clang-tidy-2{0,1} clang-tidy-1{9,8,7,6,5,4}; do
      if command -v "$candidate" >/dev/null 2>&1; then
        CLANG_TIDY="$candidate"
        break
      fi
    done
  fi
  if [[ -z "$CLANG_TIDY" ]]; then
    echo "ci.sh: --tidy needs clang-tidy on PATH (or CLANG_TIDY=...);" \
         "not found" >&2
    exit 1
  fi
  TIDY_BUILD_DIR="${BUILD_DIR:-build-tidy}"
  # Any configured tree emits compile_commands.json
  # (CMAKE_EXPORT_COMPILE_COMMANDS is on unconditionally); building is
  # not required, but FetchContent'd gtest headers must exist for the
  # test includes, so configure is.
  cmake -B "$TIDY_BUILD_DIR" -S . \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
  "$CLANG_TIDY" -p "$TIDY_BUILD_DIR" --quiet "${TIDY_SOURCES[@]}"
  echo "tidy: ${#TIDY_SOURCES[@]} files clean"
fi

if [[ "$LINT" == "1" || "$TIDY" == "1" ]]; then
  echo "== ci.sh (static analysis): all green =="
  exit 0
fi

if [[ -n "$SANITIZE" ]]; then
  : "${BUILD_DIR:=build-$SANITIZE}"
  echo "== sanitizer ($SANITIZE): configure + build + executor tests =="
  cmake -B "$BUILD_DIR" -S . -DVODAK_SANITIZE="$SANITIZE" \
        ${THREAD_SAFETY_FLAG:+"$THREAD_SAFETY_FLAG"} \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"}
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
        --target exec_batch_test exec_parallel_test exec_selvec_test \
                 engine_submit_test service_test mvcc_edge_test \
                 mvcc_stress_test exec_diff_test storage_test \
                 segment_diff_test objstore_test
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -R 'exec_batch_test|exec_parallel_test|exec_selvec_test|engine_submit_test|service_test|mvcc_edge_test|mvcc_stress_test|exec_diff_test|storage_test|segment_diff_test|objstore_test'
  echo "== ci.sh ($SANITIZE): all green =="
  exit 0
fi

# ----------------------------------------------------------------- --mvcc
# The epoch-snapshot stress gate: the differential MVCC harness and
# the operator-tree differential (>=1000 generated queries per seed vs
# the row-mode oracle, plus the concurrent-writer run that replays the
# oracle at each reader's pinned epoch) under ThreadSanitizer. Three
# fixed seeds make the leg reproducible run to run; the fourth,
# time-derived seed walks the schedule space so the suites keep
# probing new interleavings — it is echoed (and printed by the
# binaries themselves) so a failing run replays exactly.
if [[ "$MVCC" == "1" ]]; then
  : "${BUILD_DIR:=build-mvcc-tsan}"
  echo "== mvcc: TSan build of the stress, edge and differential suites =="
  cmake -B "$BUILD_DIR" -S . -DVODAK_SANITIZE=thread \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
        --target mvcc_stress_test mvcc_edge_test exec_diff_test
  echo "== mvcc: deterministic edge cases =="
  "$BUILD_DIR"/mvcc_edge_test
  TIME_SEED="$(date +%s)"
  echo "== mvcc: stress + differential seeds 1 2 3 $TIME_SEED (time-derived) =="
  for seed in 1 2 3 "$TIME_SEED"; do
    echo "-- mvcc_stress_test --seed=$seed"
    "$BUILD_DIR"/mvcc_stress_test --seed="$seed"
    echo "-- exec_diff_test --seed=$seed"
    "$BUILD_DIR"/exec_diff_test --seed="$seed"
  done
  echo "== ci.sh (mvcc): all green =="
  exit 0
fi

# ------------------------------------------------------------- --storage
# The paged-storage gate: the deterministic pager/OID-layout/zone-map/
# segment-store units, then the segment differential harness
# (tests/segment_diff_test.cc — segment-backed scans vs the in-memory
# extent vs the row-mode oracle across lone-read and
# multi-read Submit drains, the zone-map skip, eviction and
# buffer-cache hit counter checks, the commit/re-ingest count check,
# and concurrent Submit writers replayed at each reader's pinned epoch)
# under ThreadSanitizer with three fixed seeds and one time-derived
# seed (echoed so any failure replays with --seed=N). The count check
# then repeats on its own: its races are timing-dependent, so more
# runs give the interleavings more chances to show.
if [[ "$STORAGE" == "1" ]]; then
  : "${BUILD_DIR:=build-storage-tsan}"
  echo "== storage: TSan build of the storage unit + differential suites =="
  cmake -B "$BUILD_DIR" -S . -DVODAK_SANITIZE=thread \
        ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} >/dev/null
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
        --target storage_test segment_diff_test
  echo "== storage: deterministic pager + zone-map + segment units =="
  "$BUILD_DIR"/storage_test
  TIME_SEED="$(date +%s)"
  echo "== storage: differential seeds 1 2 3 $TIME_SEED (time-derived) =="
  for seed in 1 2 3 "$TIME_SEED"; do
    echo "-- segment_diff_test --seed=$seed"
    "$BUILD_DIR"/segment_diff_test --seed="$seed"
  done
  echo "== storage: commit/re-ingest count check, repeated =="
  "$BUILD_DIR"/segment_diff_test \
      --gtest_filter='*ReadsNeverCountFewerRowsThanTheirPin' --gtest_repeat=5
  echo "== ci.sh (storage): all green =="
  exit 0
fi

# ----------------------------------------------------------- --perfbench
# The benchmark of record must keep compiling against src/ and its
# traced runs must keep repeating exactly (same seed, same op stream,
# same per-layer counts). The test builds perfbench itself.
if [[ "$PERFBENCH" == "1" ]]; then
  echo "== perfbench: build + traced-run repeatability test =="
  python3 perfbench/test_perfbench.py
  echo "== ci.sh (perfbench): all green =="
  exit 0
fi

echo "== docs check =="
# The executor book is a deliverable: a build that drops it (or unlinks
# it from the README) fails here, not in review.
if [[ ! -f docs/ARCHITECTURE.md ]]; then
  echo "ci.sh: docs/ARCHITECTURE.md is missing" >&2
  exit 1
fi
if [[ ! -f docs/BENCHMARKS.md ]]; then
  echo "ci.sh: docs/BENCHMARKS.md is missing" >&2
  exit 1
fi
if ! grep -q "docs/ARCHITECTURE.md" README.md; then
  echo "ci.sh: README.md does not link docs/ARCHITECTURE.md" >&2
  exit 1
fi
if ! grep -q "docs/BENCHMARKS.md" README.md; then
  echo "ci.sh: README.md does not link docs/BENCHMARKS.md" >&2
  exit 1
fi
# New executor subsystems must keep their book sections (ROADMAP's
# docs-upkeep rule): the selection-vector chapter with its operator
# contract table.
if ! grep -q "^## Selection vectors" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Selection vectors' chapter" >&2
  exit 1
fi
if ! grep -q "operator-contract" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the operator-contract table" >&2
  exit 1
fi
# The semantic-knowledge chapter (the five knowledge kinds, the rule
# each derives, the range inverse's trust assumption).
if ! grep -q "^## Semantic knowledge & generated rules" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Semantic knowledge &" \
       "generated rules' chapter" >&2
  exit 1
fi
# The static-analysis chapter (annotation conventions, the vodak lint's
# contracts, how to run --tidy/--lint/--ubsan locally).
if ! grep -q "^## Static analysis & concurrency contracts" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Static analysis &" \
       "concurrency contracts' chapter" >&2
  exit 1
fi
# The MVCC chapter (version-chain layout, the epoch pin/unpin
# protocol, cache keying, the reclaim rule).
if ! grep -q "^## Writes, epochs & snapshot isolation" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Writes, epochs & snapshot" \
       "isolation' chapter" >&2
  exit 1
fi
# The query-service chapter (wire protocol, generation state machine,
# cancellation points, the Run→Submit migration table).
if ! grep -q "^## Query service & admission control" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Query service & admission" \
       "control' chapter" >&2
  exit 1
fi
# The paged-storage chapter (page file format, zone-map pruning rule,
# pin/epoch interaction with MVCC reclaim).
if ! grep -q "^## Paged storage & segment skipping" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost the 'Paged storage & segment" \
       "skipping' chapter" >&2
  exit 1
fi
# The oracles chapter (both reference evaluators are row-at-a-time and
# share no batch code with the executor; lint check 6 enforces it).
if ! grep -q "^## The oracles" docs/ARCHITECTURE.md; then
  echo "ci.sh: docs/ARCHITECTURE.md lost 'The oracles' chapter" >&2
  exit 1
fi

: "${BUILD_DIR:=build}"
echo "== tier-1: configure + build + ctest =="
cmake -B "$BUILD_DIR" -S . \
      ${THREAD_SAFETY_FLAG:+"$THREAD_SAFETY_FLAG"} \
      ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"}
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

echo "== ci.sh: all green =="
