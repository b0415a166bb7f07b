#!/bin/sh
# Tier-1 verification: configure, build, test (see ROADMAP.md).
# The ctest run includes the examples/ binaries, registered as smoke
# tests, so API examples cannot rot silently.
#
# Usage: tools/ci.sh [build-dir] [extra cmake args...]
#   tools/ci.sh                      # plain tier-1
#   tools/ci.sh build-asan -DRISSP_SANITIZE=ON   # ASan+UBSan job
#   tools/ci.sh --lint [build-dir]   # static analysis (see below)
set -eu

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

# Static-analysis mode — the shared entry point for the CI
# static-analysis job and local runs (docs/STATIC_ANALYSIS.md):
#   1. build with clang and -Werror=thread-safety when clang is
#      available (GCC compiles the annotations as no-ops, so the
#      capability analysis only bites under clang);
#   2. run rissp_lint over the tree (must be clean);
#   3. run every lint fixture: each .bad must trip its check, each
#      .good must be clean;
#   4. run clang-tidy (pinned by .clang-tidy) over src/ when
#      available.
# Steps that need missing tools are skipped with a note, never
# silently — so the script is useful in clang-less containers too.
if [ "${1:-}" = "--lint" ]; then
    shift
    BUILD_DIR="${1:-build-lint}"

    if command -v clang++ >/dev/null 2>&1; then
        cmake -B "$BUILD_DIR" -S . \
              -DCMAKE_C_COMPILER=clang \
              -DCMAKE_CXX_COMPILER=clang++ \
              -DRISSP_WERROR_THREAD_SAFETY=ON
    else
        echo "ci.sh --lint: clang++ not found;" \
             "building without thread-safety analysis" >&2
        cmake -B "$BUILD_DIR" -S .
    fi
    cmake --build "$BUILD_DIR" -j "$JOBS"

    echo "ci.sh --lint: linting the tree"
    "$BUILD_DIR/rissp_lint" --root .

    echo "ci.sh --lint: checking fixtures"
    for bad in tests/lint_fixtures/*.bad.*; do
        if "$BUILD_DIR/rissp_lint" --as-library "$bad" \
                > /dev/null 2>&1; then
            echo "ci.sh --lint: $bad produced no findings" >&2
            exit 1
        fi
    done
    for good in tests/lint_fixtures/*.good.*; do
        "$BUILD_DIR/rissp_lint" --as-library "$good"
    done

    if command -v clang-tidy >/dev/null 2>&1; then
        echo "ci.sh --lint: clang-tidy over src/"
        find src -name '*.cc' -print | sort |
            xargs clang-tidy -p "$BUILD_DIR" --quiet
    else
        echo "ci.sh --lint: clang-tidy not found; skipping" >&2
    fi

    echo "ci.sh --lint: OK"
    exit 0
fi

BUILD_DIR="${1:-build}"
[ "$#" -gt 0 ] && shift

cmake -B "$BUILD_DIR" -S . "$@"
cmake --build "$BUILD_DIR" -j "$JOBS"
cd "$BUILD_DIR"
ctest --output-on-failure -j "$JOBS"

# Sim-throughput trajectory: emit BENCH_simspeed.json next to the
# build so CI can upload it as an artifact (docs/BENCHMARKS.md).
./bench_micro --quick --json BENCH_simspeed.json

# Perf smoke on the dispatch rebuild: threaded dispatch should not be
# slower than the portable switch core, and block-stepped cosim should
# stay close to its RefSim::step() floor. A soft gate — sanitizer and
# debug configurations legitimately flip the ratio — so it warns
# loudly instead of failing (docs/BENCHMARKS.md).
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF' || true
import json
rows = {b["name"]: b["items_per_second"]
        for b in json.load(open("BENCH_simspeed.json"))["benchmarks"]}
sw, th = rows.get("refsim_run_switch"), rows.get("refsim_run_threaded")
if sw and th:
    print("ci.sh: refsim threaded/switch ratio: %.2fx"
          " (switch %.3e, threaded %.3e instret/s)" % (th / sw, sw, th))
    if th < sw:
        print("ci.sh: WARNING: threaded dispatch is SLOWER than the"
              " switch core on this runner/configuration -- perf"
              " regression in the threaded interpreter?")
# Block-stepped cosim: the golden RefSim::step() loop is its floor,
# so cosim should keep well above a third of that rate.
step, cosim = rows.get("refsim_step"), rows.get("cosim")
if step and cosim:
    print("ci.sh: cosim/refsim_step ratio: %.2f"
          " (refsim_step %.3e, cosim %.3e instret/s)"
          % (cosim / step, step, cosim))
    if cosim < 0.35 * step:
        print("ci.sh: WARNING: cosim runs below 0.35x the golden"
              " step() loop -- per-step overhead regression in the"
              " lock-step (traced RISSP core or the checks)?")
EOF
else
    echo "ci.sh: python3 not found; skipping dispatch perf smoke" >&2
fi

# Serving-layer trajectory: 16 concurrent clients against a live
# daemon, p50/p95/p99 latency + throughput (docs/SERVE.md).
./bench_serve --quick --json BENCH_serve.json

# Perf smoke on the reactor rework: 512 parked keep-alive
# connections must not tax active throughput — idle fds are event
# sources, not threads. Soft gate like the dispatch smoke above:
# warns loudly, never fails (loaded CI runners jitter req/s).
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF' || true
import json
rows = {b["name"]: b["requests_per_second"]
        for b in json.load(open("BENCH_serve.json"))["benchmarks"]}
hot, idle = rows.get("serve_characterize_hot"), \
    rows.get("idle_keepalive_512")
if hot and idle:
    print("ci.sh: idle-load/hot serve ratio: %.2fx"
          " (hot %.0f, 512-idle %.0f req/s)" % (idle / hot, hot, idle))
    if idle < 0.8 * hot:
        print("ci.sh: WARNING: 512 parked keep-alive connections"
              " cost >20%% of active req/s -- reactor scalability"
              " regression?")
EOF
else
    echo "ci.sh: python3 not found; skipping serve perf smoke" >&2
fi

# Artifact-store trajectory: warm-boot speedup and raw store
# throughput (docs/CACHE.md).
./bench_cache --quick --json BENCH_cache.json
