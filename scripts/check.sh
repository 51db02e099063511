#!/usr/bin/env bash
# Full verification: layering checks on the codec and the serving code,
# the tier-1 build + test pass, a warning-free Release build of the
# benchmark program in perfbench/, then the same test suite under
# AddressSanitizer + UndefinedBehaviorSanitizer with assert()s compiled in,
# then the threaded runner tests under ThreadSanitizer (separate build dir
# per sanitizer — sanitized objects are not ABI-compatible with each other
# or the plain build; TSan in particular excludes ASan).
#
#   scripts/check.sh            # layering + tier-1 + perfbench + ASan/UBSan + TSan
#   scripts/check.sh --fast     # layering + tier-1 + perfbench only
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

echo "=== layering: no simulator in the serving layers, codec below server, one write path and target, one read path ==="
# src/server/ and src/net/ run inside the live daemon h2pushd; of the
# simulator they may use only its time type.
if grep -rnE '#include[[:space:]]*"sim/' src/server src/net |
    grep -v '"sim/time.h"'; then
  echo "src/server/ or src/net/ includes a sim/ header other than sim/time.h" >&2
  exit 1
fi
# src/h2/ is the HTTP/2 codec both halves link: it may include only h2/,
# http/, util/ and trace/ headers, so it never reaches up into push policy
# in src/server/.
if grep -rnE '#include[[:space:]]*"' src/h2 |
    grep -vE '#include[[:space:]]*"(h2|http|util|trace)/'; then
  echo "src/h2/ includes a header outside h2/, http/, util/ and trace/" >&2
  exit 1
fi
# One write path: h2::Connection::produce(out, max) sends whole frames for
# the simulator and the live daemon alike. produce_into is an alias kept
# for perfbench/'s client alone, so no other code may call it.
if grep -rnE '(\.|->|::)[[:space:]]*produce_into\b' \
    src tests bench examples tools fuzz; then
  echo "produce_into is called outside perfbench/; call produce(out, max)" >&2
  exit 1
fi
# One write target: simulated endpoints write straight into the TCP send
# buffer through TcpConnection::write(side, produce). send(side, bytes) is
# a wrapper kept for perfbench/, bench/ and tests, so nothing under src/
# calls a send() member (the live layers use util::posix::send_retry).
if grep -rnE '(\.|->)[[:space:]]*send[[:space:]]*\(' src; then
  echo "src/ calls send(); write into the TCP send buffer with" \
    "TcpConnection::write(side, produce)" >&2
  exit 1
fi
# One read path: every endpoint under src/ reads deliveries as pieces
# through on_deliver. on_receive, the flattened form, is kept for
# perfbench/'s TCP probe, bench_micro_protocol and tests/sim_test.cc, so
# nothing under src/ but the TCP model itself names it.
if grep -rnE '\bon_receive\b' src | grep -vE '^src/sim/tcp\.(h|cc):'; then
  echo "src/ uses on_receive outside src/sim/tcp.{h,cc}; read pieces" \
    "through on_deliver" >&2
  exit 1
fi
# Only the TCP model flattens a delivery (for on_receive); everything else
# reads pieces in place or produces flat bytes itself.
if grep -rnE '\bflatten[[:space:]]*\(' src tests bench examples tools fuzz |
    grep -vE '^src/(util/piece\.(h|cc)|sim/tcp\.cc):'; then
  echo "util::flatten is called outside src/sim/tcp.cc" >&2
  exit 1
fi
echo "layering OK"

echo "=== tier-1: configure + build + ctest (build/) ==="
# A warning fails the build here: the default build is warning-free.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "=== run cache: warm sweep under H2PUSH_CACHE_VERIFY (build/) ==="
# Cold pass fills a throwaway store; the warm pass answers from it with
# every hit recomputed and compared byte-for-byte (core/memo.h) — any
# divergence between cached and fresh simulation aborts the harness.
cache_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir"' EXIT
cmake --build build -j "$jobs" --target bench_fig3b_push_amount >/dev/null
bench_bin=$(pwd)/build/bench/bench_fig3b_push_amount
(cd "$cache_dir" &&
  H2PUSH_CACHE="$cache_dir/store" \
    "$bench_bin" --quick --jobs "$jobs" >/dev/null &&
  H2PUSH_CACHE="$cache_dir/store" H2PUSH_CACHE_VERIFY=all \
    "$bench_bin" --quick --jobs "$jobs" >/dev/null)
echo "warm-cache verify pass OK"

echo "=== perfbench: build the benchmark program (build-perfbench/) ==="
# perfbench/ is the repository benchmark; it calls the library's public API
# (h2/, sim/, browser/, net/) and is not edited alongside library changes.
# A change that breaks that API fails here, not first in a benchmark run.
# This is also the only Release (-O3) build of src/, the one the benchmark
# measures, and GCC warns at -O3 where it does not at -O2 (flow-analysis
# warnings such as -Wmaybe-uninitialized and -Wrestrict): a warning fails
# this build too.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build-perfbench -j "$jobs"
echo "perfbench build OK"

if [[ "${1:-}" == "--fast" ]]; then
  echo "=== OK (fast mode: sanitizer pass skipped) ==="
  exit 0
fi

echo "=== sanitizers: ASan + UBSan incl. fuzz smoke (build-asan/) ==="
# The suite includes the seeded mini-fuzz tier (tests/fuzz_*), so this stage
# is also the fuzz-smoke pass: every generator/mutator/harness trajectory
# runs under ASan+UBSan at full iteration counts. Export H2PUSH_FUZZ_ITERS
# to scale the fuzz tier (e.g. =500 for a quick pre-push cycle).
# The stage keeps the library's assert()s: RelWithDebInfo without -DNDEBUG,
# so guards such as TcpConnection::write's nested-write check, the frame
# parser's re-entrancy check and the renderer's token-lifetime check run.
# A warning fails this build too, as in tier-1.
cmake -B build-asan -S . -DH2PUSH_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build-asan -j "$jobs"
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "=== sanitizers: TSan on the parallel runner + fuzz smoke (build-tsan/) ==="
cmake -B build-tsan -S . -DH2PUSH_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs" --target runner_test \
  fuzz_frame_test fuzz_hpack_test fuzz_connection_test fuzz_sim_test \
  live_loopback_test css_memo_test
# Force a multi-threaded sweep even on 1-core CI boxes.
H2PUSH_JOBS=4 TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R ParallelRunner
# The stylesheet memo every runner worker shares (browser/css.h).
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R CssMemo
# Mini-fuzz under TSan: the suites are single-threaded by design, but the
# instrumented run still validates the atomics/fences the codec hot paths
# share with the threaded runner.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R 'Fuzz'
# Live serving loopback smoke under TSan: multi-threaded accept (SO_REUSEPORT
# workers), cross-thread shutdown/post, and the load generator's worker
# threads all race-checked over real sockets.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R 'LiveLoopback'

echo "=== OK ==="
