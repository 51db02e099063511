#!/usr/bin/env bash
# Build Release and run every experiment harness, collecting the
# machine-readable BENCH_<name>.json reports into the repository root so
# successive checkouts can be diffed.
#
#   scripts/bench.sh                 # full paper-scale runs, all cores
#   scripts/bench.sh --quick         # reduced populations/run counts
#   scripts/bench.sh --jobs 4        # pin the runner's thread count
#   scripts/bench.sh --cache DIR     # content-addressed run cache (memo.h)
#   scripts/bench.sh --only fig5     # run harnesses matching a substring
#
# Flags other than --only are forwarded to each harness; the harnesses also
# honor H2PUSH_QUICK=1, H2PUSH_JOBS=N, and H2PUSH_CACHE=DIR from the
# environment.
#
# Reports from the previous invocation are kept under bench/prev/; after
# the run a summary table compares each report against its predecessor
# (runs/sec speedup, cache hit rate) and checks that the results are
# bit-exact: every field other than git, elapsed_s and runs_per_sec must
# equal the previous report's. Differing fields are listed under the table.
set -euo pipefail
cd "$(dirname "$0")/.."
repo_root=$(pwd)

only=""
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --only)
      only="$2"
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done

build_dir=build-release
echo "=== build: Release (${build_dir}/) ==="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)" >/dev/null

# Keep the previous run's reports for the comparison table.
shopt -s nullglob
prev_dir="$repo_root/bench/prev"
old_reports=("$repo_root"/BENCH_*.json)
if [[ ${#old_reports[@]} -gt 0 ]]; then
  mkdir -p "$prev_dir"
  mv "${old_reports[@]}" "$prev_dir/"
fi

# Run from a scratch directory so the reports can be collected explicitly;
# binaries embed the source dir for provenance (git_describe).
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"

status=0
for bin in "$repo_root/$build_dir"/bench/bench_*; do
  [[ -x "$bin" ]] || continue
  name=$(basename "$bin")
  [[ "$name" == "bench_micro_protocol" ]] && continue  # google-benchmark CLI
  if [[ -n "$only" && "$name" != *"$only"* ]]; then
    continue
  fi
  echo "=== $name ${args[*]:-} ==="
  if ! "$bin" "${args[@]}"; then
    echo "FAILED: $name" >&2
    status=1
  fi
done

reports=(BENCH_*.json)
if [[ ${#reports[@]} -gt 0 ]]; then
  cp "${reports[@]}" "$repo_root/"
  echo "collected: ${reports[*]} -> $repo_root/"
fi

# json_field FILE KEY -> number (or empty when absent).
json_field() {
  sed -n "s/^  \"$2\": \([0-9.eE+-]*\),*$/\1/p" "$1" | head -n1
}

# result_fields FILE -> the report's fields, one per line, without the
# ones that vary from run to run (git, elapsed_s, runs_per_sec).
result_fields() {
  sed -n 's/^  \("[^"]*": .*[^,]\),*$/\1/p' "$1" |
    grep -vE '^"(git|elapsed_s|runs_per_sec)":' || true
}

if [[ ${#reports[@]} -gt 0 ]]; then
  echo
  printf '%-28s %12s %12s %9s %9s %9s\n' "report" "runs/s prev" \
    "runs/s now" "speedup" "hit rate" "results"
  changed=()
  for report in "${reports[@]}"; do
    now="$scratch/$report"
    prev="$prev_dir/$report"
    now_rps=$(json_field "$now" runs_per_sec)
    hit_rate=$(json_field "$now" cache_hit_rate)
    prev_rps="-"
    speedup="-"
    results="-"
    if [[ -f "$prev" ]]; then
      prev_rps=$(json_field "$prev" runs_per_sec)
      if [[ -n "$prev_rps" && -n "$now_rps" ]]; then
        speedup=$(awk -v a="$now_rps" -v b="$prev_rps" \
          'BEGIN { if (b > 0) printf "%.2fx", a / b; else print "-" }')
      fi
      if [[ "$(result_fields "$prev")" == "$(result_fields "$now")" ]]; then
        results="same"
      else
        results="DIFFER"
        changed+=("$report")
      fi
    fi
    printf '%-28s %12s %12s %9s %9s %9s\n' "${report#BENCH_}" \
      "${prev_rps:--}" "${now_rps:--}" "$speedup" "${hit_rate:--}" "$results"
  done
  for report in "${changed[@]}"; do
    echo
    echo "results differ from bench/prev/$report (< prev, > now):"
    diff <(result_fields "$prev_dir/$report") \
      <(result_fields "$scratch/$report") | grep '^[<>]' || true
  done
fi
exit "$status"
