#!/usr/bin/env bash
# Bench CLI contract: every bench given as an argument answers --help with
# its usage text and exit 0 without running, and rejects an unknown flag
# with exit 2 before running. "Without running" is checked by the bench
# writing no BENCH_*.json into its (empty, temporary) working directory.
# Runs as the `bench_cli` ctest:
#
#   tools/check_bench_cli.sh build/bench_streaming build/bench_network ...
set -u

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0

fail() {
  echo "BENCH-CLI: $1"
  status=1
}

for bin in "$@"; do
  name=$(basename "$bin")
  [ -x "$bin" ] || { fail "$name: not an executable ($bin)"; continue; }

  out=$(cd "$work" && "$bin" --help 2>&1)
  code=$?
  [ "$code" -eq 0 ] || fail "$name --help exited $code, want 0"
  case "$out" in
    *--help*) ;;
    *) fail "$name --help printed no usage text" ;;
  esac

  (cd "$work" && "$bin" --no_such_flag 1 >/dev/null 2>&1)
  code=$?
  [ "$code" -eq 2 ] || fail "$name --no_such_flag exited $code, want 2"

  if compgen -G "$work/BENCH_*.json" >/dev/null; then
    fail "$name ran a pass instead of stopping at its flags"
    rm -f "$work"/BENCH_*.json
  fi
done

if [ "$status" -eq 0 ]; then
  echo "bench cli OK ($# benches)"
else
  echo "bench cli FAILED"
fi
exit "$status"
