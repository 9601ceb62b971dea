#!/usr/bin/env bash
# Runs mccuckoo_server with each out-of-range numeric flag and expects the
# usage line plus exit status 2 for every one, within a timeout (a value
# that hangs or aborts the server fails the check). Then checks that a
# valid command line still starts, serves and exits 0.
#
# Usage:
#   tools/check_server_flags.sh <path-to-mccuckoo_server>

set -uo pipefail

bin=${1:?usage: check_server_flags.sh <mccuckoo_server binary>}
fail=0

for flag in --shards=-1 --shards=0 --shards=65537 --shards=4294967296 \
            --port=-1 --port=70000 --threads=-3 --slots=-1 \
            --max-bytes=-1 --sweep-ms=-5 --duration=-1; do
  err=$(timeout 10 "$bin" --duration=1 "$flag" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: $flag exited $status (want 2)"
    fail=1
  elif ! grep -q '^usage: mccuckoo_server' <<<"$err"; then
    echo "FAIL: $flag printed no usage line"
    fail=1
  fi
done

if ! timeout 10 "$bin" --port=0 --threads=1 --shards=3 --duration=1 \
    >/dev/null; then
  echo "FAIL: a valid command line did not run cleanly"
  fail=1
fi

[ "$fail" -eq 0 ] && echo "all out-of-range flags rejected"
exit "$fail"
