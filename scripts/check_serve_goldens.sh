#!/usr/bin/env bash
# Byte-compares pmemsim_serve's outputs against bench/expectations/serve/.
#
#   scripts/check_serve_goldens.sh <pmemsim_serve>            # compare
#   scripts/check_serve_goldens.sh <pmemsim_serve> --update   # rewrite goldens
#
# Covers each engine mode -- the shared-System engine ("interleaved"), the
# partitioned epoch loop ("et1") and its zero-lookahead fallback ("et1_d0") --
# x each store for the --stats_json report, plus one CCEH --timeline_json and
# one CCEH --spans_json / --span_trace point per mode. Mix E drives both
# hash-store scan emulations and inserts. Every run is deterministic, so any
# byte of drift is a change to the simulated model or to a report format.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <pmemsim_serve> [--update]" >&2
  exit 2
fi
serve=$1
update=${2:-}
golden=$(dirname "$0")/../bench/expectations/serve
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

common=(--shards=2 --keys=2000 --quiet)
for mode in interleaved et1 et1_d0; do
  case $mode in
    interleaved) engine=() ;;
    et1) engine=(--engine_threads=1) ;;
    et1_d0) engine=(--engine_threads=1 --dispatch_latency=0) ;;
  esac
  for store in cceh fastfair flatlog; do
    "$serve" --store=$store --mixes=a,e --loop=both --ops=2000 "${common[@]}" "${engine[@]}" \
      --stats_json="$out/${mode}_$store.json" > /dev/null
  done
  "$serve" --store=cceh --mixes=a,e --loop=both --ops=200 "${common[@]}" "${engine[@]}" \
    --sample_interval_cycles=200000 --timeline_json="$out/${mode}_timeline.json" > /dev/null
  "$serve" --store=cceh --mixes=e --loop=closed --ops=200 "${common[@]}" "${engine[@]}" \
    --spans_json="$out/${mode}_spans.json" --span_trace="$out/${mode}_span_trace.json" > /dev/null
done

if [[ $update == --update ]]; then
  mkdir -p "$golden"
  cp "$out"/*.json "$golden"/
  echo "updated $(ls "$out" | wc -l) goldens in $golden"
  exit 0
fi
status=0
for f in "$out"/*.json; do
  name=$(basename "$f")
  if ! cmp "$golden/$name" "$f"; then
    status=1
  fi
done
[[ $status == 0 ]] && echo "$(ls "$out" | wc -l) serve goldens match"
exit $status
