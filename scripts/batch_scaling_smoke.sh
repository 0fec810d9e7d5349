#!/bin/sh
# CI gate on what cross-slot batched decode buys: run the repository
# benchmark's traced decode-packed workload (bench/, read-only here) and
# read the last line of its standard output, one JSON object. The run must
# be correct — every request ok, the sampled requests bit-identical to
# serve.Sequential — and serve.batch_scaling_b8, the scheduler's tok/s at
# 8 live slots over 1 on one worker, must be at least 1.5: the
# tick shares one forward across slots instead of running one per slot
# (which scales 1.0). Used by `make batch-scaling-smoke` and CI.
set -eu

MIN_SCALING=1.5
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

go run ./bench -workload decode-packed -seed 1 -seconds 4 -trace 1 >"$OUT"
LAST="$(tail -n 1 "$OUT")"

case "$LAST" in
*'"correct":true'* | *'"correct": true'*) ;;
*)
    echo "batch-scaling-smoke: benchmark run is not correct:" >&2
    echo "$LAST" >&2
    exit 1
    ;;
esac
SCALING="$(printf '%s\n' "$LAST" | sed -n 's/.*"serve\.batch_scaling_b8": *{"value": *\([0-9.e+-]*\).*/\1/p')"
if [ -z "$SCALING" ]; then
    echo "batch-scaling-smoke: no serve.batch_scaling_b8 in the benchmark output:" >&2
    echo "$LAST" >&2
    exit 1
fi
awk "BEGIN { exit !($SCALING >= $MIN_SCALING) }" || {
    echo "batch-scaling-smoke: serve.batch_scaling_b8 = $SCALING, want >= $MIN_SCALING (decode ticks are not sharing forwards)" >&2
    exit 1
}
echo "batch-scaling-smoke: OK (serve.batch_scaling_b8=$SCALING)"
