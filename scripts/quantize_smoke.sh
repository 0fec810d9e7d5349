#!/bin/sh
# CI gate on APTQ's numbers: run the repository benchmark's quantize-sweep
# workload (bench/, read-only here) and compare its exact, timing-free
# paper cells with the pinned values below, to 12 significant digits. The
# traced run prints the per-layer cells (FP / avg-4.0 / avg-3.5 C4
# perplexity, zero-shot accuracy at 3.8 bits, average bits, compressed
# bytes, resident bytes per quantizable weight); the served model's
# end-to-end ppl_c4 (avg 3.8 bits) and weight_resident_bytes are printed
# only without tracing, so a short untraced run follows. Both must be
# correct. A calibration-statistics or kernel refactor that moves a cell
# fails here, and so does a packed model that holds more in memory than its
# packed form (the dequantization tables once made it larger than the float
# model: 1,582,224 bytes against 1,327,104); a deliberate change of the
# numbers re-pins them in the same commit, with the reason. Used by
# `make quantize-smoke` and CI.
set -eu

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
FAIL=0
CELLS=0

# run <trace>: one benchmark run; leaves its JSON line in $LAST.
run() {
    go run ./bench -workload quantize-sweep -seed 1 -seconds 4 -trace "$1" >"$OUT"
    LAST="$(tail -n 1 "$OUT")"
    case "$LAST" in
    *'"correct":true'* | *'"correct": true'*) ;;
    *)
        echo "quantize-smoke: benchmark run (-trace $1) is not correct:" >&2
        echo "$LAST" >&2
        exit 1
        ;;
    esac
}

# pin <metric> <value>: the metric in $LAST must equal value to 12 digits.
pin() {
    CELLS=$((CELLS + 1))
    name="$(printf '%s' "$1" | sed 's/\./\\./g')"
    got="$(printf '%s\n' "$LAST" | sed -n 's/.*"'"$name"'": *{"value": *\([0-9.e+-]*\).*/\1/p')"
    if [ -z "$got" ]; then
        echo "quantize-smoke: no $1 in the benchmark output" >&2
        FAIL=1
    elif [ "$(printf '%.12g' "$got")" != "$(printf '%.12g' "$2")" ]; then
        echo "quantize-smoke: $1 = $got, pinned $2" >&2
        FAIL=1
    fi
}

run 1
pin eval.ppl_c4_fp 23.618215577135935
pin eval.ppl_c4_4p0 23.707157202849555
pin eval.ppl_c4_3p5 23.772377345078905
pin eval.zeroshot_acc_3p8 0.6599999999999999
pin core.avg_bits 3.8055555555555554
pin core.compressed_bytes 248397
pin quant.bytes_per_weight 1.6212384259259258

run 0
pin ppl_c4 23.695180588173383
pin weight_resident_bytes 268944

if [ "$FAIL" -ne 0 ]; then
    echo "quantize-smoke: APTQ's pinned numbers moved (see above)" >&2
    exit 1
fi
echo "quantize-smoke: OK ($CELLS cells exact)"
