#!/usr/bin/env bash
# Run the seeded ctcsim commands of a checkout and keep, for each, its report
# (<name>.report), standard output (<name>.stdout) and exit code (<name>.exit):
#
#   tools/seeded_reports.sh <checkout> <outdir>
#
# The commands are the seeded sweeps and demos, `ctcsim run` on the 11
# seed-0 circuits of perfbench's dsl-run workload, with and without
# --trace-out, and on two written circuits (a two-register input line
# declared out of layout order, with and without --trace-out, and a circuit
# with only the CTC register): 39 in all. The dsl-run circuits are generated
# into <outdir>/circuits by the checkout's perfbench/workloads.py, which is
# only read. Two checkouts give byte-identical results exactly when
#
#   diff -r <outdir of one> <outdir of the other>
#
# prints nothing.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <checkout> <outdir>" >&2
    exit 2
fi
checkout=$(cd "$1" && pwd)
mkdir -p "$2/circuits"
out=$(cd "$2" && pwd)
export PYTHONPATH="$checkout/src" PYTHONDONTWRITEBYTECODE=1 OPENBLAS_NUM_THREADS=1

# seeded <name> <ctcsim arguments...>
seeded() {
    local name=$1 code=0
    shift
    python3 -B -m ctcsim "$@" --out "$out/$name.report" >"$out/$name.stdout" || code=$?
    echo "$code" >"$out/$name.exit"
}

seeded fixed-points-50-7 sweep fixed-points --trials 50 --seed 7
seeded fixed-points-dim3-300-11 sweep fixed-points --dim 3 --trials 300 --seed 11
seeded fixed-points-dim4-60-5 sweep fixed-points --dim 4 --trials 60 --seed 5
seeded fixed-points-0 sweep fixed-points --trials 0
seeded fidelity-props-1000-0 sweep fidelity-props --trials 1000 --seed 0
seeded no-cloning-baseline-1000-0 sweep no-cloning-baseline --trials 1000 --seed 0
seeded no-cloning-baseline-dim3-200-4 sweep no-cloning-baseline --dim 3 --trials 200 --seed 4
seeded clone-pure demo clone-pure
# a non-orthogonal N = 4 alphabet, one state per column
cat >"$out/alphabet4.txt" <<'MAT'
matrix 4 1
1.0 0.6 0.5 0.0 ;
0.0 0.8 0.0+0.5i 0.6 ;
0.0 0.0 0.5 0.0 ;
0.0 0.0 -0.5 0.0+0.8i ;
MAT
seeded clone-pure-n4 demo clone-pure --alphabet "@$out/alphabet4.txt" --index 2
seeded clone-mixed demo clone-mixed
# a rank-2 target: its kept factor is narrower than N
seeded clone-mixed-rank2 demo clone-mixed --probs 0.5,0.5,0
seeded clone-mixed-csv demo clone-mixed --format csv
seeded nosignal-mixed demo nosignal --cloner mixed
seeded nosignal-pure demo nosignal --cloner pure

# one line per circuit: its file name and the registers its op keeps
circuits=$(python3 -B - "$checkout/perfbench" "$out/circuits" <<'PY'
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import workloads

for op in sorted(workloads.dsl_run(0, Path(sys.argv[2])), key=lambda op: op.path.name):
    print(op.path.name, op.trace_out)
PY
)
while read -r name keep; do
    seeded "run-${name%.ctc}" run "$out/circuits/$name"
    seeded "run-${name%.ctc}-trace-out" run "$out/circuits/$name" --trace-out "$keep"
done <<<"$circuits"

# the mixed line declares its registers as B A; the layout's order is A, B, C
cat >"$out/circuits/input-order.ctc" <<'CTC'
system A 2
system B 3
system C 2
system CTC 2
input mixed B A : 0.25 0.05+0.05i 0 0+0.08i 0 0 ; 0.05-0.05i 0.15 0 0 0 0 ; 0 0 0.2 0 0 0.1 ; 0-0.08i 0 0 0.1 0 0 ; 0 0 0 0 0.2 0 ; 0 0 0.1 0 0 0.1
input pure C : 0.6 0+0.8i
gate swap A CTC
gate csum C CTC
gate select B CTC @input-order.mat
CTC
cat >"$out/circuits/input-order.mat" <<'MAT'
matrix 2 3
1 0 ; 0 1 ;
0 1 ; 1 0 ;
0.6 -0.8 ; 0.8 0.6 ;
MAT
seeded run-input-order run "$out/circuits/input-order.ctc"
seeded run-input-order-trace-out run "$out/circuits/input-order.ctc" --trace-out B
# no CR register: the CR input is the empty product [[1]]
cat >"$out/circuits/ctc-only.ctc" <<'CTC'
system CTC 2
gate unitary CTC @ctc-only.mat
CTC
cat >"$out/circuits/ctc-only.mat" <<'MAT'
matrix 2 1
0.6 -0.8 ; 0.8 0.6 ;
MAT
seeded run-ctc-only run "$out/circuits/ctc-only.ctc"
