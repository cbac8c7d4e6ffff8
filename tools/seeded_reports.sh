#!/usr/bin/env bash
# Run the seeded ctcsim commands of a checkout and keep, for each, its report
# (<name>.report), standard output (<name>.stdout), standard error
# (<name>.stderr) and exit code (<name>.exit):
#
#   tools/seeded_reports.sh <checkout> <outdir>
#
# The commands are the seeded sweeps and demos, `ctcsim run` on the 11
# seed-0 circuits of perfbench's dsl-run workload, with and without
# --trace-out, and on two written circuits (a two-register input line
# declared out of layout order, with no --trace-out, with --trace-out B and
# with --trace-out C,A, against layout order, and a circuit with only the CTC
# register): 46 that exit 0. Three more written circuits repeat a bad gate
# line (a register that is not declared, a file operand without its @, and
# a select whose family does not fit its control) and exit 1. Two
# near-parallel alphabets make the pure clone demo pass (exit 0) and fail
# (exit 2) at the edge of the multiplicity count: 51 in all.
# Each command runs in <outdir> and names its files relative to it, so its
# standard error does not depend on where <outdir> is. The dsl-run circuits
# are generated into <outdir>/circuits by the checkout's
# perfbench/workloads.py, which is only read. Two checkouts give
# byte-identical results exactly when
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

# seeded <name> <ctcsim arguments, paths relative to <outdir>...>
seeded() {
    local name=$1 code=0
    shift
    (cd "$out" && python3 -B -m ctcsim "$@" --out "$name.report" \
        >"$name.stdout" 2>"$name.stderr") || code=$?
    echo "$code" >"$out/$name.exit"
}

seeded fixed-points-50-7 sweep fixed-points --trials 50 --seed 7
seeded fixed-points-dim3-300-11 sweep fixed-points --dim 3 --trials 300 --seed 11
seeded fixed-points-dim4-60-5 sweep fixed-points --dim 4 --trials 60 --seed 5
seeded fixed-points-0 sweep fixed-points --trials 0
seeded fixed-points-5-csv sweep fixed-points --trials 5 --format csv
seeded fidelity-props-1000-0 sweep fidelity-props --trials 1000 --seed 0
seeded fidelity-props-dim3-200-4 sweep fidelity-props --dim 3 --trials 200 --seed 4
seeded fidelity-props-0 sweep fidelity-props --trials 0
seeded fidelity-props-5-csv sweep fidelity-props --trials 5 --format csv
seeded no-cloning-baseline-1000-0 sweep no-cloning-baseline --trials 1000 --seed 0
seeded no-cloning-baseline-dim3-200-4 sweep no-cloning-baseline --dim 3 --trials 200 --seed 4
seeded no-cloning-baseline-0 sweep no-cloning-baseline --trials 0
# at dim 3 a chunk holds 256 trials: the per-trial columns join two chunks
seeded no-cloning-baseline-dim3-300-2 sweep no-cloning-baseline --dim 3 --trials 300 --seed 2
seeded clone-pure demo clone-pure
# a non-orthogonal N = 4 alphabet, one state per column
cat >"$out/alphabet4.txt" <<'MAT'
matrix 4 1
1.0 0.6 0.5 0.0 ;
0.0 0.8 0.0+0.5i 0.6 ;
0.0 0.0 0.5 0.0 ;
0.0 0.0 -0.5 0.0+0.8i ;
MAT
seeded clone-pure-n4 demo clone-pure --alphabet @alphabet4.txt --index 2
# near-parallel alphabets {|0>, cos e|0> + sin e|1>}: at e = 1e-2 the solve
# certifies one fixed point (PASS); at e = 1e-4 the gap of R - I is below the
# count's window, which reads multiplicity 2 (FAIL, exit 2)
cat >"$out/near-parallel-1e-2.mat" <<'MAT'
matrix 2 1
1.0 0.9999500004166653 ;
0.0 0.009999833334166664 ;
MAT
cat >"$out/near-parallel-1e-4.mat" <<'MAT'
matrix 2 1
1.0 0.999999995 ;
0.0 9.999999983333334e-05 ;
MAT
seeded clone-pure-near-parallel-1e-2 demo clone-pure --alphabet @near-parallel-1e-2.mat
seeded clone-pure-near-parallel-1e-4 demo clone-pure --alphabet @near-parallel-1e-4.mat
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
    seeded "run-${name%.ctc}" run "circuits/$name"
    seeded "run-${name%.ctc}-trace-out" run "circuits/$name" --trace-out "$keep"
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
seeded run-input-order run circuits/input-order.ctc
seeded run-input-order-trace-out run circuits/input-order.ctc --trace-out B
seeded run-input-order-trace-out-CA run circuits/input-order.ctc --trace-out C,A
# no CR register: the CR input is the empty product [[1]]
cat >"$out/circuits/ctc-only.ctc" <<'CTC'
system CTC 2
gate unitary CTC @ctc-only.mat
CTC
cat >"$out/circuits/ctc-only.mat" <<'MAT'
matrix 2 1
0.6 -0.8 ; 0.8 0.6 ;
MAT
seeded run-ctc-only run circuits/ctc-only.ctc

# failing circuits, each with a gate line repeated: every repeat of a line
# that names an undeclared register or lacks its @ is reported at its own
# line, and a select whose family does not fit fails at its first line
cat >"$out/circuits/bad-unknown-register.ctc" <<'CTC'
system A 2
system CTC 2
input pure A : 1 0
gate swap A Z
gate csum A CTC
gate swap A Z  # again
gate swap A Z
CTC
seeded run-bad-unknown-register run circuits/bad-unknown-register.ctc
cat >"$out/circuits/bad-malformed-gate.ctc" <<'CTC'
system A 2
system CTC 2
input pure A : 1 0
gate select A CTC bad-family.mat
gate swap A CTC
gate select A CTC bad-family.mat  # again
gate select A CTC bad-family.mat
CTC
seeded run-bad-malformed-gate run circuits/bad-malformed-gate.ctc
# a family of two fits the qubit control B, not the qutrit control A
cat >"$out/circuits/bad-family.ctc" <<'CTC'
system A 3
system B 2
system CTC 2
input pure A : 1 0 0
input pure B : 0 1
gate select B CTC @bad-family.mat
gate swap B CTC
gate select A B @bad-family.mat
gate select B CTC @bad-family.mat
gate select A B @bad-family.mat
CTC
cat >"$out/circuits/bad-family.mat" <<'MAT'
matrix 2 2
1 0 ; 0 1 ;
0.6 -0.8 ; 0.8 0.6 ;
MAT
seeded run-bad-family run circuits/bad-family.ctc
