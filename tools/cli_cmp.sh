#!/usr/bin/env bash
# Byte-identity check of the qcrb-lab CLI, the validate battery and the demos
# between two checkouts of this repository.
#
# Usage: tools/cli_cmp.sh PARENT_DIR CHANGE_DIR
#
# Runs one fixed list of commands against each checkout's src/ (figure2 and
# figure3 as CSV and JSON on the default and a 999-point grid, one sweep per
# probe, report for the four probes and the doubly seeded warning case, report
# and sweep of an s = 0 bSMSS off theta = 2 arg(alpha) (the coherent probe), mc with
# both samplers and --gain, at up to 2 and at 7-123 RNG blocks, an Exact vacuum
# bTMSS over 1001^2 outcomes and one through both losses of its real expansion,
# refused inputs (a bTMSS whose closed-form variance cancels among them),
# validate, each battery check's max_err as float.hex() from run_battery(),
# the lossy Fock QFI as float.hex() for three photon numbers, and every demos/*.py),
# then compares stdout, stderr and exit code of each pair.  Prints one line per
# command and exits 1 on any difference, 0 when all are identical.  Writes only
# under a temporary directory: each command runs there, without bytecode.
set -u

if [ $# -ne 2 ] || [ ! -d "$1/src/qcrb_lab" ] || [ ! -d "$2/src/qcrb_lab" ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR (each a checkout holding src/qcrb_lab)" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
python=${PYTHON:-python3}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

PI=3.141592653589793
GRID=T=0.001:0.999:999
COMMANDS=(
    "figure2"
    "figure2 --format json"
    "figure2 --grid $GRID"
    "figure2 --grid $GRID --format json"
    "figure3"
    "figure3 --format json"
    "figure3 --grid $GRID"
    "figure3 --grid $GRID --format json"
    "sweep --state coherent --alpha 1000 --Tp 0.9 --eta-p 0.95"
    "sweep --state bsmss --alpha 1000 --s 1.5 --Tp 0.9 --eta-p 0.98 --format json"
    "sweep --state btmss --alpha 1000 --s 2 --theta $PI --Tp 0.9 --eta-p 0.98 --eta-a 0.9"
    "sweep --state fock --fock-n 3 --Tp 0.8 --grid T=0.05:0.95:19"
    "report --state coherent --alpha 3 --T 0.4 --eta-p 0.9"
    "report --state bsmss --alpha 1000 --s 1 --T 0.7 --Tp 0.9 --format json"
    "report --state btmss --alpha 1000 --s 2 --theta $PI --T 0.5 --eta-a 0.95"
    "report --state fock --fock-n 5 --T 0.3 --Tp 0.9"
    "report --state btmss --alpha 10 --beta 5 --s 1 --theta 0 --T 0.5"
    "report --state bsmss --alpha 1000 --s 0 --theta 1 --T 0.5"
    "sweep --state bsmss --alpha 1000 --s 0 --theta 2 --Tp 0.9 --eta-p 0.98 --grid T=0.05:0.95:19"
    "mc --state coherent --alpha 100 --T 0.5 --sampler exact --seed 3"
    "mc --state coherent --alpha 1000 --T 0.6 --eta-p 0.9 --trials 20000 --seed 4"
    "mc --state bsmss --alpha 5 --s 0.5 --T 0.5 --sampler exact --seed 5"
    "mc --state btmss --alpha 200 --s 1 --theta $PI --T 0.6 --Tp 0.95 --eta-a 0.96 --seed 6"
    "mc --state btmss --alpha 3 --s 0.5 --theta $PI --T 0.5 --sampler exact --gain 1.5 --seed 7"
    "mc --state btmss --alpha 200 --s 1 --theta $PI --T 0.5 --gain 0 --seed 8 --format json"
    "mc --state fock --fock-n 4 --T 0.5 --Tp 0.9 --sampler exact --seed 9"
    "mc --state fock --fock-n 12 --T 0.5 --Tp 0.9 --sampler exact --trials 1000003 --seed 10"
    "mc --state btmss --alpha 1.3 --s 0.35 --theta $PI --T 0.6 --sampler exact --trials 300001 --seed 11"
    "mc --state btmss --alpha 500 --s 1 --theta $PI --T 0.6 --eta-a 0.95 --trials 2000001 --seed 12"
    "mc --state btmss --s 2.5 --T 0.5 --sampler exact --trials 100000 --seed 13"
    "mc --state btmss --s 0.8 --T 0.5 --eta-a 0.9 --sampler exact --seed 14"
    "report --state fock --fock-n 2.5 --T 0.5"
    "report --state coherent --alpha 1e200 --T 0.5"
    "report --state btmss --beta 1e155 --s 355 --T 0.5"
    "report --state bsmss --alpha 1000 --s 800 --T 0.5"
    "report --state coherent --alpha 10 --s 1 --T 0.5"
    "mc --state bsmss --alpha 355 --T 0.5 --sampler exact"
    "mc --state coherent --alpha 1e8 --T 0.5 --trials 1000 --sampler exact"
    "mc --state coherent --alpha 100 --T 0.5 --gain 1"
    "mc --state btmss --alpha 1e5 --s 20 --theta 3.14159 --T 0.5"
    "sweep --state coherent --alpha 10 --grid T=0.9:0.1:5"
    "validate"
)

run_one() {  # run_one CHECKOUT NAME ARGS... : outputs under $work/NAME/; @DIR@ in ARGS names the checkout
    local dir=$1 name=$2
    shift 2
    mkdir -p "$work/$name"
    (cd "$work/$name" && PYTHONPATH="$dir/src" PYTHONDONTWRITEBYTECODE=1 "$python" "${@//@DIR@/$dir}" >stdout 2>stderr
     echo $? >code)
}

failed=0
total=0
compare() {  # compare LABEL ARGS... : run in both checkouts and report
    local label=$1
    shift
    run_one "$parent" a "$@"
    run_one "$change" b "$@"
    if cmp -s "$work/a/stdout" "$work/b/stdout" && cmp -s "$work/a/stderr" "$work/b/stderr" \
        && cmp -s "$work/a/code" "$work/b/code"; then
        echo "same  (exit $(cat "$work/a/code"))  $label"
    else
        echo "DIFF  $label"
        diff <(cat "$work/a/stdout" "$work/a/stderr" "$work/a/code") \
             <(cat "$work/b/stdout" "$work/b/stderr" "$work/b/code") | head -20
        failed=$((failed + 1))
    fi
    total=$((total + 1))
    rm -rf "$work/a" "$work/b"
}

for args in "${COMMANDS[@]}"; do
    # each entry is one argv: its word splitting is intended
    # shellcheck disable=SC2086
    compare "qcrb-lab $args" -m qcrb_lab.cli $args
done
# validate prints 4 significant digits; this compares every max_err bit for bit
compare "run_battery() max_err as float.hex()" -c \
    "from qcrb_lab.validate import run_battery; print(*(r.name + ' ' + float(r.max_err).hex() for r in run_battery()), sep='\n')"
compare "fock_qfi_lossy(n, ch).qfi as float.hex()" -c \
    "from qcrb_lab import ChannelConfig; from qcrb_lab.qfi import fock_qfi_lossy; ch = ChannelConfig(T=0.35, T_p=0.9, eta_p=0.95); print(*(float(fock_qfi_lossy(n, ch).qfi).hex() for n in (1, 6, 100)))"
for demo in "$change"/demos/*.py; do
    # each checkout runs its own copy; one missing from the parent differs on stderr
    compare "demos/$(basename "$demo")" "@DIR@/demos/$(basename "$demo")"
done

echo "$((total - failed)) of $total identical"
[ "$failed" -eq 0 ]
