#!/bin/sh
# Byte-identity check of the deterministic outputs against a base
# revision (a refactor must reproduce every one of them exactly).
# Run from the root of the checkout:
#   sh bench/golden.sh [BASE]        (BASE defaults to HEAD; `make golden BASE=rev`)
# BASE is extracted with git archive into a temporary directory, and
# both it and the working tree are built. The same commands then run on
# each side, each from its own output directory with the same relative
# paths (so paths echoed into the outputs match), and every output is
# compared with cmp. Every difference is reported; the exit status is 1
# if there is any.
set -eu
base=${1:-HEAD}
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir -p "$tmp/src" "$tmp/out/base" "$tmp/out/work"
git archive "$base" | tar -x -C "$tmp/src"

exes="./bin/wasprun.exe ./bin/fuzz_cli.exe ./bin/vespid_cli.exe ./bench/main.exe"
# the programs under examples/, as clients of the library drive it
examples="quickstart echo_server http_server js_udf aes_library db_udf"
for e in $examples; do exes="$exes ./examples/$e.exe"; done
echo "golden: building $base and the working tree"
for tree in "$tmp/src" "$root"; do
  # shellcheck disable=SC2086
  if ! (cd "$tree" && dune build --root . --display quiet $exes 2> "$tmp/build.log"); then
    cat "$tmp/build.log"
    exit 1
  fi
done

probe='exit { count() by (reason) }'
# every figure: the Makefile's BENCH_GATE_FIGS line is the one list
figures=$(sed -n 's/^BENCH_GATE_FIGS ?= //p' "$root/Makefile")
test -n "$figures"

# run TREE OUTDIR: every command, from OUTDIR, with TREE's executables
run() {
  w="$1/_build/default/bin/wasprun.exe"
  f="$1/_build/default/bin/fuzz_cli.exe"
  v="$1/_build/default/bin/vespid_cli.exe"
  b="$1/_build/default/bench/main.exe"
  cd "$2"
  "$w" --example --chaos --repeat 5 --trace-json trace.json --metrics --probe "$probe" \
    > trace-smoke.txt
  "$w" --example --chaos --repeat 5 --explain-slowest 1 > explain.txt
  "$w" --example --mem-stats > mem-stats.txt
  "$w" --example --profile --profile-folded fib.folded --record fib.vxr > profile.txt
  "$w" --example --chaos --record chaos.vxr --probe "$probe" --probe-out chaos-probe.txt \
    > chaos.txt
  "$w" --replay chaos.vxr --probe "$probe" --probe-out replay-probe.txt > replay.txt
  "$w" --vhttp --record ring.vxr > vhttp.txt
  # the guest faults on purpose (exit 1): its flight dump ends in a
  # FAULT entry, recorded with the exit status
  fault_status=0
  "$w" --example-fault > fault.txt 2>&1 || fault_status=$?
  echo "exit status $fault_status" >> fault.txt
  "$b" fig12 --cores 4 --telemetry --trace-json sched.json > fig12.txt
  # host wall-clock notes (translate's speedups) go to stderr
  # shellcheck disable=SC2086
  "$b" $figures --json-out json > figures.txt
  "$f" --iters 25 --seed 0xF022 > fuzz.txt
  # Vespid's JavaScript functions, cold and warm, in simulated latency
  "$v" demo > vespid.txt
  for e in $examples; do "$1/_build/default/examples/$e.exe" > "example-$e.txt"; done
  cd "$root"
}

echo "golden: running $base"
run "$tmp/src" "$tmp/out/base"
echo "golden: running the working tree"
run "$root" "$tmp/out/work"

(cd "$tmp/out/base" && find . -type f | sed 's|^\./||' | sort) > "$tmp/base.list"
(cd "$tmp/out/work" && find . -type f | sed 's|^\./||' | sort) > "$tmp/work.list"
status=0
if ! cmp -s "$tmp/base.list" "$tmp/work.list"; then
  echo "golden: the two sides wrote different files:"
  diff "$tmp/base.list" "$tmp/work.list" || true
  status=1
fi
n=0
while read -r f; do
  [ -f "$tmp/out/work/$f" ] || continue
  n=$((n + 1))
  if ! cmp "$tmp/out/base/$f" "$tmp/out/work/$f"; then
    # JSON outputs are one long line: show the first few lines, clipped
    diff "$tmp/out/base/$f" "$tmp/out/work/$f" | head -n 6 | cut -c 1-160 || true
    status=1
  fi
done < "$tmp/base.list"
if [ "$status" -eq 0 ]; then
  echo "golden: $n outputs byte-identical to $base"
else
  echo "golden: outputs differ from $base"
fi
exit "$status"
