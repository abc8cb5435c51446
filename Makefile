# Convenience entry points; everything below is plain dune.
#
# Smoke targets write into a private mktemp directory cleaned by a trap,
# so they are safe to run in parallel (make -j) and leave nothing behind.

BENCH_GATE_FIGS ?= table1 fig2 fig3 fig4 fig8 table2 fig11 fig12 fig13 fig14 fig15 aes udf ablations memshare rings chaos chaos_slo translate

.PHONY: all check test bench bench-baselines bench-gate \
	trace-smoke sched-smoke profiler-smoke chaos-smoke slo-smoke \
	explain-smoke translate-smoke vtrace-smoke ring-smoke \
	fuzz-smoke fuzz-fixtures fuzz-nightly examples-smoke lib-delta surface \
	golden fmt clean

all:
	dune build

# tier-1 gate: full build + every test suite + the smoke tests
check:
	dune build
	dune runtest
	$(MAKE) trace-smoke
	$(MAKE) sched-smoke
	$(MAKE) profiler-smoke
	$(MAKE) chaos-smoke
	$(MAKE) slo-smoke
	$(MAKE) explain-smoke
	$(MAKE) translate-smoke
	$(MAKE) vtrace-smoke
	$(MAKE) ring-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) fuzz-fixtures
	$(MAKE) examples-smoke

test: check

bench:
	dune exec bench/main.exe

# regenerate the committed baselines, one BENCH_<fig>.json per figure:
# the record of the paper's numbers that the gate and test_claims read
bench-baselines:
	dune exec bench/main.exe -- $(BENCH_GATE_FIGS) --json-out bench/baselines
	@ls bench/baselines

# the bench gate, run as CI runs it: regenerate every figure with a
# telemetry hub attached into a scratch directory and require each cell
# to equal the committed baseline exactly (benchdiff names any that
# differs)
bench-gate:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bench/main.exe -- $(BENCH_GATE_FIGS) --telemetry --json-out $$d > /dev/null; \
	dune exec bin/benchdiff.exe -- --baseline bench/baselines --fresh $$d $(BENCH_GATE_FIGS)

# telemetry smoke: run a chaos workload twice at the same seed with
# every observer attached (hub spans + metrics, flight ring, a vtrace
# probe); the Chrome traces and stdout must be byte-identical, and the
# trace must validate (JSON parses, phase spans present). Both runs
# write the same path, so the "trace written to" line matches too.
TRACE_SMOKE_RUN = dune exec bin/wasprun.exe -- --example --chaos --repeat 5 \
	--trace-json $$d/trace.json --metrics --probe 'exit { count() by (reason) }'
trace-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	$(TRACE_SMOKE_RUN) > $$d/a.txt; mv $$d/trace.json $$d/a.json; \
	$(TRACE_SMOKE_RUN) > $$d/b.txt; \
	cmp $$d/a.json $$d/trace.json \
	  || { echo "trace-smoke: same-seed Chrome traces diverged"; exit 1; }; \
	cmp $$d/a.txt $$d/b.txt \
	  || { echo "trace-smoke: same-seed stdout diverged"; diff $$d/a.txt $$d/b.txt; exit 1; }; \
	dune exec bin/wasprun.exe -- --check-trace $$d/trace.json

# multi-core scheduler smoke: run the fig12 core-scaling sweep on 4
# simulated cores with telemetry, dump the Chrome trace, validate it
sched-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bench/main.exe -- fig12 --cores 4 --telemetry --trace-json $$d/sched.json > /dev/null; \
	dune exec bin/wasprun.exe -- --check-trace $$d/sched.json

# profiler/replay smoke: profile one recursive-fib invocation while
# recording it, then replay the recording and require zero cycle
# divergence (the exit status of --replay enforces it)
profiler-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bin/wasprun.exe -- --example --profile --profile-folded $$d/fib.folded --record $$d/fib.vxr; \
	dune exec bin/wasprun.exe -- --replay $$d/fib.vxr

# chaos smoke: record an invocation under the default fault plan, then
# replay it; --replay re-arms the recorded plan and requires zero
# divergence, injections included
chaos-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bin/wasprun.exe -- --example --chaos --record $$d/chaos.vxr; \
	dune exec bin/wasprun.exe -- --replay $$d/chaos.vxr

# SLO smoke: run the chaos burn-rate arm and require that at least one
# alert fired during the storm AND everything recovered afterwards
slo-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bench/main.exe -- chaos_slo > $$d/slo.txt; \
	grep -E 'SLO-SMOKE: alerts_fired=[1-9][0-9]* .* recovered=yes' $$d/slo.txt \
	  || { echo "slo-smoke: alert did not fire or did not recover:"; cat $$d/slo.txt; exit 1; }

# explain smoke: same-seed runs of --explain-slowest must print
# byte-identical causal timelines (deterministic trace ids + virtual
# clock), and the span tree must tile the root exactly
explain-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bin/wasprun.exe -- --example --chaos --repeat 5 --explain-slowest 1 > $$d/a.txt; \
	dune exec bin/wasprun.exe -- --example --chaos --repeat 5 --explain-slowest 1 > $$d/b.txt; \
	cmp $$d/a.txt $$d/b.txt || { echo "explain-smoke: same-seed explain output diverged"; exit 1; }; \
	grep -q 'conservation: .* (exact)' $$d/a.txt \
	  || { echo "explain-smoke: span tree does not tile the root exactly:"; cat $$d/a.txt; exit 1; }

# translation smoke: a recording must replay with zero divergence, and
# the engine-ablation bench must report zero architectural divergence
# from the reference stepper at a double-digit wall-clock speedup
translate-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bin/wasprun.exe -- --example --record $$d/tr.vxr; \
	dune exec bin/wasprun.exe -- --replay $$d/tr.vxr; \
	dune exec bench/main.exe -- translate > $$d/tr.txt 2>&1; \
	grep -E 'TRANSLATE-SMOKE: divergence=0 speedup=[0-9]{2,}x' $$d/tr.txt \
	  || { echo "translate-smoke: engines diverged or speedup below 10x:"; cat $$d/tr.txt; exit 1; }

# vtrace smoke: attach a probe to a chaos recording run, require the
# rendered table to see the workload, then replay the recording with the
# same probe attached — the aggregate tables must be byte-identical
# (probes are replay-stable and charge no simulated cycles)
vtrace-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bin/wasprun.exe -- --example --chaos --record $$d/vt.vxr \
	  --probe 'exit { count() by (reason) }' --probe-out $$d/rec.txt; \
	grep -q '| hypercall' $$d/rec.txt \
	  || { echo "vtrace-smoke: probe table missing hypercall exits:"; cat $$d/rec.txt; exit 1; }; \
	dune exec bin/wasprun.exe -- --replay $$d/vt.vxr \
	  --probe 'exit { count() by (reason) }' --probe-out $$d/rep.txt; \
	cmp $$d/rec.txt $$d/rep.txt \
	  || { echo "vtrace-smoke: record and replay probe tables differ"; \
	       diff $$d/rec.txt $$d/rep.txt; exit 1; }

# ring smoke: record one request through the ringed file server (two
# exits: read + ring_enter doorbell), then replay the .vxr — the replay
# rebuilds the host environment (corpus + pending request) from the
# image name and must diverge by zero cycles
ring-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bin/wasprun.exe -- --vhttp --record $$d/ring.vxr; \
	dune exec bin/wasprun.exe -- --replay $$d/ring.vxr

# fuzz smoke: a fixed-iteration campaign must be clean AND byte-identical
# across two same-seed runs, and the differential oracle must catch both
# planted harness canaries (a reverted shift-mask guard emulated on the
# reference stepper, and a one-cycle translator skew) within the same
# budget; then every entry of a short campaign's --corpus directory must
# replay through wasprun, as the committed fixtures do
fuzz-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bin/fuzz_cli.exe -- --iters 25 --seed 0xF022 > $$d/a.txt; \
	dune exec bin/fuzz_cli.exe -- --iters 25 --seed 0xF022 > $$d/b.txt; \
	cmp $$d/a.txt $$d/b.txt \
	  || { echo "fuzz-smoke: same-seed campaigns diverged"; diff $$d/a.txt $$d/b.txt; exit 1; }; \
	grep -E 'FUZZ: iters=25 corpus=[0-9]+ coverage_bits=[0-9]+ findings=0' $$d/a.txt \
	  || { echo "fuzz-smoke: campaign not clean:"; cat $$d/a.txt; exit 1; }; \
	dune exec bin/fuzz_cli.exe -- --iters 5 --seed 3 --canary shift-mask \
	  --expect-finding canary-divergence > $$d/c1.txt \
	  || { echo "fuzz-smoke: shift-mask canary missed:"; cat $$d/c1.txt; exit 1; }; \
	dune exec bin/fuzz_cli.exe -- --iters 5 --seed 3 --canary cycle-skew \
	  --expect-finding canary-divergence > $$d/c2.txt \
	  || { echo "fuzz-smoke: cycle-skew canary missed:"; cat $$d/c2.txt; exit 1; }; \
	grep -h 'FUZZ-SMOKE' $$d/c1.txt $$d/c2.txt; \
	dune exec bin/fuzz_cli.exe -- --iters 3 --seed 7 --corpus $$d/corpus > $$d/corpus.txt; \
	for f in $$d/corpus/*.vxr; do \
	  dune exec bin/wasprun.exe -- --replay "$$f" > /dev/null \
	    || { echo "fuzz-smoke: wasprun --replay rejected corpus entry $$f"; exit 1; }; \
	done; \
	echo "FUZZ-SMOKE: corpus entries replayed: $$(ls $$d/corpus | wc -l)"

# replay every committed reproducer and require byte-identical
# recordings, then run each image through the CPU-level engine arm
# (translator vs reference stepper; CI runs this on every PR); then
# replay each one through wasprun too, which must give the same verdict
fuzz-fixtures:
	dune exec bin/fuzz_cli.exe -- --check-fixtures test/fixtures
	@set -eu; for f in test/fixtures/*.vxr; do \
	  dune exec bin/wasprun.exe -- --replay "$$f" \
	    || { echo "fuzz-fixtures: wasprun --replay rejected $$f"; exit 1; }; \
	done

# the nightly lane: a time-boxed campaign with a persistent corpus
# (FUZZ_BUDGET CPU-seconds, FUZZ_CORPUS carried across nights by CI)
FUZZ_BUDGET ?= 600
FUZZ_CORPUS ?= fuzz-corpus
fuzz-nightly:
	@set -u; mkdir -p $(FUZZ_CORPUS) fuzz-out; \
	dune exec bin/fuzz_cli.exe -- --time-budget $(FUZZ_BUDGET) \
	  --corpus $(FUZZ_CORPUS) --fixtures-out fuzz-out/reproducers -v \
	  > fuzz-out/nightly.log 2>&1; status=$$?; \
	cat fuzz-out/nightly.log; exit $$status

# examples smoke: every program under examples/ (the library's
# documented entry points, as a client drives them) must run to exit 0
EXAMPLES = $(basename $(notdir $(wildcard examples/*.ml)))
examples-smoke:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune build $(addprefix ./examples/,$(addsuffix .exe,$(EXAMPLES))); \
	for e in $(EXAMPLES); do \
	  ./_build/default/examples/$$e.exe > $$d/$$e.txt 2>&1 \
	    || { echo "examples-smoke: $$e exited non-zero:"; cat $$d/$$e.txt; exit 1; }; \
	done; \
	echo "EXAMPLES-SMOKE: $(words $(EXAMPLES)) examples exited 0"

# lines added, removed and net under lib/ between BASE (default HEAD)
# and the working tree, untracked files included: the figure each
# CHANGES.md entry records
BASE ?= HEAD
lib-delta:
	@{ git diff --numstat $(BASE) -- lib; \
	  git ls-files --others --exclude-standard -- lib | while read -r f; do \
	    printf '%s\t0\t%s\n' "$$(wc -l < "$$f")" "$$f"; done; } \
	| awk '$$1 != "-" { a += $$1; r += $$2 } \
	  END { printf "lib/ delta vs $(BASE): +%d -%d net %+d\n", a, r, a - r }'

# the size of the library's interfaces at BASE (default HEAD) and in the
# working tree: `val` declarations and `?label:` optional arguments
# in lib/**/*.mli (informational, like lib-delta; never a gate)
SURFACE_COUNT = awk '/^[ \t]*val /{v++} {o += gsub(/\?[a-z_][A-Za-z0-9_]*:/, "")} \
	END { printf "%d vals, %d optional labels", v, o }'
surface:
	@printf 'surface at $(BASE): %s in %s interfaces\n' \
	  "$$(git grep -h -e '' $(BASE) -- 'lib/*.mli' | $(SURFACE_COUNT))" \
	  "$$(git ls-tree -r --name-only $(BASE) -- lib | grep -c '\.mli$$')"
	@printf 'surface in the working tree: %s in %s interfaces\n' \
	  "$$(find lib -name '*.mli' -exec cat {} + | $(SURFACE_COUNT))" \
	  "$$(find lib -name '*.mli' | grep -c .)"

# byte identity against BASE (default HEAD), for refactors: BASE is
# extracted with git archive and built beside the working tree, and the
# trace/explain/profile/chaos/ring smoke runs, the fig12 trace, all 19
# figures' BENCH_*.json, a 25-iteration fuzz campaign and the examples'
# stdout must match
golden:
	sh bench/golden.sh $(BASE)

# formatting gate; skipped gracefully where ocamlformat is not installed
# (CI always runs it)
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then dune build @fmt; \
	else echo "ocamlformat not found; skipping fmt (CI enforces it)"; fi

clean:
	dune clean
