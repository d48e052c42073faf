#!/bin/sh
# CI entry point: full build, the complete test suite, and (when the
# formatter is installed) a formatting check.  Exits non-zero on the
# first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

# Chaos pass: the same suite with the fault-injection corruption
# streams pinned to a fixed seed, so the robustness tests exercise a
# reproducible-but-different set of bit flips than the library
# default.  Faults are armed per-test (Ec_util.Fault); the seed only
# steers which corruption each armed site produces.
echo "== dune runtest (chaos, ECSAT_FAULT_SEED=20020610) =="
ECSAT_FAULT_SEED=20020610 dune runtest --force

# Observability artifacts: one traced fast-EC change with metrics
# armed (exit 10 is the SAT-competition "satisfiable" code).  Both files
# are kept as build artifacts, so every CI run leaves a sample Chrome
# trace and a solver metrics snapshot to inspect.
echo "== observability artifacts (ecsat fast --trace/--metrics) =="
OBS_CNF=$(mktemp /tmp/ecsat-ci-XXXXXX.cnf)
trap 'rm -f "$OBS_CNF"' EXIT
dune exec bin/ecsat.exe -- gen jnh1 -o "$OBS_CNF"
status=0
dune exec bin/ecsat.exe -- fast "$OBS_CNF" -e 3 --add=1,-2,4 --verify \
  --trace TRACE_sample.json --metrics METRICS.json || status=$?
[ "$status" -eq 10 ] || { echo "observability smoke: expected exit 10, got $status"; exit 1; }
grep -q '"traceEvents"' TRACE_sample.json \
  || { echo "TRACE_sample.json: not a Chrome trace-event document"; exit 1; }
for span in flow.apply_change fast_ec.simplify; do
  grep -q "\"name\":\"$span\"" TRACE_sample.json \
    || { echo "TRACE_sample.json: no $span span"; exit 1; }
done
grep -q '"solve.cdcl.calls"' METRICS.json \
  || { echo "METRICS.json: no solve.cdcl.calls counter"; exit 1; }
echo "observability artifacts: TRACE_sample.json METRICS.json"

# Serve smoke: the daemon over stdio, a two-session JSONL script with
# a mixed op set (create/solve/pin/add-clauses/query/health), then
# shutdown — every request must be answered and the drain must exit 0.
echo "== serve smoke (ecsat serve, stdio) =="
SERVE_REQ=$(mktemp /tmp/ecsat-ci-XXXXXX.jsonl)
SERVE_OUT=$(mktemp /tmp/ecsat-ci-XXXXXX.out)
SERVE_CHAOS_OUT=$(mktemp /tmp/ecsat-ci-XXXXXX.out)
trap 'rm -f "$OBS_CNF" "$SERVE_REQ" "$SERVE_OUT" "$SERVE_CHAOS_OUT"' EXIT
cat > "$SERVE_REQ" <<'EOF'
{"op":"create-session","session":"healthy","id":1,"clauses":[[1,2],[-1,2],[1,-2]]}
{"op":"create-session","session":"sick","id":2,"clauses":[[3,4],[-3,4],[3,-4]]}
{"op":"solve","session":"healthy","id":3}
{"op":"solve","session":"sick","id":4}
{"op":"solve","session":"sick","id":5}
{"op":"pin","session":"healthy","id":6,"lits":[-1,-2]}
{"op":"solve","session":"healthy","id":7}
{"op":"pin","session":"healthy","id":8,"lits":[]}
{"op":"add-clauses","session":"healthy","id":9,"clauses":[[-2,-1]]}
{"op":"solve","session":"healthy","id":10}
{"op":"query","session":"sick","id":11}
{"op":"health","id":12}
{"op":"shutdown","id":13}
EOF
status=0
dune exec bin/ecsat.exe -- serve --jobs 2 < "$SERVE_REQ" > "$SERVE_OUT" || status=$?
[ "$status" -eq 0 ] || { echo "serve smoke: expected exit 0, got $status"; exit 1; }
responses=$(wc -l < "$SERVE_OUT")
[ "$responses" -eq 13 ] || { echo "serve smoke: expected 13 responses, got $responses"; exit 1; }
grep -q '"status":"sat","model":.*"certified":true' "$SERVE_OUT" \
  || { echo "serve smoke: no certified sat answer"; exit 1; }
grep -q '"id":7,"session":"healthy","status":"unsat"' "$SERVE_OUT" \
  || { echo "serve smoke: pinned solve did not report unsat"; exit 1; }

# Serve chaos: the same script with the "sick" session's engine rigged
# to crash twice (initial attempt + the reseeded retry).  The sick
# session must degrade to a structured unknown — and the healthy
# session's response stream must be byte-identical to the clean run.
echo "== serve chaos (serve.session:sick=raise:2, --jobs 2) =="
status=0
ECSAT_FAULTS="seed=20020610;serve.session:sick=raise:2" \
  dune exec bin/ecsat.exe -- serve --jobs 2 < "$SERVE_REQ" > "$SERVE_CHAOS_OUT" || status=$?
[ "$status" -eq 0 ] || { echo "serve chaos: expected exit 0, got $status"; exit 1; }
grep -q '"degraded":true' "$SERVE_CHAOS_OUT" \
  || { echo "serve chaos: faulted session did not degrade"; exit 1; }
grep '"session":"healthy"' "$SERVE_OUT" > "$SERVE_OUT.healthy"
grep '"session":"healthy"' "$SERVE_CHAOS_OUT" > "$SERVE_CHAOS_OUT.healthy"
cmp -s "$SERVE_OUT.healthy" "$SERVE_CHAOS_OUT.healthy" \
  || { echo "serve chaos: healthy session stream diverged under faults"; exit 1; }
rm -f "$SERVE_OUT.healthy" "$SERVE_CHAOS_OUT.healthy"
echo "serve chaos: sick session degraded, healthy stream byte-identical"

# MaxSAT chaos: the "maxsat.core" failpoint corrupts the first unsat
# core the engine extracts.  The engine must detect the impossible
# literal and the CLI must degrade to a structured UNKNOWN (exit 0,
# never a wrong optimum).
echo "== maxsat chaos (maxsat.core=corrupt:1) =="
MAXSAT_CNF=$(mktemp /tmp/ecsat-ci-XXXXXX.cnf)
trap 'rm -f "$OBS_CNF" "$SERVE_REQ" "$SERVE_OUT" "$SERVE_CHAOS_OUT" "$MAXSAT_CNF"' EXIT
printf 'p cnf 2 1\n1 2 0\n' > "$MAXSAT_CNF"
MAXSAT_CHAOS=$(ECSAT_FAULTS="maxsat.core=corrupt:1" \
  dune exec bin/ecsat.exe -- preserve --engine maxsat --add=-1 "$MAXSAT_CNF") || \
  { echo "maxsat chaos: expected a graceful exit 0, got $?"; exit 1; }
echo "$MAXSAT_CHAOS" | grep -q '^s UNKNOWN' \
  || { echo "maxsat chaos: corrupted core did not degrade to UNKNOWN"; exit 1; }
echo "$MAXSAT_CHAOS" | grep -q 'engine-failure(maxsat' \
  || { echo "maxsat chaos: missing structured engine-failure reason"; exit 1; }
echo "maxsat chaos: corrupted core contained as a structured UNKNOWN"

# Benchmark correctness smoke: each ecbench workload (enable, fast,
# preserve, serve) checks every answer it timed against an independent
# reference and exits 0 only if all of them passed (1 = a check
# failed, 2 = bad arguments or an inherited OCAMLRUNPARAM/CAMLRUNPARAM,
# which the smoke clears because it gates answers, not timings).  One
# short window per workload runs the library calls the benchmark makes,
# which the unit tests above do not.
echo "== ecbench correctness smoke (four workloads, --seconds 1) =="
for workload in enable fast preserve serve; do
  status=0
  env -u OCAMLRUNPARAM -u CAMLRUNPARAM bash ecbench/run.sh --workload "$workload" \
    --seed 1 --seconds 1 --trace 0 > /dev/null || status=$?
  [ "$status" -eq 0 ] || { echo "ecbench $workload: expected exit 0, got $status"; exit 1; }
  echo "ecbench $workload: every answer passed its check"
done

# Benchmark matrix smoke: run the full engine-config × scenario ×
# scale cross product at smoke scale against the committed store
# (bench/results.jsonl), gate each cell against the most recent cell
# from a different commit, and append this run's cells so the store
# keeps accumulating measurement history (once per commit: a re-run
# skips the cells the store already holds for it).  A cell that is not
# ok fails the gate even without a baseline.  The matrix runner skips
# the wall-time gate when cores_online <= 1 (it prints the skip
# notice); the deterministic work counters are gated unconditionally.
# First, a scale below 1 must be rejected (exit 2) before the store is
# touched.
echo "== benchmark matrix (trend gate over bench/results.jsonl) =="
STORE_BEFORE=$(mktemp /tmp/ecsat-ci-XXXXXX.jsonl)
trap 'rm -f "$OBS_CNF" "$SERVE_REQ" "$SERVE_OUT" "$SERVE_CHAOS_OUT" "$MAXSAT_CNF" "$STORE_BEFORE"' EXIT
cp bench/results.jsonl "$STORE_BEFORE"
status=0
SCALES_ERR=$(dune exec bench/main.exe -- --matrix-scales 0,-3 --store bench/results.jsonl \
  2>&1 >/dev/null) || status=$?
[ "$status" -eq 2 ] || { echo "matrix: --matrix-scales 0,-3 expected exit 2, got $status"; exit 1; }
echo "$SCALES_ERR" | grep -q -- '--matrix-scales' \
  || { echo "matrix: the rejection does not name --matrix-scales"; exit 1; }
cmp -s "$STORE_BEFORE" bench/results.jsonl \
  || { echo "matrix: a rejected --matrix-scales changed the store"; exit 1; }
echo "matrix: --matrix-scales 0,-3 rejected (exit 2), store unchanged"
matrix_commit=$(git rev-parse --short HEAD 2>/dev/null || echo dev)
dune exec bench/main.exe -- --matrix-scales 24 \
  --store bench/results.jsonl --commit "$matrix_commit"
echo "matrix: cells appended to bench/results.jsonl at commit $matrix_commit"

# Static analysis.  The scan's own metrics (lint.duration_s and
# finding counts) go to LINT_METRICS.json, so the solver snapshot in
# METRICS.json survives as the artifact the block above promises.
# Three gates:
#   - dune build @lint: the whole-program scan over lib/ + bin/ fails
#     on any unwaived finding (DS001/DS003 publish-ordering, LK001
#     lock-order cycles, RS001 resource leaks, BP001 pollability, ...);
#   - eclint --waivers: a waiver whose check no longer fires is rot
#     and fails the build until it is removed;
#   - a lint-time budget: the summary cache must keep the scan fast,
#     so a scan that takes over 120s is itself a regression.
# The test tree is scanned too, in --warn all mode: fixture findings
# are the point, so they must never gate, but a crash or a parse
# regression on the fixture corpus would surface here.
echo "== dune build @lint =="
dune build @lint
dune exec bin/eclint.exe -- --format=json --cache .eclint.cache \
  --metrics LINT_METRICS.json _build/default/lib _build/default/bin \
  > LINT.json
echo "lint report: LINT.json"
echo "== eclint --waivers (staleness audit) =="
dune exec bin/eclint.exe -- --waivers --cache .eclint.cache \
  _build/default/lib _build/default/bin
echo "== eclint over the test tree (--warn all, non-gating) =="
dune exec bin/eclint.exe -- --warn all --cache .eclint.cache.test \
  _build/default/test > /dev/null \
  || { echo "eclint: scan of the test tree crashed"; exit 1; }
echo "test tree scanned"
lint_s=$(grep -o '"lint\.duration_s":*[0-9.eE+-]*' LINT_METRICS.json | grep -o '[0-9.eE+-]*$')
awk -v s="${lint_s:-0}" 'BEGIN { exit (s > 0 && s <= 120.0) ? 0 : 1 }' \
  || { echo "lint budget: scan took ${lint_s:-unrecorded}s (budget 120s)"; exit 1; }
echo "lint duration: ${lint_s}s (budget 120s)"

# ocamlformat is not part of the minimal toolchain; check formatting
# only where it is available so the script works in both environments.
if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed) =="
fi

echo "CI OK"
