#!/usr/bin/env bash
# Smoke-runs every user-facing binary and checks the committed golden
# snapshots, mirroring the `smoke` leg of the CI matrix. Runnable
# locally: `ci/smoke.sh` (everything) or `ci/smoke.sh platforms` (the
# platform-matrix stage only, as the CI `platforms` leg runs it).
#
# Outputs:
#   ci-artifacts/          tool stdout, golden diffs, BENCH_simulator.json
#                          (gitignored; CI uploads it when the job fails)
#   $RUNNER_TEMP (or mktemp) scratch for files nobody needs afterwards
set -euo pipefail
cd "$(dirname "$0")/.."

# Optional stage selector: no argument runs everything; `platforms` runs
# only the platform-matrix stage (its own leg in the CI matrix, so a
# platform regression cannot hide behind an earlier golden diff).
STAGE="${1:-all}"
case "$STAGE" in
  all|platforms) ;;
  *)
    echo "usage: ci/smoke.sh [platforms]" >&2
    exit 2
    ;;
esac

ARTIFACTS=ci-artifacts
SCRATCH=${RUNNER_TEMP:-$(mktemp -d)}
mkdir -p "$ARTIFACTS"
rm -f "$ARTIFACTS"/*.diff "$ARTIFACTS"/*.actual

fail=0

# golden NAME EXPECTED ACTUAL — on mismatch, keep a unified diff and the
# actual bytes under ci-artifacts/ instead of losing them in the log.
golden() {
  local name=$1 expected=$2 actual=$3
  if diff -u "$expected" "$actual" > "$ARTIFACTS/$name.diff"; then
    rm -f "$ARTIFACTS/$name.diff"
    echo "golden ok : $name"
  else
    cp "$actual" "$ARTIFACTS/$name.actual"
    echo "GOLDEN DIVERGED: $name (diff kept at $ARTIFACTS/$name.diff)" >&2
    sed -n 1,40p "$ARTIFACTS/$name.diff" >&2
    fail=1
  fi
}

if [ "$STAGE" = all ]; then

echo "== figures smoke =="
cargo run --release -q -p ulp-bench --bin table1 > /dev/null
cargo run --release -q -p ulp-bench --bin faults > /dev/null

echo "== trace smoke =="
cargo run --release -q -p ulp-tools --bin het-sim -- \
  --benchmark matmul --iterations 4 --double-buffer \
  --trace "$ARTIFACTS/trace.json" --counters | tee "$ARTIFACTS/sim.out"
# The export must be well-formed JSON...
python3 -m json.tool "$ARTIFACTS/trace.json" > /dev/null
# ...non-trivial (events recorded, counters busy)...
grep -q '"ph":"X"' "$ARTIFACTS/trace.json"
grep -E -q 'core0 +[1-9]' "$ARTIFACTS/sim.out"
# ...and the counters section must have been printed.
grep -q 'per-component utilization' "$ARTIFACTS/sim.out"

echo "== pipeline smoke =="
# The pipelined engine must engage on the CNN workload and print its
# overlap accounting; the study table must match the pinned snapshot.
cargo run --release -q -p ulp-tools --bin het-sim -- \
  --benchmark cnn --iterations 16 --pipeline --counters | tee "$ARTIFACTS/pipe.out"
grep -q 'pipeline  chunk' "$ARTIFACTS/pipe.out"
grep -q 'pipeline overlap (engine schedule):' "$ARTIFACTS/pipe.out"
cargo run --release -q -p ulp-bench --bin pipeline_table > "$SCRATCH/pipeline_table.txt"
golden pipeline_table tests/golden/pipeline_table.txt "$SCRATCH/pipeline_table.txt"

echo "== serve smoke =="
# The serving layer end to end: het-sim front-end with batching and
# fairness on, then the study binary against both committed snapshots
# (the plain-text table and BENCH_serve.json must re-render exactly).
cargo run --release -q -p ulp-tools --bin het-sim -- \
  --serve --benchmark matmul --pool 2 --tenants 2 --duration-ms 400 \
  --counters | tee "$ARTIFACTS/serve.out"
grep -q 'serve     : hot kernel matmul' "$ARTIFACTS/serve.out"
grep -q 'batching  : mean batch' "$ARTIFACTS/serve.out"
grep -q 'per tenant:' "$ARTIFACTS/serve.out"
grep -q 'per-worker utilization counters:' "$ARTIFACTS/serve.out"
cargo run --release -q -p ulp-bench --bin serve -- \
  --json "$SCRATCH/BENCH_serve.json" > "$SCRATCH/serve_table.txt"
golden serve_table tests/golden/serve_table.txt "$SCRATCH/serve_table.txt"
golden BENCH_serve BENCH_serve.json "$SCRATCH/BENCH_serve.json"

echo "== soak smoke =="
# Chaos end to end: het-sim soak mode with faults, a flash crowd, a
# blackout, and residency churn must conserve every request and report
# a clean invariant verdict; then the million-request study binary
# against both committed snapshots.
cargo run --release -q -p ulp-tools --bin het-sim -- \
  --soak --benchmark cnn --pool 4 --duration-ms 400 \
  --drop-rate 0.01 --hang-rate 0.005 --burst-factor 50 | tee "$ARTIFACTS/soak.out"
grep -q 'soak      : hot kernel cnn' "$ARTIFACTS/soak.out"
grep -q 'chaos (seed' "$ARTIFACTS/soak.out"
grep -q 'SLO ledger (tenant x class: finished/missed):' "$ARTIFACTS/soak.out"
grep -q 'invariants: OK' "$ARTIFACTS/soak.out"
cargo run --release -q -p ulp-bench --bin soak -- \
  --json "$SCRATCH/BENCH_soak.json" > "$SCRATCH/soak_table.txt"
golden soak_table tests/golden/soak_table.txt "$SCRATCH/soak_table.txt"
golden BENCH_soak BENCH_soak.json "$SCRATCH/BENCH_soak.json"

echo "== fleet smoke =="
# Fleet-scale serving end to end: a small autoscaled two-group fleet
# that records its request stream, a byte-identical record/replay round
# trip through a *different* sharding, and the fleet study binary
# against all three committed snapshots (table, BENCH_fleet.json, and
# the pinned autoscaler decision log).
cargo run --release -q -p ulp-tools --bin het-sim -- \
  --fleet --benchmark matmul --groups 2 --pool 2 --autoscale \
  --duration-ms 400 --record-trace "$SCRATCH/fleet.trc" | tee "$ARTIFACTS/fleet.out"
grep -q 'fleet     : hot kernel matmul' "$ARTIFACTS/fleet.out"
grep -q 'per group:' "$ARTIFACTS/fleet.out"
grep -q 'autoscaler:' "$ARTIFACTS/fleet.out"
grep -q 'invariants: OK' "$ARTIFACTS/fleet.out"
cargo run --release -q -p ulp-tools --bin het-sim -- \
  --fleet --benchmark matmul --groups 4 --pool 2 \
  --replay-trace "$SCRATCH/fleet.trc" \
  --record-trace "$SCRATCH/fleet-replayed.trc" | tee "$ARTIFACTS/fleet-replay.out"
grep -q 'replay    :' "$ARTIFACTS/fleet-replay.out"
grep -q 'invariants: OK' "$ARTIFACTS/fleet-replay.out"
# Re-recording the replayed stream must reproduce the trace exactly.
cmp "$SCRATCH/fleet.trc" "$SCRATCH/fleet-replayed.trc"
echo "replay ok : trace round trip byte-identical"
cargo run --release -q -p ulp-bench --bin fleet -- \
  --json "$SCRATCH/BENCH_fleet.json" \
  --scale-log "$SCRATCH/fleet_autoscale.txt" > "$SCRATCH/fleet_table.txt"
golden fleet_table tests/golden/fleet_table.txt "$SCRATCH/fleet_table.txt"
golden fleet_autoscale tests/golden/fleet_autoscale.txt "$SCRATCH/fleet_autoscale.txt"
golden BENCH_fleet BENCH_fleet.json "$SCRATCH/BENCH_fleet.json"

echo "== simulator perf smoke =="
# Tracks the simulator's own wall-clock cost. The shared runner is noisy,
# so this validates the tooling (report shape, --jobs path) and gates only
# a collapse of the engine ratio; the numbers land in the uploaded
# artifact for trend inspection.
cargo run --release -q -p ulp-bench --bin simperf -- \
  --jobs 2 --reps 1 --out "$ARTIFACTS/BENCH_simulator.json"
python3 -m json.tool "$ARTIFACTS/BENCH_simulator.json" > /dev/null
grep -q '"engine_comparison"' "$ARTIFACTS/BENCH_simulator.json"
grep -q '"engine_comparison_quad"' "$ARTIFACTS/BENCH_simulator.json"
grep -q '"core_peak"' "$ARTIFACTS/BENCH_simulator.json"
grep -q '"simulated_mips"' "$ARTIFACTS/BENCH_simulator.json"
# The fresh epoch speedups (full sweep and quad-core cell) must not
# regress below the committed window. This run is reps=1 on a noisy
# shared runner, so the gate applies a 0.6x safety factor: it catches
# "the engine stopped engaging" regressions (ratios collapsing toward
# 1x — a quad cell that stops speculating falls to block replay's ~1.1x),
# not scheduler noise around the committed value.
python3 - "$ARTIFACTS/BENCH_simulator.json" BENCH_simulator.json <<'PYEOF'
import json, sys
fresh, committed = (json.load(open(p)) for p in sys.argv[1:3])
checks = [
    ("engine_comparison.epoch_speedup",),
    ("engine_comparison_quad.epoch_speedup",),
]
fail = False
for (path,) in checks:
    section, key = path.split(".")
    got, want = fresh[section][key], committed[section][key]
    floor = 0.6 * want
    status = "ok" if got >= floor else "REGRESSED"
    print(f"engine gate {status}: {path} fresh {got:.3f} vs committed {want:.3f} (floor {floor:.3f})")
    fail |= got < floor
sys.exit(1 if fail else 0)
PYEOF

fi # STAGE = all

echo "== platforms smoke =="
# Every committed platform definition must drive het-sim end to end, and
# the baseline file must be byte-for-byte inert: running under
# `--platform platforms/m4-pulp3.toml` is the paper configuration.
cargo run --release -q -p ulp-tools --bin het-sim -- \
  --benchmark cnn --iterations 8 > "$SCRATCH/plat-default.out"
for plat in platforms/*.toml; do
  name=$(basename "$plat" .toml)
  cargo run --release -q -p ulp-tools --bin het-sim -- \
    --benchmark cnn --iterations 8 --platform "$plat" \
    | tee "$ARTIFACTS/plat-$name.out"
  grep -q 'platform  :' "$ARTIFACTS/plat-$name.out"
  grep -q 'speedup   :' "$ARTIFACTS/plat-$name.out"
done
cmp "$SCRATCH/plat-default.out" "$ARTIFACTS/plat-m4-pulp3.out"
echo "baseline ok: platforms/m4-pulp3.toml output byte-identical to the default configuration"
# The serving layer under a successor platform and a power envelope:
# the governor must engage and report its ladder residency.
cargo run --release -q -p ulp-tools --bin het-sim -- \
  --serve --benchmark matmul --pool 2 --duration-ms 300 \
  --platform platforms/f446-pulp5-turbo.toml --power-budget 0.3 \
  | tee "$ARTIFACTS/plat-serve.out"
grep -q 'energy    :' "$ARTIFACTS/plat-serve.out"
grep -q 'governor  : budget' "$ARTIFACTS/plat-serve.out"
# The study binary against both committed snapshots. The binary itself
# exits non-zero if any cost-model prediction leaves its error bound.
# The fresh JSON lands in ci-artifacts/ so CI uploads it either way.
cargo run --release -q -p ulp-bench --bin platforms -- \
  --json "$ARTIFACTS/BENCH_platforms.json" > "$SCRATCH/platform_table.txt"
golden platform_table tests/golden/platform_table.txt "$SCRATCH/platform_table.txt"
golden BENCH_platforms BENCH_platforms.json "$ARTIFACTS/BENCH_platforms.json"
# Regression gate, same 0.6x pattern as the engine gate above: fresh
# platform speedups and the governor's joules-per-request saving must
# not collapse relative to their committed values.
python3 - "$ARTIFACTS/BENCH_platforms.json" BENCH_platforms.json <<'PYEOF'
import json, sys
fresh, committed = (json.load(open(p)) for p in sys.argv[1:3])
fail = False
for name, want in committed["platform_speedup"].items():
    got = fresh["platform_speedup"][name]
    floor = 0.6 * want
    status = "ok" if got >= floor else "REGRESSED"
    print(f"platform gate {status}: platform_speedup.{name} "
          f"fresh {got:.3f} vs committed {want:.3f} (floor {floor:.3f})")
    fail |= got < floor
got = fresh["power_budget"]["joules_per_request_reduction"]
want = committed["power_budget"]["joules_per_request_reduction"]
floor = 0.6 * want
status = "ok" if got >= floor else "REGRESSED"
print(f"platform gate {status}: power_budget.joules_per_request_reduction "
      f"fresh {got:.4f} vs committed {want:.4f} (floor {floor:.4f})")
fail |= got < floor
sys.exit(1 if fail else 0)
PYEOF

if [ "$fail" -ne 0 ]; then
  echo "smoke: golden snapshot(s) diverged — see $ARTIFACTS/" >&2
  exit 1
fi
echo "smoke: all checks passed"
