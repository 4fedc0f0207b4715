#!/usr/bin/env bash
# The full local gate: formatting, lints and the whole test suite.
# CI runs exactly this script, so a green ./scripts/check.sh means a
# green pipeline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> raincore-lint (workspace must be clean)"
cargo run -q -p raincore-lint -- --json lint-report.json

echo "==> raincore-lint (seeded fixture must fail)"
if cargo run -q -p raincore-lint -- --root crates/lint/fixtures/bad --quiet; then
  echo "lint did not flag the seeded fixture tree" >&2
  exit 1
fi

echo "==> model check (seeded two-token fault must be found)"
cargo run --release -q -p raincore-sim --bin model_check -- --seeded-check

echo "==> model check (bounded exploration must be clean)"
# The canonical state cache collapses the 3-node space: it now exhausts
# at ~3.3k schedules (previously >10k explored the same states many
# times over), so the floor guards against *accidentally* tightened
# bounds, not against the cache doing its job.
cargo run --release -q -p raincore-sim --bin model_check -- --min-schedules 3000

echo "==> model check (5-node seeded fault found inside the state budget)"
cargo run --release -q -p raincore-sim --bin model_check -- \
  --nodes 5 --seeded-check --max-schedules 40000 \
  --stats-out model-check-5node-stats.json

echo "==> model check (symmetry-reduced search >2x smaller at 4 nodes)"
cargo run --release -q -p raincore-sim --bin model_check -- \
  --nodes 4 --depth 10 --max-schedules 2000000 \
  --stats-out model-check-4node-reduced.json
cargo run --release -q -p raincore-sim --bin model_check -- \
  --nodes 4 --depth 10 --max-schedules 2000000 --no-reduction \
  --stats-out model-check-4node-unreduced.json
reduced=$(sed -n 's/.*"states": \([0-9]*\).*/\1/p' model-check-4node-reduced.json)
unreduced=$(sed -n 's/.*"states": \([0-9]*\).*/\1/p' model-check-4node-unreduced.json)
echo "    states: unreduced=$unreduced reduced=$reduced"
if [ "$unreduced" -lt $((2 * reduced)) ]; then
  echo "symmetry reduction under 2x at 4 nodes ($unreduced vs $reduced states)" >&2
  exit 1
fi

echo "==> chaos (seeded broken-heal fault must be found, shrunk and dumped)"
cargo run --release -q -p raincore-sim --bin chaos -- --seeded-fault --dump chaos-seeded.txt

echo "==> chaos (seeded dump must reproduce under --replay)"
cargo run --release -q -p raincore-sim --bin chaos -- --replay chaos-seeded.txt

echo "==> chaos (soak must be clean: 50 seeds, all scenarios)"
cargo run --release -q -p raincore-sim --bin chaos -- --soak 50 --seed 1

echo "==> chaos (bulk-loss soak: 200 seeds, completeness oracle, non-vacuous drops)"
# --bulk 512 pads half the workload past the out-of-band threshold and
# arms the bulk-loss fault class; the run fails if no bulk frame was
# actually dropped (vacuity guard) or if any node delivers an ordered
# bulk id without holding its payload (delivery-completeness oracle).
cargo run --release -q -p raincore-sim --bin chaos -- --soak 200 --seed 1 --ticks 2000 --bulk 512

echo "==> micro-bench (report + <=25% allocation regression vs committed BENCH_5.json)"
# Also asserts, in-process: >=3x packets-per-syscall for the batched I/O
# engine over the scalar path, and zero steady-state heap allocations on
# the batched leg (bench_udp_pps).
cargo run --release -q -p raincore-bench --bin micro_bench -- \
  --out BENCH_5.current.json --compare BENCH_5.json

echo "==> perfbench self-tests (the repo benchmark's own unit tests)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> bulk macro experiment (sustained out-of-band multicast over the batched engine)"
cargo run --release -q -p raincore-bench --bin exp_bulk_macro -- 60 1024

echo "==> procher (real-socket gate: lossy soak + sim<->real differential)"
# Exit 77 means the sandbox forbids spawning subprocesses — skip, don't fail.
cargo build --release -q -p raincore-procher
if ./target/release/procher --gate; then
  :
elif [ $? -eq 77 ]; then
  echo "procher gate skipped: subprocess spawn forbidden in this environment"
else
  echo "procher gate failed; see the artifact directories it printed" >&2
  exit 1
fi

echo "OK"
