#!/usr/bin/env bash
# CI gate for the rtm workspace. Mirrors the tier-1 verify plus style
# and lint gates. Run from the repository root.
set -euo pipefail

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rtm-lint (static analysis: shard-locality / plan-pipeline discipline)"
# Five rules over every workspace .rs file; every accepted finding is
# justified in lint-allow.toml (stale entries fail the run). The lint
# prints its own runtime — keep it sub-second. Rules and allowlist
# policy: ARCHITECTURE.md, "Static analysis & concurrency-readiness".
cargo run -q --release -p rtm-lint
cargo test -q -p rtm-lint

echo "==> cargo build --release"
cargo build --release

echo "==> cargo check: the standalone benchmark against the library API"
# benchmark/ is its own package, outside the workspace, and compiles
# against the public reports (FleetReport, ServiceReport, TierCounts)
# and AdmissionBid; a public-API edit that breaks it fails here.
cargo check -q --manifest-path benchmark/Cargo.toml

echo "==> cargo test --workspace -q (superset of the tier-1 'cargo test -q')"
cargo test --workspace -q

echo "==> baseline-oracle counter pins and epoch-loop nets (release)"
# The baseline oracle re-pins BENCH_fleet.json counters through the
# library API. The epoch-loop file holds the forced-failover anchors and
# the horizon-clock proptest, which runs its full 32 cases only in
# release.
cargo test -q --release -p rtm-fleet --test baseline_oracle
cargo test -q --release -p rtm-fleet --test epoch_loop

if [ "${RTM_STRESS:-0}" = "1" ]; then
  echo "==> RTM_STRESS=1: N=1024 soak + N=16/N=64 oracle scale rows (release)"
  # Opt-in: the soak prints wall, arrivals/s and its phase shares (never
  # gated); the scale rows re-pin the big BENCH_fleet.json counters
  # through the library API.
  cargo test -q --release -p rtm-fleet --test stress_soak -- --ignored --nocapture
  cargo test -q --release -p rtm-fleet --test baseline_oracle -- --ignored
fi

echo "==> cargo doc --workspace --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --workspace --doc"
cargo test --workspace -q --doc

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> example smoke: fleet_loop (3 scenarios x 4 routing policies on a 3-device fleet)"
cargo run --release --example fleet_loop > /dev/null

echo "==> trace smoke: fleet_loop --trace (JSONL export, self-validating)"
# The exporter round-trips every emitted line through the rtm-obs JSONL
# parser (byte-exact) and cross-checks seven event-count identities
# against the FleetReport before exiting 0 — a failed identity or a
# line that doesn't re-serialise identically is a nonzero exit here.
cargo run --release --example fleet_loop -- --trace target/fleet_trace.jsonl > /dev/null
test -s target/fleet_trace.jsonl

echo "==> trace gate: fleet_loop --trace vs checked-in BENCH_trace.jsonl"
# The event stream carries simulated time only, so it is byte-stable
# and gated exactly like the counters below. Regenerate with:
#   cargo run --release --example fleet_loop -- --trace BENCH_trace.jsonl
if ! diff -u BENCH_trace.jsonl target/fleet_trace.jsonl; then
  echo "trace drifted from BENCH_trace.jsonl — investigate, then"
  echo "regenerate it if the change is intentional."
  exit 1
fi

echo "==> perf gate: fleet_loop --baseline vs checked-in BENCH_fleet.json"
# Deterministic counters (admissions, frames written, make_room passes,
# plans reused, ...) are exact-match gated; wall time and the
# arrivals/s throughput printed beside each row are for the log, never
# gated. Regenerate with:
#   cargo run --release --example fleet_loop -- --baseline BENCH_fleet.json
cargo run --release --example fleet_loop -- --baseline target/BENCH_fleet.json \
  | tee target/fleet_baseline.log
if ! diff -u BENCH_fleet.json target/BENCH_fleet.json; then
  echo "perf counters drifted from BENCH_fleet.json — investigate, then"
  echo "regenerate the baseline if the change is intentional."
  exit 1
fi

echo "==> QoS gate: preemption strictly improves interactive admission"
# The headline tiered claim, gated on the checked-in baseline: the
# preemption-on row must admit strictly more interactive arrivals
# than the preemption-off row of the same workload.
ti_off=$(grep '"scenario": "tiered-mix' BENCH_fleet.json \
  | grep '"preemption": false' \
  | sed -E 's/.*"admitted_interactive": ([0-9]+).*/\1/')
ti_on=$(grep '"scenario": "tiered-mix' BENCH_fleet.json \
  | grep '"preemption": true' | head -1 \
  | sed -E 's/.*"admitted_interactive": ([0-9]+).*/\1/')
if [ -z "$ti_off" ] || [ -z "$ti_on" ] || [ "$ti_on" -le "$ti_off" ]; then
  echo "preemption did not strictly improve interactive admission (off=$ti_off on=$ti_on)"
  exit 1
fi

echo "==> QoS demo smoke: fleet_loop --tiered (exits nonzero unless preemption helps)"
cargo run --release --example fleet_loop -- --tiered > /dev/null

echo "==> profile smoke: the execute phase carries the load work"
# The scale rows' share tables must show a nonzero execute phase — the
# two-phase pipeline actually moving implementation work off the
# routing edge. Shares are wall-clock and never gated beyond this
# presence check.
if ! grep -E 'execute [1-9][0-9]*\.[0-9]%' target/fleet_baseline.log > /dev/null; then
  echo "no scale row showed a nonzero execute phase share"
  exit 1
fi

echo "CI OK"
