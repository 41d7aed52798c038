#!/usr/bin/env bash
# CI gate for the rtm workspace. Mirrors the tier-1 verify plus style
# and lint gates. Run from the repository root.
set -euo pipefail

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rtm-lint (static analysis: shard-locality / plan-pipeline discipline)"
# Six rules over every workspace .rs file; every accepted finding is
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

echo "==> benchmark self-test: every workload at tiny scale, traced and untraced"
# Each pass must report correct: true and failed: 0 (the report
# identities and the pinned counters), so a perf change is checked for
# both here rather than by hand.
cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "==> cargo test --workspace -q (superset of the tier-1 'cargo test -q')"
cargo test --workspace -q

echo "==> baseline-oracle counter pins, epoch-loop, placement, configuration-store and router nets (release)"
# The baseline oracle re-pins BENCH_fleet.json counters through the
# library API, the N = 16 and N = 64 scale rows included (ignored in
# debug, about a second in release). The epoch-loop file holds the
# forced-failover anchors. rtm-place's make_room twin test runs its
# full 2,000 cases against the reference planner only in release;
# rtm-fpga's configuration-store twins (the dense frame store against a
# map of frames, PIP queries against a PIP set) and rtm-sim's router
# twin (the dense search against the hashed one, with the device's
# holds and PIPs checked against the live paths) likewise run their
# full case counts only in release.
cargo test -q --release -p rtm-fleet --test baseline_oracle -- --include-ignored
cargo test -q --release -p rtm-fleet --test epoch_loop
cargo test -q --release -p rtm-place
cargo test -q --release -p rtm-fpga
cargo test -q --release -p rtm-sim

if [ "${RTM_STRESS:-0}" = "1" ]; then
  echo "==> RTM_STRESS=1: N=1024 soak (release)"
  # Opt-in: the soak prints wall, arrivals/s and its phase shares (never
  # gated).
  cargo test -q --release -p rtm-fleet --test stress_soak -- --ignored --nocapture
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

echo "==> profile smoke: both scale rows print a share table with routing in it"
# Each scale row (N = 256 and N = 1024) must be followed by its phase
# share table, with a nonzero routing share: the routing edge admits
# inline, so it carries the load work. Shares are wall-clock; this is a
# presence check, never a gate on their values.
for n in 256 1024; do
  if ! grep -A1 -E "N=$n " target/fleet_baseline.log \
    | grep -E 'routing ([1-9][0-9]*\.[0-9]|0\.[1-9])%' > /dev/null; then
    echo "the N=$n scale row printed no share table with a nonzero routing share"
    exit 1
  fi
done

echo "==> north-star trajectories (printed for the log, never gated)"
# Workspace .rs lines (the ROADMAP's own command) and lint-allow.toml
# entries; ROADMAP.md records both per change and both should fall.
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  echo "workspace .rs lines: $(git ls-files '*.rs' | grep -v '^benchmark/' | xargs cat | wc -l)"
else
  echo "workspace .rs lines: skipped (not a git checkout)"
fi
echo "lint-allow.toml entries: $(grep -c '^\[\[allow\]\]' lint-allow.toml)"

echo "CI OK"
