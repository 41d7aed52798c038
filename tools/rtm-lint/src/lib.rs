//! # rtm-lint
//!
//! Offline, dependency-free static analysis for the rtm workspace: a
//! hand-rolled lexer over every workspace `.rs` file, a five-rule
//! engine, and a checked-in allowlist with mandatory written
//! justifications. The rules mechanically pin the invariants the
//! fleet's shards and gated counters stand on — plan-pipeline discipline,
//! epoch discipline, shard locality (Send-readiness), deterministic
//! counter output, and panic hygiene — the same way `BENCH_fleet.json`
//! pinned the perf counters.
//!
//! Run it from the repository root:
//!
//! ```sh
//! cargo run --release -p rtm-lint            # lint the workspace
//! cargo run -p rtm-lint -- --list-rules      # what is checked, where
//! ```
//!
//! Exit codes: `0` clean, `1` unallowed findings (or stale allowlist
//! entries), `2` configuration/IO errors.

#![warn(missing_docs)]

pub mod allowlist;
pub mod engine;
pub mod lexer;
pub mod rules;
