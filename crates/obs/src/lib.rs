//! # rtm-obs — observability for the run-time management stack
//!
//! Three strictly separated parts:
//!
//! 1. **Deterministic event stream** ([`event`], [`sink`]) — structured
//!    [`RtmEvent`]s stamped with *simulated* time and shard index,
//!    recorded into one [`EventBuffer`] per shard. Streams are fully
//!    deterministic: replaying a trace on a fresh fleet reproduces the
//!    merged stream byte for byte.
//! 2. **Metrics registry** ([`metrics`]) — named counters and
//!    log2-bucketed histograms over deterministic quantities (epochs,
//!    offer-chain length, park waits in simulated µs), recorded into
//!    `FleetReport`. Per-admission facts live in the service's typed
//!    report instead.
//! 3. **Wall-clock phase profiler** ([`profile`]) — per-phase
//!    `Instant` accumulators for the fleet's epoch loop, printed
//!    beside gated output and never into it. This module is the only
//!    place in the workspace allowed to read wall clock (ratcheted by
//!    rtm-lint's determinism rule).

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use event::{to_jsonl_stream, EventKind, RejectReason, RtmEvent, FLEET_SHARD};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{Phase, PhaseProfiler, Stopwatch};
pub use sink::EventBuffer;
