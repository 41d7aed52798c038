//! Wall-clock phase profiling — the one place in the workspace that is
//! allowed to read `Instant`.
//!
//! Everything here measures *wall* time and therefore lives strictly
//! apart from the deterministic event stream and metrics registry: a
//! profiler is never part of a `ServiceReport`/`FleetReport` (which are
//! `PartialEq`-compared by the determinism nets and byte-diffed by the
//! CI perf gate), and its output is printed beside the gated counters,
//! never into them. The rtm-lint determinism rule ratchets this boundary: the
//! `Instant` tokens below carry the single `lint-allow.toml` entry, and
//! every other crate routes wall-clock measurement through [`Stopwatch`]
//! or [`PhaseProfiler`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The phases of one `FleetService::run` epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Cross-shard event-horizon scan (min over shards + trace peek).
    Horizon,
    /// Shard-local segments (advance/settle sweeps).
    Segments,
    /// Trace delivery and routing edges.
    Routing,
    /// Admission execution (the shard-local ticket drains after each
    /// routing edge).
    Execute,
    /// Fleet defrag trigger and rebalance-migration edges.
    Triggers,
    /// Fragmentation timeline sampling.
    Sampling,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 6] = [
        Phase::Horizon,
        Phase::Segments,
        Phase::Routing,
        Phase::Execute,
        Phase::Triggers,
        Phase::Sampling,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Horizon => "horizon",
            Phase::Segments => "segments",
            Phase::Routing => "routing",
            Phase::Execute => "execute",
            Phase::Triggers => "triggers",
            Phase::Sampling => "sampling",
        }
    }

    fn index(&self) -> usize {
        match self {
            Phase::Horizon => 0,
            Phase::Segments => 1,
            Phase::Routing => 2,
            Phase::Execute => 3,
            Phase::Triggers => 4,
            Phase::Sampling => 5,
        }
    }
}

/// Per-phase wall-clock accumulators for the fleet's epoch loop.
/// Atomics, so a guard records through a shared reference while the
/// fleet mutates its shards.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    phase_ns: [AtomicU64; 6],
}

impl PhaseProfiler {
    /// Creates a zeroed profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts timing `phase`; the elapsed wall time is accumulated when
    /// the returned guard drops.
    pub fn start(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            slot: &self.phase_ns[phase.index()],
            started: Instant::now(),
        }
    }

    /// Accumulated wall nanoseconds for `phase`.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()].load(Ordering::Relaxed)
    }

    /// Sum over all phases.
    pub fn total_nanos(&self) -> u64 {
        Phase::ALL.iter().map(|p| self.phase_nanos(*p)).sum()
    }

    /// The phase-share table: one line of phase percentages and their
    /// total wall time. Wall clock only — printed beside gated output,
    /// never into it.
    pub fn share_table(&self) -> String {
        let total = self.total_nanos();
        let mut out = String::from("    phases:");
        if total == 0 {
            out.push_str(" (no samples)");
            return out;
        }
        let pct = |ns: u64| 100.0 * ns as f64 / total as f64;
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let _ = write!(
                out,
                "{} {} {:.1}%",
                if i == 0 { "" } else { " |" },
                phase.name(),
                pct(self.phase_nanos(*phase))
            );
        }
        let _ = write!(out, " | total {:.2}s", total as f64 / 1e9);
        out
    }
}

/// Accumulates elapsed wall time into one profiler slot on drop.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    slot: &'a AtomicU64,
    started: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.slot.fetch_add(ns, Ordering::Relaxed);
    }
}

/// A plain wall-clock stopwatch — the workspace-wide replacement for
/// ad-hoc `Instant::now()` timing in benches, stress tests and demos.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed wall milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Elapsed wall seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_accumulate_into_their_phase() {
        let prof = PhaseProfiler::new();
        {
            let _g = prof.start(Phase::Horizon);
            std::hint::black_box(0u64);
        }
        {
            let _g = prof.start(Phase::Segments);
            std::hint::black_box(0u64);
        }
        assert!(prof.phase_nanos(Phase::Horizon) > 0);
        assert!(prof.phase_nanos(Phase::Segments) > 0);
        assert_eq!(prof.phase_nanos(Phase::Routing), 0);
        assert_eq!(
            prof.total_nanos(),
            Phase::ALL.iter().map(|p| prof.phase_nanos(*p)).sum::<u64>()
        );
    }

    #[test]
    fn share_table_handles_empty_and_filled() {
        let prof = PhaseProfiler::new();
        assert!(prof.share_table().contains("no samples"));
        drop(prof.start(Phase::Horizon));
        let table = prof.share_table();
        assert!(table.contains("horizon"));
        assert!(table.contains("execute 0.0%"), "{table}");
    }

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
        assert!(sw.elapsed_ms() >= 0.0);
    }
}
