//! The structured outcome of one service run.

use rtm_core::PlanStats;
use rtm_place::frag::FragMetrics;
use rtm_sched::admission::AdmissionOutcome;
use rtm_sched::qos::QosTier;
use rtm_sched::task::Micros;
use std::fmt;

/// Per-tier admission/latency roll-up, indexed by [`QosTier::index`]
/// (`[batch, standard, interactive]`): a view built by
/// [`ServiceReport::tiers`] from the stored per-tier submissions and the
/// admission records.
///
/// Simulated counters only, so the roll-up is deterministic and safe
/// to compare byte-exact — the fleet baseline
/// gates the per-tier admitted counts the same way it gates the
/// untiered ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounts {
    /// Arrival events seen, per tier.
    pub submitted: [usize; 3],
    /// Functions admitted, per tier.
    pub admitted: [usize; 3],
    /// Total queue wait of admitted functions, per tier (µs); the
    /// per-tier mean latency is `waited / admitted`.
    pub waited: [Micros; 3],
}

impl TierCounts {
    /// Arrivals submitted at `tier`.
    pub fn submitted_for(&self, tier: QosTier) -> usize {
        self.submitted[tier.index()]
    }

    /// Functions admitted at `tier`.
    pub fn admitted_for(&self, tier: QosTier) -> usize {
        self.admitted[tier.index()]
    }

    /// Fraction of `tier` arrivals admitted (1.0 when none arrived).
    pub fn admission_rate(&self, tier: QosTier) -> f64 {
        let s = self.submitted_for(tier);
        if s == 0 {
            1.0
        } else {
            self.admitted_for(tier) as f64 / s as f64
        }
    }

    /// Mean queue wait of `tier` admissions (µs; 0.0 when none).
    pub fn mean_wait(&self, tier: QosTier) -> f64 {
        let a = self.admitted_for(tier);
        if a == 0 {
            0.0
        } else {
            self.waited[tier.index()] as f64 / a as f64
        }
    }

    /// True when arrivals span more than one tier (or any arrival left
    /// the default tier) — the reports only print the tier breakdown
    /// for genuinely tiered runs.
    pub fn is_tiered(&self) -> bool {
        self.submitted[QosTier::Batch.index()] + self.submitted[QosTier::Interactive.index()] > 0
    }

    /// Element-wise accumulate (the fleet roll-up).
    pub fn absorb(&mut self, other: &TierCounts) {
        for i in 0..3 {
            self.submitted[i] += other.submitted[i];
            self.admitted[i] += other.admitted[i];
            self.waited[i] += other.waited[i];
        }
    }
}

impl fmt::Display for TierCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for tier in QosTier::ALL.into_iter().rev() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(
                f,
                "{} {}/{}",
                tier,
                self.admitted_for(tier),
                self.submitted_for(tier)
            )?;
        }
        Ok(())
    }
}

/// One fragmentation sample of the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragSample {
    /// Simulated time of the sample (µs).
    pub at: Micros,
    /// The metrics at that instant.
    pub metrics: FragMetrics,
}

/// One admitted function: the record every admission-derived figure of
/// a [`ServiceReport`] (immediate admissions, per-tier admitted counts
/// and waits) is read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionRecord {
    /// The trace-level id of the function.
    pub trace_id: u64,
    /// When the admission decision was made (µs).
    pub at: Micros,
    /// Queue time between arrival and admission (µs).
    pub waited: Micros,
    /// The function's QoS tier.
    pub tier: QosTier,
    /// How it was admitted (shared vocabulary with `rtm-sched`).
    pub outcome: AdmissionOutcome,
}

/// One service-initiated defragmentation cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefragSummary {
    /// When the cycle ran (µs).
    pub at: Micros,
    /// Fragmentation before.
    pub before: FragMetrics,
    /// Fragmentation after.
    pub after: FragMetrics,
    /// Function moves executed.
    pub moves: usize,
    /// CLBs of running logic relocated (model cost).
    pub cells_moved: u32,
    /// Configuration frames written.
    pub frames: usize,
}

/// Everything one [`RuntimeService::run`](crate::RuntimeService::run)
/// produced: admission/rejection counts, relocation traffic, and the
/// fragmentation timeline.
///
/// The report is the shard's typed ledger: each lifecycle transition
/// (submission, admission, failure, displacement, departure) writes it
/// at one site in the service, and figures that follow from another
/// field are derived rather than stored ([`ServiceReport::immediate`]
/// and [`ServiceReport::tiers`] read the admission records).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceReport {
    /// The trace that was replayed.
    pub trace_name: String,
    /// Arrival events seen.
    pub submitted: usize,
    /// Functions admitted (sum of immediate and after-rearrangement);
    /// one [`AdmissionRecord`] each.
    pub admitted: usize,
    /// Requests dropped because their deadline passed before they could
    /// start.
    pub rejected_deadline: usize,
    /// Requests dropped because design synthesis or loading failed, or
    /// because their id duplicated a still-resident function.
    pub failures: usize,
    /// Subset of [`ServiceReport::failures`] whose load failed for lack
    /// of free cell slots (placement-side congestion) — the
    /// routing-failure autopsy.
    pub failures_no_slots: usize,
    /// Subset of [`ServiceReport::failures`] whose load failed because a
    /// net was unroutable through the shared fabric (routing-side
    /// congestion).
    pub failures_unroutable: usize,
    /// Requests departed by the trace while still waiting in the queue
    /// (caller-initiated cancellations, not service rejections).
    pub cancelled: usize,
    /// Functions unloaded (duration expiry or explicit departure).
    pub departures: usize,
    /// Resident functions migrated *off* this device onto a sibling
    /// shard (completed migrations only: a failed migration restores
    /// the function here and moves this counter back, recording itself
    /// in [`ServiceReport::migrations_restored`] instead). Fleet-wide,
    /// `Σ migrations_out == Σ migrations_in` always.
    pub migrations_out: usize,
    /// Functions migrated *onto* this device from a sibling shard.
    pub migrations_in: usize,
    /// Failed readmissions rolled back onto this device from the
    /// extraction checkpoint (the function is resident here again, as
    /// if the migration had never been attempted).
    pub migrations_restored: usize,
    /// Residents *evicted off* this device by tiered preemption: a
    /// higher-tier reserve could not be seated, so the cheapest
    /// lower-tier resident was extracted (then migrated to a sibling
    /// shard or parked for idle-window readmission). Tracked apart from
    /// [`ServiceReport::migrations_out`] so the rebalancing identity
    /// `Σ migrations_out == Σ migrations_in` survives parking.
    pub evictions_out: usize,
    /// Evicted bundles *readmitted onto* this device — as a
    /// preemption-driven migration target or from the fleet's park
    /// queue in a later idle window.
    pub evictions_in: usize,
    /// Arrival events seen, per tier ([batch, standard, interactive],
    /// indexed by [`QosTier::index`]); see [`ServiceReport::tiers`].
    pub tier_submitted: [usize; 3],
    /// Defragmentation cycles the service initiated.
    pub defrag_cycles: usize,
    /// Whole-function moves executed (admission rearrangements plus
    /// defrag cycles).
    pub function_moves: usize,
    /// CLBs of running logic relocated (model cost over all moves).
    pub cells_moved: u64,
    /// Configuration frames written by relocations.
    pub frames_written: u64,
    /// Reconfiguration wall time of all relocation traffic under the
    /// configured cost model (ms).
    pub reconfig_ms: f64,
    /// What the halting baseline (Diessel et al.) would have charged the
    /// *moved* functions for the same traffic (ms) — zero actually
    /// incurred here, the paper's claim.
    pub baseline_halt_ms: f64,
    /// Per-admission records, in admission order.
    pub admissions: Vec<AdmissionRecord>,
    /// Per-cycle defragmentation summaries.
    pub defrags: Vec<DefragSummary>,
    /// Fragmentation sampled after every processed event time.
    pub frag_timeline: Vec<FragSample>,
    /// Planning-pipeline counters for the run: how many `make_room` /
    /// compaction planning passes the manager executed, how many
    /// previously computed plans were executed without re-planning, and
    /// how the per-device summary cache behaved (filled in by
    /// [`RuntimeService::finish`](crate::RuntimeService::finish) as the
    /// delta of the manager's lifetime counters over this run).
    pub plan_stats: PlanStats,
    /// Requests still queued when the trace (and all residencies with
    /// known durations) ran out.
    pub queued_at_end: usize,
    /// Functions still resident at the end.
    pub resident_at_end: usize,
    /// Final fragmentation metrics.
    pub final_frag: Option<FragMetrics>,
}

impl ServiceReport {
    /// An empty report for `trace_name`.
    pub fn new(trace_name: impl Into<String>) -> Self {
        ServiceReport {
            trace_name: trace_name.into(),
            ..ServiceReport::default()
        }
    }

    /// Admissions that fitted without moving anything.
    pub fn immediate(&self) -> usize {
        self.admissions
            .iter()
            .filter(|a| matches!(a.outcome, AdmissionOutcome::Immediate { .. }))
            .count()
    }

    /// The per-tier roll-up: submissions as stored, admissions and
    /// their total wait read from the admission records.
    pub fn tiers(&self) -> TierCounts {
        let mut t = TierCounts {
            submitted: self.tier_submitted,
            ..TierCounts::default()
        };
        for a in &self.admissions {
            t.admitted[a.tier.index()] += 1;
            t.waited[a.tier.index()] += a.waited;
        }
        t
    }

    /// Counts one arrival this shard accepted responsibility for: the
    /// one write site of [`ServiceReport::submitted`] and its per-tier
    /// split.
    pub(crate) fn record_submission(&mut self, tier: QosTier) {
        self.submitted += 1;
        self.tier_submitted[tier.index()] += 1;
    }

    /// Fraction of submitted requests that were admitted.
    pub fn admission_rate(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.admitted as f64 / self.submitted as f64
        }
    }

    /// Mean queue wait of admitted functions (µs).
    pub fn mean_wait(&self) -> f64 {
        if self.admissions.is_empty() {
            0.0
        } else {
            self.admissions.iter().map(|a| a.waited as f64).sum::<f64>()
                / self.admissions.len() as f64
        }
    }

    /// Longest queue wait of an admitted function (µs).
    pub fn max_wait(&self) -> Micros {
        self.admissions.iter().map(|a| a.waited).max().unwrap_or(0)
    }

    /// Highest fragmentation index seen on the timeline.
    pub fn peak_frag(&self) -> f64 {
        self.frag_timeline
            .iter()
            .map(|s| s.metrics.fragmentation())
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "service report — trace '{}'", self.trace_name)?;
        let immediate = self.immediate();
        writeln!(
            f,
            "  admissions : {}/{} ({} immediate, {} after rearrangement), \
             {} deadline-rejected, {} failed, {} cancelled",
            self.admitted,
            self.submitted,
            immediate,
            self.admitted - immediate,
            self.rejected_deadline,
            self.failures,
            self.cancelled,
        )?;
        writeln!(
            f,
            "  lifecycle  : {} departures, {} resident at end, {} queued at end",
            self.departures, self.resident_at_end, self.queued_at_end
        )?;
        if self.migrations_in + self.migrations_out + self.migrations_restored > 0 {
            writeln!(
                f,
                "  migration  : {} in, {} out, {} restored after failed readmit",
                self.migrations_in, self.migrations_out, self.migrations_restored
            )?;
        }
        let tiers = self.tiers();
        if tiers.is_tiered() || self.evictions_out + self.evictions_in > 0 {
            writeln!(
                f,
                "  tiers      : {tiers} — {} evicted out, {} readmitted in",
                self.evictions_out, self.evictions_in
            )?;
        }
        writeln!(
            f,
            "  relocation : {} defrag cycles, {} function moves, {} CLBs, \
             {} frames, {:.1} ms of reconfiguration",
            self.defrag_cycles,
            self.function_moves,
            self.cells_moved,
            self.frames_written,
            self.reconfig_ms,
        )?;
        writeln!(
            f,
            "  halt time  : 0 ms incurred (halting baseline would charge {:.1} ms)",
            self.baseline_halt_ms
        )?;
        if self.failures > 0 {
            writeln!(
                f,
                "  autopsy    : {} no-free-slots, {} unroutable, {} other failures",
                self.failures_no_slots,
                self.failures_unroutable,
                self.failures - self.failures_no_slots - self.failures_unroutable,
            )?;
        }
        writeln!(f, "  planning   : {}", self.plan_stats)?;
        writeln!(
            f,
            "  waits      : mean {:.1} ms, max {:.1} ms",
            self.mean_wait() / 1000.0,
            self.max_wait() as f64 / 1000.0
        )?;
        write!(f, "  frag       : peak {:.3}", self.peak_frag())?;
        if let Some(m) = self.final_frag {
            write!(f, ", final {:.3} ({m})", m.fragmentation())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_fpga::geom::{ClbCoord, Rect};

    #[test]
    fn rates_and_waits() {
        let mut r = ServiceReport::new("t");
        assert_eq!(r.admission_rate(), 1.0, "vacuously perfect");
        r.submitted = 4;
        r.tier_submitted = [1, 0, 3];
        r.admitted = 3;
        let region = Rect::new(ClbCoord::new(0, 0), 2, 2);
        let rearranged = AdmissionOutcome::AfterRearrange {
            region,
            moves: 1,
            cells_moved: 4,
        };
        for (i, waited, tier, outcome) in [
            (
                0u64,
                0,
                QosTier::Interactive,
                AdmissionOutcome::Immediate { region },
            ),
            (1, 10_000, QosTier::Batch, rearranged),
            (
                2,
                20_000,
                QosTier::Interactive,
                AdmissionOutcome::Immediate { region },
            ),
        ] {
            r.admissions.push(AdmissionRecord {
                trace_id: i,
                at: waited,
                waited,
                tier,
                outcome,
            });
        }
        assert!((r.admission_rate() - 0.75).abs() < 1e-9);
        assert!((r.mean_wait() - 10_000.0).abs() < 1e-9);
        assert_eq!(r.max_wait(), 20_000);
        assert_eq!(r.immediate(), 2);
        let tiers = r.tiers();
        assert_eq!(tiers.submitted, [1, 0, 3]);
        assert_eq!(tiers.admitted, [1, 0, 2]);
        assert_eq!(tiers.waited, [10_000, 0, 20_000]);
        let shown = r.to_string();
        assert!(shown.contains("3/4"), "{shown}");
        assert!(shown.contains("trace 't'"), "{shown}");
    }

    #[test]
    fn tier_counts_roll_up() {
        let mut t = TierCounts::default();
        assert!(!t.is_tiered(), "all-standard runs are untiered");
        t.submitted[QosTier::Interactive.index()] = 4;
        t.admitted[QosTier::Interactive.index()] = 3;
        t.waited[QosTier::Interactive.index()] = 30_000;
        assert!(t.is_tiered());
        assert!((t.admission_rate(QosTier::Interactive) - 0.75).abs() < 1e-9);
        assert_eq!(t.admission_rate(QosTier::Batch), 1.0, "vacuously perfect");
        assert!((t.mean_wait(QosTier::Interactive) - 10_000.0).abs() < 1e-9);
        let mut sum = TierCounts::default();
        sum.absorb(&t);
        sum.absorb(&t);
        assert_eq!(sum.submitted_for(QosTier::Interactive), 8);
        assert_eq!(sum.admitted_for(QosTier::Interactive), 6);
        assert!(t.to_string().contains("interactive 3/4"), "{t}");
    }

    #[test]
    fn peak_frag_over_timeline() {
        let mut r = ServiceReport::new("t");
        assert_eq!(r.peak_frag(), 0.0);
        for (at, largest) in [(0, 100u32), (10, 25), (20, 50)] {
            r.frag_timeline.push(FragSample {
                at,
                metrics: FragMetrics {
                    free_cells: 100,
                    largest_rect: largest,
                    total_cells: 200,
                },
            });
        }
        assert!((r.peak_frag() - 0.75).abs() < 1e-9);
    }
}
