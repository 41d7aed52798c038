//! The aggregated outcome of one fleet run.

use rtm_core::PlanStats;
use rtm_fpga::part::Part;
use rtm_obs::MetricsRegistry;
use rtm_sched::qos::QosTier;
use rtm_sched::task::Micros;
use rtm_service::{ServiceReport, TierCounts};
use std::fmt;

/// One shard's share of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// The shard's device part.
    pub part: Part,
    /// Requests routed to this shard and accounted here (admitted,
    /// queued, dropped or failed) — the routing decision count. Set from
    /// the shard report's `submitted` when the run ends, so the two are
    /// one fact.
    pub routed: usize,
    /// The shard's full per-device report.
    pub report: ServiceReport,
}

/// One sample of the fleet-wide fragmentation timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSample {
    /// Simulated time of the sample (µs).
    pub at: Micros,
    /// Mean fragmentation index across all devices.
    pub mean: f64,
    /// Worst per-device fragmentation index.
    pub worst: f64,
}

/// Everything one [`FleetService::run`](crate::FleetService::run)
/// produced: the per-device [`ServiceReport`]s plus the fleet-level
/// counters no single device can see — routing retries, unplaceable
/// rejections, load-failure failovers, fleet-triggered defragmentation
/// cycles and the fleet-wide fragmentation timeline. All per-request
/// totals roll up exactly: the shard reports' `submitted` sum equals
/// [`FleetReport::submitted`] − [`FleetReport::unplaceable`] +
/// [`FleetReport::load_failovers`] (each failover accounts the same
/// request on one more shard).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetReport {
    /// The trace that was replayed.
    pub trace_name: String,
    /// The routing policy that made the placement decisions.
    pub policy: String,
    /// Arrival events seen at the fleet entrance.
    pub submitted: usize,
    /// Requests no device of the fleet could ever hold (shape exceeds
    /// every part): rejected at routing time, never queued.
    pub unplaceable: usize,
    /// Admissions that succeeded on a retry device after the
    /// first-ranked device could not place the request.
    pub retries: usize,
    /// Extra shard accountings caused by device-specific load failures:
    /// each time a request failed to load on one shard and was then
    /// accounted again on another (retried, queued, or dropped there),
    /// this counter moves by one. The failed shard keeps its attributed
    /// failure record. Derived when the run ends as
    /// `Σ shard_submitted + unplaceable − submitted`, so that identity
    /// holds by construction.
    pub load_failovers: usize,
    /// Defragmentation cycles forced by the *fleet-level* trigger (on
    /// top of the per-device threshold cycles counted in the shard
    /// reports).
    pub fleet_defrags: usize,
    /// Completed rebalancing migrations: a resident function extracted
    /// from one shard and readmitted on another, its residency clock
    /// intact. Always equals both [`FleetReport::migrations_in`] and
    /// [`FleetReport::migrations_out`] — the extended sum identity.
    pub migrations: usize,
    /// Migrations whose readmission failed on the target; the function
    /// was restored on its source from the extraction checkpoint (also
    /// visible as the shard reports'
    /// [`migrations_restored`](rtm_service::ServiceReport::migrations_restored)
    /// sum).
    pub migrations_failed: usize,
    /// Migration directives refused before touching anything: no room
    /// on the target, an idle window too short for the copy (a
    /// migration may never make a queued request late), or a directive
    /// naming a function that is not resident where claimed.
    pub migrations_refused: usize,
    /// High-tier arrivals seated by preemptive eviction: the whole
    /// routing chain said "no room", a strictly-lower-tier resident
    /// was evicted (see [`FleetReport::evictions_out`]) and the
    /// arrival took the freed region. Zero unless
    /// [`FleetConfig::preemption`](crate::FleetConfig::preemption) is
    /// on.
    pub preemptions: usize,
    /// Evicted victims that were migrated straight onto a sibling
    /// shard with room (through the same checkpointed
    /// extract/readmit machinery as rebalancing migrations).
    pub evictions_migrated: usize,
    /// Evicted victims no sibling could absorb: their bundles went to
    /// the fleet's park queue. Identity: `evictions_parked ==`
    /// [`FleetReport::parked_readmitted`] `+`
    /// [`FleetReport::parked_expired`] `+`
    /// [`FleetReport::parked_at_end`] — every parked bundle is
    /// eventually readmitted, expired, or still parked.
    pub evictions_parked: usize,
    /// Parked bundles readmitted in a later idle window, residency
    /// clock intact.
    pub parked_readmitted: usize,
    /// Parked bundles whose residency ended while parked, by expiry
    /// (the work they had left was shorter than the wait) or departure.
    pub parked_expired: usize,
    /// Bundles still parked when the run ended (the park queue
    /// persists into the next run, like shard state).
    pub parked_at_end: usize,
    /// The rebalancing planner's name, when one was installed.
    pub rebalancer: Option<String>,
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// Fleet-wide fragmentation sampled after every processed instant.
    pub timeline: Vec<FleetSample>,
    /// Fleet-level deterministic metrics for the run: the epoch count,
    /// the offer-chain-length histogram (devices offered per routed
    /// arrival) and the park-wait histogram (simulated µs a readmitted
    /// bundle spent parked). Per-admission facts live in the shard
    /// reports' [`admissions`](rtm_service::ServiceReport::admissions).
    pub metrics: MetricsRegistry,
}

impl FleetReport {
    fn sum(&self, f: impl Fn(&ServiceReport) -> usize) -> usize {
        self.shards.iter().map(|s| f(&s.report)).sum()
    }

    /// Requests the shards accepted responsibility for (sums the shard
    /// reports; equals [`FleetReport::submitted`] −
    /// [`FleetReport::unplaceable`] + [`FleetReport::load_failovers`]).
    pub fn shard_submitted(&self) -> usize {
        self.sum(|r| r.submitted)
    }

    /// Functions admitted fleet-wide.
    pub fn admitted(&self) -> usize {
        self.sum(|r| r.admitted)
    }

    /// Admissions that fitted without moving anything.
    pub fn immediate(&self) -> usize {
        self.sum(|r| r.immediate())
    }

    /// Requests dropped because their deadline passed.
    pub fn rejected_deadline(&self) -> usize {
        self.sum(|r| r.rejected_deadline)
    }

    /// Per-request load/synthesis/duplicate failures.
    pub fn failures(&self) -> usize {
        self.sum(|r| r.failures)
    }

    /// Load failures attributed to placement-side congestion (no free
    /// cell slots) fleet-wide — the routing-failure autopsy roll-up.
    pub fn failures_no_slots(&self) -> usize {
        self.sum(|r| r.failures_no_slots)
    }

    /// Load failures attributed to routing-side congestion (unroutable
    /// nets) fleet-wide.
    pub fn failures_unroutable(&self) -> usize {
        self.sum(|r| r.failures_unroutable)
    }

    /// The plan-reuse pipeline counters rolled up over every shard:
    /// planning passes, previews, reused/invalidated plans and the
    /// summary-cache hit rate for the whole fleet run.
    pub fn plan_stats(&self) -> PlanStats {
        let mut total = PlanStats::default();
        for s in &self.shards {
            total.merge(s.report.plan_stats);
        }
        total
    }

    /// Requests cancelled by the trace while queued.
    pub fn cancelled(&self) -> usize {
        self.sum(|r| r.cancelled)
    }

    /// Functions migrated onto some shard, summed over the shard
    /// reports. Identity: equals [`FleetReport::migrations_out`] and
    /// [`FleetReport::migrations`] exactly — every completed migration
    /// leaves one shard and arrives on exactly one other.
    pub fn migrations_in(&self) -> usize {
        self.sum(|r| r.migrations_in)
    }

    /// Functions migrated off some shard, summed over the shard
    /// reports (failed migrations are restored and move this counter
    /// back, so the in/out identity is exact, not eventual).
    pub fn migrations_out(&self) -> usize {
        self.sum(|r| r.migrations_out)
    }

    /// Failed readmissions rolled back from the extraction checkpoint,
    /// summed over the shard reports. Identity: equals
    /// [`FleetReport::migrations_failed`].
    pub fn migrations_restored(&self) -> usize {
        self.sum(|r| r.migrations_restored)
    }

    /// Residents evicted off some shard by preemption, summed over the
    /// shard reports. Identity: equals [`FleetReport::evictions_migrated`]
    /// plus [`FleetReport::evictions_parked`] — kept separate from the
    /// migration counters so `migrations_in == migrations_out` survives
    /// bundles that are parked instead of readmitted.
    pub fn evictions_out(&self) -> usize {
        self.sum(|r| r.evictions_out)
    }

    /// Evicted bundles readmitted onto some shard (as a preemption
    /// migration target, or out of the park queue), summed over the
    /// shard reports. Identity: equals
    /// [`FleetReport::evictions_migrated`] +
    /// [`FleetReport::parked_readmitted`].
    pub fn evictions_in(&self) -> usize {
        self.sum(|r| r.evictions_in)
    }

    /// The per-tier admission counters rolled up over every shard:
    /// submitted, admitted and total queue wait per [`QosTier`] lane.
    pub fn tiers(&self) -> TierCounts {
        let mut total = TierCounts::default();
        for s in &self.shards {
            total.absorb(&s.report.tiers());
        }
        total
    }

    /// Fraction of `tier`-lane submissions admitted fleet-wide
    /// (vacuously 1.0 when the lane saw no traffic) — the headline the
    /// preemption baselines gate on.
    pub fn tier_admission_rate(&self, tier: QosTier) -> f64 {
        self.tiers().admission_rate(tier)
    }

    /// Functions unloaded fleet-wide.
    pub fn departures(&self) -> usize {
        self.sum(|r| r.departures)
    }

    /// Requests still queued when the run ended.
    pub fn queued_at_end(&self) -> usize {
        self.sum(|r| r.queued_at_end)
    }

    /// Functions still resident when the run ended.
    pub fn resident_at_end(&self) -> usize {
        self.sum(|r| r.resident_at_end)
    }

    /// Defragmentation cycles executed fleet-wide (per-device threshold
    /// cycles plus fleet-triggered ones — the latter also appear in the
    /// owning shard's report, so this is simply the shard sum).
    pub fn defrag_cycles(&self) -> usize {
        self.sum(|r| r.defrag_cycles)
    }

    /// Whole-function moves executed fleet-wide.
    pub fn function_moves(&self) -> usize {
        self.sum(|r| r.function_moves)
    }

    /// CLBs of running logic relocated fleet-wide.
    pub fn cells_moved(&self) -> u64 {
        self.shards.iter().map(|s| s.report.cells_moved).sum()
    }

    /// Configuration frames written by relocations fleet-wide.
    pub fn frames_written(&self) -> u64 {
        self.shards.iter().map(|s| s.report.frames_written).sum()
    }

    /// Reconfiguration wall time of all relocation traffic (ms).
    pub fn reconfig_ms(&self) -> f64 {
        self.shards.iter().map(|s| s.report.reconfig_ms).sum()
    }

    /// Fraction of submitted requests admitted fleet-wide (unplaceable
    /// requests count against the fleet — they were submitted to it).
    pub fn admission_rate(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.admitted() as f64 / self.submitted as f64
        }
    }

    /// Highest mean fragmentation index on the timeline.
    pub fn peak_mean_frag(&self) -> f64 {
        self.timeline.iter().map(|s| s.mean).fold(0.0, f64::max)
    }

    /// Highest single-device fragmentation index on the timeline.
    pub fn peak_worst_frag(&self) -> f64 {
        self.timeline.iter().map(|s| s.worst).fold(0.0, f64::max)
    }

    /// The deterministic counter columns of a `BENCH_fleet.json` row, in
    /// file order: the fleet counters, the shard roll-ups, the per-tier
    /// split and the plan-pipeline counters. The baseline writer and its
    /// oracle test both read this list, so a column is named once.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        use QosTier::{Batch, Interactive, Standard};
        let s = self.plan_stats();
        let t = self.tiers();
        let u = |v: usize| v as u64;
        vec![
            ("submitted", u(self.submitted)),
            ("admitted", u(self.admitted())),
            ("retries", u(self.retries)),
            ("load_failovers", u(self.load_failovers)),
            ("unplaceable", u(self.unplaceable)),
            ("queued_at_end", u(self.queued_at_end())),
            ("failures", u(self.failures())),
            ("failures_no_slots", u(self.failures_no_slots())),
            ("failures_unroutable", u(self.failures_unroutable())),
            ("defrag_cycles", u(self.defrag_cycles())),
            ("fleet_defrags", u(self.fleet_defrags)),
            ("function_moves", u(self.function_moves())),
            ("cells_moved", self.cells_moved()),
            ("frames_written", self.frames_written()),
            ("migrations", u(self.migrations)),
            ("migrations_in", u(self.migrations_in())),
            ("migrations_out", u(self.migrations_out())),
            ("migrations_failed", u(self.migrations_failed)),
            ("migrations_refused", u(self.migrations_refused)),
            ("submitted_batch", u(t.submitted_for(Batch))),
            ("submitted_standard", u(t.submitted_for(Standard))),
            ("submitted_interactive", u(t.submitted_for(Interactive))),
            ("admitted_batch", u(t.admitted_for(Batch))),
            ("admitted_standard", u(t.admitted_for(Standard))),
            ("admitted_interactive", u(t.admitted_for(Interactive))),
            ("preemptions", u(self.preemptions)),
            ("evictions_migrated", u(self.evictions_migrated)),
            ("evictions_parked", u(self.evictions_parked)),
            ("parked_readmitted", u(self.parked_readmitted)),
            ("parked_expired", u(self.parked_expired)),
            ("parked_at_end", u(self.parked_at_end)),
            ("make_room_calls", s.make_room_calls),
            ("previews", s.previews),
            ("compaction_plans", s.compaction_plans),
            ("plans_reused", s.plans_reused),
            ("plans_invalidated", s.plans_invalidated),
            ("summary_hits", s.summary_hits),
            ("summary_misses", s.summary_misses),
            ("route_searches", s.route_searches),
            ("route_nodes_expanded", s.route_nodes_expanded),
        ]
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet report — trace '{}' via '{}' over {} devices",
            self.trace_name,
            self.policy,
            self.shards.len()
        )?;
        writeln!(
            f,
            "  admissions : {}/{} (rate {:.3}), {} via retry, {} unplaceable, \
             {} load failovers",
            self.admitted(),
            self.submitted,
            self.admission_rate(),
            self.retries,
            self.unplaceable,
            self.load_failovers,
        )?;
        writeln!(
            f,
            "  rejections : {} deadline, {} failed, {} cancelled, {} queued at end",
            self.rejected_deadline(),
            self.failures(),
            self.cancelled(),
            self.queued_at_end(),
        )?;
        let tiers = self.tiers();
        if tiers.is_tiered() || self.preemptions > 0 {
            writeln!(
                f,
                "  tiers      : {tiers} — {} preemptions ({} evicted→migrated, {} parked; \
                 {} readmitted, {} expired, {} still parked)",
                self.preemptions,
                self.evictions_migrated,
                self.evictions_parked,
                self.parked_readmitted,
                self.parked_expired,
                self.parked_at_end,
            )?;
        }
        if self.migrations + self.migrations_failed + self.migrations_refused > 0
            || self.rebalancer.is_some()
        {
            writeln!(
                f,
                "  rebalance  : {} migrations via '{}' ({} failed+restored, {} refused)",
                self.migrations,
                self.rebalancer.as_deref().unwrap_or("none"),
                self.migrations_failed,
                self.migrations_refused,
            )?;
        }
        writeln!(
            f,
            "  relocation : {} defrag cycles ({} fleet-triggered), {} moves, {} CLBs, \
             {} frames, {:.1} ms",
            self.defrag_cycles(),
            self.fleet_defrags,
            self.function_moves(),
            self.cells_moved(),
            self.frames_written(),
            self.reconfig_ms(),
        )?;
        writeln!(
            f,
            "  frag       : peak mean {:.3}, peak worst {:.3}",
            self.peak_mean_frag(),
            self.peak_worst_frag()
        )?;
        writeln!(f, "  planning   : {}", self.plan_stats())?;
        for (i, s) in self.shards.iter().enumerate() {
            writeln!(
                f,
                "  [{}] {:<8}: routed {:>3}, admitted {:>3}/{:<3}, {} defrags, \
                 final frag {:.3}",
                i,
                s.part.to_string(),
                s.routed,
                s.report.admitted,
                s.report.submitted,
                s.report.defrag_cycles,
                s.report
                    .final_frag
                    .map(|m| m.fragmentation())
                    .unwrap_or(0.0),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(part: Part, submitted: usize, admitted: usize) -> ShardOutcome {
        let mut report = ServiceReport::new("s");
        report.submitted = submitted;
        report.admitted = admitted;
        ShardOutcome {
            part,
            routed: submitted,
            report,
        }
    }

    #[test]
    fn totals_roll_up() {
        let r = FleetReport {
            trace_name: "t".into(),
            policy: "round-robin".into(),
            submitted: 11,
            unplaceable: 1,
            retries: 2,
            shards: vec![shard(Part::Xcv50, 6, 5), shard(Part::Xcv100, 4, 4)],
            timeline: vec![
                FleetSample {
                    at: 0,
                    mean: 0.2,
                    worst: 0.4,
                },
                FleetSample {
                    at: 10,
                    mean: 0.3,
                    worst: 0.6,
                },
            ],
            ..FleetReport::default()
        };
        assert_eq!(r.shard_submitted(), 10);
        assert_eq!(r.shard_submitted() + r.unplaceable, r.submitted);
        assert_eq!(r.admitted(), 9);
        assert!((r.admission_rate() - 9.0 / 11.0).abs() < 1e-9);
        assert_eq!(r.peak_mean_frag(), 0.3);
        assert_eq!(r.peak_worst_frag(), 0.6);
        let shown = r.to_string();
        assert!(shown.contains("9/11"), "{shown}");
        assert!(shown.contains("round-robin"), "{shown}");
        assert!(shown.contains("[1] XCV100"), "{shown}");
        let counters = r.counters();
        assert_eq!(counters.len(), 40, "one entry per BENCH_fleet.json column");
        assert_eq!(counters[0], ("submitted", 11));
        assert_eq!(counters[1], ("admitted", 9));
        assert_eq!(counters[39].0, "route_nodes_expanded");
    }
}
