//! Fleet rebalancing: which resident function should move to which
//! other device, and when.
//!
//! Admission-time routing (the [`RoutingPolicy`](crate::RoutingPolicy))
//! decides where a function *starts*; it never revisits the decision,
//! so placements age — the comb patterns state-blind round-robin leaves
//! behind are the canonical example. A [`RebalancePolicy`] closes that
//! gap: it reads the fleet's per-device state and proposes
//! [`MigrationDirective`]s — *move this resident function from shard A
//! to shard B* — which the [`FleetService`](crate::FleetService)
//! executes during **idle port windows** (never delaying a queued
//! deadline, see
//! [`RuntimeService::idle_window`](rtm_service::RuntimeService::idle_window))
//! via the core extract/readmit migration machinery. This is the
//! defragmentation-by-delayed-repacking discipline of the strip-packing
//! literature lifted to the fleet: repair work happens off the critical
//! path, paid for with port time nobody was using.
//!
//! Two planners ship:
//!
//! * [`WorstShardDrain`] — greedy comb repair: drain the most
//!   fragmented shard, picking the resident whose extraction buys the
//!   most predicted fragmentation improvement per relocated CLB;
//! * [`UtilizationLevelling`] — classic load levelling: move area from
//!   the fullest shard toward the emptiest until they meet the mean.

use rtm_service::RuntimeService;
use std::fmt;

/// One proposed migration: move the function `trace_id` (resident on
/// shard `from`) onto shard `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDirective {
    /// The trace-level id of the function to move.
    pub trace_id: u64,
    /// The shard it is resident on.
    pub from: usize,
    /// The shard it should move to.
    pub to: usize,
}

/// What became of one executed [`MigrationDirective`] (see
/// [`FleetService::migrate`](crate::FleetService::migrate)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// Extracted, readmitted, resident on the target — the function's
    /// residency clock never noticed.
    Completed,
    /// Refused: the directive names a function that is not resident on
    /// `from`, identical shards, or an out-of-range shard index.
    RefusedUnknown,
    /// Refused: the target cannot make room for the function's shape
    /// even with compaction.
    RefusedNoRoom,
    /// Refused: the reconfiguration-port time the copy needs exceeds
    /// the idle window some queued deadline-bound request leaves open.
    /// A migration may never make a queued request late.
    RefusedWindow {
        /// Port time the migration would have needed (µs).
        needed: u64,
        /// The violated idle window (µs).
        window: u64,
    },
    /// The readmission failed on the target; the function was restored
    /// on the source from the extraction checkpoint, frame for frame.
    FailedRestored,
}

/// A fleet rebalancing planner: reads the shards (read-only) and
/// proposes migrations, best first. The fleet executes every proposal
/// of a trigger, each still subject to the idle-window and room checks
/// — a planner proposes, the safety machinery disposes. A planner
/// bounds the port time one trigger wave can consume by capping its
/// own proposals (`max_directives` on both planners here).
pub trait RebalancePolicy: fmt::Debug + Send {
    /// The planner's name (reported in the
    /// [`FleetReport`](crate::FleetReport)).
    fn name(&self) -> &'static str;

    /// Proposes migrations, best first.
    fn plan(&mut self, shards: &[RuntimeService]) -> Vec<MigrationDirective>;
}

/// Shards (other than `from`) whose device can physically hold a
/// `rows`×`cols` function, ranked best-target-first on cheap
/// epoch-cached summaries: devices whose largest free rectangle already
/// covers the area first (the copy lands without rearrangement), least
/// fragmented of those, least utilised next, index last.
fn rank_targets(shards: &[RuntimeService], from: usize, rows: u16, cols: u16) -> Vec<usize> {
    let area = rows as u32 * cols as u32;
    let mut targets: Vec<(usize, bool, f64, f64)> = shards
        .iter()
        .enumerate()
        .filter(|(i, s)| *i != from && s.part().holds(rows, cols))
        .map(|(i, s)| {
            let m = s.manager().summary().frag;
            (
                i,
                m.largest_rect >= area,
                m.fragmentation(),
                m.utilisation(),
            )
        })
        .collect();
    targets.sort_by(|(a, fits_a, frag_a, util_a), (b, fits_b, frag_b, util_b)| {
        fits_b
            .cmp(fits_a)
            .then(frag_a.total_cmp(frag_b))
            .then(util_a.total_cmp(util_b))
            .then(a.cmp(b))
    });
    targets.into_iter().map(|(i, _, _, _)| i).collect()
}

/// True when some queued request on `shard` is larger than the shard's
/// largest free rectangle: no local compaction can seat it, only
/// migrating residents away (or a departure) can. The condition the
/// rebalancing trigger watches besides raw fragmentation.
pub fn queue_starved(shard: &RuntimeService) -> bool {
    let largest = shard.manager().summary().frag.largest_rect;
    shard.queued_requests().iter().any(|a| a.area() > largest)
}

/// Greedy worst-shard drain: take the neediest shard — a shard whose
/// queue is geometry-starved ([`queue_starved`]) first, the most
/// fragmented one otherwise — and migrate away the resident whose
/// extraction helps most. On a starved shard, candidates are ranked by
/// the largest free rectangle their departure would open (the queued
/// request needs *room*, wherever it comes from); on a merely
/// fragmented shard, by predicted fragmentation repair **per relocated
/// CLB** (the comb tooth whose removal merges the gaps around it
/// scores far above an interior function of the same size). Targets
/// are ranked by the cheap summary cut; only candidates whose move is
/// predicted to make progress are proposed, so a healthy fleet yields
/// no directives at all.
#[derive(Debug, Clone, Copy)]
pub struct WorstShardDrain {
    /// Cap on proposed directives per planning call.
    pub max_directives: usize,
}

impl Default for WorstShardDrain {
    /// Propose up to four drains per trigger — enough to repair one
    /// comb in a couple of waves without monopolising the port.
    fn default() -> Self {
        WorstShardDrain { max_directives: 4 }
    }
}

impl RebalancePolicy for WorstShardDrain {
    fn name(&self) -> &'static str {
        "worst-shard-drain"
    }

    fn plan(&mut self, shards: &[RuntimeService]) -> Vec<MigrationDirective> {
        // The neediest shard that actually holds functions: starved
        // queues outrank fragmentation, fragmentation breaks ties.
        let src = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.resident_count() > 0)
            .max_by(|(a, sa), (b, sb)| {
                let (ka, kb) = (
                    (
                        queue_starved(sa),
                        sa.manager().fragmentation().fragmentation(),
                    ),
                    (
                        queue_starved(sb),
                        sb.manager().fragmentation().fragmentation(),
                    ),
                );
                ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1)).then(b.cmp(a))
            });
        let Some((src, shard)) = src else {
            return Vec::new();
        };
        let before = shard.manager().fragmentation();
        let starved = queue_starved(shard);
        if !starved && before.fragmentation() <= 0.0 {
            return Vec::new();
        }
        // Score every resident by what its departure buys: room for
        // the starved queue (largest free rectangle opened), or comb
        // repair (frag gain per relocated CLB) — and keep only moves
        // predicted to make progress.
        let mut scored: Vec<(f64, u64, u16, u16)> = shard
            .resident_functions()
            .into_iter()
            .filter_map(|(tid, fid, rect)| {
                let after = shard.manager().preview_release(fid)?;
                let score = if starved {
                    (after.largest_rect > before.largest_rect)
                        .then_some(after.largest_rect as f64)?
                } else {
                    let gain = before.fragmentation() - after.fragmentation();
                    (gain > 0.0).then_some(gain / rect.area() as f64)?
                };
                Some((score, tid, rect.rows, rect.cols))
            })
            .collect();
        scored.sort_by(|(ga, ta, _, _), (gb, tb, _, _)| gb.total_cmp(ga).then(ta.cmp(tb)));

        let mut out = Vec::new();
        for (_, tid, rows, cols) in scored.into_iter().take(self.max_directives) {
            if let Some(&to) = rank_targets(shards, src, rows, cols).first() {
                out.push(MigrationDirective {
                    trace_id: tid,
                    from: src,
                    to,
                });
            }
        }
        out
    }
}

/// Utilisation levelling: move area from the fullest shard toward the
/// emptiest one until both sit near the fleet mean. Per call it
/// proposes moving the resident whose area best matches the fullest
/// shard's excess over the mean, aimed at the best-ranked target that
/// can hold it — the classic load-balancing complement to
/// [`WorstShardDrain`]'s geometric repair.
#[derive(Debug, Clone, Copy)]
pub struct UtilizationLevelling {
    /// Minimum utilisation spread (fullest − emptiest) below which the
    /// fleet counts as level and no migration is proposed.
    pub min_spread: f64,
    /// Cap on proposed directives per planning call.
    pub max_directives: usize,
}

impl Default for UtilizationLevelling {
    /// Level only spreads above ten percentage points, two moves per
    /// trigger.
    fn default() -> Self {
        UtilizationLevelling {
            min_spread: 0.10,
            max_directives: 2,
        }
    }
}

impl RebalancePolicy for UtilizationLevelling {
    fn name(&self) -> &'static str {
        "utilization-levelling"
    }

    fn plan(&mut self, shards: &[RuntimeService]) -> Vec<MigrationDirective> {
        let utils: Vec<f64> = shards
            .iter()
            .map(|s| s.manager().fragmentation().utilisation())
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
        let Some((src, &src_util)) = utils
            .iter()
            .enumerate()
            .max_by(|(a, ua), (b, ub)| ua.total_cmp(ub).then(b.cmp(a)))
        else {
            return Vec::new();
        };
        let min_util = utils.iter().copied().fold(f64::INFINITY, f64::min);
        if src_util - min_util < self.min_spread {
            return Vec::new();
        }
        // The area the source should shed to come back to the mean.
        let total = shards[src].manager().fragmentation().total_cells as f64;
        let excess = ((src_util - mean) * total).max(1.0);

        // Residents whose area comes closest to the excess first.
        let mut candidates: Vec<(u64, u16, u16, u32)> = shards[src]
            .resident_functions()
            .into_iter()
            .map(|(tid, _, rect)| (tid, rect.rows, rect.cols, rect.area()))
            .collect();
        candidates.sort_by(|(ta, _, _, aa), (tb, _, _, ab)| {
            let (da, db) = ((*aa as f64 - excess).abs(), (*ab as f64 - excess).abs());
            da.total_cmp(&db).then(ta.cmp(tb))
        });

        let mut out = Vec::new();
        for (tid, rows, cols, _) in candidates.into_iter().take(self.max_directives) {
            // Aim at the emptiest eligible target, not the generic
            // frag-ranked one: this planner levels load.
            let target = shards
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != src && s.part().holds(rows, cols))
                .min_by(|(a, sa), (b, sb)| {
                    let (ua, ub) = (
                        sa.manager().fragmentation().utilisation(),
                        sb.manager().fragmentation().utilisation(),
                    );
                    ua.total_cmp(&ub).then(a.cmp(b))
                });
            if let Some((to, _)) = target {
                out.push(MigrationDirective {
                    trace_id: tid,
                    from: src,
                    to,
                });
            }
        }
        out
    }
}

/// The standard rebalancing planners, for sweeps.
pub fn standard_rebalancers() -> Vec<Box<dyn RebalancePolicy>> {
    vec![
        Box::new(WorstShardDrain::default()),
        Box::new(UtilizationLevelling::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_fpga::part::Part;
    use rtm_service::trace::Arrival;
    use rtm_service::{QosTier, ServiceConfig, ServiceReport};

    fn admit(shard: &mut RuntimeService, id: u64, rows: u16, cols: u16) {
        let mut rep = ServiceReport::new("setup");
        let got = shard
            .admit(
                0,
                rtm_service::AdmissionBid::direct(Arrival {
                    id,
                    rows,
                    cols,
                    duration: None,
                    deadline: None,
                    tier: QosTier::Standard,
                }),
                &mut rep,
            )
            .unwrap();
        assert_eq!(got, rtm_service::OfferOutcome::Admitted);
    }

    #[test]
    fn drain_targets_the_comb_tooth_with_best_gain_per_clb() {
        let mut shards: Vec<RuntimeService> = (0..2)
            .map(|_| RuntimeService::new(ServiceConfig::default().with_part(Part::Xcv50)))
            .collect();
        // Build a comb on shard 0: strips at cols 0, 6, 12, 18 (the
        // best-fit allocator packs them left; admit 8 then depart none
        // — instead admit 4 spaced by admitting+departing fillers).
        for (id, _) in [(0u64, 0u16), (1, 6), (2, 12), (3, 18)].iter().enumerate() {
            admit(&mut shards[0], id as u64, 16, 3);
            admit(&mut shards[0], 100 + id as u64, 16, 3);
        }
        let mut rep = ServiceReport::new("depart");
        for id in 100..104u64 {
            shards[0].depart(id, &mut rep).unwrap();
        }
        assert!(
            shards[0].manager().fragmentation().fragmentation() > 0.5,
            "comb built: {}",
            shards[0].manager().fragmentation()
        );

        let plan = WorstShardDrain::default().plan(&shards);
        assert!(!plan.is_empty(), "a comb must be worth draining");
        assert_eq!(plan[0].from, 0);
        assert_eq!(plan[0].to, 1, "the blank sibling is the obvious target");
        // Draining any strip merges two gaps; all proposed moves carry
        // positive predicted gain by construction.
        for d in &plan {
            assert!(shards[0].holds(d.trace_id));
        }
        // A blank fleet proposes nothing.
        let blank: Vec<RuntimeService> = (0..2)
            .map(|_| RuntimeService::new(ServiceConfig::default()))
            .collect();
        assert!(WorstShardDrain::default().plan(&blank).is_empty());
    }

    #[test]
    fn levelling_moves_area_from_full_to_empty() {
        let mut shards: Vec<RuntimeService> = (0..3)
            .map(|_| RuntimeService::new(ServiceConfig::default().with_part(Part::Xcv50)))
            .collect();
        admit(&mut shards[0], 0, 16, 8);
        admit(&mut shards[0], 1, 16, 6);
        admit(&mut shards[1], 2, 4, 4);
        let plan = UtilizationLevelling::default().plan(&shards);
        assert!(!plan.is_empty());
        assert_eq!(plan[0].from, 0, "fullest shard sheds");
        assert_eq!(plan[0].to, 2, "emptiest shard receives");
        // A level fleet proposes nothing.
        let mut level: Vec<RuntimeService> = (0..2)
            .map(|_| RuntimeService::new(ServiceConfig::default()))
            .collect();
        admit(&mut level[0], 0, 8, 8);
        admit(&mut level[1], 1, 8, 8);
        assert!(UtilizationLevelling::default().plan(&level).is_empty());
    }

    #[test]
    fn standard_rebalancers_cover_both_families() {
        let names: Vec<&str> = standard_rebalancers().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["worst-shard-drain", "utilization-levelling"]);
    }
}
