//! Cross-device placement policies: which shard gets this function.
//!
//! A [`RoutingPolicy`] ranks the devices that could physically hold an
//! arriving request as a list of [`RouteCandidate`]s; the fleet then
//! *offers* the request to each ranked device in turn (cross-device
//! retry) and queues it on the best-ranked one if nobody can place it
//! right now. Policies read shard state through the read-only surface
//! of [`RuntimeService`] — the epoch-cached fragmentation metrics and
//! [`summary`](rtm_core::RunTimeManager::summary), queue depth, and the
//! non-mutating
//! [`preview_admission`](rtm_core::RunTimeManager::preview_admission)
//! planner for the fragmentation-aware policy.
//!
//! A policy that previews an admission attaches the preview's
//! epoch-stamped [`RoomPlan`] to its candidate: the fleet hands it
//! straight to the shard's offer, which executes it via
//! [`load_with_plan`](rtm_core::RunTimeManager::load_with_plan) without
//! planning again — routing work is never thrown away.

use rtm_core::RoomPlan;
use rtm_service::trace::Arrival;
use rtm_service::RuntimeService;
use std::fmt;

/// One ranked routing candidate: the shard index, plus — when the
/// policy already previewed this admission — the rearrangement plan
/// ready to be executed by
/// [`load_with_plan`](rtm_core::RunTimeManager::load_with_plan).
#[derive(Debug, Clone)]
pub struct RouteCandidate {
    /// The shard index the candidate names.
    pub shard: usize,
    /// The previewed rearrangement plan for this request on this shard,
    /// if the policy computed one while ranking. `None` for policies
    /// that rank on cheap state only.
    pub plan: Option<RoomPlan>,
}

impl RouteCandidate {
    /// A candidate with no attached plan.
    pub fn bare(shard: usize) -> Self {
        RouteCandidate { shard, plan: None }
    }
}

/// A cross-device placement policy.
///
/// `rank` returns candidates best-first; the fleet tries them in
/// order. Returning an empty ranking declares the request unplaceable
/// on every device of the fleet (the provided [`eligible`] helper
/// encodes the only hard constraint: the request's shape must fit the
/// device).
pub trait RoutingPolicy: fmt::Debug + Send {
    /// The policy's name (reported in the
    /// [`FleetReport`](crate::FleetReport)).
    fn name(&self) -> &'static str;

    /// Ranks the shards that could hold `arrival`, best first.
    fn rank(&mut self, arrival: &Arrival, shards: &[RuntimeService]) -> Vec<RouteCandidate>;
}

/// Shard indices whose device can physically hold `arrival` (its shape
/// fits the part), in index order — the candidate set every policy
/// ranks. A request eligible nowhere must be rejected, never queued.
pub fn eligible(arrival: &Arrival, shards: &[RuntimeService]) -> Vec<usize> {
    shards
        .iter()
        .enumerate()
        .filter(|(_, s)| s.part().holds(arrival.rows, arrival.cols))
        .map(|(i, _)| i)
        .collect()
}

/// State-blind rotation over the eligible devices: each decision starts
/// one device later than the previous one. The classic load-spreading
/// baseline every informed policy has to beat.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn rank(&mut self, arrival: &Arrival, shards: &[RuntimeService]) -> Vec<RouteCandidate> {
        let elig = eligible(arrival, shards);
        if elig.is_empty() {
            return Vec::new();
        }
        let start = self.next % elig.len();
        self.next = self.next.wrapping_add(1);
        let mut ranked = Vec::with_capacity(elig.len());
        ranked.extend(elig[start..].iter().copied().map(RouteCandidate::bare));
        ranked.extend(elig[..start].iter().copied().map(RouteCandidate::bare));
        ranked
    }
}

/// Prefer the device with the lowest CLB utilisation (ties: shorter
/// wait queue, then lower index). Balances *load*, not geometry: a
/// lightly-used device may still be too fragmented for a big request.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastUtilized;

impl RoutingPolicy for LeastUtilized {
    fn name(&self) -> &'static str {
        "least-utilized"
    }

    fn rank(&mut self, arrival: &Arrival, shards: &[RuntimeService]) -> Vec<RouteCandidate> {
        let mut elig = eligible(arrival, shards);
        elig.sort_by(|&a, &b| {
            let (sa, sb) = (&shards[a], &shards[b]);
            sa.manager()
                .fragmentation()
                .utilisation()
                .total_cmp(&sb.manager().fragmentation().utilisation())
                .then(sa.queue_len().cmp(&sb.queue_len()))
                .then(a.cmp(&b))
        });
        elig.into_iter().map(RouteCandidate::bare).collect()
    }
}

/// Best fit by free contiguous area: among devices whose largest free
/// rectangle already holds the request, pick the *tightest* one —
/// preserving the big holes of the other devices for big requests.
/// Devices that would need rearrangement first go last, closest-to-
/// fitting first.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFitContiguous;

impl RoutingPolicy for BestFitContiguous {
    fn name(&self) -> &'static str {
        "best-fit-area"
    }

    fn rank(&mut self, arrival: &Arrival, shards: &[RuntimeService]) -> Vec<RouteCandidate> {
        let area = arrival.area();
        let mut elig = eligible(arrival, shards);
        elig.sort_by_key(|&i| {
            let largest = shards[i].manager().fragmentation().largest_rect;
            if largest >= area {
                // Tightest fitting hole first.
                (0u8, largest, i)
            } else {
                // Needs rearrangement: closest to fitting first.
                (1u8, u32::MAX - largest, i)
            }
        });
        elig.into_iter().map(RouteCandidate::bare).collect()
    }
}

/// Fragmentation-aware routing, two-staged so it scales to large
/// fleets.
///
/// **Stage 1 (cheap):** read every eligible device's epoch-cached
/// [`summary`](rtm_core::RunTimeManager::summary) — utilisation,
/// largest free rectangle, fragmentation index — and order candidates
/// by how promising they look: devices whose largest free rectangle's
/// *area* covers the request first (an optimistic heuristic — the
/// summary carries no shape information, so a 16×6 strip counts as
/// covering a 12×8 request; stage 2 is what separates real fits from
/// area-only ones), least fragmented of those ahead. Summaries cost
/// nothing for devices that have not mutated since the last query,
/// which is what keeps a 64-device fleet tractable.
///
/// **Stage 2 (expensive):** only the top
/// [`top_k`](FragAware::top_k) candidates get a full
/// [`preview_admission`](rtm_core::RunTimeManager::preview_admission)
/// — the rearrangement plan plus predicted post-placement metrics —
/// and are re-ranked by the fragmentation index the admission would
/// leave behind, breaking ties toward cheaper rearrangement. Each
/// previewed candidate carries its plan, so the winning device admits
/// via `load_with_plan` without planning again.
///
/// Un-previewed devices follow in their stage-1 order (the retry path
/// still reaches them); previewed devices that cannot admit even with
/// compaction go last.
#[derive(Debug, Clone, Copy)]
pub struct FragAware {
    /// How many stage-1 survivors get the expensive preview. Planning
    /// cost per arrival is bounded by this, independent of fleet size.
    pub top_k: usize,
}

impl Default for FragAware {
    /// Preview the four most promising devices — enough slack for the
    /// cross-device retry path on small fleets while keeping per-arrival
    /// planning cost flat on big ones.
    fn default() -> Self {
        FragAware { top_k: 4 }
    }
}

impl RoutingPolicy for FragAware {
    fn name(&self) -> &'static str {
        "frag-aware"
    }

    fn rank(&mut self, arrival: &Arrival, shards: &[RuntimeService]) -> Vec<RouteCandidate> {
        let area = arrival.area();
        // Stage 1: cheap cut on cached summaries.
        let mut cheap: Vec<(usize, bool, f64, f64)> = eligible(arrival, shards)
            .into_iter()
            .map(|i| {
                let s = shards[i].manager().summary();
                // Area-only heuristic: the summary has no shape data, so
                // this can be optimistic (a long thin free strip "covers"
                // a square request). Stage 2's previews settle it.
                (
                    i,
                    s.frag.largest_rect >= area,
                    s.frag.fragmentation(),
                    s.frag.utilisation(),
                )
            })
            .collect();
        cheap.sort_by(
            |(a, area_fits_a, frag_a, util_a), (b, area_fits_b, frag_b, util_b)| {
                area_fits_b
                    .cmp(area_fits_a) // likely-fitting-without-rearrangement first
                    .then(frag_a.total_cmp(frag_b))
                    .then(util_a.total_cmp(util_b))
                    .then(a.cmp(b))
            },
        );

        // Stage 2: full admission preview on the top K only.
        let k = self.top_k.max(1).min(cheap.len());
        let mut previewed: Vec<(usize, rtm_core::AdmissionPreview)> = Vec::new();
        let mut hopeless: Vec<usize> = Vec::new();
        for &(i, _, _, _) in &cheap[..k] {
            match shards[i]
                .manager()
                .preview_admission(arrival.rows, arrival.cols)
            {
                Some(p) => previewed.push((i, p)),
                None => hopeless.push(i),
            }
        }
        // Hopeless devices (cannot admit even with compaction) are
        // ordered by their *current* fragmentation index, lowest first.
        // This deliberately ranks a fully packed device (frag 0.0, no
        // free cells) ahead of a shattered half-empty one: a request
        // that must queue waits best where departures free contiguous
        // room, not where free space is already confetti.
        hopeless.sort_by(|a, b| {
            let (ma, mb) = (
                shards[*a].manager().fragmentation().fragmentation(),
                shards[*b].manager().fragmentation().fragmentation(),
            );
            ma.total_cmp(&mb).then(a.cmp(b))
        });
        previewed.sort_by(|(a, pa), (b, pb)| {
            pa.after
                .fragmentation()
                .total_cmp(&pb.after.fragmentation())
                .then(pa.cells_moved().cmp(&pb.cells_moved()))
                .then(a.cmp(b))
        });

        let mut ranked: Vec<RouteCandidate> = previewed
            .into_iter()
            .map(|(shard, p)| RouteCandidate {
                shard,
                plan: Some(p.plan),
            })
            .collect();
        ranked.extend(
            cheap[k..]
                .iter()
                .map(|&(i, _, _, _)| RouteCandidate::bare(i)),
        );
        // Previewed-and-hopeless devices stay rankable (a queue slot of
        // last resort: future departures may free room) but go last.
        ranked.extend(hopeless.into_iter().map(RouteCandidate::bare));
        ranked
    }
}

/// The four standard policies, in sweep order: the state-blind baseline
/// first, then increasingly informed ones.
pub fn standard_policies() -> Vec<Box<dyn RoutingPolicy>> {
    vec![
        Box::new(RoundRobin::default()),
        Box::new(LeastUtilized),
        Box::new(BestFitContiguous),
        Box::new(FragAware::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_fpga::part::Part;
    use rtm_service::{QosTier, ServiceConfig};

    fn arrival(rows: u16, cols: u16) -> Arrival {
        Arrival {
            id: 0,
            rows,
            cols,
            duration: None,
            deadline: None,
            tier: QosTier::Standard,
        }
    }

    fn fleet(parts: &[Part]) -> Vec<RuntimeService> {
        parts
            .iter()
            .map(|p| RuntimeService::new(ServiceConfig::default().with_part(*p)))
            .collect()
    }

    fn shards_of(ranked: &[RouteCandidate]) -> Vec<usize> {
        ranked.iter().map(|c| c.shard).collect()
    }

    #[test]
    fn eligibility_excludes_too_small_devices() {
        let shards = fleet(&[Part::Xcv50, Part::Xcv200]);
        assert_eq!(eligible(&arrival(4, 4), &shards), vec![0, 1]);
        // 20 rows exceed the XCV50's 16.
        assert_eq!(eligible(&arrival(20, 10), &shards), vec![1]);
        // 70 columns exceed everything.
        assert!(eligible(&arrival(4, 70), &shards).is_empty());
    }

    #[test]
    fn round_robin_rotates_over_eligible() {
        let shards = fleet(&[Part::Xcv50, Part::Xcv50, Part::Xcv50]);
        let mut rr = RoundRobin::default();
        assert_eq!(shards_of(&rr.rank(&arrival(4, 4), &shards)), vec![0, 1, 2]);
        assert_eq!(shards_of(&rr.rank(&arrival(4, 4), &shards)), vec![1, 2, 0]);
        assert_eq!(shards_of(&rr.rank(&arrival(4, 4), &shards)), vec![2, 0, 1]);
        assert_eq!(shards_of(&rr.rank(&arrival(4, 4), &shards)), vec![0, 1, 2]);
    }

    #[test]
    fn least_utilized_prefers_emptier_devices() {
        let mut shards = fleet(&[Part::Xcv50, Part::Xcv50]);
        // Put load on shard 0.
        let mut rep = rtm_service::ServiceReport::new("setup");
        let a = arrival(8, 8);
        let got = shards[0]
            .admit(
                0,
                rtm_service::AdmissionBid::direct(Arrival { id: 7, ..a }),
                &mut rep,
            )
            .unwrap();
        assert_eq!(got, rtm_service::OfferOutcome::Admitted);
        assert_eq!(
            shards_of(&LeastUtilized.rank(&arrival(4, 4), &shards)),
            vec![1, 0],
            "the empty device ranks first"
        );
    }

    #[test]
    fn best_fit_prefers_tightest_hole_and_frag_aware_ranks_cleanest() {
        let mut shards = fleet(&[Part::Xcv50, Part::Xcv100]);
        // Fill most of the XCV100 so its largest hole is smaller than
        // the XCV50's blank 16x24.
        let mut rep = rtm_service::ServiceReport::new("setup");
        let got = shards[1]
            .admit(
                0,
                rtm_service::AdmissionBid::direct(Arrival {
                    id: 9,
                    ..arrival(20, 22)
                }),
                &mut rep,
            )
            .unwrap();
        assert_eq!(got, rtm_service::OfferOutcome::Admitted);
        // XCV100 hole: 20x8 = 160 >= 16; XCV50 hole: 384. Tightest wins.
        assert_eq!(
            shards_of(&BestFitContiguous.rank(&arrival(4, 4), &shards)),
            vec![1, 0]
        );
        // A request only the XCV50's hole satisfies flips the order.
        assert_eq!(
            shards_of(&BestFitContiguous.rank(&arrival(16, 12), &shards)),
            vec![0, 1]
        );
        // Frag-aware: both devices ranked, and every previewed candidate
        // carries the plan a load can execute directly.
        let ranked = FragAware::default().rank(&arrival(4, 4), &shards);
        assert_eq!(ranked.len(), 2);
        assert!(
            ranked.iter().all(|c| c.plan.is_some()),
            "two devices, top_k 4: both previewed"
        );
        assert!(
            ranked[0].plan.as_ref().unwrap().is_empty(),
            "a 4x4 fits both blanks without rearrangement"
        );
    }

    #[test]
    fn frag_aware_previews_only_top_k() {
        let shards = fleet(&[Part::Xcv50; 6]);
        let mut policy = FragAware { top_k: 2 };
        let base: u64 = shards
            .iter()
            .map(|s| s.manager().plan_stats().previews)
            .sum();
        let ranked = policy.rank(&arrival(4, 4), &shards);
        assert_eq!(ranked.len(), 6, "every eligible device stays rankable");
        let previews: u64 = shards
            .iter()
            .map(|s| s.manager().plan_stats().previews)
            .sum::<u64>()
            - base;
        assert_eq!(previews, 2, "only the top-K survivors get previewed");
        assert_eq!(
            ranked.iter().filter(|c| c.plan.is_some()).count(),
            2,
            "exactly the previewed candidates carry plans"
        );
        // A second identical ranking is answered from the summary cache.
        let hits_before: u64 = shards
            .iter()
            .map(|s| s.manager().plan_stats().summary_hits)
            .sum();
        policy.rank(&arrival(4, 4), &shards);
        let hits: u64 = shards
            .iter()
            .map(|s| s.manager().plan_stats().summary_hits)
            .sum::<u64>()
            - hits_before;
        assert_eq!(hits, 6, "unchanged devices answer from the cache");
    }

    #[test]
    fn standard_policies_cover_the_four_families() {
        let names: Vec<&str> = standard_policies().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "round-robin",
                "least-utilized",
                "best-fit-area",
                "frag-aware"
            ]
        );
    }
}
