//! Event/counter identity net: on random fleets, the deterministic
//! event stream and the report counters must describe the same run —
//! for every shard, Σ(events of a kind) equals the corresponding
//! [`ServiceReport`] counter, and the fleet-tagged events match the
//! [`FleetReport`] fleet-level counters. Any emission site that drifts
//! from its counter (an event without its increment, an increment
//! without its event, a speculative emission not truncated on the
//! no-room path) breaks one of these sums.

use proptest::prelude::*;
use rtm_fleet::rebalance::{RebalancePolicy, UtilizationLevelling, WorstShardDrain};
use rtm_fleet::routing::{FragAware, LeastUtilized, RoundRobin, RoutingPolicy};
use rtm_fleet::{FleetConfig, FleetService};
use rtm_fpga::part::Part;
use rtm_obs::{EventKind, RejectReason, RtmEvent, FLEET_SHARD};
use rtm_service::trace::Scenario;
use rtm_service::ServiceConfig;

const MENU: [Part; 3] = [Part::Xcv50, Part::Xcv100, Part::Xcv200];

fn policy_by_index(i: usize) -> Box<dyn RoutingPolicy> {
    match i % 3 {
        0 => Box::new(RoundRobin::default()),
        1 => Box::new(LeastUtilized),
        _ => Box::new(FragAware::default()),
    }
}

fn rebalancer_by_index(i: usize) -> Option<Box<dyn RebalancePolicy>> {
    match i % 3 {
        0 => None,
        1 => Some(Box::new(WorstShardDrain::default())),
        _ => Some(Box::new(UtilizationLevelling::default())),
    }
}

/// Events of shard `tag` matching `pred`.
fn count(events: &[RtmEvent], tag: u32, pred: impl Fn(&EventKind) -> bool) -> usize {
    events
        .iter()
        .filter(|e| e.shard == tag && pred(&e.kind))
        .count()
}

fn is_failure_reject(k: &EventKind) -> bool {
    matches!(
        k,
        EventKind::Rejected {
            reason: RejectReason::DuplicateOrSynthesis
                | RejectReason::NoFreeSlots
                | RejectReason::Unroutable
                | RejectReason::LoadOther,
            ..
        }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 2 } else { 8 }))]
    #[test]
    fn event_counts_equal_report_counters(
        parts_idx in proptest::collection::vec(0usize..3, 2..5),
        scenario_sel in 0usize..3,
        policy_sel in 0usize..3,
        rebalancer_sel in 0usize..3,
        seed in 1u64..500,
    ) {
        let parts: Vec<Part> = parts_idx.iter().map(|&i| MENU[i]).collect();
        let scenario = Scenario::ALL[scenario_sel];
        let trace = scenario.fleet_trace(Part::Xcv50, parts.len() as u64, seed, 150_000);

        let mut config = FleetConfig::heterogeneous(&parts, ServiceConfig::default());
        if rebalancer_by_index(rebalancer_sel).is_some() {
            config = config.with_rebalance_threshold(0.4);
        }
        let mut fleet = FleetService::new(config, policy_by_index(policy_sel));
        if let Some(r) = rebalancer_by_index(rebalancer_sel) {
            fleet = fleet.with_rebalancer(r);
        }
        fleet.enable_events();
        let report = fleet.run(&trace).expect("identity-net run stays up");
        let events = fleet.take_events();

        // Per-shard identities: the stream restricted to one shard tag
        // is a complete account of that shard's report.
        for (i, outcome) in report.shards.iter().enumerate() {
            let tag = i as u32;
            let r = &outcome.report;
            let ctx = format!("shard {i}: {r}");
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::Arrival { .. })),
                r.submitted, "arrival != submitted; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::Admitted { .. })),
                r.admitted, "admitted events != admitted; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::Load { .. })),
                r.admitted, "load events != admitted; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::Unload { .. })),
                r.departures, "unload != departures; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::DefragCycle { .. })),
                r.defrag_cycles, "defrag events != cycles; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, is_failure_reject),
                r.failures, "failure rejections != failures; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::Rejected {
                    reason: RejectReason::NoFreeSlots, ..
                })),
                r.failures_no_slots, "no-slot rejections; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::Rejected {
                    reason: RejectReason::Unroutable, ..
                })),
                r.failures_unroutable, "unroutable rejections; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::Rejected {
                    reason: RejectReason::DeadlinePassed, ..
                })),
                r.rejected_deadline, "deadline rejections; {}", ctx
            );
            // Queue conservation: everything enqueued either left the
            // queue (admission retry, deadline reject, cancellation) or
            // is still waiting at the end.
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::Enqueued { .. }))
                    - count(&events, tag, |k| matches!(k, EventKind::Dequeued { .. })),
                r.queued_at_end, "enqueued - dequeued != queued_at_end; {}", ctx
            );
            // Every extraction either completed (migrations_out) or was
            // rolled back (migrations_restored) — nothing vanishes.
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::MigrationOut { .. })),
                r.migrations_out + r.migrations_restored, "extractions; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::MigrationIn { .. })),
                r.migrations_in, "migration in; {}", ctx
            );
            prop_assert_eq!(
                count(&events, tag, |k| matches!(k, EventKind::MigrationRestored { .. })),
                r.migrations_restored, "restores; {}", ctx
            );
        }

        // Fleet-level identities (the FLEET_SHARD tag).
        prop_assert_eq!(
            count(&events, FLEET_SHARD, |k| matches!(k, EventKind::Rejected {
                reason: RejectReason::Unplaceable, ..
            })),
            report.unplaceable, "unplaceable rejections; {}", report
        );
        prop_assert_eq!(
            count(&events, FLEET_SHARD, |k| matches!(k, EventKind::EpochBoundary))
                as u64,
            report.metrics.counter("epochs"), "epoch boundaries; {}", report
        );
        prop_assert!(
            report.metrics.counter("epochs") > 0,
            "a run that processed events has epochs"
        );
    }
}
