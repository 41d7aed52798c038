//! Fleet invariants: routing can never admit a request no device can
//! hold, and the aggregated [`FleetReport`] accounts every request
//! exactly once.

use proptest::prelude::*;
use rtm_fleet::routing::{BestFitContiguous, FragAware, RoundRobin, RoutingPolicy};
use rtm_fleet::{FleetConfig, FleetService};
use rtm_fpga::part::Part;
use rtm_service::trace::{Arrival, Scenario, Trace, TraceEvent};
use rtm_service::{QosTier, ServiceConfig};
use std::collections::BTreeMap;

/// Every per-request fleet total must balance: what came in either got
/// admitted, rejected (deadline / failure / unplaceable), cancelled by
/// the trace, or is still queued. A device-specific load failure that
/// failed over to another shard accounts the request on *each* shard
/// it touched; `load_failovers` counts exactly those extra
/// accountings, so the identity stays exact.
fn assert_conservation(report: &rtm_fleet::FleetReport) {
    assert_eq!(
        report.admitted()
            + report.rejected_deadline()
            + report.failures()
            + report.cancelled()
            + report.queued_at_end()
            + report.unplaceable,
        report.submitted + report.load_failovers,
        "{report}"
    );
    // The autopsy counters are subsets of the failure total.
    assert!(
        report.failures_no_slots() + report.failures_unroutable() <= report.failures(),
        "{report}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn routing_never_admits_what_no_device_can_hold(
        parts_idx in proptest::collection::vec(0usize..2, 1..4),
        specs in proptest::collection::vec((2u16..=26, 2u16..=36, 1u64..5), 1..8),
    ) {
        let menu = [Part::Xcv50, Part::Xcv100];
        let parts: Vec<Part> = parts_idx.iter().map(|&i| menu[i]).collect();

        let mut trace = Trace::new("prop");
        let mut dims: BTreeMap<u64, (u16, u16)> = BTreeMap::new();
        for (k, (rows, cols, dur)) in specs.iter().enumerate() {
            let id = k as u64;
            dims.insert(id, (*rows, *cols));
            trace.push(
                id * 100_000,
                TraceEvent::Arrival(Arrival {
                    id,
                    rows: *rows,
                    cols: *cols,
                    duration: Some(dur * 200_000),
                    deadline: None,
                    tier: QosTier::Standard,
                }),
            );
        }
        let fits_somewhere = |r: u16, c: u16| {
            parts.iter().any(|p| r <= p.clb_rows() && c <= p.clb_cols())
        };
        let expected_unplaceable = dims
            .values()
            .filter(|(r, c)| !fits_somewhere(*r, *c))
            .count();

        let policies: [fn() -> Box<dyn RoutingPolicy>; 2] = [
            || Box::new(RoundRobin::default()),
            || Box::new(FragAware::default()),
        ];
        for policy in policies {
            let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default());
            let mut fleet = FleetService::new(config, policy());
            let report = fleet.run(&trace).unwrap();

            prop_assert_eq!(report.unplaceable, expected_unplaceable, "{}", report);
            // The heart of the invariant: every admission landed on a
            // device whose part actually holds the request's shape.
            for (i, shard) in report.shards.iter().enumerate() {
                for adm in &shard.report.admissions {
                    let (r, c) = dims[&adm.trace_id];
                    prop_assert!(
                        r <= parts[i].clb_rows() && c <= parts[i].clb_cols(),
                        "shard {} ({}) admitted a {}x{} request",
                        i, parts[i], r, c
                    );
                }
            }
            assert_conservation(&report);
        }
    }
}

/// The sum check on a real contended run: three adversarial copies
/// over three devices, every fleet total the exact sum of its
/// per-device counters.
#[test]
fn fleet_totals_equal_shard_sums_on_a_real_run() {
    let trace = Scenario::AdversarialFragmenter.fleet_trace(Part::Xcv50, 3, 40, 170_000);
    let config = FleetConfig::homogeneous(3, ServiceConfig::default());
    let report = FleetService::new(config, Box::new(BestFitContiguous))
        .run(&trace)
        .unwrap();

    assert_eq!(report.submitted, trace.arrivals());
    assert_conservation(&report);
    // Spot-check the getters against hand-computed sums.
    assert_eq!(
        report.admitted(),
        report
            .shards
            .iter()
            .map(|s| s.report.admitted)
            .sum::<usize>()
    );
    assert_eq!(
        report.cells_moved(),
        report
            .shards
            .iter()
            .map(|s| s.report.cells_moved)
            .sum::<u64>()
    );
    assert_eq!(
        report.frames_written(),
        report
            .shards
            .iter()
            .map(|s| s.report.frames_written)
            .sum::<u64>()
    );
    assert!(report.admitted() > 0, "{report}");
    // The timeline is time-ordered and covers the run.
    assert!(report.timeline.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(!report.timeline.is_empty());
}
