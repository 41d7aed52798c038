//! End-to-end smoke tests of the fleet sharding layer.

use rtm_fleet::routing::{BestFitContiguous, RoundRobin};
use rtm_fleet::{FleetConfig, FleetService};
use rtm_fpga::part::Part;
use rtm_service::trace::{Arrival, Trace, TraceEvent};
use rtm_service::{QosTier, ServiceConfig};

fn arrival(id: u64, rows: u16, cols: u16, duration: Option<u64>) -> TraceEvent {
    TraceEvent::Arrival(Arrival {
        id,
        rows,
        cols,
        duration,
        deadline: None,
        tier: QosTier::Standard,
    })
}

#[test]
fn round_robin_spreads_and_departures_find_their_shard() {
    let config = FleetConfig::homogeneous(2, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));

    let mut trace = Trace::new("spread");
    for id in 0..4u64 {
        trace.push(id * 10_000, arrival(id, 6, 6, None));
    }
    // Depart one function per shard; the fleet must deliver each to
    // the shard that owns the id.
    trace.push(100_000, TraceEvent::Departure { id: 0 });
    trace.push(110_000, TraceEvent::Departure { id: 1 });

    let report = fleet.run(&trace).unwrap();
    assert_eq!(report.submitted, 4);
    assert_eq!(report.admitted(), 4);
    assert_eq!(report.departures(), 2);
    assert_eq!(report.retries, 0, "everything fitted first try");
    assert_eq!(fleet.shards()[0].resident_count(), 1);
    assert_eq!(fleet.shards()[1].resident_count(), 1);

    // State persists: a second trace departs a survivor from the first.
    let mut second = Trace::new("second");
    second.push(0, TraceEvent::Departure { id: 2 });
    let report = fleet.run(&second).unwrap();
    assert_eq!(report.departures(), 1);
    assert_eq!(
        fleet.shards()[0].resident_count() + fleet.shards()[1].resident_count(),
        1
    );
}

#[test]
fn unplaceable_requests_reject_instead_of_queueing() {
    let config = FleetConfig::homogeneous(2, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));
    let mut trace = Trace::new("oversize");
    // 20 rows exceed every XCV50 in the fleet.
    trace.push(0, arrival(0, 20, 10, None));
    trace.push(10_000, arrival(1, 4, 4, None));
    let report = fleet.run(&trace).unwrap();
    assert_eq!(report.unplaceable, 1);
    assert_eq!(report.admitted(), 1, "the placeable one is unaffected");
    assert_eq!(
        report.queued_at_end(),
        0,
        "never queued on a hopeless device"
    );
    assert_eq!(
        report.shard_submitted() + report.unplaceable,
        report.submitted
    );
}

#[test]
fn cross_device_retry_rescues_a_full_first_choice() {
    let config = FleetConfig::homogeneous(2, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));
    let mut trace = Trace::new("retry");
    // Rotation sends id 0 to shard 0 (fills it) and id 1 to shard 1
    // (small). Id 2 rotates back to shard 0, which is full — the fleet
    // must retry shard 1 instead of queueing.
    trace.push(0, arrival(0, 16, 24, None));
    trace.push(10_000, arrival(1, 4, 4, None));
    trace.push(20_000, arrival(2, 8, 8, None));
    let report = fleet.run(&trace).unwrap();
    assert_eq!(report.admitted(), 3, "{report}");
    assert_eq!(report.retries, 1, "{report}");
    assert_eq!(report.queued_at_end(), 0);
    assert_eq!(fleet.shards()[1].resident_count(), 2);
}

#[test]
fn oversized_duplicate_is_rejected_not_queued() {
    // A duplicate id is normally judged by its owning shard — but if
    // its shape cannot even fit that device, queueing it there would
    // block the queue head forever. It must be rejected outright.
    let config = FleetConfig::heterogeneous(&[Part::Xcv50, Part::Xcv100], ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));
    let mut trace = Trace::new("dup-oversize");
    trace.push(0, arrival(7, 4, 4, None)); // resident on the XCV50
    trace.push(10_000, arrival(7, 20, 30, None)); // fits only the XCV100
    let report = fleet.run(&trace).unwrap();
    assert_eq!(report.unplaceable, 1, "{report}");
    assert_eq!(report.queued_at_end(), 0, "{report}");
    assert_eq!(report.admitted(), 1);
    assert_eq!(fleet.shards()[0].resident_count(), 1, "original intact");
    assert_eq!(fleet.shards()[1].resident_count(), 0, "no twin admitted");
}

#[test]
fn router_tracking_is_pruned_to_live_work() {
    let config = FleetConfig::homogeneous(2, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));
    let mut trace = Trace::new("churn");
    // Two functions expire inside the run, one daemon survives, one
    // departs explicitly.
    trace.push(0, arrival(0, 4, 4, Some(50_000)));
    trace.push(0, arrival(1, 4, 4, Some(50_000)));
    trace.push(10_000, arrival(2, 4, 4, None));
    trace.push(20_000, arrival(3, 4, 4, None));
    trace.push(100_000, TraceEvent::Departure { id: 3 });
    let report = fleet.run(&trace).unwrap();
    assert_eq!(report.admitted(), 4);
    assert_eq!(report.departures(), 3);
    assert_eq!(
        fleet.tracked_ids(),
        1,
        "only the surviving daemon is tracked"
    );
}

#[test]
fn big_requests_route_to_the_big_device() {
    let config = FleetConfig::heterogeneous(
        &[Part::Xcv50, Part::Xcv50, Part::Xcv200],
        ServiceConfig::default(),
    );
    let mut fleet = FleetService::new(config, Box::new(BestFitContiguous));
    let mut trace = Trace::new("sized");
    trace.push(0, arrival(0, 24, 30, None)); // only the XCV200 holds this
    trace.push(10_000, arrival(1, 4, 4, Some(500_000))); // tightest hole: an XCV50
    let report = fleet.run(&trace).unwrap();
    assert_eq!(report.admitted(), 2, "{report}");
    assert_eq!(fleet.shards()[2].resident_count(), 1);
    assert_eq!(
        fleet.shards()[0].resident_count() + fleet.shards()[1].resident_count(),
        0,
        "the 4x4 expired inside the run"
    );
    assert_eq!(report.departures(), 1);
}

#[test]
fn fleet_trigger_defrags_when_shard_thresholds_are_off() {
    // Per-shard triggers disabled; only the fleet-level trigger (mean
    // index > 0.3) may fire.
    let shard = ServiceConfig::default().with_frag_threshold(2.0);
    let config = FleetConfig::homogeneous(1, shard).with_fleet_threshold(0.3);
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));

    // The comb: four full-height strips, the outer pair departs.
    let mut trace = Trace::new("comb");
    for i in 0..4u64 {
        trace.push(i * 10_000, arrival(i, 16, 6, None));
    }
    trace.push(100_000, TraceEvent::Departure { id: 0 });
    trace.push(110_000, TraceEvent::Departure { id: 2 });

    let report = fleet.run(&trace).unwrap();
    assert!(report.fleet_defrags >= 1, "{report}");
    assert_eq!(
        report.defrag_cycles(),
        report.fleet_defrags,
        "shard thresholds were off, every cycle was fleet-triggered"
    );
    assert!(report.peak_worst_frag() > 0.3, "{report}");
    let final_frag = report.shards[0].report.final_frag.unwrap().fragmentation();
    assert_eq!(final_frag, 0.0, "the forced cycle compacted the comb");
}
