//! Deadline safety of the migration machinery, pinned
//! deterministically: a migration scheduled into an idle window
//! shorter than its reconfiguration cost is refused — and the queued
//! request whose deadline defined that window still starts on time.
//! Every other refusal leaves the function where it was, too.

use rtm_fleet::rebalance::{MigrationDirective, MigrationOutcome};
use rtm_fleet::routing::RoundRobin;
use rtm_fleet::{FleetConfig, FleetService};
use rtm_fpga::part::Part;
use rtm_service::trace::{Arrival, Trace, TraceEvent};
use rtm_service::{QosTier, ServiceConfig, ServiceReport};

fn arrival(id: u64, rows: u16, cols: u16, deadline: Option<u64>) -> TraceEvent {
    TraceEvent::Arrival(Arrival {
        id,
        rows,
        cols,
        duration: None,
        deadline,
        tier: QosTier::Standard,
    })
}

/// Build a two-XCV50 fleet (us_per_clb = 100 for easy arithmetic) with
/// a daemon on each shard and one big deadline-bound request queued on
/// shard 0 that cannot fit until something departs.
fn queued_fleet(deadline: u64) -> (FleetService, Vec<ServiceReport>) {
    let shard = ServiceConfig::default().with_move_cost(100);
    let config = FleetConfig::heterogeneous(&[Part::Xcv50, Part::Xcv50], shard);
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));

    let mut trace = Trace::new("setup");
    trace.push(0, arrival(0, 16, 6, None)); // round-robin -> shard 0
    trace.push(1_000, arrival(1, 16, 6, None)); // -> shard 1
                                                // 16x21 fits neither device while the daemons run (24 - 6 = 18
                                                // free columns), so it queues on the best-ranked shard (0) with
                                                // its deadline.
    trace.push(2_000, arrival(2, 16, 21, Some(deadline)));
    let report = fleet.run(&trace).unwrap();
    assert_eq!(report.admitted(), 2);
    assert_eq!(report.queued_at_end(), 1, "{report}");
    assert_eq!(fleet.shards()[0].queue_len(), 1, "queued on shard 0");

    let reports = (0..2)
        .map(|i| ServiceReport::new(format!("migrate#{i}")))
        .collect();
    (fleet, reports)
}

#[test]
fn migration_into_a_too_short_window_is_refused_and_the_deadline_holds() {
    // The queued 16x21 request reserves area()·us_per_clb = 33_600 µs
    // of port headroom before its deadline at t=42_000; at t=2_000
    // that leaves a 6_400 µs idle window on shard 0. Migrating the
    // 96-CLB daemon off shard 0 would hold the port for 9_600 µs —
    // longer than the window, so it must be refused even though it
    // would eventually *help* the queued request.
    let (mut fleet, mut reports) = queued_fleet(42_000);
    let directive = MigrationDirective {
        trace_id: 0,
        from: 0,
        to: 1,
    };
    let outcome = fleet.migrate(directive, &mut reports).unwrap();
    assert_eq!(
        outcome,
        MigrationOutcome::RefusedWindow {
            needed: 9_600,
            window: 6_400,
        },
        "the copy cannot fit the idle window"
    );
    // Nothing moved, nothing was accounted.
    assert_eq!(fleet.shards()[0].resident_count(), 1);
    assert_eq!(fleet.shards()[1].resident_count(), 1);
    assert_eq!(fleet.shards()[0].queue_len(), 1);
    for r in &reports {
        assert_eq!(
            r.migrations_in + r.migrations_out + r.migrations_restored,
            0
        );
    }

    // The queued request still meets its deadline: the daemon departs
    // at t=10_000, the queue is served, and the admission lands well
    // before t=42_000 with no deadline rejection anywhere.
    let mut rest = Trace::new("departure");
    rest.push(10_000, TraceEvent::Departure { id: 0 });
    let report = fleet.run(&rest).unwrap();
    assert_eq!(report.admitted(), 1, "{report}");
    assert_eq!(report.rejected_deadline(), 0, "{report}");
    assert_eq!(fleet.shards()[0].queue_len(), 0);
    assert_eq!(fleet.shards()[0].resident_count(), 1);
}

#[test]
fn migration_into_a_long_window_proceeds() {
    // Same topology, deadline far out: the 9_600 µs copy fits the
    // window (deadline 100_000 -> window 64_400 µs) and completes.
    let (mut fleet, mut reports) = queued_fleet(100_000);
    let outcome = fleet
        .migrate(
            MigrationDirective {
                trace_id: 0,
                from: 0,
                to: 1,
            },
            &mut reports,
        )
        .unwrap();
    assert_eq!(outcome, MigrationOutcome::Completed);
    assert_eq!(fleet.shards()[0].resident_count(), 0);
    assert_eq!(fleet.shards()[1].resident_count(), 2);
    assert_eq!(reports[0].migrations_out, 1);
    assert_eq!(reports[1].migrations_in, 1);
    assert!(fleet
        .shards()
        .iter()
        .all(|s| s.manager().bookkeeping_consistent()));

    // The shard 0 queue can now be served by the next run step: with
    // the daemon gone, the 16x21 request fits and starts on time.
    let report = fleet.run(&Trace::new("drain")).unwrap();
    let _ = report;
    // An empty trace has no events, so serve via a timestamped no-op:
    // the departure-free path is exercised in the refusal test; here
    // the migrated daemon must depart on the *target* shard, proving
    // the fleet delivers lifecycle events to the new owner.
    let mut rest = Trace::new("depart-on-target");
    rest.push(20_000, TraceEvent::Departure { id: 0 });
    let report = fleet.run(&rest).unwrap();
    assert_eq!(report.departures(), 1, "{report}");
    assert_eq!(
        report.shards[1].report.departures, 1,
        "the departure reached the migrated function's new shard\n{report}"
    );
    assert_eq!(fleet.shards()[1].resident_count(), 1);
}

#[test]
fn refused_migrations_leave_the_function_on_its_source() {
    // A 20x28 resident of an XCV200; the XCV50 beside it (16x24 CLBs)
    // can never hold that shape.
    let config = FleetConfig::heterogeneous(&[Part::Xcv200, Part::Xcv50], ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));
    let mut trace = Trace::new("setup");
    trace.push(0, arrival(0, 20, 28, None));
    assert_eq!(fleet.run(&trace).unwrap().admitted(), 1);
    let mut reports: Vec<ServiceReport> = (0..2)
        .map(|i| ServiceReport::new(format!("migrate#{i}")))
        .collect();

    let directive = |trace_id, from, to| MigrationDirective { trace_id, from, to };
    let cases = [
        (directive(0, 0, 0), MigrationOutcome::RefusedUnknown),
        (directive(0, 0, 2), MigrationOutcome::RefusedUnknown),
        (directive(0, 1, 0), MigrationOutcome::RefusedUnknown),
        (directive(7, 0, 1), MigrationOutcome::RefusedUnknown),
        (directive(0, 0, 1), MigrationOutcome::RefusedNoRoom),
    ];
    for (d, expected) in cases {
        assert_eq!(fleet.migrate(d, &mut reports).unwrap(), expected, "{d:?}");
        assert!(
            fleet.shards()[0].resident_function_id(0).is_some(),
            "{d:?}: still resident on its source"
        );
        assert_eq!(fleet.shards()[1].resident_count(), 0, "{d:?}");
        assert!(
            fleet
                .shards()
                .iter()
                .all(|s| s.manager().bookkeeping_consistent()),
            "{d:?}"
        );
        assert!(reports.iter().all(|r| r.migrations_out == 0), "{d:?}");
    }
}
