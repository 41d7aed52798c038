//! End-to-end smoke tests of the runtime service loop.

use rtm_fpga::part::Part;
use rtm_sched::policy::Policy;
use rtm_service::trace::{Arrival, Scenario, Trace, TraceEvent};
use rtm_service::{QosTier, RuntimeService, ServiceConfig};

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
fn lifecycle_admit_expire_depart() {
    let mut trace = Trace::new("lifecycle");
    trace.push(0, arrival(0, 6, 6, Some(300_000)));
    trace.push(100_000, arrival(1, 4, 8, None));
    trace.push(500_000, TraceEvent::Departure { id: 1 });
    let mut service = RuntimeService::new(ServiceConfig::default());
    let report = service.run(&trace).unwrap();
    assert_eq!(report.submitted, 2);
    assert_eq!(report.admitted, 2);
    assert_eq!(report.immediate(), 2, "an empty device fits everything");
    assert_eq!(report.departures, 2);
    assert_eq!(report.resident_at_end, 0);
    assert_eq!(service.manager().functions().count(), 0);
    // The device is fully cleaned after the last departure.
    let dev = service.manager().device();
    assert!(dev.used_in(dev.bounds()).is_empty());
    assert!(report.frag_timeline.len() >= 3, "one sample per event time");
}

#[test]
fn state_persists_across_runs() {
    let mut service = RuntimeService::new(ServiceConfig::default());
    let mut first = Trace::new("first");
    first.push(0, arrival(0, 6, 6, None));
    service.run(&first).unwrap();
    assert_eq!(service.manager().functions().count(), 1);

    // The daemon from the first trace is still resident; departing it in
    // a later trace works because the service remembers the mapping.
    let mut second = Trace::new("second");
    second.push(0, TraceEvent::Departure { id: 0 });
    let report = service.run(&second).unwrap();
    assert_eq!(report.departures, 1);
    assert_eq!(service.manager().functions().count(), 0);
}

#[test]
fn deadline_rejection_when_device_is_full() {
    let part = Part::Xcv50; // 16x24
    let mut trace = Trace::new("deadline");
    // A daemon fills the whole device…
    trace.push(0, arrival(0, 16, 24, None));
    // …so this deadline-bound request can never start in time.
    trace.push(
        10_000,
        TraceEvent::Arrival(Arrival {
            id: 1,
            rows: 8,
            cols: 8,
            duration: Some(100_000),
            deadline: Some(200_000),
            tier: QosTier::Standard,
        }),
    );
    // A later event gives the clock a chance to pass the deadline.
    trace.push(400_000, TraceEvent::Departure { id: 99 });
    let mut service = RuntimeService::new(ServiceConfig::default().with_part(part));
    let report = service.run(&trace).unwrap();
    assert_eq!(report.admitted, 1);
    assert_eq!(report.rejected_deadline, 1);
    assert_eq!(report.queued_at_end, 0);
}

#[test]
fn no_rearrange_policy_defers_what_transparent_admits() {
    let part = Part::Xcv50;
    // Four full-height strips fill the device; the outer pair departs,
    // leaving two separated 16x6 gaps: a 16x10 request fits only after
    // rearrangement.
    let mut trace = Trace::new("policy-split");
    for i in 0..4u64 {
        trace.push(i * 10_000, arrival(i, 16, 6, None));
    }
    trace.push(50_000, TraceEvent::Departure { id: 0 });
    trace.push(60_000, TraceEvent::Departure { id: 2 });
    trace.push(70_000, arrival(4, 16, 10, Some(100_000)));

    let strict = ServiceConfig::default()
        .with_part(part)
        .with_policy(Policy::NoRearrange)
        .with_frag_threshold(2.0); // defrag disabled
    let mut service = RuntimeService::new(strict);
    let report = service.run(&trace).unwrap();
    assert_eq!(
        report.queued_at_end, 1,
        "without rearrangement the big request starves: {report}"
    );

    let transparent = ServiceConfig::default()
        .with_part(part)
        .with_policy(Policy::TransparentReloc)
        .with_frag_threshold(2.0);
    let mut service = RuntimeService::new(transparent);
    let report = service.run(&trace).unwrap();
    assert_eq!(report.admitted, 5, "{report}");
    assert!(
        report.admitted - report.immediate() >= 1,
        "the big request needed a rearrangement: {report}"
    );
    assert!(report.function_moves > 0);
    assert!(report.frames_written > 0, "real frames were written");
    assert!(report.reconfig_ms > 0.0);
}

#[test]
fn queued_cancellation_and_duplicate_ids_are_accounted() {
    let mut trace = Trace::new("cancel-dup");
    // A daemon fills the whole device…
    trace.push(0, arrival(0, 16, 24, None));
    // …so this request queues; it then departs before being admitted.
    trace.push(10_000, arrival(1, 8, 8, None));
    trace.push(20_000, TraceEvent::Departure { id: 1 });
    // An arrival reusing the resident daemon's id must be refused, not
    // silently orphan the daemon in the bookkeeping.
    trace.push(30_000, arrival(0, 4, 4, None));
    let mut service = RuntimeService::new(ServiceConfig::default());
    let report = service.run(&trace).unwrap();
    assert_eq!(report.submitted, 3);
    assert_eq!(report.admitted, 1);
    assert_eq!(report.cancelled, 1, "{report}");
    assert_eq!(report.failures, 1, "duplicate id refused: {report}");
    assert_eq!(
        report.admitted + report.cancelled + report.failures + report.queued_at_end,
        report.submitted,
        "every request accounted for: {report}"
    );
    assert_eq!(service.manager().functions().count(), 1, "daemon intact");
}

#[test]
fn deadline_request_waits_for_cheaper_plan_instead_of_dropping() {
    // Comb fragmentation: strips at cols 0-5, 6-11, 12-17, 18-23; the
    // outer pair departs, so a 16x10 request needs a 96-CLB move
    // (~2.17 s of Boundary Scan traffic) — far past its deadline. It
    // must *wait*, not be dropped: a later departure empties the plan
    // and it is admitted before the deadline.
    let mut trace = Trace::new("patient-deadline");
    for i in 0..4u64 {
        trace.push(i * 10_000, arrival(i, 16, 6, None));
    }
    trace.push(50_000, TraceEvent::Departure { id: 0 });
    trace.push(60_000, TraceEvent::Departure { id: 2 });
    trace.push(
        70_000,
        TraceEvent::Arrival(Arrival {
            id: 4,
            rows: 16,
            cols: 10,
            duration: Some(100_000),
            deadline: Some(570_000),
            tier: QosTier::Standard,
        }),
    );
    trace.push(200_000, TraceEvent::Departure { id: 1 });
    let config = ServiceConfig::default().with_frag_threshold(2.0); // defrag off
    let mut service = RuntimeService::new(config);
    let report = service.run(&trace).unwrap();
    assert_eq!(report.rejected_deadline, 0, "{report}");
    assert_eq!(report.admitted, 5, "{report}");
    let big = report
        .admissions
        .iter()
        .find(|r| r.trace_id == 4)
        .expect("big request admitted");
    assert_eq!(
        big.at, 200_000,
        "admitted at the departure that opened contiguous room"
    );
    assert!(big.waited > 0);
}

#[test]
fn stepping_api_admit_synchronizes_the_clock() {
    // The fleet drives shards through admit()/enqueue() directly; a
    // bid ahead of the shard's clock must advance it, or wait times
    // underflow and expiries are measured from a stale instant.
    let mut service = RuntimeService::new(ServiceConfig::default());
    let mut rep = rtm_service::ServiceReport::new("step");
    let outcome = service
        .admit(
            1_000_000,
            rtm_service::AdmissionBid::direct(Arrival {
                id: 0,
                rows: 4,
                cols: 4,
                duration: Some(100_000),
                deadline: None,
                tier: QosTier::Standard,
            }),
            &mut rep,
        )
        .unwrap();
    assert_eq!(outcome, rtm_service::OfferOutcome::Admitted);
    assert_eq!(service.now(), 1_000_000, "admit advanced the clock");
    assert_eq!(
        service.next_expiry(),
        Some(1_100_000),
        "residency measured from the bid's own time"
    );
}

#[test]
fn two_phase_reserve_then_execute_matches_admit() {
    // The decide step seats the ticket (arena reserved, request
    // accounted) but writes nothing; the execute step implements it;
    // resolve reports the fate. The one-shot `admit` is exactly this
    // pipeline run inline.
    let mut service = RuntimeService::new(ServiceConfig::default());
    let mut rep = rtm_service::ServiceReport::new("two-phase");
    let a = Arrival {
        id: 7,
        rows: 4,
        cols: 4,
        duration: None,
        deadline: None,
        tier: QosTier::Standard,
    };
    let decided = service
        .reserve(0, rtm_service::AdmissionBid::direct(a), &mut rep)
        .unwrap();
    assert_eq!(decided, rtm_service::ReserveOutcome::Reserved);
    assert_eq!(rep.submitted, 1, "accounted at decide time");
    assert_eq!(rep.admitted, 0, "nothing implemented yet");
    assert_eq!(service.pending_tickets(), 1);
    assert_eq!(service.resident_count(), 0);

    service.execute_reserved(&mut rep).unwrap();
    assert_eq!(service.pending_tickets(), 0);
    assert_eq!(rep.admitted, 1, "the execute phase implemented it");
    assert_eq!(service.resident_count(), 1);
    assert_eq!(
        service.resolve_ticket(7),
        Ok(rtm_service::TicketOutcome::Executed)
    );
    assert_eq!(
        service.resolve_ticket(7),
        Err(rtm_core::CoreError::UnknownTicket { trace_id: 7 }),
        "resolution is one-shot"
    );
}

#[test]
fn resolving_an_unknown_ticket_is_a_typed_error() {
    // An id that was never reserved (and one that was already
    // resolved) must fail loudly — a silent no-op here is a caller
    // losing track of the ticket lifecycle.
    let mut service = RuntimeService::new(ServiceConfig::default());
    assert_eq!(
        service.resolve_ticket(99),
        Err(rtm_core::CoreError::UnknownTicket { trace_id: 99 }),
        "never-reserved id"
    );
}

#[test]
fn bursty_and_churn_scenarios_run_clean() {
    for scenario in [Scenario::Bursty, Scenario::SteadyChurn] {
        let trace = scenario.trace(Part::Xcv50, 11);
        let mut service = RuntimeService::new(ServiceConfig::default());
        let report = service.run(&trace).unwrap();
        assert_eq!(report.trace_name, scenario.name());
        assert_eq!(report.failures, 0, "{scenario}: {report}");
        assert_eq!(
            report.admitted + report.rejected_deadline + report.queued_at_end,
            report.submitted,
            "every request accounted for ({scenario}): {report}"
        );
        assert_eq!(
            report.resident_at_end,
            report.admitted - report.departures,
            "{scenario}"
        );
        assert!(
            report.admission_rate() > 0.5,
            "{scenario} must admit most requests: {report}"
        );
        // The timeline is time-ordered.
        assert!(report.frag_timeline.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
