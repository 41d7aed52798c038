//! The epoch loop's admission step.
//!
//! The routing edge admits each arrival in one step: every offer is a
//! shard's `admit`, which seats the reservation, implements the design
//! and, if the load fails, records it and cancels the reservation, so a
//! failed load is settled before the next arrival is ranked. The
//! failure path gets deterministic anchors: a forced execute-time
//! `LoadFailed` (via the failure-injection seam) must fail over down
//! the ranking tail at once, keeping the report identity
//! `Σ shard_submitted = submitted − unplaceable + load_failovers`, and
//! a failed load right after a preemptive eviction must end the
//! preemption episode uncounted and queue the arrival.

use rtm_fleet::routing::{LeastUtilized, RoundRobin, RoutingPolicy};
use rtm_fleet::{FleetConfig, FleetReport, FleetService};
use rtm_fpga::part::Part;
use rtm_obs::EventKind;
use rtm_service::trace::{Arrival, Scenario, Trace, TraceEvent};
use rtm_service::{QosTier, ServiceConfig};

/// One full traced run on a fresh fleet, with the failure-injection
/// seam armed on shard 0 for its first `fail_first` ticket executions.
fn run_with_failures(
    parts: &[Part],
    policy: Box<dyn RoutingPolicy>,
    trace: &Trace,
    fail_first: u32,
) -> (FleetReport, String) {
    let config = FleetConfig::heterogeneous(parts, ServiceConfig::default());
    let mut fleet = FleetService::new(config, policy);
    fleet.force_execute_failures(0, fail_first);
    fleet.enable_events();
    let report = fleet.run(trace).expect("failover run stays up");
    let stream = rtm_obs::to_jsonl_stream(&fleet.take_events());
    (report, stream)
}

/// A three-arrival trace on two XCV50s: enough for a failover chain
/// (two candidates per ranking) without drowning the assertion.
fn failover_trace() -> Trace {
    let mut trace = Trace::new("forced-failover");
    for id in 0..3u64 {
        trace.push(
            id * 10_000,
            TraceEvent::Arrival(Arrival {
                id,
                rows: 6,
                cols: 6,
                duration: None,
                deadline: None,
                tier: QosTier::Standard,
            }),
        );
    }
    trace
}

/// Execute-time `LoadFailed` anchor: shard 0's first ticket execution
/// is forced to fail, so the offer chain must walk on down the ranking
/// tail and land the request on shard 1. The explicit
/// `load_failovers` value tests its derivation from the shard reports.
#[test]
fn forced_load_failure_fails_over_down_the_ranking_tail() {
    let parts = [Part::Xcv50, Part::Xcv50];
    let trace = failover_trace();

    // Least-utilized: deterministic [emptier, fuller] ranking.
    let (baseline, base_stream) = run_with_failures(&parts, Box::new(LeastUtilized), &trace, 1);
    assert_eq!(
        baseline.failures(),
        1,
        "the injected execute failure must surface: {baseline}"
    );
    assert_eq!(
        baseline.load_failovers, 1,
        "the failed shard's accounting is a failover: {baseline}"
    );
    assert_eq!(baseline.admitted(), 3, "every request lands: {baseline}");
    assert_eq!(baseline.retries, 1, "the failover is a retry: {baseline}");
    assert!(
        base_stream.contains("\"rejected\""),
        "the forced failure must be visible in the stream"
    );
    // The fleet-level metrics no baseline row carries: one offer-chain
    // sample per routed arrival (the failed-over one offered both
    // shards), one epoch per arrival instant.
    let chain = baseline
        .metrics
        .histogram("offer_chain_len")
        .expect("every routed arrival samples its offer chain");
    assert_eq!((chain.count(), chain.sum()), (3, 4), "{baseline}");
    assert_eq!(baseline.metrics.counter("epochs"), 3, "{baseline}");
}

/// A failed load fails over before the next arrival of the same
/// instant is ranked: arrival 0's forced failure on shard 0 lands it on
/// shard 1 at once, so least-utilized then ranks the still-empty shard
/// 0 first for arrival 1. Had the failover waited for the end of the
/// routing edge, arrival 1 would have been ranked while the failed
/// load's region was still reserved on shard 0, and both functions
/// would sit on shard 1.
#[test]
fn failed_load_fails_over_before_the_next_same_instant_arrival() {
    let mut trace = Trace::new("same-instant-failover");
    for id in 0..2u64 {
        trace.push(
            0,
            TraceEvent::Arrival(Arrival {
                id,
                rows: 6,
                cols: 6,
                duration: None,
                deadline: None,
                tier: QosTier::Standard,
            }),
        );
    }
    let config = FleetConfig::homogeneous(2, ServiceConfig::default().with_part(Part::Xcv50));
    let mut fleet = FleetService::new(config, Box::new(LeastUtilized));
    fleet.force_execute_failures(0, 1);
    let report = fleet.run(&trace).expect("failover run stays up");

    assert!(fleet.shards()[1].holds(0), "id 0 fails over to shard 1");
    assert!(fleet.shards()[0].holds(1), "id 1 is ranked onto shard 0");
    assert_eq!(report.failures(), 1, "{report}");
    assert_eq!(report.load_failovers, 1, "{report}");
    assert_eq!(report.retries, 1, "{report}");
    assert_eq!(report.admitted(), 2, "{report}");
    let chain = report
        .metrics
        .histogram("offer_chain_len")
        .expect("every routed arrival samples its offer chain");
    assert_eq!((chain.count(), chain.sum()), (2, 3), "{report}");
    assert_eq!(report.metrics.counter("epochs"), 1, "{report}");
}

/// A failed load right after a preemptive eviction ends the episode:
/// no preemption is counted (the arrival did not take the freed
/// region), no second victim is evicted, and the arrival queues on its
/// queue slot, where the settle sweep of the same epoch admits it into
/// the freed region. Two XCV50s are filled with eight 8x12 batch
/// functions, four each; an interactive 8x12 then evicts batch id 0
/// off shard 0 (parked, since shard 1 is full) and its load there is
/// forced to fail.
#[test]
fn failed_load_after_an_eviction_queues_without_a_preemption() {
    let arrival = |id, tier| {
        TraceEvent::Arrival(Arrival {
            id,
            rows: 8,
            cols: 12,
            duration: None,
            deadline: None,
            tier,
        })
    };
    let config = FleetConfig::homogeneous(2, ServiceConfig::default().with_part(Part::Xcv50))
        .with_preemption(true);
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));
    fleet.enable_events();
    let mut fill = Trace::new("fill");
    for id in 0..8u64 {
        fill.push(id * 1_000, arrival(id, QosTier::Batch));
    }
    let filled = fleet.run(&fill).expect("fill run stays up");
    assert_eq!(filled.admitted(), 8, "{filled}");
    assert_eq!(fleet.shards()[0].resident_count(), 4);
    assert_eq!(fleet.shards()[1].resident_count(), 4);
    fleet.take_events();

    fleet.force_execute_failures(0, 1);
    let mut late = Trace::new("late-interactive");
    late.push(100_000, arrival(8, QosTier::Interactive));
    let report = fleet.run(&late).expect("preemption run stays up");

    assert_eq!(report.preemptions, 0, "{report}");
    assert_eq!(report.evictions_parked, 1, "{report}");
    assert_eq!(report.evictions_migrated, 0, "{report}");
    assert_eq!(report.failures(), 1, "{report}");
    assert_eq!(
        report.tiers().admitted_for(QosTier::Interactive),
        1,
        "{report}"
    );
    // Accounted twice on shard 0 (the failed load, then the queue),
    // but one arrival of its tier.
    assert_eq!(report.load_failovers, 1, "{report}");
    assert_eq!(
        report.tiers().submitted_for(QosTier::Interactive),
        1,
        "{report}"
    );
    assert_eq!(
        report.tier_admission_rate(QosTier::Interactive),
        1.0,
        "{report}"
    );
    assert_eq!(report.parked_at_end, 1, "{report}");
    assert_eq!(report.queued_at_end(), 0, "{report}");
    assert!(fleet.shards()[0].holds(8), "id 8 seats on shard 0");
    // Admitted from the queue: enqueued first, then dequeued and
    // admitted by the settle sweep.
    let kinds: Vec<EventKind> = fleet
        .take_events()
        .into_iter()
        .filter(|e| e.shard == 0)
        .map(|e| e.kind)
        .collect();
    let enqueued = kinds
        .iter()
        .position(|k| *k == EventKind::Enqueued { id: 8 });
    let dequeued = kinds
        .iter()
        .position(|k| matches!(k, EventKind::Dequeued { id: 8, .. }));
    let admitted = kinds
        .iter()
        .position(|k| matches!(k, EventKind::Admitted { id: 8, .. }));
    assert!(
        matches!((enqueued, dequeued, admitted), (Some(q), Some(d), Some(a)) if q < d && d < a),
        "id 8 must be admitted from the queue: {kinds:?}"
    );
    for s in fleet.shards() {
        assert!(s.manager().bookkeeping_consistent());
    }
}

/// Pins what neither `BENCH_fleet.json` nor the JSONL trace carries,
/// on the gated tiered row with preemption on: the fleet metrics
/// (epochs, offer chains, park waits), the timeline length and the
/// per-tier waits. A refactor of the offer chain or of the per-tier
/// roll-up that moved any of them would otherwise go unseen.
#[test]
fn tiered_preemption_row_pins_metrics_timeline_and_tier_waits() {
    let parts = [Part::Xcv50, Part::Xcv50, Part::Xcv100];
    let trace = Scenario::TieredMix.fleet_trace(Part::Xcv50, 3, 7, 170_000);
    let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default()).with_preemption(true);
    let report = FleetService::new(config, Box::new(RoundRobin::default()))
        .run(&trace)
        .expect("tiered run stays up");

    assert_eq!(report.metrics.counter("epochs"), 80, "{report}");
    let chain = report
        .metrics
        .histogram("offer_chain_len")
        .expect("offer chains");
    assert_eq!((chain.count(), chain.sum()), (41, 178), "{report}");
    let park = report
        .metrics
        .histogram("park_wait_us")
        .expect("park waits");
    assert_eq!((park.count(), park.sum()), (23, 15_701_627), "{report}");
    assert_eq!(report.timeline.len(), 93, "{report}");

    // Per tier, indexed [batch, standard, interactive].
    let tiers = report.tiers();
    assert_eq!(tiers.submitted, [18, 12, 11], "{report}");
    assert_eq!(tiers.admitted, [18, 12, 9], "{report}");
    assert_eq!(tiers.waited, [432_769, 0, 113_964], "{report}");
}

/// The chain-exhausted variant: a single-shard fleet has no ranking
/// tail, so a forced failure spends the request.
#[test]
fn forced_load_failure_with_no_failover_spends_the_request() {
    let parts = [Part::Xcv50];
    let trace = failover_trace();

    let (baseline, _) = run_with_failures(&parts, Box::new(RoundRobin::default()), &trace, 1);
    assert_eq!(baseline.failures(), 1, "{baseline}");
    assert_eq!(
        baseline.load_failovers, 0,
        "a spent request's own accounting is not a failover: {baseline}"
    );
    assert_eq!(baseline.admitted(), 2, "{baseline}");
    assert_eq!(
        baseline.admitted()
            + baseline.rejected_deadline()
            + baseline.failures()
            + baseline.cancelled()
            + baseline.queued_at_end()
            + baseline.unplaceable,
        baseline.submitted + baseline.load_failovers,
        "conservation holds with the spent request: {baseline}"
    );
}
