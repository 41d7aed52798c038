//! The epoch loop's two-phase admission and its clock.
//!
//! The routing edge only *decides* (ranking + reservation); each shard
//! implements its tickets in the execute phase that follows, and the
//! resolution edge settles them. The failure path gets deterministic
//! anchors: a forced execute-time `LoadFailed` (via the
//! failure-injection seam) must fail over down the parked ranking tail,
//! keeping the report identity
//! `Σ shard_submitted = submitted − unplaceable + load_failovers`.
//!
//! The horizon min-heap rides along: `HorizonClock` must agree with
//! the `engine::horizon` reference scan over arbitrary admission /
//! departure / advance interleavings (the heap is lazily rebuilt from
//! per-shard `schedule_version` dirty flags; a stale entry must never
//! win).

use proptest::prelude::*;
use rtm_fleet::engine::{horizon, HorizonClock};
use rtm_fleet::routing::{LeastUtilized, RoundRobin, RoutingPolicy};
use rtm_fleet::{FleetConfig, FleetReport, FleetService};
use rtm_fpga::part::Part;
use rtm_sched::task::Micros;
use rtm_service::trace::{Arrival, Scenario, Trace, TraceEvent};
use rtm_service::{AdmissionBid, QosTier, RuntimeService, ServiceConfig, ServiceReport};

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
/// is forced to fail, so the resolution edge must walk the parked
/// ranking tail and land the request on shard 1. The explicit
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

/// Applies one scripted op to the shard set, keeping the admitted-id
/// bookkeeping the departure ops draw from.
fn apply_horizon_op(
    shards: &mut [RuntimeService],
    reports: &mut [ServiceReport],
    live: &mut Vec<(usize, u64)>,
    next_id: &mut u64,
    op: (u8, usize, u64),
) {
    let (kind, sel, val) = op;
    let s = sel % shards.len();
    match kind {
        // Admit with a bounded residency: inserts an expiry.
        0..=2 => {
            let a = Arrival {
                id: *next_id,
                rows: 3,
                cols: 3,
                duration: Some(10_000 + (val % 90_000)),
                deadline: None,
                tier: QosTier::Standard,
            };
            *next_id += 1;
            let at = shards[s].now();
            if shards[s]
                .admit(at, AdmissionBid::direct(a), &mut reports[s])
                .map(|o| o == rtm_service::OfferOutcome::Admitted)
                .unwrap_or(false)
            {
                live.push((s, a.id));
            }
        }
        // Admit a daemon (no expiry): the schedule must NOT change.
        3 => {
            let a = Arrival {
                id: *next_id,
                rows: 2,
                cols: 2,
                duration: None,
                deadline: None,
                tier: QosTier::Standard,
            };
            *next_id += 1;
            let at = shards[s].now();
            let _ = shards[s].admit(at, AdmissionBid::direct(a), &mut reports[s]);
        }
        // Depart a random live id: removes an expiry.
        4..=5 => {
            if !live.is_empty() {
                let (owner, id) = live.swap_remove(val as usize % live.len());
                shards[owner].depart(id, &mut reports[owner]).unwrap();
            }
        }
        // Advance one shard past some expiries: departs due residents.
        _ => {
            let to = shards[s].now() + (val % 60_000);
            shards[s].advance_to(to, &mut reports[s]).unwrap();
            live.retain(|&(owner, id)| owner != s || shards[owner].holds(id));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 4 } else { 32 }))]
    /// Heap-vs-scan equivalence: after every op in an arbitrary
    /// admission/departure/advance interleaving, the lazily-rebuilt
    /// min-heap clock must return exactly what the O(N) reference scan
    /// returns, for a sweep of trace-event candidates.
    #[test]
    fn horizon_clock_equals_reference_scan(
        n in 1usize..5,
        ops in proptest::collection::vec(
            (0u8..8, 0usize..8, 0u64..1_000_000), 1..40),
    ) {
        let mut shards: Vec<RuntimeService> = (0..n)
            .map(|_| RuntimeService::new(ServiceConfig::default().with_part(Part::Xcv50)))
            .collect();
        let mut reports: Vec<ServiceReport> = (0..n)
            .map(|i| ServiceReport::new(format!("horizon#{i}")))
            .collect();
        let mut clock = HorizonClock::new(n);
        let mut live: Vec<(usize, u64)> = Vec::new();
        let mut next_id = 0u64;

        for op in ops {
            apply_horizon_op(&mut shards, &mut reports, &mut live, &mut next_id, op);
            // Sweep trace candidates around the schedule: none, early,
            // and far-future must all agree with the scan.
            for next_trace in [None, Some(0), Some(op.2), Some(Micros::MAX / 2)] {
                prop_assert_eq!(
                    clock.next(next_trace, &shards),
                    horizon(next_trace, &shards),
                    "clock diverged from scan (next_trace={:?})", next_trace
                );
            }
        }
    }
}
