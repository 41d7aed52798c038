//! Pins the plan-reuse admission pipeline's headline claim: a
//! frag-aware fleet admission costs at most **one** `make_room`
//! planning pass beyond its routing previews — down from three (the
//! winning device's preview, then `try_admit`'s feasibility plan, then
//! `load`'s internal re-plan all computed the same rearrangement
//! before this pipeline existed). A preview runs at most one pass, and
//! none when the manager's per-epoch cache already holds the answer, so
//! the bound reads `make_room_calls <= previews + admitted`.

use rtm_fleet::routing::FragAware;
use rtm_fleet::{FleetConfig, FleetService};
use rtm_fpga::part::Part;
use rtm_service::trace::{Scenario, Trace};
use rtm_service::ServiceConfig;

fn adversarial_fleet_trace(seed: u64) -> Trace {
    // The same canonical workload the fleet_loop example/bench and the
    // CI perf baseline replay.
    Scenario::AdversarialFragmenter.fleet_trace(Part::Xcv50, 4, seed, 170_000)
}

#[test]
fn frag_aware_admissions_plan_at_most_once() {
    let parts = [Part::Xcv50, Part::Xcv50, Part::Xcv100];
    let trace = adversarial_fleet_trace(42);
    let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::new(FragAware::default()));
    let report = fleet.run(&trace).unwrap();
    let stats = report.plan_stats();

    // The pipeline must not cost admissions: the informed policy still
    // admits everything the adversarial trace offers (pinned at 40/40
    // before this refactor).
    assert_eq!(
        report.admitted(),
        report.submitted,
        "frag-aware still admits the full adversarial load\n{report}"
    );

    // Headline: planning beyond the routing previews is bounded by one
    // pass per successful admission. Before plan reuse, every
    // offer-path admission re-planned twice on the winning device
    // (feasibility + load), putting the passes beyond the previews at
    // ~2x admitted.
    assert!(
        stats.make_room_calls <= stats.previews + report.admitted() as u64,
        "at most one make_room pass per preview plus one per successful \
         admission, got {} for {} previews and {} admissions\n{stats}",
        stats.make_room_calls,
        stats.previews,
        report.admitted(),
    );

    // Every load executed a pre-computed plan: the offer path reuses
    // the routing preview's plan, the queue path reuses its own
    // feasibility plan. Nothing plans inside `load` anymore.
    assert!(
        stats.plans_reused >= report.admitted() as u64,
        "every admission rode a reused plan\n{stats}"
    );

    // The routing previews were handed over intact: no plan computed at
    // rank time was stale by offer time in this single-threaded event
    // loop.
    assert_eq!(stats.plans_invalidated, 0, "{stats}");

    // The two-stage filter's summary cache did real work: arrivals far
    // outnumber mutations on the steady phases, so most stage-1 reads
    // are hits.
    assert!(stats.summary_hits > 0, "{stats}");
}

/// The same pipeline on a bigger, homogeneous fleet: per-arrival
/// preview cost is bounded by top_k, not fleet size.
#[test]
fn preview_cost_is_capped_by_top_k_on_a_big_fleet() {
    let trace = Scenario::SteadyChurn.fleet_trace(Part::Xcv50, 6, 60, 120_000);
    let top_k = 4usize;
    let config = FleetConfig::homogeneous(12, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::new(FragAware { top_k }));
    let report = fleet.run(&trace).unwrap();
    let stats = report.plan_stats();

    // Previews are issued per routed arrival, capped at top_k each —
    // never one per device per arrival (the pre-refactor behaviour
    // would have been 12 per arrival here).
    assert!(
        stats.previews <= (report.submitted * top_k) as u64,
        "previews bounded by top_k per arrival\n{stats}"
    );
    assert!(report.admitted() > 0, "{report}");
    assert_eq!(stats.plans_invalidated, 0, "{stats}");
}
