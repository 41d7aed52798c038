//! Repeat-run determinism net: for random heterogeneous fleets,
//! scenarios, routing policies and rebalancers, replaying one trace on
//! two fresh fleets must give [`FleetReport`]s **equal in every field**
//! — all counters, per-shard reports, admission logs and the
//! fragmentation timeline — and byte-identical JSONL event streams.
//!
//! Why this must hold: the epoch loop walks shards and edges in a fixed
//! order on one thread, and every quantity that reaches a report or an
//! event is simulated (never wall clock). What the net guards against
//! is hidden per-process state leaking into an outcome — a `HashMap`
//! iterated in its (per-instance, randomly seeded) order, a wall-clock
//! read, an address used as a key. Two fresh fleets differ in exactly
//! that state, so any such leak eventually shows up as a diff here.

use proptest::prelude::*;
use rtm_fleet::rebalance::{RebalancePolicy, UtilizationLevelling, WorstShardDrain};
use rtm_fleet::routing::{standard_policies, FragAware, LeastUtilized, RoundRobin, RoutingPolicy};
use rtm_fleet::{FleetConfig, FleetReport, FleetService};
use rtm_fpga::part::Part;
use rtm_service::trace::{Scenario, Trace};
use rtm_service::ServiceConfig;

const MENU: [Part; 3] = [Part::Xcv50, Part::Xcv100, Part::Xcv200];

/// Random-net routing menu. Best-fit is deliberately absent: its
/// contended runs cost 10-30s each (it re-plans rearrangement on
/// every congested offer), which the deterministic anchor below pins
/// far cheaper than the random net could.
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

/// One full fleet run on a fresh fleet. The deterministic event stream
/// is recorded alongside the report and returned serialized: byte
/// equality of the JSONL text is the strongest stream statement
/// available, covering order, timestamps, shard tags and payloads.
fn traced_run(
    parts: &[Part],
    policy_sel: usize,
    rebalancer_sel: usize,
    trace: &Trace,
) -> (FleetReport, String) {
    let mut config = FleetConfig::heterogeneous(parts, ServiceConfig::default());
    if rebalancer_by_index(rebalancer_sel).is_some() {
        config = config.with_rebalance_threshold(0.4);
    }
    let mut fleet = FleetService::new(config, policy_by_index(policy_sel));
    if let Some(r) = rebalancer_by_index(rebalancer_sel) {
        fleet = fleet.with_rebalancer(r);
    }
    fleet.enable_events();
    let report = fleet.run(trace).expect("determinism-net run stays up");
    let stream = rtm_obs::to_jsonl_stream(&fleet.take_events());
    (report, stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 1 } else { 3 }))]
    /// The net itself: random fleet shapes × scenarios × policies ×
    /// rebalancers (migration runs included), each replayed twice.
    #[test]
    fn repeat_runs_are_identical_over_random_fleets(
        parts_idx in proptest::collection::vec(0usize..3, 2..5),
        scenario_sel in 0usize..3,
        policy_sel in 0usize..3,
        rebalancer_sel in 0usize..3,
        seed in 1u64..500,
    ) {
        let parts: Vec<Part> = parts_idx.iter().map(|&i| MENU[i]).collect();
        let scenario = Scenario::ALL[scenario_sel];
        // copies == devices: full nominal load without the pathological
        // overload tail (the anchors cover overload deterministically).
        let trace = scenario.fleet_trace(Part::Xcv50, parts.len() as u64, seed, 150_000);

        let (first, first_stream) = traced_run(&parts, policy_sel, rebalancer_sel, &trace);
        let (second, second_stream) = traced_run(&parts, policy_sel, rebalancer_sel, &trace);
        prop_assert_eq!(&first, &second, "repeat run diverged");
        // The event stream is the finer-grained statement: not just
        // end-of-run counters but every intermediate event, in order,
        // byte for byte.
        prop_assert_eq!(&first_stream, &second_stream, "repeat-run event stream diverged");
        prop_assert!(!first_stream.is_empty(), "traced runs must record events");

        // The sum identities hold on the outcome.
        prop_assert_eq!(
            first.admitted()
                + first.rejected_deadline()
                + first.failures()
                + first.cancelled()
                + first.queued_at_end()
                + first.unplaceable,
            first.submitted + first.load_failovers,
            "{}", first
        );
        prop_assert_eq!(first.migrations_in(), first.migrations, "{}", first);
        prop_assert_eq!(first.migrations_out(), first.migrations, "{}", first);
    }
}

/// The deterministic anchor the proptest samples around: the docs'
/// contended fleet (two XCV50s + an XCV100, adversarial x4) under
/// every standard policy — any regression here reproduces without a
/// seed. This is also where best-fit's expensive contended behaviour
/// is pinned (debug samples the two cheap ends of the menu).
#[test]
fn contended_fleet_repeats_under_every_policy() {
    let parts = [Part::Xcv50, Part::Xcv50, Part::Xcv100];
    let trace = Scenario::AdversarialFragmenter.fleet_trace(Part::Xcv50, 4, 42, 170_000);
    let policy_count = standard_policies().len();
    let sampled: Vec<usize> = if cfg!(debug_assertions) {
        vec![0, policy_count - 1]
    } else {
        (0..policy_count).collect()
    };

    for i in sampled {
        let run = || {
            let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default());
            FleetService::new(config, standard_policies().remove(i))
                .run(&trace)
                .unwrap()
        };
        let first = run();
        assert!(first.admitted() > 0, "contended run must admit");
        assert_eq!(first, run(), "policy #{i} diverged on a repeat run");
    }
}

/// Migration runs cross shard boundaries mid-epoch, so they get their
/// own deterministic anchor: round-robin + worst-shard-drain on a
/// heterogeneous fleet, with migrations actually observed.
#[test]
fn rebalancing_migrations_repeat() {
    let parts = [Part::Xcv50, Part::Xcv100, Part::Xcv200, Part::Xcv100];
    let trace = Scenario::Bursty.fleet_trace(Part::Xcv50, 4, 250, 150_000);

    let run = || {
        let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default())
            .with_rebalance_threshold(0.4);
        let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()))
            .with_rebalancer(Box::<WorstShardDrain>::default());
        fleet.run(&trace).unwrap()
    };

    let first = run();
    assert!(
        first.migrations > 0,
        "anchor must actually migrate: {first}"
    );
    assert_eq!(first, run(), "migration run diverged on a repeat run");
}
