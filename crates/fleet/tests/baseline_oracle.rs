//! The perf-baseline oracle: every counter column of the checked-in
//! `BENCH_fleet.json` rows, reproduced through the library API. `ci.sh`
//! already byte-diffs the regenerated JSON against the checked-in file;
//! this oracle reads the same file, so a change to the fleet loop that
//! moves any counter fails here under `cargo test` too, and the
//! baseline is pinned once — in the file — not twice.
//!
//! Debug pins the two cheap ends of the three-device policy sweep, the
//! rebalancing row and the two tiered rows; release adds the middle of
//! the sweep, and the N = 16 / N = 64 scale rows are `#[ignore]`d
//! (minutes of single-core debug wall) and run by `ci.sh` in release
//! via `RTM_STRESS=1`.

use rtm_fleet::rebalance::WorstShardDrain;
use rtm_fleet::routing::{standard_policies, FragAware, RoundRobin};
use rtm_fleet::{FleetConfig, FleetReport, FleetService};
use rtm_fpga::part::Part;
use rtm_service::trace::Scenario;
use rtm_service::ServiceConfig;

/// The checked-in baseline, one run per line.
const BASELINE: &str = include_str!("../../../BENCH_fleet.json");

/// Asserts that `report` reproduces every counter column of the
/// baseline row carrying its tags. `preemption` is the one tag the
/// report does not carry.
fn assert_row(report: &FleetReport, preemption: bool) {
    let tags = format!(
        "{{\"scenario\": \"{}\", \"devices\": {}, \"preemption\": {preemption}, \
         \"policy\": \"{}\", \"rebalancer\": \"{}\", ",
        report.trace_name,
        report.shards.len(),
        report.policy,
        report.rebalancer.as_deref().unwrap_or("none"),
    );
    let row = BASELINE
        .lines()
        .find_map(|line| line.trim().strip_prefix(tags.as_str()))
        .unwrap_or_else(|| panic!("BENCH_fleet.json has no row tagged {tags}"));
    let pinned: Vec<(&str, u64)> = row
        .trim_end_matches(',')
        .trim_end_matches('}')
        .split(", ")
        .map(|column| {
            let (name, value) = column
                .split_once(": ")
                .unwrap_or_else(|| panic!("malformed column {column:?}"));
            let value = value
                .parse()
                .unwrap_or_else(|_| panic!("counter {name} is not a number: {value}"));
            (name.trim_matches('"'), value)
        })
        .collect();
    assert_eq!(report.counters(), pinned, "{report}");
}

/// The baseline suite's three-device fleet, byte for byte.
fn small_fleet() -> FleetConfig {
    FleetConfig::heterogeneous(
        &[Part::Xcv50, Part::Xcv50, Part::Xcv100],
        ServiceConfig::default(),
    )
}

/// A run of the baseline suite's contended x4 trace on the three-device
/// fleet.
fn small_fleet_report(policy_index: usize, rebalance: bool) -> FleetReport {
    let trace = Scenario::AdversarialFragmenter.fleet_trace(Part::Xcv50, 4, 42, 170_000);
    let mut config = small_fleet();
    if rebalance {
        config = config.with_rebalance_threshold(0.4);
    }
    let mut fleet = FleetService::new(config, standard_policies().remove(policy_index));
    if rebalance {
        fleet = fleet.with_rebalancer(Box::<WorstShardDrain>::default());
    }
    fleet.run(&trace).unwrap()
}

/// The three-device policy sweep reproduces its baseline rows.
#[test]
fn x4_policy_sweep_matches_the_pinned_baseline() {
    // Debug (14x slower on the 1-core CI box) pins the two ends of the
    // sweep; release pins all four.
    let sampled: Vec<usize> = if cfg!(debug_assertions) {
        vec![0, 3]
    } else {
        (0..standard_policies().len()).collect()
    };
    for i in sampled {
        assert_row(&small_fleet_report(i, false), false);
    }
}

/// The rebalancing-migration row (round-robin + worst-shard-drain on
/// the same contended fleet) — the path where the epoch loop's
/// migration edge could most easily drift.
#[test]
fn x4_rebalancing_row_matches_the_pinned_baseline() {
    let report = small_fleet_report(0, true);
    assert_eq!(report.rebalancer.as_deref(), Some("worst-shard-drain"));
    assert_row(&report, false);
}

/// The tiered QoS rows, without and with preemption: per-tier
/// admissions and the whole eviction flow (migrated, parked,
/// readmitted, expired).
#[test]
fn tiered_rows_match_the_pinned_baseline() {
    let trace = Scenario::TieredMix.fleet_trace(Part::Xcv50, 3, 7, 170_000);
    for preemption in [false, true] {
        let config = small_fleet().with_preemption(preemption);
        let report = FleetService::new(config, Box::<RoundRobin>::default())
            .run(&trace)
            .unwrap();
        assert_row(&report, preemption);
    }
}

/// The N = 16 scale rows (frag-aware sweep and round-robin +
/// rebalancing): minutes of debug wall on the CI box, so `#[ignore]`d
/// here and run in release by `ci.sh` under `RTM_STRESS=1`.
#[test]
#[ignore = "scale row: run in release (ci.sh RTM_STRESS=1)"]
fn n16_rows_match_the_pinned_baseline() {
    let parts = vec![Part::Xcv50; 16];
    let trace = Scenario::AdversarialFragmenter.fleet_trace(Part::Xcv50, 17, 42, 170_000);

    let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::<FragAware>::default());
    assert_row(&fleet.run(&trace).unwrap(), false);

    let config =
        FleetConfig::heterogeneous(&parts, ServiceConfig::default()).with_rebalance_threshold(0.4);
    let mut fleet = FleetService::new(config, Box::<RoundRobin>::default())
        .with_rebalancer(Box::<WorstShardDrain>::default());
    assert_row(&fleet.run(&trace).unwrap(), false);
}

/// The N = 64 frag-aware sweep: the plan-reuse poster row (one preview
/// per arrival, zero rearrangement, every plan reused).
#[test]
#[ignore = "scale row: run in release (ci.sh RTM_STRESS=1)"]
fn n64_row_matches_the_pinned_baseline() {
    let parts = vec![Part::Xcv50; 64];
    let trace = Scenario::AdversarialFragmenter.fleet_trace(Part::Xcv50, 65, 42, 170_000);
    let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::<FragAware>::default());
    assert_row(&fleet.run(&trace).unwrap(), false);
}
