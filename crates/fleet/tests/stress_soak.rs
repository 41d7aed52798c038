//! Fleet-scale soak: the N = 1024 adversarial-fragmenter sweep.
//! `#[ignore]`d by default (tens of seconds of release wall) and opted
//! into by `ci.sh` when `RTM_STRESS=1`:
//!
//! ```sh
//! RTM_STRESS=1 ./ci.sh          # or directly:
//! cargo test --release -p rtm-fleet --test stress_soak -- --ignored --nocapture
//! ```
//!
//! Asserts the run *completes* and that the conservation and residency
//! identities hold at three orders of magnitude above the unit suites.
//! Wall clock, arrivals/s and the phase-share table are printed, never
//! gated.

use rtm_fleet::routing::RoundRobin;
use rtm_fleet::{FleetConfig, FleetReport, FleetService};
use rtm_fpga::part::Part;
use rtm_obs::Stopwatch;
use rtm_service::trace::Scenario;
use rtm_service::ServiceConfig;

fn assert_conservation(report: &FleetReport) {
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
    assert_eq!(report.migrations_in(), report.migrations, "{report}");
    assert_eq!(report.migrations_out(), report.migrations, "{report}");
    for s in &report.shards {
        assert_eq!(
            s.report.resident_at_end as i64,
            s.report.admitted as i64 - s.report.departures as i64 + s.report.migrations_in as i64
                - s.report.migrations_out as i64,
            "per-shard residency identity: {report}"
        );
    }
}

#[test]
#[ignore = "N = 1024 soak: tens of seconds of release wall; ci.sh opts in via RTM_STRESS=1"]
fn n1024_sweep_completes_with_identities_intact() {
    const N: usize = 1024;
    let parts = vec![Part::Xcv50; N];
    let trace = Scenario::AdversarialFragmenter.fleet_trace(Part::Xcv50, N as u64 + 1, 42, 170_000);

    let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default());
    let mut fleet = FleetService::new(config, Box::<RoundRobin>::default());
    // Phase profiler on the soak: where do the epochs actually go at
    // N = 1024? Printed, never gated — wall clock stays out of reports.
    fleet.enable_profiler();
    let sw = Stopwatch::start();
    let report = fleet.run(&trace).expect("soak run stays up");
    let wall = sw.elapsed_secs();

    assert_eq!(report.submitted, trace.arrivals());
    assert!(report.admitted() > 0, "soak must actually admit: {report}");
    assert_conservation(&report);

    if let Some(p) = fleet.profiler() {
        println!("phase shares at N = {N}:");
        println!("{}", p.share_table());
    }
    println!(
        "N={N}: {} arrivals, {} admitted in {wall:.2}s ({:.0} arrivals/s) [printed, not gated]",
        report.submitted,
        report.admitted(),
        report.submitted as f64 / wall.max(1e-9),
    );
}
