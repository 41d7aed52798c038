//! The QoS-tier preemption net:
//!
//! * the headline claim — on the tiered multi-tenant mix, preemptive
//!   eviction strictly improves the interactive admission rate over
//!   the same fleet without it;
//! * the eviction sum identities (`evicted out = migrated + parked`,
//!   `parked = readmitted + expired + still parked`, and the per-shard
//!   residency identity extended by the eviction flows);
//! * per-tier counters and the whole report identical on a repeat run;
//! * a preemption sees batch functions seated earlier in the same
//!   routing edge, even on shards the capped offer chain never reached;
//! * a parked id stays visible to departures and to duplicate checks;
//! * monotonicity: adding lower-tier load never reduces the high-tier
//!   admission count (preemption makes interactive service independent
//!   of batch pressure);
//! * evict-then-readmit round-trips flip-flop state frame-exactly,
//!   pinned by the same readback oracle as the migration net.

use proptest::prelude::*;
use rtm_fleet::routing::{BestFitContiguous, RoundRobin};
use rtm_fleet::{FleetConfig, FleetService};
use rtm_fpga::config::layout::{tile_bit_location, PIP_BITS_BASE};
use rtm_fpga::geom::Rect;
use rtm_fpga::part::Part;
use rtm_service::trace::{Arrival, Scenario, Trace, TraceEvent};
use rtm_service::{
    AdmissionBid, Displacement, QosTier, RuntimeService, ServiceConfig, ServiceReport,
};

fn tiered_fleet(preemption: bool) -> FleetService {
    let config = FleetConfig::homogeneous(3, ServiceConfig::default()).with_preemption(preemption);
    FleetService::new(config, Box::new(BestFitContiguous))
}

/// The acceptance gate: on the tiered mix, turning preemption on
/// strictly improves interactive admissions, and the improvement is
/// attributable (preemptions and evictions actually happened).
#[test]
fn preemption_strictly_improves_interactive_admission() {
    let trace = Scenario::TieredMix.fleet_trace(Part::Xcv50, 3, 7, 150_000);

    let baseline = tiered_fleet(false).run(&trace).unwrap();
    let preempting = tiered_fleet(true).run(&trace).unwrap();

    let without = baseline.tiers().admitted_for(QosTier::Interactive);
    let with = preempting.tiers().admitted_for(QosTier::Interactive);
    assert!(
        with > without,
        "preemption must strictly improve interactive admission: \
         {with} vs {without}\nwith: {preempting}\nwithout: {baseline}"
    );
    assert!(preempting.preemptions > 0, "{preempting}");
    assert!(preempting.evictions_out() > 0, "{preempting}");
    assert_eq!(baseline.preemptions, 0, "preemption off is preemption off");
    assert_eq!(baseline.evictions_out(), 0, "{baseline}");

    // The eviction flow identities, exactly.
    assert_eq!(
        preempting.evictions_out(),
        preempting.evictions_migrated + preempting.evictions_parked,
        "{preempting}"
    );
    assert_eq!(
        preempting.evictions_parked,
        preempting.parked_readmitted + preempting.parked_expired + preempting.parked_at_end,
        "{preempting}"
    );
    assert_eq!(
        preempting.evictions_in(),
        preempting.evictions_migrated + preempting.parked_readmitted,
        "{preempting}"
    );
    // Per-shard residency extended by the eviction flows.
    for s in &preempting.shards {
        assert_eq!(
            s.report.resident_at_end as i64,
            s.report.admitted as i64 - s.report.departures as i64 + s.report.migrations_in as i64
                - s.report.migrations_out as i64
                + s.report.evictions_in as i64
                - s.report.evictions_out as i64,
            "per-shard residency identity with evictions: {preempting}"
        );
    }
}

/// The determinism gate: the tiered run — preemption, evictions,
/// parking, readmission and all — produces an identical report
/// (per-tier counters included, they are report fields) when replayed
/// on a fresh fleet.
#[test]
fn tiered_reports_identical_on_repeat_runs() {
    let trace = Scenario::TieredMix.fleet_trace(Part::Xcv50, 3, 7, 150_000);
    let reference = tiered_fleet(true).run(&trace).unwrap();
    assert!(
        reference.preemptions > 0,
        "the run must exercise preemption"
    );
    assert_eq!(
        reference,
        tiered_fleet(true).run(&trace).unwrap(),
        "tiered run diverged on a repeat run"
    );
}

/// Regression: the victim search must see a lower-tier function seated
/// earlier in the same routing edge, on a shard the capped offer chain
/// never offered the preempting arrival. Two XCV50s, round-robin, one
/// offer per arrival: at t=0 an interactive 14×20 fills most of shard
/// 0; at t=1000 a batch 10×16 is reserved on shard 1, then an
/// interactive 10×10 is offered shard 0 only and strikes out. Its
/// preemption must find the batch function on shard 1 (its ticket has
/// not run yet: nothing drained shard 1 since), evict it — parked,
/// since shard 0 has no room for it — and seat there.
#[test]
fn preemption_sees_a_victim_seated_earlier_in_the_same_edge() {
    let arrival = |id, rows, cols, tier| {
        TraceEvent::Arrival(Arrival {
            id,
            rows,
            cols,
            duration: None,
            deadline: None,
            tier,
        })
    };
    let mut trace = Trace::new("same-instant-preemption");
    trace.push(0, arrival(0, 14, 20, QosTier::Interactive));
    trace.push(1_000, arrival(1, 10, 16, QosTier::Batch));
    trace.push(1_000, arrival(2, 10, 10, QosTier::Interactive));

    let config = FleetConfig::homogeneous(2, ServiceConfig::default().with_part(Part::Xcv50))
        .with_preemption(true)
        .with_max_offer_attempts(1);
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));
    let report = fleet.run(&trace).unwrap();

    assert_eq!(report.preemptions, 1, "{report}");
    assert_eq!(report.evictions_parked, 1, "{report}");
    assert_eq!(
        report.tiers().admitted_for(QosTier::Interactive),
        2,
        "{report}"
    );
    assert_eq!(report.queued_at_end(), 0, "{report}");
    assert!(
        fleet.shards()[1].holds(2),
        "the interactive 10x10 seats on shard 1"
    );
}

/// The three arrivals of
/// `preemption_sees_a_victim_seated_earlier_in_the_same_edge` (batch
/// id 1 is parked at t=1000), a `middle` event at t=2000, and the
/// departure of id 0 at t=3000, which frees shard 0 for the parked
/// bundle. Returns the report and which shards hold id 1 at the end.
fn parked_id_run(middle: TraceEvent) -> (rtm_fleet::FleetReport, Vec<usize>) {
    let arrival = |id, rows, cols, tier| {
        TraceEvent::Arrival(Arrival {
            id,
            rows,
            cols,
            duration: None,
            deadline: None,
            tier,
        })
    };
    let mut trace = Trace::new("parked-id");
    trace.push(0, arrival(0, 14, 20, QosTier::Interactive));
    trace.push(1_000, arrival(1, 10, 16, QosTier::Batch));
    trace.push(1_000, arrival(2, 10, 10, QosTier::Interactive));
    trace.push(2_000, middle);
    trace.push(3_000, TraceEvent::Departure { id: 0 });

    let config = FleetConfig::homogeneous(2, ServiceConfig::default().with_part(Part::Xcv50))
        .with_preemption(true)
        .with_max_offer_attempts(1);
    let mut fleet = FleetService::new(config, Box::new(RoundRobin::default()));
    let report = fleet.run(&trace).unwrap();
    assert_eq!(report.evictions_parked, 1, "id 1 is parked: {report}");
    let holders = (0..2).filter(|&s| fleet.shards()[s].holds(1)).collect();
    (report, holders)
}

/// Regression: a departure of a parked id ends its residency. The
/// bundle is dropped and counted as `parked_expired`, so it is never
/// readmitted when shard 0 frees up.
#[test]
fn departure_of_a_parked_id_drops_its_bundle() {
    let (report, holders) = parked_id_run(TraceEvent::Departure { id: 1 });
    assert_eq!(report.parked_expired, 1, "{report}");
    assert_eq!(report.parked_readmitted, 0, "{report}");
    assert_eq!(report.parked_at_end, 0, "{report}");
    assert!(holders.is_empty(), "no shard may hold id 1: {holders:?}");
}

/// Regression: an arrival reusing a parked id is refused on the
/// routing edge as unplaceable, so the parked bundle stays the only
/// holder of the id and readmits on shard 0.
#[test]
fn arrival_reusing_a_parked_id_is_unplaceable() {
    let reuse = TraceEvent::Arrival(Arrival {
        id: 1,
        rows: 4,
        cols: 4,
        duration: None,
        deadline: None,
        tier: QosTier::Standard,
    });
    let (report, holders) = parked_id_run(reuse);
    assert_eq!(report.unplaceable, 1, "{report}");
    assert_eq!(report.parked_readmitted, 1, "{report}");
    assert_eq!(holders, vec![0], "exactly one shard holds id 1: {report}");
}

/// Readback equivalence modulo the relocation offset — the migration
/// net's oracle, applied to the eviction path: every cell-config and
/// state bit of the evicted function's region reads the same after
/// readmission (PIP bits excluded; nets re-route inside the new
/// region).
fn assert_readback_equivalent(
    pre: &rtm_fpga::config::ConfigMemory,
    old_region: Rect,
    target: &RuntimeService,
    new_region: Rect,
) {
    let dr = new_region.origin.row as i32 - old_region.origin.row as i32;
    let dc = new_region.origin.col as i32 - old_region.origin.col as i32;
    for old_tile in old_region.iter() {
        let new_tile = old_tile.offset(dr, dc).expect("translated tile on device");
        for k in 0..PIP_BITS_BASE {
            let (a_addr, a_bit) = tile_bit_location(old_tile, k);
            let (b_addr, b_bit) = tile_bit_location(new_tile, k);
            assert_eq!(
                pre.get_bit(a_addr, a_bit).unwrap(),
                target
                    .manager()
                    .device()
                    .config()
                    .get_bit(b_addr, b_bit)
                    .unwrap(),
                "bit {k} of {old_tile} != bit {k} of {new_tile}"
            );
        }
    }
}

fn interactive(id: u64, at: u64, rows: u16, cols: u16) -> (u64, TraceEvent) {
    (
        at,
        TraceEvent::Arrival(Arrival {
            id,
            rows,
            cols,
            duration: Some(400_000),
            deadline: None,
            tier: QosTier::Interactive,
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Monotonicity: with preemption on, injecting arbitrary batch
    /// load under an interactive workload never reduces the number of
    /// interactive admissions — the whole point of the tier system is
    /// that background pressure cannot crowd out the high tier.
    #[test]
    fn batch_load_never_reduces_interactive_admissions(
        shapes in proptest::collection::vec((2u16..10, 2u16..10), 2..6),
        batch in proptest::collection::vec((2u16..16, 2u16..12, 0u64..400_000), 0..8),
    ) {
        // The interactive-only base: arrivals spaced out on an
        // otherwise idle fleet.
        let mut base = Trace::new("interactive-only");
        for (i, &(r, c)) in shapes.iter().enumerate() {
            let (at, ev) = interactive(1_000 + i as u64, 500_000 + i as u64 * 100_000, r, c);
            base.push(at, ev);
        }
        // The augmented run: the same interactive arrivals, with
        // long-running batch residents landing first.
        let mut augmented = Trace::new("interactive-plus-batch");
        for e in base.events() {
            augmented.push(e.at, e.event);
        }
        for (i, &(r, c, jitter)) in batch.iter().enumerate() {
            augmented.push(
                jitter,
                TraceEvent::Arrival(Arrival {
                    id: i as u64,
                    rows: r,
                    cols: c,
                    duration: Some(6_000_000),
                    deadline: None,
                    tier: QosTier::Batch,
                }),
            );
        }

        let config = FleetConfig::homogeneous(2, ServiceConfig::default())
            .with_preemption(true);
        let lone = FleetService::new(config.clone(), Box::new(RoundRobin::default()))
            .run(&base)
            .unwrap();
        let crowded = FleetService::new(config, Box::new(RoundRobin::default()))
            .run(&augmented)
            .unwrap();

        prop_assert!(
            crowded.tiers().admitted_for(QosTier::Interactive)
                >= lone.tiers().admitted_for(QosTier::Interactive),
            "batch load reduced interactive admissions:\nlone: {lone}\ncrowded: {crowded}"
        );
    }

    /// Evict-then-readmit round-trips flip-flop state frame-exactly:
    /// the bundle an eviction `extract` produces readmits through an
    /// eviction `readmit` (on a sibling or back onto the freed source) with
    /// every cell-config and state bit intact, and the eviction
    /// counters land on the reports.
    #[test]
    fn evict_then_readmit_round_trips_state(
        rows in 2u16..10,
        cols in 2u16..10,
        cross_shard in any::<bool>(),
    ) {
        let mut src = RuntimeService::new(ServiceConfig::default());
        let mut dst = RuntimeService::new(ServiceConfig::default());
        let mut rep_src = ServiceReport::new("evict-src");
        let mut rep_dst = ServiceReport::new("evict-dst");

        let a = Arrival {
            id: 42,
            rows,
            cols,
            duration: None,
            deadline: None,
            tier: QosTier::Batch,
        };
        src.admit(0, AdmissionBid::direct(a), &mut rep_src).unwrap();
        let (_, _, old_region) = src.resident_functions()[0];

        let pre_extract = src.manager().device().config().snapshot();
        let bundle = src.extract(42, Displacement::Eviction, &mut rep_src).unwrap();
        prop_assert_eq!(rep_src.evictions_out, 1);
        prop_assert_eq!(src.resident_count(), 0);
        prop_assert!(src.manager().bookkeeping_consistent());

        let (target, rep) = if cross_shard {
            (&mut dst, &mut rep_dst)
        } else {
            (&mut src, &mut rep_src)
        };
        target
            .readmit(10_000, &bundle, None, Displacement::Eviction, rep)
            .unwrap();
        prop_assert_eq!(rep.evictions_in, 1);
        prop_assert!(target.holds(42));
        prop_assert!(target.manager().bookkeeping_consistent());

        let new_region = target
            .resident_functions()
            .into_iter()
            .find(|(id, _, _)| *id == 42)
            .expect("readmitted function resident")
            .2;
        assert_readback_equivalent(
            &pre_extract,
            old_region,
            target,
            new_region,
        );
    }
}
