//! The migration invariant net, spread over the whole fleet stack:
//! random heterogeneous fleets driven through random
//! load/migrate/depart histories must preserve — after *every* step,
//! completed, failed or refused —
//!
//! * function table ⇄ arena sync on every shard (no orphan state, in
//!   particular after any failed migration),
//! * readback equivalence modulo the relocation offset for every
//!   completed migration (cell-config and state bits of every tile of
//!   the function's region),
//! * frame-exact checkpoint restores for every failed migration,
//! * the extended sum identities: fleet-wide
//!   `Σ migrations_in == Σ migrations_out`, per shard
//!   `resident_at_end == admitted − departures + migrations_in −
//!   migrations_out`, and the original conservation identities
//!   untouched.

use proptest::prelude::*;
use rtm_fleet::rebalance::{queue_starved, UtilizationLevelling, WorstShardDrain};
use rtm_fleet::routing::{RoundRobin, RoutingPolicy};
use rtm_fleet::{FleetConfig, FleetService, RebalancePolicy};
use rtm_fpga::config::layout::{tile_bit_location, PIP_BITS_BASE};
use rtm_fpga::geom::Rect;
use rtm_fpga::part::Part;
use rtm_service::trace::{Arrival, Scenario};
use rtm_service::{
    AdmissionBid, Displacement, OfferOutcome, QosTier, RuntimeService, ServiceConfig, ServiceReport,
};

const MENU: [Part; 2] = [Part::Xcv50, Part::Xcv100];

/// Readback equivalence modulo the relocation offset: every
/// cell-config and state bit of every tile of the migrated function's
/// region reads the same on the target (translated) as it did on the
/// source before the migration. PIP bits are excluded — nets are
/// re-routed inside the new region and may detour around foreign
/// reservations.
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

fn all_consistent(shards: &[RuntimeService]) -> bool {
    shards.iter().all(|s| s.manager().bookkeeping_consistent())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Direct stepping-API histories: arrivals, explicit migrations
    /// (including a forced duplicate-id failure exercising the restore
    /// path), departures and clock advances, interleaved at random.
    #[test]
    fn migration_histories_preserve_every_invariant(
        parts_idx in proptest::collection::vec(0usize..2, 2..4),
        ops in proptest::collection::vec((0u8..10, 0u16..8, 0u16..8, 0usize..8), 8..20),
    ) {
        let parts: Vec<Part> = parts_idx.iter().map(|&i| MENU[i]).collect();
        let n = parts.len();
        let mut shards: Vec<RuntimeService> = parts
            .iter()
            .map(|p| RuntimeService::new(ServiceConfig::default().with_part(*p)))
            .collect();
        let mut reports: Vec<ServiceReport> =
            (0..n).map(|i| ServiceReport::new(format!("mig#{i}"))).collect();
        let mut next_id = 0u64;
        let mut now = 0u64;
        let mut forced_failure = false;

        for (kind, a, b, sel) in ops {
            now += 20_000;
            match kind {
                // Arrivals (more likely than anything else): daemons
                // with no duration keep the devices loaded.
                0..=4 => {
                    let s = sel % n;
                    let arrival = Arrival {
                        id: next_id,
                        rows: 2 + a % 8,
                        cols: 2 + b % 8,
                        duration: None,
                        deadline: None,
                        tier: QosTier::Standard,
                    };
                    next_id += 1;
                    let _ = shards[s]
                        .admit(now, AdmissionBid::direct(arrival), &mut reports[s])
                        .unwrap();
                }
                // Migrations: pick any resident anywhere, send it to
                // the next shard over (mirroring the fleet's execute
                // path, minus the idle-window gate so the heavy
                // machinery runs as often as possible).
                5..=7 => {
                    let Some(src) = (0..n).map(|i| (i + sel) % n)
                        .find(|&i| shards[i].resident_count() > 0) else { continue };
                    let dst = (src + 1 + b as usize % (n - 1)) % n;
                    if dst == src { continue; }
                    let residents = shards[src].resident_functions();
                    let (tid, fid, old_region) = residents[sel % residents.len()];
                    let Some(plan) =
                        shards[src].manager().plan_migration(fid, shards[dst].manager())
                    else { continue };
                    let bundle = shards[src]
                        .extract(tid, Displacement::Migration, &mut reports[src])
                        .unwrap();
                    let room = Some(plan.room().clone());
                    let inbound = shards[dst].readmit(
                        now, &bundle, room, Displacement::Migration, &mut reports[dst]);
                    match inbound {
                        Ok(()) => {
                            let new_region = shards[dst]
                                .resident_functions()
                                .into_iter()
                                .find(|(id, _, _)| *id == tid)
                                .expect("migrated function resident on target")
                                .2;
                            assert_readback_equivalent(
                                bundle.extracted().pre_config(),
                                old_region,
                                &shards[dst],
                                new_region,
                            );
                        }
                        Err(_) => {
                            shards[src].restore_migrated(&bundle, &mut reports[src]).unwrap();
                            prop_assert!(shards[src]
                                .manager()
                                .device()
                                .config()
                                .diff_frames(bundle.extracted().pre_config())
                                .is_empty(), "restore must be frame-exact");
                        }
                    }
                }
                // A forced failed migration (duplicate id on the
                // target): the readmission is refused after the
                // extraction, driving the checkpoint-restore path.
                8 if n > 1 && !forced_failure => {
                    let Some(src) = (0..n).find(|&i| shards[i].resident_count() > 0)
                    else { continue };
                    let dst = (src + 1) % n;
                    let (tid, _, _) = shards[src].resident_functions()[0];
                    // Twin the id on the target (possible because the
                    // shards are driven directly, without the fleet's
                    // owner routing).
                    let twin = Arrival {
                        id: tid, rows: 2, cols: 2, duration: None, deadline: None,
                        tier: QosTier::Standard,
                    };
                    if shards[dst]
                        .admit(now, AdmissionBid::direct(twin), &mut reports[dst])
                        .unwrap()
                        != OfferOutcome::Admitted { continue; }
                    forced_failure = true;
                    let restored_before = reports[src].migrations_restored;
                    let bundle = shards[src]
                        .extract(tid, Displacement::Migration, &mut reports[src])
                        .unwrap();
                    let err = shards[dst].readmit(
                        now, &bundle, None, Displacement::Migration, &mut reports[dst]);
                    prop_assert!(err.is_err(), "duplicate ids must be refused");
                    shards[src].restore_migrated(&bundle, &mut reports[src]).unwrap();
                    prop_assert!(shards[src]
                        .manager()
                        .device()
                        .config()
                        .diff_frames(bundle.extracted().pre_config())
                        .is_empty(), "failed migration restores frame-exactly");
                    prop_assert_eq!(reports[src].migrations_restored, restored_before + 1);
                }
                // Departures of a random resident.
                _ => {
                    let Some(s) = (0..n).map(|i| (i + sel) % n)
                        .find(|&i| shards[i].resident_count() > 0) else { continue };
                    let (tid, _, _) = shards[s].resident_functions()[sel % shards[s].resident_count()];
                    shards[s].depart(tid, &mut reports[s]).unwrap();
                }
            }
            // The net: after *every* op, every shard's function table,
            // arena and device agree.
            prop_assert!(all_consistent(&shards), "orphan state after op");
        }

        // Extended sum identities, exactly.
        for (s, rep) in shards.iter_mut().zip(&mut reports) {
            s.finish(rep);
        }
        let (mut total_in, mut total_out) = (0usize, 0usize);
        for rep in &reports {
            total_in += rep.migrations_in;
            total_out += rep.migrations_out;
            prop_assert_eq!(
                rep.resident_at_end as i64,
                rep.admitted as i64 - rep.departures as i64
                    + rep.migrations_in as i64 - rep.migrations_out as i64,
                "per-shard residency identity: {}", rep
            );
        }
        prop_assert_eq!(total_in, total_out, "fleet-wide in/out identity");
    }

    /// The same identities through the real fleet loop: random
    /// heterogeneous fleets with a rebalancer installed, replaying
    /// scenario traces — every original conservation identity must
    /// still hold exactly, extended by the migration counters.
    #[test]
    fn fleet_runs_with_rebalancing_keep_the_extended_identities(
        parts_idx in proptest::collection::vec(0usize..2, 2..4),
        scenario_sel in 0usize..3,
        rebalancer_sel in 0usize..2,
        seed in 1u64..500,
    ) {
        let parts: Vec<Part> = parts_idx.iter().map(|&i| MENU[i]).collect();
        let scenario = Scenario::ALL[scenario_sel];
        let trace = scenario.fleet_trace(Part::Xcv50, parts.len() as u64 + 1, seed, 150_000);
        let rebalancer: Box<dyn RebalancePolicy> = if rebalancer_sel == 0 {
            Box::new(WorstShardDrain::default())
        } else {
            Box::new(UtilizationLevelling::default())
        };
        let policy: Box<dyn RoutingPolicy> = Box::new(RoundRobin::default());
        let config = FleetConfig::heterogeneous(&parts, ServiceConfig::default())
            .with_rebalance_threshold(0.35);
        let mut fleet = FleetService::new(config, policy).with_rebalancer(rebalancer);
        let report = fleet.run(&trace).unwrap();

        // Original conservation identities, untouched by migration.
        prop_assert_eq!(
            report.admitted()
                + report.rejected_deadline()
                + report.failures()
                + report.cancelled()
                + report.queued_at_end()
                + report.unplaceable,
            report.submitted + report.load_failovers,
            "{}", report
        );
        // Extended identities.
        prop_assert_eq!(report.migrations_in(), report.migrations, "{}", report);
        prop_assert_eq!(report.migrations_out(), report.migrations, "{}", report);
        prop_assert_eq!(report.migrations_restored(), report.migrations_failed, "{}", report);
        for s in &report.shards {
            prop_assert_eq!(
                s.report.resident_at_end as i64,
                s.report.admitted as i64 - s.report.departures as i64
                    + s.report.migrations_in as i64 - s.report.migrations_out as i64,
                "per-shard residency identity: {}", report
            );
        }
        // Everything the fleet ended with is really resident, and the
        // device bookkeeping survived the whole run.
        prop_assert!(all_consistent(fleet.shards()));
        prop_assert!(!queue_starved(&fleet.shards()[0]) || report.queued_at_end() > 0);
    }
}
