//! Cross-device migration at the manager level: extract → readmit
//! round-trips, checkpoint restores, stale-plan handling, and the
//! cached-defrag-plan regression pin.

use rtm_core::{CoreError, RunTimeManager};
use rtm_fpga::config::layout::{tile_bit_location, PIP_BITS_BASE};
use rtm_fpga::geom::{ClbCoord, Rect};
use rtm_fpga::part::Part;
use rtm_netlist::random::RandomCircuit;
use rtm_netlist::techmap::{map_to_luts, MappedNetlist};

fn small_design(seed: u64) -> MappedNetlist {
    map_to_luts(&RandomCircuit::free_running(4, 10, seed).generate()).unwrap()
}

/// Readback equivalence modulo the relocation offset: every cell-config
/// and state bit of every tile of the migrated function's region reads
/// the same on the target (at the translated tile) as it did on the
/// source before the migration. PIP bits are excluded — the readmitted
/// nets are re-routed inside the new region, and foreign reservations
/// on the target may legitimately detour them.
fn assert_readback_equivalent(
    pre: &rtm_fpga::config::ConfigMemory,
    old_region: Rect,
    target: &RunTimeManager,
    new_region: Rect,
) {
    assert_eq!(
        (old_region.rows, old_region.cols),
        (new_region.rows, new_region.cols)
    );
    let dr = new_region.origin.row as i32 - old_region.origin.row as i32;
    let dc = new_region.origin.col as i32 - old_region.origin.col as i32;
    for old_tile in old_region.iter() {
        let new_tile = old_tile.offset(dr, dc).expect("translated tile on device");
        for k in 0..PIP_BITS_BASE {
            let (a_addr, a_bit) = tile_bit_location(old_tile, k);
            let (b_addr, b_bit) = tile_bit_location(new_tile, k);
            assert_eq!(
                pre.get_bit(a_addr, a_bit).unwrap(),
                target.device().config().get_bit(b_addr, b_bit).unwrap(),
                "bit {k} of {old_tile} != bit {k} of {new_tile} (offset {dr},{dc})"
            );
        }
    }
}

#[test]
fn extract_readmit_roundtrip_is_readback_equivalent_modulo_offset() {
    let mut src = RunTimeManager::new(Part::Xcv50);
    let mut dst = RunTimeManager::new(Part::Xcv50);
    // Occupy the target's top-left corner so the migrated function
    // lands at a non-trivial offset from its source position.
    let blocker = dst.load(&small_design(2), 16, 4, |_, _, _| {}).unwrap();
    let r = src.load(&small_design(1), 8, 8, |_, _, _| {}).unwrap();

    let plan = src
        .plan_migration(r.id, &dst)
        .expect("target can host the shape");
    assert!(src.migration_plan_valid(&plan));
    assert_eq!(plan.shape(), (8, 8));
    assert_eq!(plan.cells(), 64);
    assert!(plan.room().is_empty(), "the target has contiguous room");

    let pre_extract = src.device().config().snapshot();
    let extracted = src.extract_function(r.id).unwrap();
    assert_eq!(extracted.shape(), (8, 8));
    assert_eq!(extracted.region(), r.region);
    // The source is fully clean: no orphan arena state, no leftover
    // configuration, and the manager keeps working.
    assert_eq!(src.functions().count(), 0);
    assert_eq!(src.fragmentation().utilisation(), 0.0);
    assert!(src.device().used_in(src.device().bounds()).is_empty());
    assert!(src.bookkeeping_consistent());
    src.defragment(|_, _, _| {}).unwrap();

    let lr = dst.readmit_function(&extracted, &plan.room().clone(), |_, _, _| {});
    let lr = lr.unwrap();
    assert_eq!((lr.region.rows, lr.region.cols), (8, 8));
    assert_ne!(
        lr.region.origin,
        extracted.region().origin,
        "the blocker forces a real relocation offset"
    );
    assert!(dst.bookkeeping_consistent());
    assert_eq!(dst.functions().count(), 2);
    assert_readback_equivalent(&pre_extract, extracted.region(), &dst, lr.region);
    // Both residents are real functions: unload them cleanly.
    dst.unload(lr.id).unwrap();
    dst.unload(blocker.id).unwrap();
    assert!(dst.device().used_in(dst.device().bounds()).is_empty());
}

#[test]
fn restore_from_checkpoint_is_frame_exact() {
    let mut mgr = RunTimeManager::new(Part::Xcv50);
    let a = mgr.load(&small_design(3), 16, 6, |_, _, _| {}).unwrap();
    let b = mgr.load(&small_design(4), 8, 8, |_, _, _| {}).unwrap();
    let frag_before = mgr.fragmentation();

    let pre_extract = mgr.device().config().snapshot();
    let extracted = mgr.extract_function(a.id).unwrap();
    assert_eq!(mgr.functions().count(), 1);
    // The failed-migration path: put it back from the checkpoint.
    let new_id = mgr.restore_function(&extracted).unwrap();
    assert_ne!(new_id, a.id, "restore reinstates under a fresh id");
    assert_eq!(mgr.functions().count(), 2);
    assert!(mgr.bookkeeping_consistent());
    assert_eq!(mgr.fragmentation(), frag_before);
    // Frame-exact: the device configuration equals the pre-extraction
    // snapshot bit for bit.
    assert!(mgr.device().config().diff_frames(&pre_extract).is_empty());
    // The restored function is fully alive: relocate and unload it.
    let to = Rect::new(ClbCoord::new(0, 18), 16, 6);
    mgr.relocate_function(new_id, to, |_, _, _| {}).unwrap();
    mgr.unload(new_id).unwrap();
    mgr.unload(b.id).unwrap();
    assert!(mgr.device().used_in(mgr.device().bounds()).is_empty());
}

#[test]
fn restore_refuses_a_stale_checkpoint() {
    let mut mgr = RunTimeManager::new(Part::Xcv50);
    let a = mgr.load(&small_design(5), 8, 8, |_, _, _| {}).unwrap();
    let extracted = mgr.extract_function(a.id).unwrap();
    // The device mutated since the extraction: the checkpoint no
    // longer composes with the current state and must be refused.
    let c = mgr.load(&small_design(6), 4, 4, |_, _, _| {}).unwrap();
    let err = mgr.restore_function(&extracted).unwrap_err();
    assert!(matches!(err, CoreError::DesignMismatch { .. }), "{err}");
    // Nothing was touched by the refusal.
    assert_eq!(mgr.functions().count(), 1);
    assert!(mgr.bookkeeping_consistent());
    mgr.unload(c.id).unwrap();
}

#[test]
fn stale_migration_plans_are_detected_not_executed() {
    let mut src = RunTimeManager::new(Part::Xcv50);
    let dst = RunTimeManager::new(Part::Xcv50);
    let r = src.load(&small_design(7), 8, 8, |_, _, _| {}).unwrap();
    let plan = src.plan_migration(r.id, &dst).unwrap();
    assert!(src.migration_plan_valid(&plan));
    // Any source mutation stales the plan: its geometry (and the
    // room plan computed for it) describe a layout that is gone.
    src.load(&small_design(8), 4, 4, |_, _, _| {}).unwrap();
    assert!(!src.migration_plan_valid(&plan));
    // A departed function stales it too, shape check included.
    let plan2 = src.plan_migration(r.id, &dst).unwrap();
    src.unload(r.id).unwrap();
    assert!(!src.migration_plan_valid(&plan2));
    // Unknown ids and impossible targets never plan at all.
    assert!(src.plan_migration(999, &dst).is_none());
    let tiny = RunTimeManager::new(Part::Xcv50);
    let big = {
        let mut m = RunTimeManager::new(Part::Xcv200);
        let lr = m.load(&small_design(9), 20, 30, |_, _, _| {}).unwrap();
        (m, lr.id)
    };
    assert!(
        big.0.plan_migration(big.1, &tiny).is_none(),
        "a 20x30 function cannot migrate onto a 16x24 device"
    );
}

#[test]
fn stale_room_plan_on_the_target_is_replanned_on_readmit() {
    let mut src = RunTimeManager::new(Part::Xcv50);
    let mut dst = RunTimeManager::new(Part::Xcv50);
    let r = src.load(&small_design(10), 8, 8, |_, _, _| {}).unwrap();
    let plan = src.plan_migration(r.id, &dst).unwrap();
    // The target mutates between planning and execution: the room
    // plan's epoch stamp no longer matches.
    let filler = dst.load(&small_design(11), 4, 4, |_, _, _| {}).unwrap();
    let extracted = src.extract_function(r.id).unwrap();
    let base = dst.plan_stats();
    let lr = dst
        .readmit_function(&extracted, plan.room(), |_, _, _| {})
        .unwrap();
    let delta = dst.plan_stats().delta_since(base);
    assert_eq!(delta.plans_invalidated, 1, "stale stamp detected");
    assert_eq!(delta.plans_reused, 0);
    assert_eq!(delta.make_room_calls, 1, "re-planned once, then executed");
    assert!(dst.bookkeeping_consistent());
    dst.unload(lr.id).unwrap();
    dst.unload(filler.id).unwrap();
}

/// The cached-DefragPlan satellite: ranking devices by predicted gain
/// already plans the cycle, so executing the cached plan afterwards
/// must add **zero** compaction planning passes — `compaction_plans`
/// stays flat between the gain query and the executed cycle.
#[test]
fn fleet_trigger_cycle_is_plan_free_end_to_end() {
    let mut mgr = RunTimeManager::new(Part::Xcv50);
    let a = mgr.load(&small_design(12), 16, 6, |_, _, _| {}).unwrap();
    let b = mgr.load(&small_design(13), 16, 6, |_, _, _| {}).unwrap();
    mgr.relocate_function(a.id, Rect::new(ClbCoord::new(0, 18), 16, 6), |_, _, _| {})
        .unwrap();
    mgr.relocate_function(b.id, Rect::new(ClbCoord::new(0, 6), 16, 6), |_, _, _| {})
        .unwrap();

    let base = mgr.plan_stats();
    let gain = mgr.predicted_defrag_gain();
    assert!(gain > 0.0, "the stranded layout must be repairable");
    let plan = mgr.cached_defrag_plan();
    assert!(plan.is_worthwhile());
    let after_planning = mgr.plan_stats().delta_since(base);
    assert_eq!(
        after_planning.compaction_plans, 1,
        "gain query and cached plan share one planning pass"
    );

    let report = mgr.defragment_with_plan(&plan, |_, _, _| {}).unwrap();
    assert_eq!(report.after.fragmentation(), 0.0);
    let total = mgr.plan_stats().delta_since(base);
    assert_eq!(
        total.compaction_plans, 1,
        "executing the cached plan re-plans nothing: flat compaction_plans"
    );
    assert_eq!(total.plans_reused, 1);
}
