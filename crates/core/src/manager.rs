//! The run-time manager: the engine behind the paper's "FPGA
//! Rearrangement and Programming tool" (§4).
//!
//! Owns the device, the area bookkeeping and every loaded function.
//! Incoming functions are placed on-line; when fragmentation blocks a
//! request the manager plans a rearrangement (`rtm-place`'s
//! local-repacking / ordered-compaction planner) and executes it with
//! **dynamic relocation** — staged, cell by cell, while the moved
//! functions keep running. A complete configuration copy is kept for
//! recovery, exactly as the paper's tool does.

use crate::error::CoreError;
use crate::relocation::{relocate_cell, RelocationOptions, RelocationReport, StepRecord};
use rtm_fpga::config::ConfigMemory;
use rtm_fpga::geom::Rect;
use rtm_fpga::part::Part;
use rtm_fpga::Device;
use rtm_netlist::techmap::MappedNetlist;
use rtm_place::alloc::Strategy;
use rtm_place::defrag::{make_room, plan_compaction, predict_metrics, Move};
use rtm_place::frag::FragMetrics;
use rtm_place::TaskArena;
use rtm_sim::design::{implement_counted, PlacedDesign};
use rtm_sim::place::CellLoc;
use rtm_sim::route::RouteStats;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a loaded function.
pub type FunctionId = u64;

/// A function resident on the device.
#[derive(Debug, Clone)]
pub struct LoadedFunction {
    /// The mapped design.
    pub design: MappedNetlist,
    /// Current region.
    pub region: Rect,
    /// Its implementation (placement + live nets).
    pub placed: PlacedDesign,
}

/// A seated admission reservation: the decide half of the two-phase
/// load pipeline. [`RunTimeManager::reserve_room`] executes the
/// rearrangement plan and reserves an arena region for the incoming
/// function — accounting it in every fragmentation metric and summary —
/// but writes **no cells, nets or frames**. The ticket is epoch-stamped
/// (the reservation itself bumped the epoch) and must be settled by
/// exactly one of [`RunTimeManager::execute_reserved`] (implement the
/// design inside the reserved region) or
/// [`RunTimeManager::cancel_reservation`] (release the region again).
/// Fields are private so a ticket can only come from this manager's own
/// reservation path.
#[derive(Debug, Clone)]
pub struct AdmissionTicket {
    id: FunctionId,
    epoch: u64,
    region: Rect,
    moves: Vec<Move>,
    relocations: Vec<RelocationReport>,
}

impl AdmissionTicket {
    /// The reserved function id ([`RunTimeManager::cancel_reservation`]
    /// takes it back on the failure path).
    pub fn id(&self) -> FunctionId {
        self.id
    }

    /// The mutation epoch right after the reservation was seated.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The region the reservation holds.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Rearrangement moves that were executed to open the room.
    pub fn moves(&self) -> &[Move] {
        &self.moves
    }

    /// CLBs of running logic the rearrangement relocated.
    pub fn cells_moved(&self) -> u32 {
        self.moves.iter().map(Move::cells_moved).sum()
    }
}

/// Summary returned by [`RunTimeManager::load`].
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The new function's id.
    pub id: FunctionId,
    /// Where it was placed.
    pub region: Rect,
    /// Rearrangement moves that were executed to make room (empty if the
    /// request fitted immediately).
    pub moves: Vec<Move>,
    /// Relocation reports for every cell moved during rearrangement.
    pub relocations: Vec<RelocationReport>,
}

impl LoadReport {
    /// Total configuration frames written by the rearrangement (zero
    /// when the request fitted immediately).
    pub fn frames_total(&self) -> usize {
        self.relocations.iter().map(|r| r.frames_total()).sum()
    }

    /// CLBs of running logic that were relocated to make room.
    pub fn cells_moved(&self) -> u32 {
        self.moves.iter().map(Move::cells_moved).sum()
    }
}

/// Counters of the plan-reuse admission pipeline: how often the manager
/// planned, how often callers handed a previously computed plan back
/// for execution, and how the per-device summary cache behaved.
///
/// A frag-aware fleet admission historically ran `make_room` three
/// times (routing preview, admission feasibility, load execution);
/// these counters make the collapse to one planning pass — and any
/// future regression — visible in reports and CI baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// `make_room` planning passes executed (previews, `plan_room`,
    /// and internal re-planning on loads without a valid plan).
    pub make_room_calls: u64,
    /// Ordered-compaction planning passes (`plan_defrag`, defrag-gain
    /// summaries, and internal re-planning inside `defragment`).
    pub compaction_plans: u64,
    /// [`RunTimeManager::preview_admission`] calls (each is also one
    /// `make_room` pass).
    pub previews: u64,
    /// Caller-held plans executed as-is: the epoch stamp matched, so no
    /// re-planning happened inside
    /// [`RunTimeManager::load_with_plan`] /
    /// [`RunTimeManager::defragment_with_plan`].
    pub plans_reused: u64,
    /// Caller-held plans rejected as stale (epoch mismatch) and
    /// re-planned instead of executed.
    pub plans_invalidated: u64,
    /// [`RunTimeManager::summary`] calls answered from the epoch-keyed
    /// cache.
    pub summary_hits: u64,
    /// [`RunTimeManager::summary`] calls that had to recompute.
    pub summary_misses: u64,
    /// Router path searches run by loads, readmits and relocations (one
    /// per sink, successful or not; see [`RouteStats`]).
    pub route_searches: u64,
    /// Search-queue pops across those searches.
    pub route_nodes_expanded: u64,
}

impl PlanStats {
    /// The counter movement since `base` (field-wise difference) — how
    /// a service turns the manager's lifetime totals into per-run
    /// deltas.
    pub fn delta_since(self, base: PlanStats) -> PlanStats {
        PlanStats {
            make_room_calls: self.make_room_calls - base.make_room_calls,
            compaction_plans: self.compaction_plans - base.compaction_plans,
            previews: self.previews - base.previews,
            plans_reused: self.plans_reused - base.plans_reused,
            plans_invalidated: self.plans_invalidated - base.plans_invalidated,
            summary_hits: self.summary_hits - base.summary_hits,
            summary_misses: self.summary_misses - base.summary_misses,
            route_searches: self.route_searches - base.route_searches,
            route_nodes_expanded: self.route_nodes_expanded - base.route_nodes_expanded,
        }
    }

    /// Field-wise accumulation (fleet roll-up over shard reports).
    pub fn merge(&mut self, other: PlanStats) {
        self.make_room_calls += other.make_room_calls;
        self.compaction_plans += other.compaction_plans;
        self.previews += other.previews;
        self.plans_reused += other.plans_reused;
        self.plans_invalidated += other.plans_invalidated;
        self.summary_hits += other.summary_hits;
        self.summary_misses += other.summary_misses;
        self.route_searches += other.route_searches;
        self.route_nodes_expanded += other.route_nodes_expanded;
    }
}

impl fmt::Display for PlanStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} make_room ({} previews), {} compactions, {} plans reused, \
             {} invalidated, summary cache {}/{} hits, {} route searches \
             ({} nodes expanded)",
            self.make_room_calls,
            self.previews,
            self.compaction_plans,
            self.plans_reused,
            self.plans_invalidated,
            self.summary_hits,
            self.summary_hits + self.summary_misses,
            self.route_searches,
            self.route_nodes_expanded,
        )
    }
}

/// A rearrangement plan stamped with the manager epoch — and the
/// request shape — it was computed for.
/// [`RunTimeManager::load_with_plan`] executes it without re-planning
/// as long as both stamps still match — the heart of the plan-reuse
/// admission pipeline. Fields are private so a plan can only come from
/// this manager's own planner and its stamps cannot be forged; a plan
/// handed back for a different shape is invalidated exactly like a
/// stale one (its moves only make room for the shape it was planned
/// for).
#[derive(Debug, Clone, PartialEq)]
pub struct RoomPlan {
    epoch: u64,
    rows: u16,
    cols: u16,
    moves: Vec<Move>,
}

impl RoomPlan {
    /// The mutation epoch the plan was computed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The request shape the plan makes room for.
    pub fn shape(&self) -> (u16, u16) {
        (self.rows, self.cols)
    }

    /// True when the plan is executable as-is for a `rows`×`cols`
    /// request on a manager at `epoch` (both stamps match).
    fn valid_for(&self, epoch: u64, rows: u16, cols: u16) -> bool {
        self.epoch == epoch && self.rows == rows && self.cols == cols
    }

    /// The planned moves (empty = the request fits as-is).
    pub fn moves(&self) -> &[Move] {
        &self.moves
    }

    /// True when no rearrangement is needed.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// CLBs of running logic the plan would relocate.
    pub fn cells_moved(&self) -> u32 {
        self.moves.iter().map(Move::cells_moved).sum()
    }
}

/// An ordered-compaction plan stamped with its manager epoch, carrying
/// the fragmentation metrics it was planned against and the metrics it
/// predicts. [`RunTimeManager::defragment_with_plan`] executes it
/// without re-planning while the stamp matches.
#[derive(Debug, Clone, PartialEq)]
pub struct DefragPlan {
    epoch: u64,
    moves: Vec<Move>,
    before: FragMetrics,
    predicted: FragMetrics,
}

impl DefragPlan {
    /// The mutation epoch the plan was computed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The planned compaction moves.
    pub fn moves(&self) -> &[Move] {
        &self.moves
    }

    /// Fragmentation metrics at planning time.
    pub fn before(&self) -> FragMetrics {
        self.before
    }

    /// Predicted metrics after executing the plan.
    pub fn predicted(&self) -> FragMetrics {
        self.predicted
    }

    /// Predicted drop of the fragmentation index (zero when the plan is
    /// empty or would not help).
    pub fn predicted_gain(&self) -> f64 {
        if self.moves.is_empty() {
            return 0.0;
        }
        (self.before.fragmentation() - self.predicted.fragmentation()).max(0.0)
    }

    /// True when executing the plan is predicted to actually lower the
    /// fragmentation index — the execution gate `defragment` applies.
    pub fn is_worthwhile(&self) -> bool {
        !self.moves.is_empty() && self.predicted.fragmentation() < self.before.fragmentation()
    }
}

/// A cheap, cacheable snapshot of one device's state — what a fleet
/// router reads per candidate before deciding which few devices deserve
/// an expensive admission preview. Recomputed only when the manager's
/// mutation epoch moves; [`PlanStats::summary_hits`] counts how often
/// the cache answered. The predicted defragmentation gain is deliberately
/// *not* part of the summary: it costs a compaction planning pass, so it
/// lives behind its own lazy epoch-keyed cache
/// ([`RunTimeManager::predicted_defrag_gain`]) and is computed only when
/// something (the fleet defrag trigger) actually asks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSummary {
    /// The mutation epoch the summary describes.
    pub epoch: u64,
    /// Fragmentation metrics (utilisation, largest free rectangle,
    /// fragmentation index all derive from this).
    pub frag: FragMetrics,
}

/// The non-mutating preview returned by
/// [`RunTimeManager::preview_admission`]: what loading a function of the
/// requested shape would do to this device — including the epoch-stamped
/// [`RoomPlan`] the caller can hand straight to
/// [`RunTimeManager::load_with_plan`] so admission never re-plans.
#[derive(Debug, Clone)]
pub struct AdmissionPreview {
    /// The rearrangement plan the load would execute first (empty moves
    /// if the request fits as-is), reusable via
    /// [`RunTimeManager::load_with_plan`].
    pub plan: RoomPlan,
    /// The region the allocator would hand the function.
    pub region: Rect,
    /// Predicted fragmentation metrics after rearrangement *and*
    /// placement.
    pub after: FragMetrics,
}

impl AdmissionPreview {
    /// The rearrangement moves the load would execute first.
    pub fn moves(&self) -> &[Move] {
        self.plan.moves()
    }

    /// CLBs of running logic the rearrangement would relocate.
    pub fn cells_moved(&self) -> u32 {
        self.plan.cells_moved()
    }
}

/// A cross-device migration plan: the evidence that moving one resident
/// function from a *source* manager onto a *target* manager is
/// executable right now, stamped on **both** sides. The source side
/// carries the epoch the function's geometry was read at; the target
/// side carries an epoch-stamped [`RoomPlan`] from the target's own
/// planner. Either stamp going stale means the plan describes a layout
/// that no longer exists, and the plan must be re-planned, never
/// executed — [`RunTimeManager::migration_plan_valid`] is the source
/// check, and [`RunTimeManager::readmit_function`] applies the standard
/// room-plan revalidation on the target.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    src_epoch: u64,
    id: FunctionId,
    rows: u16,
    cols: u16,
    room: RoomPlan,
}

impl MigrationPlan {
    /// The function the plan would migrate (source-manager id).
    pub fn id(&self) -> FunctionId {
        self.id
    }

    /// The source-manager epoch the plan was computed at.
    pub fn src_epoch(&self) -> u64 {
        self.src_epoch
    }

    /// The migrating function's shape.
    pub fn shape(&self) -> (u16, u16) {
        (self.rows, self.cols)
    }

    /// CLBs the function occupies (the port-time cost of copying it).
    pub fn cells(&self) -> u32 {
        self.rows as u32 * self.cols as u32
    }

    /// The target-side rearrangement plan the readmission would execute
    /// first (empty when the function fits the target as-is).
    pub fn room(&self) -> &RoomPlan {
        &self.room
    }
}

/// A resident function snapshotted off its device mid-migration by
/// [`RunTimeManager::extract_function`]: everything needed to
/// re-implement it on another manager
/// ([`RunTimeManager::readmit_function`]) — and everything needed to
/// put it back *exactly* as it was on the source
/// ([`RunTimeManager::restore_function`]) should the readmission fail.
/// The pre-extraction configuration snapshot is the migration's
/// checkpoint: restore is a frame-exact rollback, so a failed migration
/// can never leave orphan state on either device.
#[derive(Debug, Clone)]
pub struct ExtractedFunction {
    id: FunctionId,
    design: MappedNetlist,
    region: Rect,
    placed: PlacedDesign,
    /// Live storage-element state per design cell, captured at
    /// extraction so the readmitted copy resumes instead of resetting.
    states: Vec<bool>,
    /// Full source-configuration snapshot taken *before* the extraction
    /// — the checkpoint a failed migration restores from.
    pre_config: ConfigMemory,
    /// The source epoch right after the extraction; restore demands it
    /// still matches (nothing else may have touched the source since).
    post_epoch: u64,
}

impl ExtractedFunction {
    /// The id the function had on the source manager.
    pub fn source_id(&self) -> FunctionId {
        self.id
    }

    /// The mapped design.
    pub fn design(&self) -> &MappedNetlist {
        &self.design
    }

    /// The region the function occupied on the source.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// The function's shape (`rows`, `cols`).
    pub fn shape(&self) -> (u16, u16) {
        (self.region.rows, self.region.cols)
    }

    /// CLBs the function occupies — the reconfiguration-port cost of
    /// copying it off or onto a device, in the same unit as
    /// [`Move::cells_moved`].
    pub fn cells(&self) -> u32 {
        self.region.area()
    }

    /// The source-side implementation (placement + nets) at extraction
    /// time — what the readback-equivalence invariant compares against.
    pub fn placed(&self) -> &PlacedDesign {
        &self.placed
    }

    /// The captured storage-element state, indexed like
    /// `design().cells`.
    pub fn states(&self) -> &[bool] {
        &self.states
    }

    /// The pre-extraction source-configuration snapshot (readback of
    /// the whole device as it was with the function still resident).
    pub fn pre_config(&self) -> &ConfigMemory {
        &self.pre_config
    }
}

/// Summary returned by [`RunTimeManager::defragment`]: the executed
/// compaction plan, the per-cell relocation traffic, and the
/// fragmentation before/after — the evidence that a service-initiated
/// defragmentation cycle actually helped.
#[derive(Debug, Clone)]
pub struct DefragReport {
    /// The function moves the compaction executed.
    pub moves: Vec<Move>,
    /// Relocation reports for every cell moved.
    pub relocations: Vec<RelocationReport>,
    /// Fragmentation metrics before the cycle.
    pub before: FragMetrics,
    /// Fragmentation metrics after the cycle.
    pub after: FragMetrics,
}

impl DefragReport {
    /// Total configuration frames written across all relocations.
    pub fn frames_total(&self) -> usize {
        self.relocations.iter().map(|r| r.frames_total()).sum()
    }

    /// CLBs of running logic relocated.
    pub fn cells_moved(&self) -> u32 {
        self.moves.iter().map(Move::cells_moved).sum()
    }

    /// How much the fragmentation index dropped (positive = improved).
    pub fn improvement(&self) -> f64 {
        self.before.fragmentation() - self.after.fragmentation()
    }
}

impl fmt::Display for DefragReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "defrag: {} moves, {} CLBs, {} frames, frag {:.3} -> {:.3}",
            self.moves.len(),
            self.cells_moved(),
            self.frames_total(),
            self.before.fragmentation(),
            self.after.fragmentation(),
        )
    }
}

/// The run-time manager. See the [crate-level docs](crate).
#[derive(Debug)]
pub struct RunTimeManager {
    dev: Device,
    arena: TaskArena,
    functions: BTreeMap<FunctionId, LoadedFunction>,
    /// Regions reserved by seated [`AdmissionTicket`]s: arena tasks that
    /// have no function-table entry yet because their design has not
    /// been implemented. Every entry is settled by `execute_reserved`
    /// or `cancel_reservation` — [`RunTimeManager::bookkeeping_consistent`]
    /// counts them against the arena.
    reserved: BTreeMap<FunctionId, Rect>,
    next_id: FunctionId,
    recovery: ConfigMemory,
    /// Allocation strategy for incoming functions.
    pub strategy: Strategy,
    /// Mutation epoch: bumped on every arena-visible change (load,
    /// unload, relocation, defragmentation). Plans and summaries are
    /// stamped with it; a mismatch means they describe a stale layout.
    epoch: u64,
    /// Planning counters (interior mutability: the non-mutating planning
    /// API takes `&self`).
    stats: Cell<PlanStats>,
    /// Epoch-keyed cache of the fragmentation metrics.
    frag_cache: Cell<Option<(u64, FragMetrics)>>,
    /// Epoch-keyed cache of the routing summary.
    summary_cache: Cell<Option<DeviceSummary>>,
    /// Lazy cache of the whole compaction plan (the plan is itself
    /// epoch-stamped, so the stamp doubles as the cache key). Computing
    /// it costs a compaction planning pass, and most queries — routing
    /// summaries with the fleet trigger disabled — never need it; a
    /// `RefCell` (not a `Cell`) because the non-`Copy` move list must
    /// live here so a fleet trigger that already ranked devices by
    /// predicted gain can execute the winner's plan without planning
    /// the same cycle again.
    defrag_cache: RefCell<Option<DefragPlan>>,
}

// Compile-time `Send` pin: a manager moves with its shard to whatever
// thread owns the fleet. The manager's interior mutability
// (`Cell`/`RefCell` caches for the non-mutating planning API) is `Send`
// but deliberately not `Sync`: a manager belongs to exactly one shard
// and crosses threads only whole. A field that broke `Send` (an `Rc`,
// a raw pointer) would fail this assertion at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RunTimeManager>();
};

impl RunTimeManager {
    /// A manager over a blank device.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtm_core::RunTimeManager;
    /// use rtm_fpga::part::Part;
    ///
    /// let mgr = RunTimeManager::new(Part::Xcv50);
    /// assert_eq!(mgr.status().functions, 0);
    /// assert_eq!(mgr.fragmentation().utilisation(), 0.0);
    /// ```
    pub fn new(part: Part) -> Self {
        let dev = Device::new(part);
        let arena = TaskArena::new(dev.bounds());
        let recovery = dev.config().snapshot();
        RunTimeManager {
            dev,
            arena,
            functions: BTreeMap::new(),
            reserved: BTreeMap::new(),
            next_id: 1,
            recovery,
            strategy: Strategy::BestFit,
            epoch: 0,
            stats: Cell::new(PlanStats::default()),
            frag_cache: Cell::new(None),
            summary_cache: Cell::new(None),
            defrag_cache: RefCell::new(None),
        }
    }

    /// The current mutation epoch. Every arena-visible change (load,
    /// unload, relocation, executed defragmentation) advances it; plans
    /// stamped with an older epoch are stale and will be re-planned
    /// instead of executed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime planning counters (see [`PlanStats`]). A service takes
    /// per-run deltas with [`PlanStats::delta_since`].
    pub fn plan_stats(&self) -> PlanStats {
        self.stats.get()
    }

    /// Advances the mutation epoch. Every arena-visible mutation must
    /// route through here — the epoch is the cache key for every plan,
    /// summary and fragmentation sample, so a mutation that skipped the
    /// bump would let a stale plan execute. `rtm-lint`'s
    /// epoch-discipline rule pins this mechanically: arena mutators in
    /// this file must call `bump_epoch`, and nothing else may write
    /// `self.epoch`.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    fn bump_stats(&self, f: impl FnOnce(&mut PlanStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Folds router work into the planning counters.
    fn count_routing(&self, work: RouteStats) {
        self.bump_stats(|s| {
            s.route_searches += work.searches;
            s.route_nodes_expanded += work.nodes_expanded;
        });
    }

    /// The device (read-only).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Loaded functions.
    pub fn functions(&self) -> impl Iterator<Item = (FunctionId, &LoadedFunction)> {
        self.functions.iter().map(|(id, f)| (*id, f))
    }

    /// One loaded function.
    pub fn function(&self, id: FunctionId) -> Option<&LoadedFunction> {
        self.functions.get(&id)
    }

    /// Current fragmentation metrics (epoch-cached: recomputed only
    /// after a mutation, so event loops can sample freely).
    pub fn fragmentation(&self) -> FragMetrics {
        if let Some((epoch, m)) = self.frag_cache.get() {
            if epoch == self.epoch {
                return m;
            }
        }
        let m = self.arena.fragmentation();
        self.frag_cache.set(Some((self.epoch, m)));
        m
    }

    /// The cheap routing summary of this device — fragmentation metrics
    /// stamped with the mutation epoch. Cached — repeated calls between
    /// mutations cost nothing (counted in [`PlanStats::summary_hits`]),
    /// which is what lets a fleet router consult every device on every
    /// arrival without re-measuring the world each time. The predicted
    /// defragmentation gain is served separately (and lazily) by
    /// [`RunTimeManager::predicted_defrag_gain`], because it costs a
    /// compaction planning pass the routing path never needs.
    pub fn summary(&self) -> DeviceSummary {
        if let Some(s) = self.summary_cache.get() {
            if s.epoch == self.epoch {
                self.bump_stats(|st| st.summary_hits += 1);
                return s;
            }
        }
        self.bump_stats(|st| st.summary_misses += 1);
        let s = DeviceSummary {
            epoch: self.epoch,
            frag: self.fragmentation(),
        };
        self.summary_cache.set(Some(s));
        s
    }

    /// Plans — without executing anything — the rearrangement that
    /// [`RunTimeManager::load`] would run to free a `rows`×`cols`
    /// region: an empty plan when the request fits as-is, a move list
    /// when rearrangement would be needed, `None` when even compaction
    /// cannot help. The returned [`RoomPlan`] is epoch-stamped: hand it
    /// to [`RunTimeManager::load_with_plan`] and the load executes it
    /// without planning again.
    pub fn plan_room(&self, rows: u16, cols: u16) -> Option<RoomPlan> {
        self.bump_stats(|s| s.make_room_calls += 1);
        let moves = make_room(&self.arena, rows, cols)?;
        Some(RoomPlan {
            epoch: self.epoch,
            rows,
            cols,
            moves,
        })
    }

    /// Revalidates a caller-held room plan: returns `plan` itself when
    /// its epoch *and shape* stamps still match (free), otherwise
    /// counts the invalidation and re-plans from the current layout.
    /// `None` when the device can no longer make room at all.
    pub fn revalidate_room_plan(
        &self,
        rows: u16,
        cols: u16,
        plan: Option<RoomPlan>,
    ) -> Option<RoomPlan> {
        match plan {
            Some(p) if p.valid_for(self.epoch, rows, cols) => Some(p),
            Some(_) => {
                self.bump_stats(|s| s.plans_invalidated += 1);
                self.plan_room(rows, cols)
            }
            None => self.plan_room(rows, cols),
        }
    }

    /// Plans — without executing anything — the ordered compaction,
    /// stamped with the current epoch and carrying its predicted
    /// metrics. [`RunTimeManager::defragment_with_plan`] executes it
    /// without re-planning while the stamp matches;
    /// [`DefragPlan::is_worthwhile`] is the gate `defragment` applies
    /// before moving anything.
    pub fn plan_defrag(&self) -> DefragPlan {
        self.bump_stats(|s| s.compaction_plans += 1);
        let before = self.fragmentation();
        let moves = plan_compaction(&self.arena);
        let predicted = if moves.is_empty() {
            before
        } else {
            predict_metrics(&self.arena, &moves)
        };
        DefragPlan {
            epoch: self.epoch,
            moves,
            before,
            predicted,
        }
    }

    /// The compaction plan [`RunTimeManager::defragment`] would execute
    /// now, answered from the lazy epoch-keyed plan cache: the first
    /// query after a mutation pays one compaction planning pass
    /// (exactly like [`RunTimeManager::predicted_defrag_gain`], which
    /// is a view of this cache), every later one is free. A fleet
    /// trigger that ranked devices by predicted gain hands this cached
    /// plan straight to [`RunTimeManager::defragment_with_plan`], so a
    /// fleet-triggered cycle is plan-free end to end — ranking already
    /// paid the only pass.
    pub fn cached_defrag_plan(&self) -> DefragPlan {
        if let Some(p) = self.defrag_cache.borrow().as_ref() {
            if p.epoch == self.epoch {
                return p.clone();
            }
        }
        let p = self.plan_defrag();
        *self.defrag_cache.borrow_mut() = Some(p.clone());
        p
    }

    /// Predicted drop of the fragmentation index if
    /// [`RunTimeManager::defragment`] ran now (zero when the cycle would
    /// be skipped as useless). Lazily epoch-cached in the same plan
    /// cache as [`RunTimeManager::cached_defrag_plan`]: the first query
    /// after a mutation pays one compaction planning pass, every later
    /// one reads the gain through the cache borrow (no plan clone) — so
    /// a fleet trigger ranking all devices costs one pass per *mutated*
    /// device per query wave, and routing paths that never ask pay
    /// nothing at all.
    pub fn predicted_defrag_gain(&self) -> f64 {
        if let Some(p) = self.defrag_cache.borrow().as_ref() {
            if p.epoch == self.epoch {
                return p.predicted_gain();
            }
        }
        let p = self.plan_defrag();
        let gain = p.predicted_gain();
        *self.defrag_cache.borrow_mut() = Some(p);
        gain
    }

    /// Previews — without executing anything — the full admission of a
    /// `rows`×`cols` function: the rearrangement [`RunTimeManager::load`]
    /// would execute, the region the allocator would then hand out, and
    /// the fragmentation metrics the device would be left with. `None`
    /// when even compaction cannot make room.
    ///
    /// This is the cross-device routing primitive: a fleet-level router
    /// can ask every device "what would admitting this cost you and what
    /// state would it leave you in" and pick the device whose
    /// post-placement fragmentation is lowest.
    pub fn preview_admission(&self, rows: u16, cols: u16) -> Option<AdmissionPreview> {
        self.bump_stats(|s| {
            s.previews += 1;
            s.make_room_calls += 1;
        });
        let moves = make_room(&self.arena, rows, cols)?;
        let mut scratch = self.arena.clone();
        for mv in &moves {
            scratch.relocate(mv.id, mv.to).ok()?;
        }
        // An id no real function can hold: the preview allocation exists
        // only on the scratch copy.
        let region = scratch
            .allocate(FunctionId::MAX, rows, cols, self.strategy)
            .ok()?;
        Some(AdmissionPreview {
            plan: RoomPlan {
                epoch: self.epoch,
                rows,
                cols,
                moves,
            },
            region,
            after: scratch.fragmentation(),
        })
    }

    /// Fragmentation metrics this device would show if `id` were
    /// extracted (computed on a scratch copy, nothing mutates). `None`
    /// for unknown ids. This is the rebalancing planner's scoring
    /// primitive: the difference to the current metrics, per CLB of the
    /// function, says how much comb-repair one migration buys.
    pub fn preview_release(&self, id: FunctionId) -> Option<FragMetrics> {
        let mut scratch = self.arena.clone();
        scratch.release(id).ok()?;
        Some(scratch.fragmentation())
    }

    /// Plans — without executing anything — the migration of resident
    /// function `id` from this manager onto `target`: the returned
    /// [`MigrationPlan`] carries this manager's epoch stamp and the
    /// target's epoch-stamped [`RoomPlan`] for the function's shape.
    /// `None` when `id` is unknown or the target cannot make room even
    /// with compaction.
    pub fn plan_migration(&self, id: FunctionId, target: &RunTimeManager) -> Option<MigrationPlan> {
        let region = self.arena.task_rect(id)?;
        let room = target.plan_room(region.rows, region.cols)?;
        Some(MigrationPlan {
            src_epoch: self.epoch,
            id,
            rows: region.rows,
            cols: region.cols,
            room,
        })
    }

    /// True while `plan` is still executable on this (source) manager:
    /// the epoch stamp matches and the function still holds the shape
    /// the plan was computed for. A stale plan must be re-planned,
    /// never executed — its geometry (and the target's room plan)
    /// describe a layout that no longer exists.
    pub fn migration_plan_valid(&self, plan: &MigrationPlan) -> bool {
        plan.src_epoch == self.epoch
            && self
                .arena
                .task_rect(plan.id)
                .map(|r| (r.rows, r.cols) == (plan.rows, plan.cols))
                .unwrap_or(false)
    }

    /// Snapshots resident function `id` and removes it from this
    /// device: the outbound half of a cross-device migration. The
    /// returned [`ExtractedFunction`] carries the design, the live
    /// storage state, the source implementation, and a pre-extraction
    /// configuration checkpoint — enough to re-implement the function
    /// on another manager ([`RunTimeManager::readmit_function`]) or to
    /// roll this device back exactly
    /// ([`RunTimeManager::restore_function`]) if the readmission fails.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Place`] for unknown ids; device errors from
    /// the teardown leave the same state an [`RunTimeManager::unload`]
    /// failure would.
    pub fn extract_function(&mut self, id: FunctionId) -> Result<ExtractedFunction, CoreError> {
        let f = self
            .functions
            .get(&id)
            .ok_or(CoreError::Place(rtm_place::PlaceError::UnknownTask { id }))?;
        let pre_config = self.dev.config().snapshot();
        let mut states = Vec::with_capacity(f.design.cells.len());
        for (i, cell) in f.design.cells.iter().enumerate() {
            let loc = f.placed.cell_loc(i);
            states.push(if cell.storage.is_sequential() {
                self.dev.cell_state(loc.0, loc.1)?
            } else {
                false
            });
        }
        let snapshot = ExtractedFunction {
            id,
            design: f.design.clone(),
            region: f.region,
            placed: f.placed.clone(),
            states,
            pre_config,
            post_epoch: 0, // stamped below, after the teardown
        };
        self.unload(id)?;
        Ok(ExtractedFunction {
            post_epoch: self.epoch,
            ..snapshot
        })
    }

    /// Re-implements an extracted function on this device — the inbound
    /// half of a cross-device migration — through the plan-reuse
    /// pipeline: `plan` is validated exactly like any caller-held
    /// [`RoomPlan`] (a stale or wrong-shape plan is counted invalidated
    /// and re-planned, never executed), the load executes it, and the
    /// captured storage-element state is written into the new cells so
    /// the function *resumes* rather than restarting.
    ///
    /// # Errors
    ///
    /// As [`RunTimeManager::load`]; a failed implementation rolls this
    /// device back to its checkpoint and leaves no orphan state, so the
    /// caller can still [`RunTimeManager::restore_function`] the
    /// extracted snapshot on the source.
    pub fn readmit_function(
        &mut self,
        f: &ExtractedFunction,
        plan: &RoomPlan,
        observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<LoadReport, CoreError> {
        let (rows, cols) = f.shape();
        let lr = self.load_with_plan(&f.design, rows, cols, plan, observer)?;
        // Carry the live state over: the paper's relocation never
        // resets a moved cell, and neither does a migration.
        let locs: Vec<CellLoc> = self
            .functions
            .get(&lr.id)
            .ok_or_else(|| CoreError::DesignMismatch {
                detail: format!(
                    "function {} missing from the table right after its load",
                    lr.id
                ),
            })?
            .placed
            .placement
            .cell_locs
            .clone();
        for (i, cell) in f.design.cells.iter().enumerate() {
            if cell.storage.is_sequential() {
                let loc = locs[i];
                self.dev.set_cell_state(loc.0, loc.1, f.states[i])?;
            }
        }
        self.checkpoint();
        Ok(lr)
    }

    /// Puts an extracted function back onto this (source) device by
    /// rolling the configuration back to the extraction checkpoint —
    /// the recovery path of a failed migration. The rollback is
    /// frame-exact: after it, the device configuration equals the
    /// pre-extraction snapshot bit for bit, the region is re-claimed in
    /// the arena, and the function table entry is reinstated (under a
    /// fresh id). Returns the new id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DesignMismatch`] if this manager mutated
    /// since the extraction (the checkpoint no longer composes with the
    /// device state) or belongs to a different part, and
    /// [`CoreError::Place`] if the original region is no longer free.
    pub fn restore_function(&mut self, f: &ExtractedFunction) -> Result<FunctionId, CoreError> {
        if f.pre_config.part() != self.dev.part() {
            return Err(CoreError::DesignMismatch {
                detail: format!(
                    "restore of a {} extraction onto a {} device",
                    f.pre_config.part(),
                    self.dev.part()
                ),
            });
        }
        if self.epoch != f.post_epoch {
            return Err(CoreError::DesignMismatch {
                detail: "source mutated since extraction; checkpoint is stale".into(),
            });
        }
        let id = self.next_id;
        self.arena.allocate_at(id, f.region)?;
        self.bump_epoch();
        for addr in self.dev.config().diff_frames(&f.pre_config) {
            let frame = f.pre_config.read_frame(addr)?;
            self.dev.write_frame(addr, frame)?;
        }
        // The frames bring the routing back; the unload released its holds.
        f.placed.netdb.hold_all(&mut self.dev);
        self.functions.insert(
            id,
            LoadedFunction {
                design: f.design.clone(),
                region: f.region,
                placed: f.placed.clone(),
            },
        );
        self.next_id += 1;
        self.checkpoint();
        Ok(id)
    }

    /// True while the function table, the area bookkeeping and the
    /// device agree: same ids, same regions, every placed cell slot of
    /// every function configured on the device, and each routing node's
    /// hold count on the device equal to the number of the functions'
    /// live nets that hold it. The invariant every migration path
    /// (extract, readmit, restore, failure rollback) must preserve —
    /// orphan arena tasks poison compaction plans, orphan cells and
    /// holds poison later loads.
    pub fn bookkeeping_consistent(&self) -> bool {
        let tasks = self.arena.tasks();
        if tasks.len() != self.functions.len() + self.reserved.len() {
            return false;
        }
        // A seated reservation is an arena task without a function-table
        // entry (its design is not implemented yet): it must hold
        // exactly the region its ticket reserved, and nothing else.
        if !self
            .reserved
            .iter()
            .all(|(id, region)| tasks.get(id) == Some(region) && !self.functions.contains_key(id))
        {
            return false;
        }
        let mut holds = BTreeMap::new();
        for f in self.functions.values() {
            for node in f.placed.netdb.nets().flat_map(|(_, net)| net.nodes()) {
                *holds.entry(node).or_insert(0) += 1;
            }
        }
        holds == self.dev.held_nodes().collect()
            && self.functions.iter().all(|(id, f)| {
                tasks.get(id) == Some(&f.region)
                    && f.placed.placement.cell_locs.iter().all(|loc| {
                        self.dev
                            .clb(loc.0)
                            .map(|clb| clb.cells[loc.1].is_used())
                            .unwrap_or(false)
                    })
            })
    }

    /// Runs a full defragmentation cycle: plans an ordered compaction
    /// (`rtm-place`'s [`plan_compaction`]) and executes every move with
    /// staged dynamic relocation — the moved functions keep running
    /// throughout, which is the paper's core claim. `observer` is
    /// invoked after every relocation step.
    ///
    /// # Errors
    ///
    /// Propagates engine errors if any cell move fails; the area
    /// bookkeeping of already-executed moves remains consistent.
    pub fn defragment(
        &mut self,
        observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<DefragReport, CoreError> {
        let plan = self.plan_defrag();
        self.execute_defrag(plan, observer)
    }

    /// Like [`RunTimeManager::defragment`], but executes a previously
    /// returned [`DefragPlan`] instead of planning again. The plan's
    /// epoch stamp is checked first: a stale plan (the layout mutated
    /// since it was computed) is *not* executed — it is counted in
    /// [`PlanStats::plans_invalidated`] and the cycle re-plans from the
    /// current layout. A valid plan is counted in
    /// [`PlanStats::plans_reused`] and costs no planning pass — this is
    /// how a fleet trigger that already ranked devices by predicted
    /// gain avoids paying for the winner's compaction plan twice.
    ///
    /// # Errors
    ///
    /// As [`RunTimeManager::defragment`].
    pub fn defragment_with_plan(
        &mut self,
        plan: &DefragPlan,
        observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<DefragReport, CoreError> {
        let plan = if plan.epoch == self.epoch {
            self.bump_stats(|s| s.plans_reused += 1);
            plan.clone()
        } else {
            self.bump_stats(|s| s.plans_invalidated += 1);
            self.plan_defrag()
        };
        self.execute_defrag(plan, observer)
    }

    /// Executes an epoch-valid compaction plan with staged dynamic
    /// relocation. Execute only plans predicted to lower the
    /// fragmentation index: ordered compaction always packs leftward,
    /// and on some layouts (the bursty trace showed 0.549 -> 0.549)
    /// that moves running functions without growing the largest free
    /// rectangle — pure reconfiguration traffic for nothing. Skipped
    /// cycles cause no device traffic and no checkpoint.
    fn execute_defrag(
        &mut self,
        plan: DefragPlan,
        mut observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<DefragReport, CoreError> {
        debug_assert_eq!(plan.epoch, self.epoch, "execute only validated plans");
        let before = plan.before;
        if !plan.is_worthwhile() {
            return Ok(DefragReport {
                moves: Vec::new(),
                relocations: Vec::new(),
                before,
                after: before,
            });
        }
        let mut relocations = Vec::new();
        for mv in &plan.moves {
            let reports = self.relocate_function_inner(mv.id, mv.to, &mut observer)?;
            relocations.extend(reports);
        }
        self.checkpoint();
        Ok(DefragReport {
            moves: plan.moves,
            relocations,
            before,
            after: self.fragmentation(),
        })
    }

    /// Loads a function into a `rows`×`cols` region, rearranging running
    /// functions if needed. Each executed move is performed with dynamic
    /// relocation; `observer` is invoked after every relocation step so a
    /// caller can keep simulations clocking.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtm_core::RunTimeManager;
    /// use rtm_fpga::part::Part;
    /// use rtm_netlist::{random::RandomCircuit, techmap::map_to_luts};
    ///
    /// let mut mgr = RunTimeManager::new(Part::Xcv200);
    /// let design = map_to_luts(&RandomCircuit::free_running(4, 10, 1).generate()).unwrap();
    /// let report = mgr.load(&design, 8, 8, |_, _, _| {}).unwrap();
    /// assert!(report.moves.is_empty(), "an empty device needs no rearrangement");
    /// assert_eq!(mgr.functions().count(), 1);
    /// mgr.unload(report.id).unwrap();
    /// assert_eq!(mgr.functions().count(), 0);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Place`] when even rearrangement cannot free a
    /// region, or implementation errors from placement/routing.
    pub fn load(
        &mut self,
        design: &MappedNetlist,
        rows: u16,
        cols: u16,
        observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<LoadReport, CoreError> {
        self.load_executing(design, rows, cols, None, observer)
    }

    /// Like [`RunTimeManager::load`], but executes a previously returned
    /// [`RoomPlan`] (from [`RunTimeManager::plan_room`] or
    /// [`RunTimeManager::preview_admission`]) instead of planning again.
    /// The plan's stamps are validated first: a stale plan — the layout
    /// mutated since it was computed — or a plan computed for a
    /// *different shape* than this request is never executed; it is
    /// counted in [`PlanStats::plans_invalidated`] and the load falls
    /// back to re-planning. A valid plan is counted in
    /// [`PlanStats::plans_reused`] and the load runs zero planning
    /// passes — collapsing the historical
    /// preview-then-plan-then-plan-again admission to one pass.
    ///
    /// # Errors
    ///
    /// As [`RunTimeManager::load`].
    pub fn load_with_plan(
        &mut self,
        design: &MappedNetlist,
        rows: u16,
        cols: u16,
        plan: &RoomPlan,
        observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<LoadReport, CoreError> {
        self.load_executing(design, rows, cols, Some(plan), observer)
    }

    /// The single-shot composition of the two-phase pipeline: seat a
    /// reservation (rearranging as `plan` says, or as a fresh plan
    /// does), implement the incoming function in it, and cancel the
    /// reservation right away if the implementation fails.
    fn load_executing(
        &mut self,
        design: &MappedNetlist,
        rows: u16,
        cols: u16,
        plan: Option<&RoomPlan>,
        mut observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<LoadReport, CoreError> {
        let ticket = self.seat_reservation(rows, cols, plan, &mut observer)?;
        let id = ticket.id;
        self.execute_reserved(design, ticket).inspect_err(|_| {
            // Single-shot callers get the historical contract: a failed
            // load leaves no reservation behind. (Two-phase callers keep
            // the reservation until they resolve the ticket, so both
            // admission modes observe the same arena at every step.)
            let _ = self.cancel_reservation(id);
        })
    }

    /// The decide half of the two-phase admission pipeline: validates
    /// `plan` exactly like [`RunTimeManager::load_with_plan`] (stale or
    /// wrong-shape plans are counted invalidated and re-planned),
    /// executes the rearrangement moves, and reserves an arena region
    /// for the incoming function — bumping the epoch and accounting the
    /// reservation in every metric — **without writing any cells, nets
    /// or frames**. The returned [`AdmissionTicket`] must be settled
    /// with [`RunTimeManager::execute_reserved`] or
    /// [`RunTimeManager::cancel_reservation`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Place`] when even rearrangement cannot free
    /// a region; relocation errors from executing the plan's moves.
    pub fn reserve_room(
        &mut self,
        rows: u16,
        cols: u16,
        plan: &RoomPlan,
        mut observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<AdmissionTicket, CoreError> {
        self.seat_reservation(rows, cols, Some(plan), &mut observer)
    }

    /// Takes the moves of `plan` if it is valid for this epoch and shape
    /// (counted reused), or plans them again (counted invalidated when a
    /// plan was given), executes them and seats the reservation.
    fn seat_reservation(
        &mut self,
        rows: u16,
        cols: u16,
        plan: Option<&RoomPlan>,
        observer: &mut impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<AdmissionTicket, CoreError> {
        let plan = match plan {
            Some(plan) if plan.valid_for(self.epoch, rows, cols) => {
                self.bump_stats(|s| s.plans_reused += 1);
                plan.moves.clone()
            }
            stale => {
                if stale.is_some() {
                    self.bump_stats(|s| s.plans_invalidated += 1);
                }
                self.bump_stats(|s| s.make_room_calls += 1);
                make_room(&self.arena, rows, cols).ok_or(CoreError::Place(
                    rtm_place::PlaceError::NoFit { rows, cols },
                ))?
            }
        };
        let mut relocations = Vec::new();
        for mv in &plan {
            let reports = self.relocate_function_inner(mv.id, mv.to, observer)?;
            relocations.extend(reports);
        }
        if !plan.is_empty() {
            // The executed moves are durable state even if the
            // implementation fails later: checkpoint them so a failure
            // rollback keeps the configuration consistent with the
            // bookkeeping.
            self.checkpoint();
        }
        let id = self.next_id;
        let region = self.arena.allocate(id, rows, cols, self.strategy)?;
        self.bump_epoch();
        self.next_id += 1;
        self.reserved.insert(id, region);
        Ok(AdmissionTicket {
            id,
            epoch: self.epoch,
            region,
            moves: plan,
            relocations,
        })
    }

    /// The execute half of the two-phase admission pipeline: implements
    /// `design` inside the region a previously seated
    /// [`AdmissionTicket`] reserved — placement, net routing,
    /// configuration frames — and promotes the reservation to a loaded
    /// function. This is the heavy, shard-local part: it mutates only
    /// this manager's device.
    ///
    /// # Errors
    ///
    /// Implementation errors (placement/routing congestion) restore the
    /// configuration checkpoint but **keep the arena reservation
    /// seated** — the caller resolves the failure and releases it with
    /// [`RunTimeManager::cancel_reservation`], so every observer of the
    /// arena sees the same layout whether execution was inline or
    /// deferred. Returns [`CoreError::Place`] for tickets this manager
    /// never seated (or already settled).
    pub fn execute_reserved(
        &mut self,
        design: &MappedNetlist,
        ticket: AdmissionTicket,
    ) -> Result<LoadReport, CoreError> {
        let id = ticket.id;
        let region = match self.reserved.get(&id) {
            Some(r) => *r,
            None => return Err(CoreError::Place(rtm_place::PlaceError::UnknownTask { id })),
        };
        let mut routed = RouteStats::default();
        let implemented = implement_counted(&mut self.dev, design, region, &mut routed);
        self.count_routing(routed);
        let placed = match implemented {
            Ok(placed) => placed,
            Err(e) => {
                // A failed implementation releases its nets but leaves
                // partly configured cells behind: restore the last
                // configuration checkpoint — the paper's recovery copy
                // doing exactly its job. The arena reservation stays
                // seated until the caller cancels it.
                self.recover()?;
                return Err(e.into());
            }
        };
        self.reserved.remove(&id);
        self.functions.insert(
            id,
            LoadedFunction {
                design: design.clone(),
                region,
                placed,
            },
        );
        self.checkpoint();
        Ok(LoadReport {
            id,
            region,
            moves: ticket.moves,
            relocations: ticket.relocations,
        })
    }

    /// Releases a seated reservation without implementing it — the
    /// failure/abandon path of the two-phase pipeline. The region
    /// returns to the free pool and the epoch advances (the arena
    /// changed shape).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Place`] for ids this manager never reserved
    /// (or already settled).
    pub fn cancel_reservation(&mut self, id: FunctionId) -> Result<(), CoreError> {
        if self.reserved.remove(&id).is_none() {
            return Err(CoreError::Place(rtm_place::PlaceError::UnknownTask { id }));
        }
        self.arena.release(id)?;
        self.bump_epoch();
        Ok(())
    }

    /// Unloads a function: releases its region, routing and cells.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Place`] for unknown ids.
    pub fn unload(&mut self, id: FunctionId) -> Result<(), CoreError> {
        let f = self
            .functions
            .remove(&id)
            .ok_or(CoreError::Place(rtm_place::PlaceError::UnknownTask { id }))?;
        self.arena.release(id)?;
        self.bump_epoch();
        let mut placed = f.placed;
        placed.netdb.remove_all(&mut self.dev);
        let all_locs: Vec<_> = placed
            .placement
            .cell_locs
            .iter()
            .chain(placed.placement.feed_locs.iter())
            .chain(placed.placement.tap_locs.iter())
            .copied()
            .collect();
        for loc in all_locs {
            self.dev
                .set_cell(loc.0, loc.1, rtm_fpga::cell::LogicCell::default())?;
            self.dev.set_cell_state(loc.0, loc.1, false)?;
        }
        self.checkpoint();
        Ok(())
    }

    /// Moves a whole running function to a new region (same shape) with
    /// staged, cell-by-cell dynamic relocation.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtm_core::RunTimeManager;
    /// use rtm_fpga::part::Part;
    /// use rtm_fpga::geom::{ClbCoord, Rect};
    /// use rtm_netlist::{random::RandomCircuit, techmap::map_to_luts};
    ///
    /// let mut mgr = RunTimeManager::new(Part::Xcv200);
    /// let design = map_to_luts(&RandomCircuit::free_running(4, 10, 2).generate()).unwrap();
    /// let loaded = mgr.load(&design, 8, 8, |_, _, _| {}).unwrap();
    /// let to = Rect::new(ClbCoord::new(18, 20), 8, 8);
    /// let reports = mgr.relocate_function(loaded.id, to, |_, _, _| {}).unwrap();
    /// assert!(!reports.is_empty(), "every placed cell was relocated live");
    /// assert_eq!(mgr.function(loaded.id).unwrap().region, to);
    /// ```
    ///
    /// # Errors
    ///
    /// Area errors if the target overlaps another function; engine errors
    /// if any cell move fails.
    pub fn relocate_function(
        &mut self,
        id: FunctionId,
        to: Rect,
        mut observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<Vec<RelocationReport>, CoreError> {
        let reports = self.relocate_function_inner(id, to, &mut observer)?;
        self.checkpoint();
        Ok(reports)
    }

    fn relocate_function_inner(
        &mut self,
        id: FunctionId,
        to: Rect,
        observer: &mut impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<Vec<RelocationReport>, CoreError> {
        let from = self
            .arena
            .task_rect(id)
            .ok_or(CoreError::Place(rtm_place::PlaceError::UnknownTask { id }))?;
        // Area bookkeeping first: rejects overlap with other functions.
        self.arena.relocate(id, to)?;
        self.bump_epoch();

        let f = self
            .functions
            .get_mut(&id)
            .ok_or_else(|| CoreError::DesignMismatch {
                detail: format!("function {id} tracked by the arena but not the table"),
            })?;
        let routed_before = f.placed.netdb.route_stats();
        let dr = to.origin.row as i32 - from.origin.row as i32;
        let dc = to.origin.col as i32 - from.origin.col as i32;

        // Collect every slot to move (cells + feeds), ordered so that
        // slots furthest along the movement direction go first — their
        // destinations are never occupied by a not-yet-moved sibling
        // (memmove ordering).
        let mut slots: Vec<CellLoc> = Vec::new();
        slots.extend(f.placed.placement.cell_locs.iter().copied());
        slots.extend(f.placed.placement.feed_locs.iter().copied());
        slots.extend(f.placed.placement.tap_locs.iter().copied());
        slots.sort_by_key(|loc| {
            -(loc.0.col as i64 * dc.signum() as i64 + loc.0.row as i64 * dr.signum() as i64)
        });

        let mut reports = Vec::new();
        for src in slots {
            let dst_tile = src
                .0
                .offset(dr, dc)
                .ok_or_else(|| CoreError::DesignMismatch {
                    detail: format!("translated tile for {} out of bounds", src.0),
                })?;
            let dst = (dst_tile, src.1);
            if dst == src {
                continue;
            }
            let opts = RelocationOptions::default();
            match relocate_cell(
                &mut self.dev,
                &mut f.placed,
                src,
                dst,
                &opts,
                &mut *observer,
            ) {
                Ok(report) => reports.push(report),
                Err(e) => {
                    let routed = f.placed.netdb.route_stats().delta_since(routed_before);
                    self.count_routing(routed);
                    return Err(e);
                }
            }
        }
        f.region = to;
        let routed = f.placed.netdb.route_stats().delta_since(routed_before);
        self.count_routing(routed);
        Ok(reports)
    }

    /// Relocates a single cell of a loaded function — the tool's
    /// coordinate-pair input mode (§4: "providing the co-ordinates —
    /// source and destination — of the CLB to be relocated").
    ///
    /// # Errors
    ///
    /// Unknown ids, busy destinations and engine errors.
    pub fn relocate_cell_of(
        &mut self,
        id: FunctionId,
        src: CellLoc,
        dst: CellLoc,
        mut observer: impl FnMut(&Device, &PlacedDesign, &StepRecord),
    ) -> Result<RelocationReport, CoreError> {
        if !self
            .arena
            .task_rect(id)
            .map(|r| r.contains(dst.0))
            .unwrap_or(false)
        {
            // The destination must stay within the function's region so
            // the area bookkeeping remains truthful.
            return Err(CoreError::DestinationBusy {
                tile: dst.0,
                cell: dst.1,
            });
        }
        let f = self
            .functions
            .get_mut(&id)
            .ok_or(CoreError::Place(rtm_place::PlaceError::UnknownTask { id }))?;
        let routed_before = f.placed.netdb.route_stats();
        let result = relocate_cell(
            &mut self.dev,
            &mut f.placed,
            src,
            dst,
            &RelocationOptions::default(),
            &mut observer,
        );
        let routed = f.placed.netdb.route_stats().delta_since(routed_before);
        self.count_routing(routed);
        let report = result?;
        self.checkpoint();
        Ok(report)
    }

    /// Takes a fresh recovery snapshot of the configuration ("the program
    /// always keeps a complete copy of the current configuration",
    /// paper §4).
    pub fn checkpoint(&mut self) {
        self.recovery = self.dev.config().snapshot();
    }

    /// Restores the last checkpoint into the device (system recovery).
    ///
    /// # Errors
    ///
    /// Propagates frame-write errors (cannot occur for a matching part).
    pub fn recover(&mut self) -> Result<usize, CoreError> {
        let frames = self.dev.config().diff_frames(&self.recovery);
        let n = frames.len();
        for addr in frames {
            let frame = self.recovery.read_frame(addr)?;
            self.dev.write_frame(addr, frame)?;
        }
        Ok(n)
    }

    /// One-line status for the CLI.
    pub fn status(&self) -> ManagerStatus {
        ManagerStatus {
            part: self.dev.part(),
            functions: self.functions.len(),
            frag: self.fragmentation(),
        }
    }
}

/// Status summary of the manager.
#[derive(Debug, Clone, Copy)]
pub struct ManagerStatus {
    /// The device part.
    pub part: Part,
    /// Number of resident functions.
    pub functions: usize,
    /// Fragmentation metrics.
    pub frag: FragMetrics,
}

impl fmt::Display for ManagerStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} functions | {}",
            self.part, self.functions, self.frag
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_fpga::geom::ClbCoord;
    use rtm_netlist::random::RandomCircuit;
    use rtm_netlist::techmap::map_to_luts;

    fn small_design(seed: u64) -> MappedNetlist {
        map_to_luts(&RandomCircuit::free_running(4, 10, seed).generate()).unwrap()
    }

    #[test]
    fn load_and_unload_roundtrip() {
        let mut mgr = RunTimeManager::new(Part::Xcv200);
        let d = small_design(1);
        let r = mgr.load(&d, 8, 8, |_, _, _| {}).unwrap();
        assert!(r.moves.is_empty());
        assert_eq!(mgr.functions().count(), 1);
        assert!(mgr.fragmentation().utilisation() > 0.0);
        mgr.unload(r.id).unwrap();
        assert_eq!(mgr.functions().count(), 0);
        // Device fully cleaned: everything unconfigured again.
        assert_eq!(mgr.device().pips().count(), 0);
        let used = mgr.device().used_in(mgr.device().bounds());
        assert!(used.is_empty(), "leftover cells: {used:?}");
    }

    #[test]
    fn failed_load_leaves_no_orphan_state() {
        let mut mgr = RunTimeManager::new(Part::Xcv50);
        // Far more LUTs than a 2x2 region can hold: placement fails
        // after the region was reserved.
        let big = map_to_luts(&RandomCircuit::free_running(4, 30, 77).generate()).unwrap();
        assert!(mgr.load(&big, 2, 2, |_, _, _| {}).is_err());
        // The failure must not leak the area reservation (an orphaned
        // arena task would poison every later compaction plan and crash
        // `defragment`) nor any partial configuration.
        assert_eq!(mgr.fragmentation().utilisation(), 0.0);
        assert!(mgr.device().used_in(mgr.device().bounds()).is_empty());
        // The manager keeps working normally.
        mgr.defragment(|_, _, _| {}).unwrap();
        let d = small_design(1);
        let r = mgr.load(&d, 8, 8, |_, _, _| {}).unwrap();
        mgr.unload(r.id).unwrap();
        assert_eq!(mgr.functions().count(), 0);
    }

    #[test]
    fn failed_routing_releases_its_nets() {
        let mut mgr = RunTimeManager::new(Part::Xcv50);
        let first = map_to_luts(&RandomCircuit::free_running(4, 10, 1).generate()).unwrap();
        mgr.load(&first, 4, 4, |_, _, _| {}).unwrap();
        let held: BTreeMap<_, _> = mgr.device().held_nodes().collect();
        assert_eq!(held.values().map(|n| u32::from(*n)).sum::<u32>(), 190);
        // The second design's cells fit its region, but one of its nets
        // cannot be wired through it: routing fails, not placement.
        let second = map_to_luts(&RandomCircuit::free_running(4, 12, 0).generate()).unwrap();
        let err = mgr.load(&second, 2, 3, |_, _, _| {}).unwrap_err();
        assert!(
            matches!(err, CoreError::Sim(rtm_sim::SimError::Unroutable { .. })),
            "{err}"
        );
        // The nets it did route are released with it.
        assert_eq!(mgr.device().held_nodes().collect::<BTreeMap<_, _>>(), held);
        assert_eq!(mgr.functions().count(), 1);
        assert!(mgr.bookkeeping_consistent());
    }

    #[test]
    fn unknown_function_errors() {
        let mut mgr = RunTimeManager::new(Part::Xcv200);
        assert!(mgr.unload(42).is_err());
        assert!(mgr
            .relocate_function(42, Rect::new(ClbCoord::new(0, 0), 2, 2), |_, _, _| {})
            .is_err());
    }

    #[test]
    fn relocate_function_translates_every_cell() {
        let mut mgr = RunTimeManager::new(Part::Xcv200);
        let d = small_design(2);
        let r = mgr.load(&d, 8, 8, |_, _, _| {}).unwrap();
        let from = r.region;
        let to = Rect::new(ClbCoord::new(18, 20), from.rows, from.cols);
        let reports = mgr.relocate_function(r.id, to, |_, _, _| {}).unwrap();
        assert!(!reports.is_empty());
        let f = mgr.function(r.id).unwrap();
        assert_eq!(f.region, to);
        for loc in f
            .placed
            .placement
            .cell_locs
            .iter()
            .chain(f.placed.placement.feed_locs.iter())
        {
            assert!(to.contains(loc.0), "{} escaped the target region", loc.0);
        }
        // The old region is fully clean.
        assert!(mgr.device().used_in(from).is_empty());
    }

    #[test]
    fn loads_and_relocations_count_route_work() {
        let mut mgr = RunTimeManager::new(Part::Xcv200);
        let d = small_design(2);
        let r = mgr.load(&d, 8, 8, |_, _, _| {}).unwrap();
        let loaded = mgr.plan_stats();
        let f = mgr.function(r.id).unwrap();
        assert_eq!(loaded.route_searches, f.placed.netdb.route_stats().searches);
        assert_eq!(
            loaded.route_nodes_expanded,
            f.placed.netdb.route_stats().nodes_expanded
        );
        assert!(loaded.route_searches > 0);
        let to = Rect::new(ClbCoord::new(18, 20), r.region.rows, r.region.cols);
        mgr.relocate_function(r.id, to, |_, _, _| {}).unwrap();
        let moved = mgr.plan_stats().delta_since(loaded);
        assert!(moved.route_searches > 0, "relocation re-routes nets");
        assert!(moved.route_nodes_expanded >= moved.route_searches);
        // Unloading tears nets down without searching.
        let before_unload = mgr.plan_stats();
        mgr.unload(r.id).unwrap();
        assert_eq!(mgr.plan_stats(), before_unload);
    }

    #[test]
    fn overlapping_function_move_with_sliding_overlap() {
        let mut mgr = RunTimeManager::new(Part::Xcv200);
        let d = small_design(3);
        let r = mgr.load(&d, 8, 8, |_, _, _| {}).unwrap();
        let from = r.region;
        // Slide by 3 columns (direction chosen to stay on the device):
        // overlapping source/destination.
        let new_col = if from.origin.col >= 3 {
            from.origin.col - 3
        } else {
            from.origin.col + 3
        };
        let to = Rect::new(
            ClbCoord::new(from.origin.row, new_col),
            from.rows,
            from.cols,
        );
        mgr.relocate_function(r.id, to, |_, _, _| {}).unwrap();
        assert_eq!(mgr.function(r.id).unwrap().region, to);
    }

    #[test]
    fn relocate_cell_of_moves_one_cell_within_region() {
        let mut mgr = RunTimeManager::new(Part::Xcv200);
        let d = small_design(9);
        let r = mgr.load(&d, 10, 10, |_, _, _| {}).unwrap();
        let f = mgr.function(r.id).unwrap();
        let src = f.placed.placement.cell_locs[0];
        // A free slot inside the function's own region.
        let dst = crate::relocation::find_aux_sites(mgr.device(), src.0, 1, &[src]).unwrap()[0];
        assert!(r.region.contains(dst.0), "aux search stays near src");
        let report = mgr.relocate_cell_of(r.id, src, dst, |_, _, _| {}).unwrap();
        assert_eq!(report.src, src);
        assert_eq!(report.dst, dst);
        assert_eq!(
            mgr.function(r.id).unwrap().placed.placement.cell_locs[0],
            dst
        );

        // A destination outside the region is refused.
        let outside_tile = mgr
            .device()
            .bounds()
            .iter()
            .find(|t| !r.region.contains(*t))
            .expect("device larger than the region");
        assert!(matches!(
            mgr.relocate_cell_of(r.id, dst, (outside_tile, 0), |_, _, _| {}),
            Err(CoreError::DestinationBusy { .. })
        ));
    }

    #[test]
    fn recovery_restores_configuration() {
        let mut mgr = RunTimeManager::new(Part::Xcv200);
        let d = small_design(4);
        mgr.load(&d, 8, 8, |_, _, _| {}).unwrap();
        let before = mgr.device().config().snapshot();
        // Vandalise the device outside the manager's knowledge.
        let mut clb = *mgr.device().clb(ClbCoord::new(0, 0)).unwrap();
        clb.cells[0].lut = rtm_fpga::lut::Lut::constant(true);
        mgr.dev.set_clb(ClbCoord::new(0, 0), clb).unwrap();
        assert!(!mgr.device().config().diff_frames(&before).is_empty());
        let restored = mgr.recover().unwrap();
        assert!(restored > 0);
        assert!(mgr.device().config().diff_frames(&before).is_empty());
    }

    #[test]
    fn defragment_consolidates_free_space() {
        let mut mgr = RunTimeManager::new(Part::Xcv50); // 16x24
        let d1 = small_design(12);
        let d2 = small_design(13);
        let a = mgr.load(&d1, 16, 6, |_, _, _| {}).unwrap();
        let b = mgr.load(&d2, 16, 6, |_, _, _| {}).unwrap();
        // Strand the functions so the free space splits into two gaps.
        mgr.relocate_function(a.id, Rect::new(ClbCoord::new(0, 18), 16, 6), |_, _, _| {})
            .unwrap();
        mgr.relocate_function(b.id, Rect::new(ClbCoord::new(0, 6), 16, 6), |_, _, _| {})
            .unwrap();
        let before = mgr.fragmentation();
        assert!(before.exceeds(0.4), "setup must fragment: {before}");
        let planned = mgr.plan_defrag();
        assert!(planned.is_worthwhile());
        assert!(planned.predicted_gain() > 0.0);
        let report = mgr.defragment(|_, _, _| {}).unwrap();
        assert_eq!(report.moves, planned.moves(), "plan matches execution");
        assert!(!report.moves.is_empty());
        assert!(report.frames_total() > 0);
        assert!(
            report.improvement() > 0.0,
            "compaction must reduce fragmentation: {report}"
        );
        assert_eq!(report.after.fragmentation(), 0.0, "one free rectangle");
        // Both functions still resident, regions disjoint.
        assert_eq!(mgr.functions().count(), 2);
    }

    #[test]
    fn defragment_skips_cycles_with_no_predicted_improvement() {
        let mut mgr = RunTimeManager::new(Part::Xcv50); // 16x24
        let a = mgr.load(&small_design(20), 16, 4, |_, _, _| {}).unwrap();
        let b = mgr.load(&small_design(21), 16, 8, |_, _, _| {}).unwrap();
        mgr.relocate_function(a.id, Rect::new(ClbCoord::new(0, 0), 16, 4), |_, _, _| {})
            .unwrap();
        mgr.relocate_function(b.id, Rect::new(ClbCoord::new(0, 16), 16, 8), |_, _, _| {})
            .unwrap();
        // Free space (cols 4-15) is already one rectangle, yet ordered
        // compaction still wants to slide b leftward: 128 CLBs of
        // relocation traffic with zero predicted improvement.
        let before = mgr.fragmentation();
        assert_eq!(before.fragmentation(), 0.0);
        assert!(
            !mgr.plan_defrag().moves().is_empty(),
            "left-pack plans a move"
        );
        assert_eq!(mgr.predicted_defrag_gain(), 0.0);

        let report = mgr.defragment(|_, _, _| {}).unwrap();
        assert!(report.moves.is_empty(), "useless cycle must be skipped");
        assert!(report.relocations.is_empty());
        assert_eq!(report.before, report.after);
        // Nothing moved on the device.
        assert_eq!(mgr.function(b.id).unwrap().region.origin.col, 16);
    }

    #[test]
    fn preview_admission_predicts_without_mutating() {
        let mut mgr = RunTimeManager::new(Part::Xcv50);
        let r = mgr.load(&small_design(14), 16, 6, |_, _, _| {}).unwrap();
        mgr.relocate_function(r.id, Rect::new(ClbCoord::new(0, 9), 16, 6), |_, _, _| {})
            .unwrap();
        // A 16x12 request needs the stranded function out of the middle.
        let p = mgr.preview_admission(16, 12).expect("satisfiable");
        assert!(!p.moves().is_empty());
        assert_eq!(p.plan.epoch(), mgr.epoch(), "plan stamped at current epoch");
        assert!(p.cells_moved() > 0);
        assert_eq!((p.region.rows, p.region.cols), (16, 12));
        assert!(
            p.after.utilisation() > mgr.fragmentation().utilisation(),
            "prediction includes the incoming function"
        );
        // Nothing actually happened.
        assert_eq!(mgr.function(r.id).unwrap().region.origin.col, 9);
        assert_eq!(mgr.functions().count(), 1);
        // A fitting request previews with an empty plan; an impossible
        // one with None.
        assert!(mgr.preview_admission(4, 4).unwrap().moves().is_empty());
        assert!(mgr.preview_admission(16, 24).is_none());
    }

    #[test]
    fn plan_room_previews_load_rearrangement() {
        let mut mgr = RunTimeManager::new(Part::Xcv50);
        let d = small_design(14);
        let r = mgr.load(&d, 16, 6, |_, _, _| {}).unwrap();
        mgr.relocate_function(r.id, Rect::new(ClbCoord::new(0, 9), 16, 6), |_, _, _| {})
            .unwrap();
        // A 16x12 request needs the stranded function out of the middle.
        let plan = mgr.plan_room(16, 12).expect("satisfiable");
        assert!(!plan.is_empty());
        // Planning must not have changed any state.
        assert_eq!(mgr.function(r.id).unwrap().region.origin.col, 9);
        // An impossible request is reported as such.
        assert!(mgr.plan_room(16, 24).is_none());
    }

    #[test]
    fn load_rearranges_when_fragmented() {
        let mut mgr = RunTimeManager::new(Part::Xcv50); // 16x24
                                                        // Two 16x6 functions arranged to leave two 6-column gaps.
        let d1 = small_design(5);
        let a = mgr.load(&d1, 16, 6, |_, _, _| {}).unwrap();
        let d2 = small_design(6);
        let b = mgr.load(&d2, 16, 6, |_, _, _| {}).unwrap();
        mgr.relocate_function(a.id, Rect::new(ClbCoord::new(0, 18), 16, 6), |_, _, _| {})
            .unwrap();
        mgr.relocate_function(b.id, Rect::new(ClbCoord::new(0, 6), 16, 6), |_, _, _| {})
            .unwrap();
        // Free space: columns 0..6 and 12..18 — fragmented. A 16x10
        // request cannot fit in either gap, but fits after rearrangement.
        assert!(mgr.fragmentation().largest_rect < 160);
        let d3 = small_design(7);
        let r = mgr.load(&d3, 16, 10, |_, _, _| {}).unwrap();
        assert!(!r.moves.is_empty(), "rearrangement must have happened");
        assert_eq!(mgr.functions().count(), 3);
    }

    /// A comb-fragmented XCV50 whose 16x12 request needs rearrangement.
    fn fragmented_mgr() -> (RunTimeManager, FunctionId) {
        let mut mgr = RunTimeManager::new(Part::Xcv50);
        let r = mgr.load(&small_design(14), 16, 6, |_, _, _| {}).unwrap();
        mgr.relocate_function(r.id, Rect::new(ClbCoord::new(0, 9), 16, 6), |_, _, _| {})
            .unwrap();
        (mgr, r.id)
    }

    #[test]
    fn epoch_moves_with_every_arena_mutation() {
        let mut mgr = RunTimeManager::new(Part::Xcv200);
        let e0 = mgr.epoch();
        let r = mgr.load(&small_design(1), 8, 8, |_, _, _| {}).unwrap();
        let e1 = mgr.epoch();
        assert!(e1 > e0, "load allocates");
        mgr.relocate_function(r.id, Rect::new(ClbCoord::new(18, 20), 8, 8), |_, _, _| {})
            .unwrap();
        let e2 = mgr.epoch();
        assert!(e2 > e1, "relocation moves the arena task");
        mgr.unload(r.id).unwrap();
        assert!(mgr.epoch() > e2, "unload releases");
        // Pure planning never moves the epoch.
        let e3 = mgr.epoch();
        mgr.plan_room(4, 4);
        mgr.plan_defrag();
        mgr.preview_admission(4, 4);
        mgr.summary();
        assert_eq!(mgr.epoch(), e3);
    }

    #[test]
    fn load_with_plan_reuses_the_preview_without_replanning() {
        let (mut mgr, _) = fragmented_mgr();
        let base = mgr.plan_stats();
        let p = mgr.preview_admission(16, 12).expect("satisfiable");
        let d = small_design(15);
        let lr = mgr
            .load_with_plan(&d, 16, 12, &p.plan, |_, _, _| {})
            .unwrap();
        let delta = mgr.plan_stats().delta_since(base);
        assert_eq!(delta.make_room_calls, 1, "only the preview planned");
        assert_eq!(delta.previews, 1);
        assert_eq!(delta.plans_reused, 1);
        assert_eq!(delta.plans_invalidated, 0);
        assert_eq!(lr.moves, p.plan.moves(), "the preview's moves executed");
        assert_eq!(lr.region, p.region, "same allocator, same region");
        assert_eq!(
            mgr.fragmentation(),
            p.after,
            "predicted metrics match the executed outcome exactly"
        );
    }

    #[test]
    fn stale_plan_is_replanned_not_executed() {
        let (mut mgr, resident) = fragmented_mgr();
        let p = mgr.preview_admission(16, 12).expect("satisfiable");
        assert!(!p.moves().is_empty());
        // An interleaved unload bumps the epoch: the previewed plan now
        // describes a layout that no longer exists (its move would
        // shuffle a function that is gone).
        mgr.unload(resident).unwrap();
        assert_ne!(p.plan.epoch(), mgr.epoch());
        let base = mgr.plan_stats();
        let d = small_design(16);
        let lr = mgr
            .load_with_plan(&d, 16, 12, &p.plan, |_, _, _| {})
            .unwrap();
        let delta = mgr.plan_stats().delta_since(base);
        assert_eq!(delta.plans_invalidated, 1, "stale stamp detected");
        assert_eq!(delta.plans_reused, 0);
        assert_eq!(delta.make_room_calls, 1, "fell back to re-planning");
        // The re-planned load needed no moves at all: the device is
        // empty, so executing the stale plan would have been wrong twice.
        assert!(lr.moves.is_empty());
        assert_eq!(mgr.functions().count(), 1);
    }

    #[test]
    fn revalidate_room_plan_passes_fresh_and_replaces_stale() {
        let (mut mgr, resident) = fragmented_mgr();
        let fresh = mgr.plan_room(16, 12).expect("satisfiable");
        let same = mgr
            .revalidate_room_plan(16, 12, Some(fresh.clone()))
            .unwrap();
        assert_eq!(same, fresh, "valid plans pass through untouched");
        mgr.unload(resident).unwrap();
        let base = mgr.plan_stats();
        let replanned = mgr.revalidate_room_plan(16, 12, Some(fresh)).unwrap();
        assert_eq!(replanned.epoch(), mgr.epoch());
        assert!(replanned.is_empty(), "empty device needs no moves");
        let delta = mgr.plan_stats().delta_since(base);
        assert_eq!(delta.plans_invalidated, 1);
        assert_eq!(delta.make_room_calls, 1);
    }

    #[test]
    fn defragment_with_plan_reuses_and_detects_staleness() {
        let mut mgr = RunTimeManager::new(Part::Xcv50);
        let a = mgr.load(&small_design(12), 16, 6, |_, _, _| {}).unwrap();
        let b = mgr.load(&small_design(13), 16, 6, |_, _, _| {}).unwrap();
        mgr.relocate_function(a.id, Rect::new(ClbCoord::new(0, 18), 16, 6), |_, _, _| {})
            .unwrap();
        mgr.relocate_function(b.id, Rect::new(ClbCoord::new(0, 6), 16, 6), |_, _, _| {})
            .unwrap();
        let plan = mgr.plan_defrag();
        assert!(plan.is_worthwhile());
        let base = mgr.plan_stats();
        let report = mgr.defragment_with_plan(&plan, |_, _, _| {}).unwrap();
        let delta = mgr.plan_stats().delta_since(base);
        assert_eq!(report.moves, plan.moves());
        assert_eq!(delta.plans_reused, 1);
        assert_eq!(delta.compaction_plans, 0, "no re-planning");
        assert_eq!(report.after.fragmentation(), 0.0);

        // The executed cycle bumped the epoch: replaying the same plan
        // is detected as stale and re-planned (to a no-op here).
        let base = mgr.plan_stats();
        let again = mgr.defragment_with_plan(&plan, |_, _, _| {}).unwrap();
        let delta = mgr.plan_stats().delta_since(base);
        assert_eq!(delta.plans_invalidated, 1);
        assert_eq!(delta.compaction_plans, 1);
        assert!(again.moves.is_empty(), "compact layout: nothing to do");
    }

    #[test]
    fn summary_is_cached_per_epoch() {
        let mut mgr = RunTimeManager::new(Part::Xcv50);
        let base = mgr.plan_stats();
        let s1 = mgr.summary();
        let s2 = mgr.summary();
        assert_eq!(s1, s2);
        let delta = mgr.plan_stats().delta_since(base);
        assert_eq!(delta.summary_misses, 1);
        assert_eq!(delta.summary_hits, 1);
        assert_eq!(
            delta.compaction_plans, 0,
            "the routing summary never pays for a compaction plan"
        );

        let r = mgr.load(&small_design(3), 8, 8, |_, _, _| {}).unwrap();
        let s3 = mgr.summary();
        assert_ne!(s3.epoch, s1.epoch, "mutation invalidated the cache");
        assert!(s3.frag.utilisation() > 0.0);
        mgr.unload(r.id).unwrap();
        assert_eq!(mgr.summary().frag.utilisation(), 0.0);
    }

    #[test]
    fn defrag_gain_is_lazy_and_cached_per_epoch() {
        let mut mgr = RunTimeManager::new(Part::Xcv50);
        let r = mgr.load(&small_design(5), 8, 8, |_, _, _| {}).unwrap();
        let base = mgr.plan_stats();
        let g1 = mgr.predicted_defrag_gain();
        let g2 = mgr.predicted_defrag_gain();
        assert_eq!(g1, g2);
        let delta = mgr.plan_stats().delta_since(base);
        assert_eq!(delta.compaction_plans, 1, "first query plans, second hits");
        // A mutation invalidates the cached gain.
        mgr.unload(r.id).unwrap();
        let base = mgr.plan_stats();
        assert_eq!(mgr.predicted_defrag_gain(), 0.0, "empty device");
        assert_eq!(mgr.plan_stats().delta_since(base).compaction_plans, 1);
    }

    #[test]
    fn two_phase_reserve_execute_matches_single_shot_load() {
        let (mut mgr, _) = fragmented_mgr();
        let plan = mgr.plan_room(16, 12).expect("satisfiable");
        let base = mgr.plan_stats();
        let ticket = mgr.reserve_room(16, 12, &plan, |_, _, _| {}).unwrap();
        assert_eq!(
            mgr.plan_stats().delta_since(base).plans_reused,
            1,
            "reserve validates like load_with_plan"
        );
        assert!(!ticket.moves().is_empty(), "the comb needed rearrangement");
        assert_eq!(ticket.epoch(), mgr.epoch(), "stamped after the bump");
        // The reservation is visible to every arena observer...
        assert!(mgr.fragmentation().utilisation() > 0.3);
        assert!(mgr.bookkeeping_consistent());
        // ...but nothing was implemented yet: no nets, no new function.
        assert_eq!(mgr.functions().count(), 1);
        let d = small_design(40);
        let lr = mgr.execute_reserved(&d, ticket.clone()).unwrap();
        assert_eq!(lr.id, ticket.id());
        assert_eq!(lr.region, ticket.region());
        assert_eq!(mgr.functions().count(), 2);
        assert!(mgr.bookkeeping_consistent());
        // Settling the same ticket twice is refused.
        assert!(mgr.execute_reserved(&d, ticket).is_err());
    }

    #[test]
    fn failed_execute_keeps_the_reservation_until_cancelled() {
        let mut mgr = RunTimeManager::new(Part::Xcv50);
        let plan = mgr.plan_room(2, 2).expect("fits");
        let ticket = mgr.reserve_room(2, 2, &plan, |_, _, _| {}).unwrap();
        let id = ticket.id();
        // Far more LUTs than a 2x2 region can hold: implementation fails.
        let big = map_to_luts(&RandomCircuit::free_running(4, 30, 77).generate()).unwrap();
        assert!(mgr.execute_reserved(&big, ticket).is_err());
        // The device is clean, but the arena reservation is still seated
        // — deferred and inline executors must observe the same layout
        // until the caller resolves the failure.
        assert!(mgr.device().used_in(mgr.device().bounds()).is_empty());
        assert!(mgr.fragmentation().utilisation() > 0.0);
        assert!(mgr.bookkeeping_consistent());
        let epoch = mgr.epoch();
        mgr.cancel_reservation(id).unwrap();
        assert!(mgr.epoch() > epoch, "release is an arena mutation");
        assert_eq!(mgr.fragmentation().utilisation(), 0.0);
        assert!(mgr.bookkeeping_consistent());
        assert!(mgr.cancel_reservation(id).is_err(), "already settled");
        // The manager keeps working normally.
        let r = mgr.load(&small_design(1), 8, 8, |_, _, _| {}).unwrap();
        mgr.unload(r.id).unwrap();
    }

    #[test]
    fn wrong_shape_plan_is_invalidated_not_executed() {
        let (mut mgr, _) = fragmented_mgr();
        // Planned for 16x12; handed back for a 4x4 request at the SAME
        // epoch. Executing it would relocate a function for nothing
        // (and its moves only make room for the 16x12 shape).
        let p = mgr.preview_admission(16, 12).expect("satisfiable");
        assert!(!p.moves().is_empty());
        assert_eq!(p.plan.shape(), (16, 12));
        let base = mgr.plan_stats();
        let d = small_design(31);
        let lr = mgr.load_with_plan(&d, 4, 4, &p.plan, |_, _, _| {}).unwrap();
        let delta = mgr.plan_stats().delta_since(base);
        assert_eq!(delta.plans_invalidated, 1, "shape mismatch detected");
        assert_eq!(delta.plans_reused, 0);
        assert!(lr.moves.is_empty(), "a 4x4 fits without any rearrangement");
        // revalidate_room_plan applies the same shape check.
        let p2 = mgr.plan_room(16, 12).expect("still satisfiable");
        let revalidated = mgr.revalidate_room_plan(4, 4, Some(p2)).unwrap();
        assert_eq!(revalidated.shape(), (4, 4));
    }
}
