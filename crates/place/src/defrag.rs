//! Rearrangement planning: make room for incoming functions by moving
//! running ones.
//!
//! "If a new function cannot be allocated immediately due to lack of
//! contiguous free resources, a suitable rearrangement of a subset of the
//! functions currently running may solve the problem." (paper §1, citing
//! Diessel et al.\[5\] for the planning methods). The planner offers the
//! two method families of \[5\]:
//!
//! * **local repacking** ([`make_room`]) — move as few tasks as possible,
//!   preferring single-task moves;
//! * **ordered compaction** ([`compact`]) — slide every task toward the
//!   left edge in column order, consolidating all free space.
//!
//! What the *paper* adds is downstream of this planner: executing the
//! moves with dynamic relocation so the moved tasks never stop.

use crate::arena::{SumTable, TaskArena, TaskId};
use crate::frag::FragMetrics;
use rtm_fpga::geom::{ClbCoord, Rect};
use std::fmt;

/// One planned task move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The task to move.
    pub id: TaskId,
    /// Where it currently is.
    pub from: Rect,
    /// Where it should go.
    pub to: Rect,
}

impl Move {
    /// Manhattan distance of the move in CLBs (relocation cost scales
    /// with it).
    pub fn distance(&self) -> u32 {
        self.from.origin.manhattan(self.to.origin)
    }

    /// CLBs that must be relocated (the task's area).
    pub fn cells_moved(&self) -> u32 {
        self.from.area()
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {}: {} -> {}", self.id, self.from, self.to)
    }
}

/// Summary cost of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCost {
    /// Number of task moves.
    pub moves: usize,
    /// Total CLBs relocated.
    pub cells: u32,
    /// Total Manhattan distance.
    pub distance: u32,
}

/// Cost of a move list.
pub fn plan_cost(moves: &[Move]) -> PlanCost {
    PlanCost {
        moves: moves.len(),
        cells: moves.iter().map(Move::cells_moved).sum(),
        distance: moves.iter().map(Move::distance).sum(),
    }
}

/// Plans an ordered compaction without touching the caller's arena.
///
/// This is the planning half of [`compact`]: it returns the move list
/// that compaction *would* execute, computed on a scratch copy. Callers
/// that own real hardware state (the run-time manager) replay the plan
/// themselves, executing each [`Move`] with dynamic relocation, instead
/// of letting this crate mutate bookkeeping it does not own.
///
/// # Examples
///
/// ```
/// use rtm_place::{TaskArena, defrag::plan_compaction};
/// use rtm_fpga::geom::{ClbCoord, Rect};
///
/// let mut arena = TaskArena::new(Rect::new(ClbCoord::new(0, 0), 8, 8));
/// arena.allocate_at(1, Rect::new(ClbCoord::new(0, 5), 4, 2)).unwrap();
/// let plan = plan_compaction(&arena);
/// assert_eq!(plan.len(), 1);
/// // The caller's arena is untouched until it replays the plan.
/// assert_eq!(arena.task_rect(1), Some(Rect::new(ClbCoord::new(0, 5), 4, 2)));
/// ```
pub fn plan_compaction(arena: &TaskArena) -> Vec<Move> {
    let mut scratch = arena.clone();
    compact(&mut scratch)
}

/// Predicts the fragmentation metrics `arena` would show after executing
/// `moves` — computed on a scratch copy, the caller's arena is untouched.
///
/// This is how a run-time manager decides whether a planned cycle is
/// worth its relocation traffic *before* moving anything: ordered
/// compaction always packs tasks leftward, but on some layouts that
/// shuffling never grows the largest free rectangle, so the predicted
/// index equals the current one and the cycle should be skipped.
///
/// # Panics
///
/// Panics if `moves` is not executable on `arena` (the plan must come
/// from this arena's planner, e.g. [`plan_compaction`] or [`make_room`]).
///
/// # Examples
///
/// ```
/// use rtm_place::{TaskArena, defrag::{plan_compaction, predict_metrics}};
/// use rtm_fpga::geom::{ClbCoord, Rect};
///
/// let mut arena = TaskArena::new(Rect::new(ClbCoord::new(0, 0), 8, 8));
/// arena.allocate_at(1, Rect::new(ClbCoord::new(0, 5), 4, 2)).unwrap();
/// let plan = plan_compaction(&arena);
/// let predicted = predict_metrics(&arena, &plan);
/// assert!(predicted.fragmentation() <= arena.fragmentation().fragmentation());
/// ```
pub fn predict_metrics(arena: &TaskArena, moves: &[Move]) -> FragMetrics {
    let mut scratch = arena.clone();
    for mv in moves {
        scratch
            .relocate(mv.id, mv.to)
            .expect("predicted plan must be executable on its own arena");
    }
    scratch.fragmentation()
}

/// Ordered compaction: slides every task as far left (then up) as it can
/// go, in left-to-right task order. Returns the executed move list; the
/// arena is updated.
pub fn compact(arena: &mut TaskArena) -> Vec<Move> {
    let mut order: Vec<(TaskId, Rect)> = arena.tasks().iter().map(|(id, r)| (*id, *r)).collect();
    order.sort_by_key(|(_, r)| (r.origin.col, r.origin.row));
    let mut moves = Vec::new();
    for (id, from) in order {
        let Some(to) = leftmost_position(arena, id, from) else {
            continue;
        };
        if to != from {
            arena
                .relocate(id, to)
                .expect("planned move must be feasible");
            moves.push(Move { id, from, to });
        }
    }
    moves
}

/// The leftmost-topmost feasible position for `id` (ignoring its own
/// current cells), reachable as a direct move.
fn leftmost_position(arena: &TaskArena, id: TaskId, from: Rect) -> Option<Rect> {
    let bounds = arena.arena().bounds();
    let mut best: Option<ClbCoord> = None;
    for c in bounds.origin.col..=(bounds.col_end().checked_sub(from.cols)?) {
        for r in bounds.origin.row..=(bounds.row_end().checked_sub(from.rows)?) {
            let cand = Rect::new(ClbCoord::new(r, c), from.rows, from.cols);
            if free_ignoring(arena, &cand, id) {
                best = Some(cand.origin);
                break;
            }
        }
        if best.is_some() {
            break;
        }
    }
    best.map(|o| Rect::new(o, from.rows, from.cols))
}

/// True if `rect` is free treating task `id`'s own cells as free.
fn free_ignoring(arena: &TaskArena, rect: &Rect, id: TaskId) -> bool {
    if !arena.arena().bounds().contains_rect(rect) {
        return false;
    }
    let own = arena.task_rect(id);
    rect.iter()
        .all(|c| !arena.arena().occupied(c) || own.map(|r| r.contains(c)).unwrap_or(false))
}

/// Plans the cheapest rearrangement (within this planner's repertoire)
/// that frees a contiguous `rows`×`cols` region:
///
/// 1. no moves if the request already fits;
/// 2. otherwise a single-task move that opens a fitting hole (local
///    repacking): tasks are tried smallest area first, the lower
///    [`TaskId`] first among equals, and the first task that has such a
///    move takes its shortest one, the first in row-major order among
///    equals;
/// 3. otherwise full ordered compaction, if that suffices.
///
/// No move is applied to test it. One summed-area table of the arena's
/// occupancy answers "how many occupied cells in this rectangle" in
/// O(1). Nothing fits before a move, and a move frees only the task's
/// own rectangle, so the regions it can open are those whose occupied
/// cells all lie in that rectangle. A destination is taken when it is
/// free apart from the task's own cells and misses one of those
/// regions. The caller's arena is not modified.
///
/// Returns the move list (empty = fits as-is), or `None` when none of
/// the three seats the request: it has a zero side or exceeds the arena,
/// the arena has fewer free cells than `rows × cols` (no move changes
/// that count), or the free cells suffice but neither one move nor
/// compaction gathers them into one region.
pub fn make_room(arena: &TaskArena, rows: u16, cols: u16) -> Option<Vec<Move>> {
    let bounds = arena.arena().bounds();
    if rows == 0 || cols == 0 || rows > bounds.rows || cols > bounds.cols {
        return None;
    }
    let occupied = arena.arena().occupancy();
    // The origin of every `rows`×`cols` region of the arena.
    let origins = Rect::new(
        bounds.origin,
        bounds.rows - rows + 1,
        bounds.cols - cols + 1,
    );
    let region = |origin: ClbCoord| Rect::new(origin, rows, cols);
    if origins.iter().any(|q| occupied.count(&region(q)) == 0) {
        return Some(Vec::new());
    }
    if bounds.area() - occupied.count(&bounds) < u32::from(rows) * u32::from(cols) {
        return None;
    }

    // Local repacking: try every single-task move, cheapest first.
    let mut candidates: Vec<(TaskId, Rect)> =
        arena.tasks().iter().map(|(id, r)| (*id, *r)).collect();
    candidates.sort_by_key(|(_, r)| r.area());
    for (id, from) in candidates {
        // Cells of `rect` that the moving task holds.
        let own = |rect: &Rect| rect.intersection(&from).map_or(0, |o| o.area());
        let Some(near) = origins.intersection(&meeting(&from, rows, cols)) else {
            continue;
        };
        let openable = SumTable::new(
            near,
            near.iter().map(|q| {
                let r = region(q);
                occupied.count(&r) == own(&r)
            }),
        );
        let open = openable.count(&near);
        if open == 0 {
            continue;
        }
        let mut best: Option<Move> = None;
        let destinations = Rect::new(
            bounds.origin,
            bounds.rows - from.rows + 1,
            bounds.cols - from.cols + 1,
        );
        for origin in destinations.iter() {
            let to = Rect::new(origin, from.rows, from.cols);
            // Every openable region meets `from`, so `to == from` fails
            // the second test.
            let free = occupied.count(&to) == own(&to);
            if !free || openable.count(&meeting(&to, rows, cols)) == open {
                continue;
            }
            let mv = Move { id, from, to };
            if best.is_none_or(|b| mv.distance() < b.distance()) {
                best = Some(mv);
            }
        }
        if let Some(mv) = best {
            return Some(vec![mv]);
        }
    }

    // Full compaction on a scratch copy.
    let mut scratch = arena.clone();
    let moves = compact(&mut scratch);
    if scratch.arena().candidate_origins(rows, cols).is_empty() {
        None
    } else {
        Some(moves)
    }
}

/// The origins of the `rows`×`cols` regions that share a cell with the
/// non-empty `rect`, as a rectangle of origins (it may reach past the
/// arena; callers clip it).
fn meeting(rect: &Rect, rows: u16, cols: u16) -> Rect {
    let top = rect.origin.row.saturating_sub(rows - 1);
    let left = rect.origin.col.saturating_sub(cols - 1);
    Rect::new(
        ClbCoord::new(top, left),
        rect.row_end() - top,
        rect.col_end() - left,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arena_8x8() -> TaskArena {
        TaskArena::new(Rect::new(ClbCoord::new(0, 0), 8, 8))
    }

    /// The reference planner: `make_room` before the occupancy table.
    /// For every destination a task could take it clones the arena,
    /// relocates the task there and rescans every request origin.
    fn make_room_reference(arena: &TaskArena, rows: u16, cols: u16) -> Option<Vec<Move>> {
        let fits = |a: &TaskArena| !a.arena().candidate_origins(rows, cols).is_empty();
        if fits(arena) {
            return Some(Vec::new());
        }

        let mut candidates: Vec<(TaskId, Rect)> =
            arena.tasks().iter().map(|(id, r)| (*id, *r)).collect();
        candidates.sort_by_key(|(_, r)| r.area());
        let bounds = arena.arena().bounds();
        for (id, from) in &candidates {
            let mut best: Option<Move> = None;
            for r in bounds.origin.row..=(bounds.row_end().saturating_sub(from.rows)) {
                for c in bounds.origin.col..=(bounds.col_end().saturating_sub(from.cols)) {
                    let to = Rect::new(ClbCoord::new(r, c), from.rows, from.cols);
                    if to == *from || !free_ignoring(arena, &to, *id) {
                        continue;
                    }
                    let mut scratch = arena.clone();
                    scratch.relocate(*id, to).expect("checked feasible");
                    if fits(&scratch) {
                        let mv = Move {
                            id: *id,
                            from: *from,
                            to,
                        };
                        let better = match &best {
                            None => true,
                            Some(b) => mv.distance() < b.distance(),
                        };
                        if better {
                            best = Some(mv);
                        }
                    }
                }
            }
            if let Some(mv) = best {
                return Some(vec![mv]);
            }
        }

        let mut scratch = arena.clone();
        let moves = compact(&mut scratch);
        if fits(&scratch) {
            Some(moves)
        } else {
            None
        }
    }

    /// Both planners' answer, required to agree.
    fn planned(a: &TaskArena, rows: u16, cols: u16) -> Option<Vec<Move>> {
        let plan = make_room(a, rows, cols);
        assert_eq!(
            plan,
            make_room_reference(a, rows, cols),
            "{rows}x{cols} on {a:?}"
        );
        plan
    }

    #[test]
    fn compact_slides_tasks_left() {
        let mut a = arena_8x8();
        a.allocate_at(1, Rect::new(ClbCoord::new(0, 5), 4, 2))
            .unwrap();
        a.allocate_at(2, Rect::new(ClbCoord::new(4, 3), 4, 2))
            .unwrap();
        let moves = compact(&mut a);
        assert_eq!(moves.len(), 2);
        assert_eq!(a.task_rect(2), Some(Rect::new(ClbCoord::new(0, 0), 4, 2)));
        assert_eq!(a.task_rect(1), Some(Rect::new(ClbCoord::new(4, 0), 4, 2)));
        // After compaction the free space is one rectangle.
        assert_eq!(a.fragmentation().fragmentation(), 0.0);
    }

    #[test]
    fn plan_compaction_matches_compact_without_mutating() {
        let mut a = arena_8x8();
        a.allocate_at(1, Rect::new(ClbCoord::new(0, 5), 4, 2))
            .unwrap();
        a.allocate_at(2, Rect::new(ClbCoord::new(4, 3), 4, 2))
            .unwrap();
        let before = a.clone();
        let plan = plan_compaction(&a);
        assert_eq!(a, before, "planning must not mutate the arena");
        let mut replay = a.clone();
        for mv in &plan {
            replay.relocate(mv.id, mv.to).unwrap();
        }
        let executed = compact(&mut a);
        assert_eq!(plan, executed);
        assert_eq!(replay, a);
    }

    #[test]
    fn predict_metrics_flags_useless_compaction() {
        // Free space is already one rectangle (cols 2-3), yet ordered
        // compaction still plans to slide task 2 leftward: the plan is
        // non-empty but cannot improve the fragmentation index.
        let mut a = arena_8x8();
        a.allocate_at(1, Rect::new(ClbCoord::new(0, 0), 8, 2))
            .unwrap();
        a.allocate_at(2, Rect::new(ClbCoord::new(0, 4), 8, 4))
            .unwrap();
        let before = a.fragmentation();
        assert_eq!(before.fragmentation(), 0.0, "one free rectangle");
        let plan = plan_compaction(&a);
        assert!(!plan.is_empty(), "left-pack still wants to move task 2");
        let predicted = predict_metrics(&a, &plan);
        assert_eq!(
            predicted.fragmentation(),
            before.fragmentation(),
            "the cycle would move {} CLBs for nothing",
            plan_cost(&plan).cells
        );
    }

    #[test]
    fn compact_is_idempotent() {
        let mut a = arena_8x8();
        a.allocate_at(1, Rect::new(ClbCoord::new(2, 4), 2, 2))
            .unwrap();
        compact(&mut a);
        let second = compact(&mut a);
        assert!(second.is_empty(), "second compaction must be a no-op");
    }

    #[test]
    fn make_room_returns_empty_when_fits() {
        let mut a = arena_8x8();
        a.allocate_at(1, Rect::new(ClbCoord::new(0, 0), 2, 2))
            .unwrap();
        assert_eq!(planned(&a, 4, 4), Some(Vec::new()));
    }

    #[test]
    fn make_room_prefers_single_move() {
        let mut a = arena_8x8();
        // A 2x2 task stranded in the middle blocks a 8x4 request.
        a.allocate_at(1, Rect::new(ClbCoord::new(3, 3), 2, 2))
            .unwrap();
        let moves = planned(&a, 8, 4).unwrap();
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].id, 1);
        // Applying the move must open the region.
        let mut scratch = a.clone();
        scratch.relocate(1, moves[0].to).unwrap();
        assert!(!scratch.arena().candidate_origins(8, 4).is_empty());
    }

    #[test]
    fn make_room_falls_back_to_compaction() {
        let mut a = arena_8x8();
        // Three 8x1 walls spread out: a 8x4 region needs >=2 moves.
        a.allocate_at(1, Rect::new(ClbCoord::new(0, 2), 8, 1))
            .unwrap();
        a.allocate_at(2, Rect::new(ClbCoord::new(0, 4), 8, 1))
            .unwrap();
        a.allocate_at(3, Rect::new(ClbCoord::new(0, 6), 8, 1))
            .unwrap();
        let moves = planned(&a, 8, 5).unwrap();
        assert!(moves.len() >= 2, "single move cannot open 5 columns");
        // Replay on a scratch copy.
        let mut scratch = a.clone();
        for mv in &moves {
            scratch.relocate(mv.id, mv.to).unwrap();
        }
        assert!(!scratch.arena().candidate_origins(8, 5).is_empty());
    }

    #[test]
    fn make_room_impossible_when_area_insufficient() {
        let mut a = arena_8x8();
        a.allocate_at(1, Rect::new(ClbCoord::new(0, 0), 8, 5))
            .unwrap();
        assert_eq!(planned(&a, 8, 4), None);
        assert_eq!(planned(&a, 0, 4), None, "a zero side never fits");
        assert_eq!(planned(&a, 1, 9), None, "wider than the arena");
    }

    #[test]
    fn make_room_impossible_with_enough_free_area() {
        // Every 2x2 region of a 3x3 arena holds its centre cell, and so
        // does a 2x2 task wherever it stands: five free cells, no plan.
        let mut a = TaskArena::new(Rect::new(ClbCoord::new(0, 0), 3, 3));
        a.allocate_at(1, Rect::new(ClbCoord::new(0, 0), 2, 2))
            .unwrap();
        assert_eq!(a.arena().free_cells(), 5);
        assert_eq!(planned(&a, 2, 2), None);
    }

    #[test]
    fn make_room_breaks_distance_ties_in_row_major_order() {
        // Two 1x1 tasks block every full-height 3x2 region. Task 1 opens
        // columns 0-1 from (0,2), (1,3) or (2,2), all at distance 2.
        let mut a = TaskArena::new(Rect::new(ClbCoord::new(0, 0), 3, 4));
        a.allocate_at(1, Rect::new(ClbCoord::new(1, 1), 1, 1))
            .unwrap();
        a.allocate_at(2, Rect::new(ClbCoord::new(1, 2), 1, 1))
            .unwrap();
        let mv = Move {
            id: 1,
            from: Rect::new(ClbCoord::new(1, 1), 1, 1),
            to: Rect::new(ClbCoord::new(0, 2), 1, 1),
        };
        assert_eq!(planned(&a, 3, 2), Some(vec![mv]));
    }

    #[test]
    fn make_room_tries_equal_areas_by_task_id() {
        // The layout above with the ids swapped: task 1 now stands at
        // (1,2) and moves first, though task 2 stands earlier.
        let mut a = TaskArena::new(Rect::new(ClbCoord::new(0, 0), 3, 4));
        a.allocate_at(2, Rect::new(ClbCoord::new(1, 1), 1, 1))
            .unwrap();
        a.allocate_at(1, Rect::new(ClbCoord::new(1, 2), 1, 1))
            .unwrap();
        let mv = Move {
            id: 1,
            from: Rect::new(ClbCoord::new(1, 2), 1, 1),
            to: Rect::new(ClbCoord::new(0, 1), 1, 1),
        };
        assert_eq!(planned(&a, 3, 2), Some(vec![mv]));
    }

    #[test]
    fn plan_cost_sums() {
        let moves = [
            Move {
                id: 1,
                from: Rect::new(ClbCoord::new(0, 4), 2, 2),
                to: Rect::new(ClbCoord::new(0, 0), 2, 2),
            },
            Move {
                id: 2,
                from: Rect::new(ClbCoord::new(4, 4), 1, 1),
                to: Rect::new(ClbCoord::new(4, 3), 1, 1),
            },
        ];
        let cost = plan_cost(&moves);
        assert_eq!(cost.moves, 2);
        assert_eq!(cost.cells, 5);
        assert_eq!(cost.distance, 5);
        assert!(moves[0].to_string().contains("task 1"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn compaction_preserves_tasks_and_never_overlaps(
            specs in proptest::collection::vec((1u16..4, 1u16..4), 0..10))
        {
            let mut a = arena_8x8();
            let mut placed = 0u64;
            for (i, (h, w)) in specs.iter().enumerate() {
                if a.allocate(i as u64, *h, *w, crate::alloc::Strategy::WorstFit).is_ok() {
                    placed += 1;
                }
            }
            let before: Vec<(TaskId, u32)> =
                a.tasks().iter().map(|(id, r)| (*id, r.area())).collect();
            compact(&mut a);
            let after: Vec<(TaskId, u32)> =
                a.tasks().iter().map(|(id, r)| (*id, r.area())).collect();
            prop_assert_eq!(before, after, "tasks and sizes preserved");
            prop_assert_eq!(a.tasks().len() as u64, placed);
            // No overlaps: total occupied equals sum of areas.
            let total: u32 = a.tasks().values().map(Rect::area).sum();
            prop_assert_eq!(64 - a.arena().free_cells(), total);
            // Compaction never increases fragmentation beyond pre-state.
        }

        #[test]
        fn make_room_plans_are_executable(
            specs in proptest::collection::vec((1u16..4, 1u16..4), 1..8),
            req_h in 2u16..6, req_w in 2u16..6)
        {
            let mut a = arena_8x8();
            for (i, (h, w)) in specs.iter().enumerate() {
                let _ = a.allocate(i as u64, *h, *w, crate::alloc::Strategy::WorstFit);
            }
            if let Some(moves) = planned(&a, req_h, req_w) {
                let mut scratch = a.clone();
                for mv in &moves {
                    scratch.relocate(mv.id, mv.to).unwrap();
                }
                prop_assert!(!scratch.arena().candidate_origins(req_h, req_w).is_empty());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 32 } else { 2000 }))]
        /// The occupancy-table planner returns the reference's plan on
        /// arenas up to XCV100 size (20x30) with a non-zero origin and up
        /// to 14 tasks, for requests from a zero side to past the arena.
        #[test]
        fn make_room_matches_reference(
            origin in (0u16..4, 0u16..4),
            dims in (1u16..=20, 1u16..=30),
            specs in proptest::collection::vec((0u16..30, 0u16..30, 1u16..9, 1u16..9), 0..15),
            lattice in any::<bool>(),
            req in (0u16..64, 0u16..64),
        ) {
            let (rows, cols) = dims;
            let mut a = TaskArena::new(Rect::new(ClbCoord::new(origin.0, origin.1), rows, cols));
            for (i, (r, c, h, w)) in specs.into_iter().enumerate() {
                // 2x2 tasks on a pitch of 3: equal areas and
                // equal-distance destinations everywhere.
                let (r, c, h, w) = if lattice {
                    (r % rows / 3 * 3, c % cols / 3 * 3, 2, 2)
                } else {
                    (r % rows, c % cols, h, w)
                };
                let at = ClbCoord::new(origin.0 + r, origin.1 + c);
                let _ = a.allocate_at(i as TaskId, Rect::new(at, h.min(rows - r), w.min(cols - c)));
            }
            let (h, w) = (req.0 % (rows + 2), req.1 % (cols + 2));
            prop_assert_eq!(make_room(&a, h, w), make_room_reference(&a, h, w));
        }
    }
}
